"""Command-line behavior: exit codes, file outputs, JSON contract."""

import argparse
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bealsearch.cli as cli_mod
from bealsearch import svgplot
from bealsearch.cli import main
from bealsearch.records import read_csv

# the hit-file header as documented in the README
HEADER = ("A,X,B,Y,C,Z,A_pow_X,B_pow_Y,C_pow_Z,gcd_abc,"
          "alpha_class,beta_class,m_cb,m_ca,m_ba")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_search_matches_oracle(tmp_path, capsys):
    fast = tmp_path / "hits.csv"
    slow = tmp_path / "oracle.csv"
    code, _, _ = run(capsys, "search", "--bound", "10000", "--min-x", "3",
                     "--min-y", "3", "--min-z", "3", "--out", str(fast))
    assert code == 0
    code, _, _ = run(capsys, "oracle", "--bound", "10000", "--out", str(slow))
    assert code == 0
    assert fast.read_bytes() == slow.read_bytes()
    assert len(read_csv(str(fast))) == 13


def test_search_small_bound_writes_header_only(tmp_path, capsys):
    out = tmp_path / "h.csv"
    code, _, _ = run(capsys, "search", "--bound", "10", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines == [HEADER]


def test_search_rejects_negative_bound(tmp_path, capsys):
    code, _, err = run(capsys, "search", "--bound", "-5", "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "bound" in err


def test_search_accepts_caret_bound(tmp_path, capsys):
    out = tmp_path / "h.csv"
    code, stdout, _ = run(capsys, "search", "--bound", "10^4", "--out", str(out))
    assert code == 0
    assert "hits=13" in stdout


def test_int_flag_spellings():
    assert cli_mod._int_flag("10^12") == cli_mod._int_flag("1e12") == 10 ** 12
    assert cli_mod._int_flag("1_000_000") == 10 ** 6


def test_search_rejects_huge_bound_spellings_before_building(tmp_path, capsys):
    for bound in ("10^999999999", "1e999999999", "2e999999999", "10^-3"):
        code, _, err = run(capsys, "search", "--bound", bound, "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "--bound" in err
        assert f"{bound}: need" in err
        assert "need exponent >= 0 and exponent * bits(base) <= 4096" in err
    assert not (tmp_path / "x.csv").exists()


def test_search_json_report(tmp_path, capsys):
    out = tmp_path / "h.csv"
    report = tmp_path / "r.json"
    workers = min(2, os.cpu_count() or 1)
    code, _, _ = run(capsys, "search", "--bound", "3000", "--out", str(out),
                     "--report", str(report), "--workers", str(workers), "--seed", "5")
    assert code == 0
    obj = json.loads(report.read_text())
    assert sorted(obj["config"]) == sorted(["bound", "min_x", "min_y", "min_z",
                                            "workers", "seed"])
    assert obj["config"]["workers"] == workers
    assert obj["config"]["seed"] == 5
    assert obj["counts"]["hits"] == len(obj["hits"]) == 10


def test_oracle_rejects_huge_bound(tmp_path, capsys):
    code, _, err = run(capsys, "oracle", "--bound", "10^8", "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "exceeds" in err


def test_verify_identities_exit_codes(capsys):
    code, out, _ = run(capsys, "verify-identities", "--cases", "200", "--seed", "7")
    assert code == 0 and "200 instances held" in out
    code, _, _ = run(capsys, "verify-identities", "--cases", "1")
    assert code == 0
    code, _, err = run(capsys, "verify-identities", "--cases", "0")
    assert code == 2


def test_classify_solution_triple(capsys):
    code, out, _ = run(capsys, "classify", "--triple", "3,3,6,3,3,5")
    assert code == 0
    obj = json.loads(out)
    assert obj["equation_holds"] is True
    assert obj["gcd_abc"] == "3"
    assert obj["alpha"]["class"] == "rational" and obj["alpha"]["value"] == "2"
    assert obj["beta"]["class"] == "irrational"
    assert obj["slopes"]["m_cb"]["value"] == "1/2"
    assert obj["slopes"]["m_ca"]["value"] == "1"
    assert obj["slopes"]["m_ba"]["value"] == "2"
    assert obj["scalar_m"]["estimate"].startswith("0.5378708836")


def test_classify_non_solution(capsys):
    code, out, _ = run(capsys, "classify", "--triple", "2,3,2,3,2,5")
    assert code == 0
    obj = json.loads(out)
    assert obj["equation_holds"] is False
    assert obj["coprimality"] is None


def test_classify_rational_pair(capsys):
    code, out, _ = run(capsys, "classify", "--triple", "2,9,2,9,2,10")
    assert code == 0
    obj = json.loads(out)
    assert obj["alpha"]["value"] == "1"
    assert obj["beta"]["value"] == "1/2"
    assert obj["scalar_m"]["exact"] == "1"


def test_classify_is_valid_json_for_odd_inputs(capsys):
    for triple in ("1,1,1,1,1,1", "2,3,3,3,4,3", "5,4,5,4,5,4"):
        code, out, _ = run(capsys, "classify", "--triple", triple)
        assert code == 0
        json.loads(out)


def test_classify_malformed_triple(capsys):
    code, _, err = run(capsys, "classify", "--triple", "3,3,6")
    assert code == 2
    code, _, err = run(capsys, "classify", "--triple", "a,b,c,d,e,f")
    assert code == 2
    code, _, err = run(capsys, "classify", "--triple", "0,3,6,3,3,5")
    assert code == 2


def test_emit_plot_round_trip(tmp_path, capsys):
    hits = tmp_path / "hits.csv"
    fig = tmp_path / "fig.svg"
    run(capsys, "search", "--bound", "10000", "--out", str(hits))
    code, out, _ = run(capsys, "emit-plot", "--in", str(hits), "--out", str(fig), "--log")
    assert code == 0
    svg = fig.read_text()
    assert svg.count("<circle") == 13


def test_emit_plot_empty_csv(tmp_path, capsys):
    hits = tmp_path / "hits.csv"
    fig = tmp_path / "fig.svg"
    run(capsys, "search", "--bound", "10", "--out", str(hits))
    code, _, _ = run(capsys, "emit-plot", "--in", str(hits), "--out", str(fig))
    assert code == 0
    assert fig.read_text().count("<circle") == 0


def test_emit_plot_schema_mismatch(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("A,X,B\n1,2,3\n")
    code, _, err = run(capsys, "emit-plot", "--in", str(bad), "--out", str(tmp_path / "f.svg"))
    assert code == 2
    code, _, _ = run(capsys, "emit-plot", "--in", str(tmp_path / "missing.csv"),
                     "--out", str(tmp_path / "f.svg"))
    assert code == 2


def test_bad_flags_exit_two(capsys):
    assert main(["search"]) == 2          # missing required flags
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_search_refuses_more_workers_than_cpus(tmp_path, capsys):
    out = tmp_path / "hits.csv"
    code, _, err = run(capsys, "search", "--bound", "10^4", "--out", str(out),
                       "--workers", str((os.cpu_count() or 1) + 1))
    assert code == 2
    assert "--workers" in err and "CPUs" in err
    assert not out.exists()


def test_search_refuses_a_power_table_that_cannot_fit(tmp_path, capsys, monkeypatch):
    import bealsearch.search as search_mod

    def no_table(bound, min_exp=3):
        raise AssertionError("the search built its power table before checking its bound")

    monkeypatch.setattr(search_mod, "enumerate_powers", no_table)
    out = tmp_path / "hits.csv"
    code, _, err = run(capsys, "search", "--bound", "10^21", "--out", str(out))
    assert code == 2
    assert "powers a search builds" in err
    assert not out.exists()


def test_commands_refuse_flags_they_do_not_read(tmp_path, capsys):
    hits = tmp_path / "hits.csv"
    hits.write_text(HEADER + "\n")
    commands = {
        "oracle": ["oracle", "--bound", "10^4", "--out", str(tmp_path / "o.csv")],
        "classify": ["classify", "--triple", "3,3,6,3,3,5"],
        "emit-plot": ["emit-plot", "--in", str(hits), "--out", str(tmp_path / "f.svg")],
        "verify-identities": ["verify-identities", "--cases", "1"],
        "search": ["search", "--bound", "10^4", "--out", str(tmp_path / "s.csv")],
    }
    workers, precision, seed = ["--workers", "2"], ["--precision-bits", "64"], ["--seed", "1"]
    unread = {
        "oracle": [workers, precision, seed],
        "classify": [workers, precision, seed],
        "emit-plot": [workers, precision, seed],
        "verify-identities": [workers, precision],
        "search": [precision],
    }
    for command, flags in unread.items():
        for flag in flags:
            assert run(capsys, *commands[command], *flag)[0] == 2, (command, flag)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hits.csv"]
    # the same commands without the unread flag succeed
    for command, argv in commands.items():
        assert run(capsys, *argv)[0] == 0, command


@pytest.mark.parametrize("command", ["search", "oracle"])
def test_search_anomaly_exit_three(command, tmp_path, capsys, monkeypatch):
    # force a verification failure to exercise the anomaly signal
    import bealsearch.search as search_mod

    real = search_mod.verify_hit

    def broken(triple, minimums=(3, 3, 3), require_reduced=True):
        record = real(triple, minimums, require_reduced)
        checks = dict(record.checks)
        checks["equation_exact"] = False
        return dataclasses.replace(record, checks=checks)

    monkeypatch.setattr(search_mod, "verify_hit", broken)
    code, _, err = run(capsys, command, "--bound", "20", "--out", str(tmp_path / "h.csv"))
    assert code == 3
    assert "VERIFICATION FAILED" in err


def test_oracle_refuses_bad_minimums_before_scanning(tmp_path, capsys, monkeypatch):
    import bealsearch.search as search_mod

    def no_scan(bound, min_exp):
        raise AssertionError("the oracle built its power table before checking its input")

    monkeypatch.setattr(search_mod, "_oracle_powers", no_scan)
    with pytest.raises(ValueError, match="exponent minimums"):
        search_mod.brute_force_oracle(10 ** 4, (1, 3, 3))
    with pytest.raises(ValueError, match="bound must be >= 1"):
        search_mod.brute_force_oracle(0)
    code, _, err = run(capsys, "oracle", "--bound", "10^4", "--min-x", "1",
                       "--out", str(tmp_path / "o.csv"))
    assert code == 2
    assert "exponent minimums must be >= 3" in err
    assert not (tmp_path / "o.csv").exists()


def test_readme_flag_table_matches_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    documented = {
        match[1]: set(re.findall(r"`(--[\w-]+)`", match[2]))
        for match in re.finditer(r"^\| `([\w-]+)` \| (.*) \|$", section, re.MULTILINE)
    }
    subparsers = next(action for action in cli_mod.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    declared = {
        name: {flag for action in parser._actions for flag in action.option_strings}
        - {"-h", "--help"}
        for name, parser in subparsers.choices.items()
    }
    assert documented == declared


def test_identity_failure_exit_four(capsys, monkeypatch):
    import bealsearch.cli as cli_mod

    monkeypatch.setattr(cli_mod.identity, "run_random_suite",
                        lambda cases, seed: ["forced failure"])
    code, out, err = run(capsys, "verify-identities", "--cases", "5")
    assert code == 4
    assert "forced failure" in err


def test_emit_plot_escapes_markup_in_title(tmp_path, capsys):
    hits = tmp_path / "hits.csv"
    run(capsys, "search", "--bound", "3000", "--out", str(hits))
    fig = tmp_path / "fig.svg"
    svgplot.write_scatter(read_csv(str(hits)), str(fig), axes="abc", log_scale=True,
                          title="A&B <x> 'q' \"d\"")
    svg = fig.read_bytes()
    assert b'font-size="15">A&amp;B &lt;x&gt; \'q\' "d"</text>' in svg
    # the bytes the earlier xml.sax.saxutils escaping wrote for the same plot
    assert (hashlib.sha256(svg).hexdigest()
            == "cbf5a527135917246b60937ed78c7caccfeb77355a2752efc08ca0fb297b5a0f")


def test_cli_import_skips_network_modules():
    code = ("import sys, bealsearch.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath' "
            "or m in ('urllib.request', 'http.client', 'ssl', 'email')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


def _without_wall(text):
    return re.sub(r"wall=\S+", "wall=", text)


def test_reused_parser_matches_fresh_calls(tmp_path, capsys, monkeypatch):
    built = []
    real_build = cli_mod.build_parser
    monkeypatch.setattr(cli_mod, "build_parser", lambda: built.append(1) or real_build())
    monkeypatch.setattr(cli_mod, "_parser", None)
    first, second, fresh = (tmp_path / name for name in ("first", "second", "fresh"))
    for directory in (first, second, fresh):
        directory.mkdir()
    code, out_first, _ = run(capsys, "search", "--bound", "3000", "--min-x", "4",
                             "--workers", str(min(2, os.cpu_count() or 1)),
                             "--out", str(first / "h.csv"),
                             "--report", str(first / "r.json"))
    assert code == 0 and (first / "r.json").exists()
    (first / "r.json").unlink()
    code, out_second, _ = run(capsys, "search", "--bound", "3000",
                              "--out", str(second / "h.csv"))
    assert code == 0
    assert built == [1]

    # a fresh parser for the same second call: no option leaked from the first
    monkeypatch.setattr(cli_mod, "_parser", None)
    code, out_fresh, _ = run(capsys, "search", "--bound", "3000",
                             "--out", str(fresh / "h.csv"))
    assert code == 0
    assert _without_wall(out_second) == _without_wall(out_fresh).replace(str(fresh),
                                                                         str(second))
    assert "hits=10 pairs_tested=276" in out_second
    assert (second / "h.csv").read_bytes() == (fresh / "h.csv").read_bytes()
    assert sorted(p.name for p in second.iterdir()) == ["h.csv"]
    assert not (first / "r.json").exists()


def test_classify_repeats_the_same_bundle(capsys, monkeypatch):
    outputs = [run(capsys, "classify", "--triple", "3,3,6,3,3,5") for _ in range(2)]
    monkeypatch.setattr(cli_mod, "_parser", None)
    outputs.append(run(capsys, "classify", "--triple", "3,3,6,3,3,5"))
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0][0] == 0
