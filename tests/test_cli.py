"""Command-line behavior: exit codes, file outputs, JSON contract."""

import argparse
import functools
import gc
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bealsearch.cli as cli_mod
from bealsearch import coprime, exact_arith, svgplot
from bealsearch.cli import main
from bealsearch.errors import BudgetExceeded, ZeroDenominator
from bealsearch.exact_arith import is_probable_prime
from bealsearch.records import read_csv

# the CPUs this process may run on, as cmd_search counts them
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# the hit-file header as documented in the README
HEADER = ("A,X,B,Y,C,Z,A_pow_X,B_pow_Y,C_pow_Z,gcd_abc,"
          "alpha_class,beta_class,m_cb,m_ca,m_ba")


def run(capsys, *argv):
    enabled = gc.isenabled()
    code = main(list(argv))
    assert gc.isenabled() == enabled  # main leaves the collector as it found it
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _garbage_left(capsys, *argv):
    """The exit code of main(argv), run with the cyclic collector paused, and
    how many unreachable objects the collector then finds."""
    # A command's first call in a process builds its parser, which leaves
    # argparse's help formatters in cycles: built here, whatever ran before,
    # and collected with what the test left.
    cli_mod._command_parser(argv[0])
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        code, _, _ = run(capsys, *argv)
        return code, gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("argv, code", [
    (["search", "--bound", "10^12"], 0),
    (["search", "--bound", "10^13", "--workers", "2"], 0),
    (["oracle", "--bound", "10^6"], 0),
    (["verify-identities", "--cases", "500"], 0),
    (["emit-plot", "--in", "{hits}"], 0),
    (["search", "--bound", "-5"], 2),
    (["search", "--bound", "10^4", "--workers", "3"], 2),
    (["oracle", "--bound", "10^8"], 2),
    (["verify-identities", "--cases", "0"], 2),
    (["classify", "--triple", "1,2,3"], 2),
    (["emit-plot", "--in", "{missing}"], 2),
], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
def test_commands_make_no_reference_cycles(argv, code, tmp_path, capsys, monkeypatch):
    # main pauses the cyclic collector, which is safe only while no command
    # makes a reference cycle: here a cycle would be left for gc.collect().
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    hits = tmp_path / "hits.csv"
    run(capsys, "search", "--bound", "10^4", "--out", str(hits))
    names = {"hits": str(hits), "missing": str(tmp_path / "missing.csv")}
    argv = [value.format(**names) for value in argv]
    if argv[0] in ("search", "oracle"):
        argv += ["--out", str(tmp_path / "out.csv"), "--report", str(tmp_path / "out.json")]
    elif argv[0] == "emit-plot":
        argv += ["--out", str(tmp_path / "out.svg")]
    assert _garbage_left(capsys, *argv) == (code, 0)


def test_classify_makes_no_reference_cycles(capsys):
    rng = random.Random(31)
    for triple in ["3,3,6,3,3,5", "2,3,2,3,2,4", "7,3,7,4,98,3"] + [
            ",".join(str(rng.randint(2, 60) if i % 2 == 0 else rng.randint(3, 8))
                     for i in range(6)) for _ in range(7)]:
        assert _garbage_left(capsys, "classify", "--triple", triple) == (0, 0), triple


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(enabled, capsys, monkeypatch):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["verify-identities", "--cases", "1"]) == 0
        assert main(["no-such-command"]) == 2  # argparse's own exit
        assert main(["verify-identities", "--cases", "0"]) == 2
        assert gc.isenabled() == enabled

        def failing(cases, seed):
            assert not gc.isenabled()  # paused while the command runs
            raise RuntimeError("not caught by main")

        monkeypatch.setattr(cli_mod.identity, "run_random_suite", failing)
        with pytest.raises(RuntimeError):
            main(["verify-identities", "--cases", "1"])
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


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
    assert cli_mod._int_flag("1e6") == cli_mod._int_flag("10^6") == 10 ** 6


def test_search_rejects_huge_bound_spellings_before_building(tmp_path, capsys):
    limit = "need exponent >= 0 and exponent * bits(base) <= 4096"
    for bound, message in [("10^999999999", f"10^999999999: {limit}"),
                           ("1e999999999", f"1e999999999: {limit}"),
                           ("2e999999999", f"2e999999999: {limit}"),
                           ("10^-3", f"10^-3: {limit}"),
                           ("e6", "invalid _int_flag value: 'e6'"),
                           ("E12", "invalid _int_flag value: 'E12'"),
                           ("^6", "invalid _int_flag value: '^6'")]:
        code, _, err = run(capsys, "search", "--bound", bound, "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "--bound" in err
        assert message in err
    assert not (tmp_path / "x.csv").exists()


def test_search_json_report(tmp_path, capsys):
    out = tmp_path / "h.csv"
    report = tmp_path / "r.json"
    workers = min(2, CPUS)
    code, _, _ = run(capsys, "search", "--bound", "3000", "--out", str(out),
                     "--report", str(report), "--workers", str(workers), "--seed", "5")
    assert code == 0
    obj = json.loads(report.read_text())
    assert sorted(obj["config"]) == sorted(["bound", "min_x", "min_y", "min_z",
                                            "workers", "seed"])
    assert obj["config"]["workers"] == workers
    assert obj["config"]["seed"] == 5
    assert obj["counts"]["hits"] == len(obj["hits"]) == 10


@pytest.mark.parametrize("command", ["search", "oracle"])
def test_report_times_the_csv_and_tallies_failed_checks(command, tmp_path, capsys,
                                                         monkeypatch):
    out, report = tmp_path / "h.csv", tmp_path / "r.json"
    argv = (command, "--bound", "3000", "--out", str(out), "--report", str(report))
    assert run(capsys, *argv)[0] == 0
    obj = json.loads(report.read_text())
    assert set(obj["phases"]) == {"enumerate_s", "index_s", "scan_s", "annotate_s", "emit_s"}
    assert obj["phases"]["emit_s"] >= 0
    assert obj["verification_failures"] == {}

    import bealsearch.search as search_mod

    real = search_mod.verify_hit

    def broken(triple, minimums=(3, 3, 3), *shared):
        hit = real(triple, minimums, *shared)
        failed = {"common_factor_present": False}
        if triple.C % 2 == 0:
            failed["canonical_order"] = False
        return hit._replace(checks=dict(hit.checks, **failed))

    monkeypatch.setattr(search_mod, "verify_hit", broken)
    assert run(capsys, *argv)[0] == 3
    obj = json.loads(report.read_text())
    even = sum(int(hit["C"]) % 2 == 0 for hit in obj["hits"])
    assert 0 < even < len(obj["hits"]) == 10
    assert obj["verification_failures"] == {"common_factor_present": 10,
                                            "canonical_order": even}


def test_failed_report_write_keeps_the_earlier_report(tmp_path, capsys, monkeypatch):
    out, report = tmp_path / "h.csv", tmp_path / "r.json"
    argv = ("search", "--bound", "3000", "--out", str(out), "--report", str(report))
    assert run(capsys, *argv)[0] == 0
    written = report.read_bytes()
    # the report text cannot be encoded, so its write raises partway through
    monkeypatch.setattr(cli_mod.records, "emit_json", lambda *args, **kwargs: "{\ud800")
    code, _, err = run(capsys, *argv)
    assert code == 2 and "error:" in err
    assert report.read_bytes() == written
    assert sorted(os.listdir(tmp_path)) == ["h.csv", "r.json"]


def test_search_builds_the_hit_records_once(tmp_path, capsys, monkeypatch):
    calls = []
    real = cli_mod.records.records_from_report
    monkeypatch.setattr(cli_mod.records, "records_from_report",
                        lambda report: calls.append(report) or real(report))
    out, report = tmp_path / "h.csv", tmp_path / "r.json"
    code, _, _ = run(capsys, "search", "--bound", "3000", "--out", str(out),
                     "--report", str(report))
    assert code == 0 and len(calls) == 1
    hits = json.loads(report.read_text())["hits"]
    assert len(hits) == 10 and hits == [record._asdict() for record in read_csv(str(out))]


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


def test_classify_admits_the_size_limit(capsys):
    # max exponent 1024 times 2 bits is exactly the 2048 limit
    code, out, _ = run(capsys, "classify", "--triple", "2,1023,2,1023,2,1024")
    assert code == 0
    assert json.loads(out)["equation_holds"] is True


def _next_prime(n):
    while not is_probable_prime(n):
        n += 1
    return n


def test_classify_gives_up_on_a_hard_gcd_within_the_derived_budget(capsys, monkeypatch):
    # Both cases are admitted (size at most 2048) and share a gcd(A, B, C) with
    # two prime factors far too large for Brent's rho: a 2,040-bit semiprime H
    # in H + H = 2H, and the 382-bit s = a**3 + b**3 = (a + b)(a*a - a*b + b*b)
    # in (a*s)**3 + (b*s)**3 = s**4.  Steps are counted, not timed.
    # the budget rule: 2**20 steps up to 256 bits, a quarter as many per doubling
    assert exact_arith._rho_budget(64) == exact_arith._rho_budget(256) == 2 ** 20
    assert all(exact_arith._rho_budget(2 * bits) == exact_arith._rho_budget(bits) // 4
               for bits in (256, 512, 1024))
    rng = random.Random(2040)
    h = math.prod(_next_prime(rng.getrandbits(1020) | 1 << 1019) for _ in range(2))
    a = 133136750128942827129631271540692306822
    b = 156088343148944026153358174994469275207
    s = a ** 3 + b ** 3
    assert is_probable_prime(a + b) and is_probable_prime(a * a - a * b + b * b)
    assert (h.bit_length(), a.bit_length(), b.bit_length(), s.bit_length()) == (2040, 127, 127, 382)
    real = exact_arith._brent_rho
    spent = []

    def counting(n, rng, max_steps):
        factor, steps = real(n, rng, max_steps)
        spent.append(steps)
        return factor, steps

    monkeypatch.setattr(exact_arith, "_brent_rho", counting)
    # gcd is gcd(A, B, C), the number factored
    for triple, gcd in ((f"{h},1,{h},1,{2 * h},1", h), (f"{a * s},3,{b * s},3,{s},4", s)):
        spent.clear()
        code, out, _ = run(capsys, "classify", "--triple", triple)
        assert code == 0
        shared = json.loads(out)["coprimality"]["shared_primes"]
        assert shared == {"ab": None, "ac": None, "bc": None}
        assert sum(spent) <= exact_arith._rho_budget(gcd.bit_length())


def test_classify_refuses_past_the_size_limit(capsys, monkeypatch):
    def no_classify(triple):
        raise AssertionError("classify computed before checking its input")

    monkeypatch.setattr(cli_mod, "classify_text", no_classify)
    for triple, size in (("2,1023,2,1023,2,1025", 2050), ("2,1000000,3,3,5,3", 3000000)):
        code, out, err = run(capsys, "classify", "--triple", triple)
        assert (code, out) == (2, "")
        assert f"<= 2048, got {size}" in err


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


def test_emit_plot_of_a_hit_past_float_range(tmp_path, capsys):
    # 2^1100 + 2^1100 = 2^1101: linear axes scale the exact ints
    hits = tmp_path / "hits.csv"
    fig = tmp_path / "fig.svg"
    code, _, _ = run(capsys, "search", "--bound", "2^1101", "--min-x", "1100",
                     "--min-y", "1100", "--min-z", "1100", "--out", str(hits))
    assert code == 0
    code, _, _ = run(capsys, "emit-plot", "--in", str(hits), "--out", str(fig))
    assert code == 0
    assert fig.read_text().count("<circle") == 1


def test_emit_plot_that_fails_keeps_the_old_file(tmp_path, capsys, monkeypatch):
    hits = tmp_path / "hits.csv"
    fig = tmp_path / "fig.svg"
    run(capsys, "search", "--bound", "10000", "--out", str(hits))
    fig.write_bytes(b"old plot")

    def failing_scatter(*args, **kwargs):
        raise ValueError("no plot")

    monkeypatch.setattr(svgplot, "emit_scatter", failing_scatter)
    code, _, err = run(capsys, "emit-plot", "--in", str(hits), "--out", str(fig))
    assert code == 2 and "no plot" in err
    assert fig.read_bytes() == b"old plot"
    assert sorted(os.listdir(tmp_path)) == ["fig.svg", "hits.csv"]


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
                       "--workers", str(CPUS + 1))
    assert code == 2
    assert "--workers" in err and "CPUs" in err
    assert not out.exists()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_search_refuses_a_second_worker_on_one_cpu_of_affinity(tmp_path):
    # The machine may have more CPUs, but this process may run on one only.
    code = ("import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
            "from bealsearch.cli import main; sys.exit(main(sys.argv[1:]))")
    out = tmp_path / "hits.csv"
    done = subprocess.run([sys.executable, "-c", code, "search", "--bound", "10^4",
                           "--workers", "2", "--out", str(out)], capture_output=True, text=True)
    assert done.returncode == 2
    assert "--workers 2 exceeds the 1 CPUs this process can use" in done.stderr
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

    def broken(triple, minimums=(3, 3, 3), *shared):
        hit = real(triple, minimums, *shared)
        checks = dict(hit.checks)
        checks["equation_exact"] = False
        return hit._replace(checks=checks)

    monkeypatch.setattr(search_mod, "verify_hit", broken)
    code, _, err = run(capsys, command, "--bound", "20", "--out", str(tmp_path / "h.csv"))
    assert code == 3
    assert "VERIFICATION FAILED" in err


@pytest.mark.parametrize("command", ["search", "oracle"])
def test_hit_that_fails_the_equation_exits_three(command, tmp_path, capsys, monkeypatch):
    import bealsearch.search as search_mod
    from bealsearch.triples import BealTriple

    out, report = tmp_path / "h.csv", tmp_path / "r.json"
    argv = (command, "--bound", "10^4", "--out", str(out), "--report", str(report))
    assert run(capsys, *argv)[0] == 0
    clean = out.read_bytes()
    real = search_mod._report

    def with_false_hit(config, triples, *args, **kwargs):
        # 2^3 + 3^3 != 5^3: the slopes are irrational, so the hit has no record
        return real(config, triples + [BealTriple(2, 3, 3, 3, 5, 3)], *args, **kwargs)

    monkeypatch.setattr(search_mod, "_report", with_false_hit)
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert "VERIFICATION FAILED for 2^3 + 3^3 = 5^3" in err and "'equation_exact'" in err
    assert out.read_bytes() == clean
    obj = json.loads(report.read_text())
    assert obj["counts"]["hits"] == len(obj["hits"]) + 1
    assert obj["hits"] == [record._asdict() for record in read_csv(str(out))]
    assert obj["verification_failures"]["equation_exact"] == 1


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


def test_readme_hit_file_columns_match_header():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Hit file format", 1)[1]
    assert section.split("```\n", 1)[1].split("```", 1)[0] == HEADER + "\n"


def test_readme_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "irrational\n"


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
    fig.write_text(svgplot.emit_scatter(read_csv(str(hits)), axes="abc", log_scale=True,
                                        title="A&B <x> 'q' \"d\""))
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


def test_cli_import_skips_plot_modules():
    # svgplot, and html with it, are imported by emit-plot alone
    code = ("import sys, bealsearch.cli; "
            "print(sorted(m for m in sys.modules if m in ('bealsearch.svgplot', 'html')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


def test_cli_import_skips_dataclasses_and_multiprocessing():
    # the record classes are NamedTuples and the scan forks its own workers
    code = ("import sys, bealsearch.cli; "
            "print(sorted(m for m in sys.modules if m in ('dataclasses', 'multiprocessing')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("fail, message", [
    (lambda: 1 // 0, "stripe 1 of 2 exited with code 1"),
    (lambda: os._exit(7), "stripe 1 of 2 exited with code 7"),
], ids=["raises", "exits"])
def test_failed_scan_worker_exits_five(fail, message, tmp_path, capsys, monkeypatch):
    import bealsearch.search as search_mod

    real = search_mod._match_stripe
    parent = os.getpid()

    def failing(lanes, entries):
        if os.getpid() != parent:  # stripe 1, in its forked child
            fail()
        return real(lanes, entries)

    monkeypatch.setattr(search_mod, "_match_stripe", failing)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    out = tmp_path / "h.csv"
    code, stdout, err = run(capsys, "search", "--bound", "10^8", "--workers", "2",
                            "--out", str(out))
    assert code == 5
    assert f"error: scan worker failed: {message}" in err
    assert stdout == "" and not out.exists()
    with pytest.raises(ChildProcessError):  # every forked child was reaped
        os.waitpid(-1, os.WNOHANG)


def test_emit_plot_refuses_an_unknown_axes_value(tmp_path, capsys):
    code, _, err = run(capsys, "emit-plot", "--in", str(tmp_path / "h.csv"),
                       "--out", str(tmp_path / "f.svg"), "--axes", "bogus")
    assert code == 2
    assert "argument --axes: invalid choice: 'bogus' (choose from 'abc', 'axbycz')" in err
    assert sorted(svgplot.AXIS_CHOICES) == ["abc", "axbycz"]
    assert not (tmp_path / "f.svg").exists()


def test_cli_import_builds_no_cached_table():
    # The trial-division blocks and the exponent primes are built on first
    # use, so a command that needs neither pays nothing for them.
    code = ("import bealsearch.cli; from bealsearch import exact_arith as e; "
            "print(e._trial_blocks.cache_info().currsize, "
            "e._exponent_primes.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == ["0", "0"]


def _without_wall(text):
    return re.sub(r"wall=\S+", "wall=", text)


def _counting_parsers(monkeypatch):
    """The names of the command parsers main builds from here on, one per build."""
    built = []
    real = cli_mod._command_parser.__wrapped__
    monkeypatch.setattr(cli_mod, "_command_parser",
                        functools.cache(lambda name: built.append(name) or real(name)))
    return built


def test_reused_parser_matches_fresh_calls(tmp_path, capsys, monkeypatch):
    built = _counting_parsers(monkeypatch)
    first, second, fresh = (tmp_path / name for name in ("first", "second", "fresh"))
    for directory in (first, second, fresh):
        directory.mkdir()
    code, out_first, _ = run(capsys, "search", "--bound", "3000", "--min-x", "4",
                             "--workers", str(min(2, CPUS)),
                             "--out", str(first / "h.csv"),
                             "--report", str(first / "r.json"))
    assert code == 0 and (first / "r.json").exists()
    (first / "r.json").unlink()
    code, out_second, _ = run(capsys, "search", "--bound", "3000",
                              "--out", str(second / "h.csv"))
    assert code == 0
    assert run(capsys, "classify", "--triple", "3,3,6,3,3,5")[0] == 0
    assert built == ["search", "classify"]

    # a fresh parser for the same second call: no option leaked from the first
    built = _counting_parsers(monkeypatch)
    code, out_fresh, _ = run(capsys, "search", "--bound", "3000",
                             "--out", str(fresh / "h.csv"))
    assert code == 0
    assert built == ["search"]
    assert _without_wall(out_second) == _without_wall(out_fresh).replace(str(fresh),
                                                                         str(second))
    assert "hits=10 pairs_tested=276" in out_second
    assert (second / "h.csv").read_bytes() == (fresh / "h.csv").read_bytes()
    assert sorted(p.name for p in second.iterdir()) == ["h.csv"]
    assert not (first / "r.json").exists()


# Per command, what follows its name: -h, a bad flag value, a missing required
# flag (verify-identities has none: a flag without its value) and an argument
# the command does not know.
_USAGE_CASES = {
    "search": [["-h"], ["--bound", "ten", "--out", "h.csv"], ["--out", "h.csv"],
               ["--bound", "10", "--out", "h.csv", "--bogus"]],
    "oracle": [["-h"], ["--bound", "10", "--min-x", "x", "--out", "h.csv"], ["--bound", "10"],
               ["--bound", "10", "--out", "h.csv", "stray"]],
    "verify-identities": [["-h"], ["--cases", "x"], ["--cases"], ["--bogus"]],
    "classify": [["-h"], ["--triple"], [], ["--triple", "1,2,3", "--bogus"]],
    "emit-plot": [["-h"], ["--in", "h.csv", "--out", "f.svg", "--axes", "bogus"],
                  ["--in", "h.csv"], ["--in", "h.csv", "--out", "f.svg", "--log", "x"]],
}


@pytest.mark.parametrize("command", _USAGE_CASES)
def test_command_parser_prints_what_the_full_tree_prints(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal's width
    tree = cli_mod.build_parser()
    built = _counting_parsers(monkeypatch)
    trees = []
    monkeypatch.setattr(cli_mod, "build_parser", lambda: trees.append(1) or tree)
    for rest in _USAGE_CASES[command]:
        with pytest.raises(SystemExit) as exit_info:
            tree.parse_args([command, *rest])
        expected = (exit_info.value.code, *capsys.readouterr())
        assert expected[0] in (0, 2)
        assert run(capsys, command, *rest) == expected, rest
    # one parser of the command's own served every call; the tree was asked
    # only for the argument the command does not know, to name it in its usage
    assert built == [command]
    assert trees == [1]


def test_calls_without_a_command_get_the_full_tree(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    usage = ("usage: bealsearch [-h]\n"
             "                  {search,oracle,verify-identities,classify,emit-plot} ...\n")
    assert run(capsys) == (
        2, "", usage + "bealsearch: error: the following arguments are required: command\n")
    assert run(capsys, "no-such-command") == (
        2, "", usage + "bealsearch: error: argument command: invalid choice: "
                       "'no-such-command' (choose from 'search', 'oracle', "
                       "'verify-identities', 'classify', 'emit-plot')\n")
    assert run(capsys, "-h") == (0, usage + """
Exact search and verification for A^X + B^Y = C^Z.

positional arguments:
  {search,oracle,verify-identities,classify,emit-plot}
    search              bounded exhaustive search (scan over the non-cube
                        powers)
    oracle              naive triple-enumeration oracle (bound <= 10^7)
    verify-identities   randomized exact-identity suite
    classify            full classification bundle for one triple
    emit-plot           2-D SVG scatter from a hits CSV

options:
  -h, --help            show this help message and exit
""", "")


def test_a_command_builds_only_its_own_parser():
    # in a fresh process: the prog of each ArgumentParser built by a first
    # classify call, by a repeat and by -h, which builds the full tree
    code = (
        "import argparse, contextlib, io, json\n"
        "from bealsearch.cli import main\n"
        "built, real = [], argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    real(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "calls = []\n"
        "for argv in [['classify', '--triple', '3,3,6,3,3,5']] * 2 + [['-h']]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        main(argv)\n"
        "    calls.append(built[:])\n"
        "    built.clear()\n"
        "print(json.dumps(calls))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert json.loads(out) == [
        ["bealsearch classify"], [],
        ["bealsearch"] + [f"bealsearch {name}" for name in _USAGE_CASES]]


def test_classify_repeats_the_same_bundle(capsys, monkeypatch):
    outputs = [run(capsys, "classify", "--triple", "3,3,6,3,3,5") for _ in range(2)]
    _counting_parsers(monkeypatch)
    outputs.append(run(capsys, "classify", "--triple", "3,3,6,3,3,5"))
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0][0] == 0


def _classify_batch(seed):
    """100 solutions (a·c^k)^n + (b·c^k)^n = c^(kn+1) with c = a^n + b^n, then
    100 random triples, drawn as perfbench's classify_batch draws them."""
    rng = random.Random(seed)
    triples = []
    for _ in range(100):
        a, b = rng.randint(1, 30), rng.randint(1, 30)
        n, k = rng.randint(3, 7), rng.randint(1, 2)
        c = a ** n + b ** n
        triples.append((a * c ** k, n, b * c ** k, n, c, k * n + 1))
    for _ in range(100):
        triples.append(tuple(rng.randint(2, 60) if i % 2 == 0 else rng.randint(3, 8)
                             for i in range(6)))
    return triples


def test_classify_output_bytes_are_pinned(capsys):
    # sha256 of every exit code and stdout, pinned so that a faster classify
    # cannot change a byte of what it prints
    digest = hashlib.sha256()
    for triple in _classify_batch(1_000_003):
        code, out, _ = run(capsys, "classify", "--triple", ",".join(map(str, triple)))
        digest.update(f"{code}\n{out}".encode("utf-8"))
    assert digest.hexdigest() == "7aeb8cb45211270b6c268230deab31d3a60629c1894360ce8be746875099266e"


def _classify_round_trip(capsys, triple):
    """What classify prints for triple, checked to be json.dumps(bundle, indent=2)
    of the bundle it parses to; the bundle."""
    code, out, _ = run(capsys, "classify", "--triple", triple)
    assert code == 0, triple
    bundle = json.loads(out)
    assert out == json.dumps(bundle, indent=2) + "\n", triple
    return bundle


def _classify_branches(bundle):
    """The rendering branches that one bundle takes."""
    coprimality, scalar = bundle["coprimality"], bundle["scalar_m"]
    shared = coprimality and coprimality["shared_primes"]["ab"]
    return ({"coprimality " + ("null" if coprimality is None else "gave up" if shared is None
                               else "listed" if shared else "[]"),
             "exponents " + ("null" if bundle["exponent_restriction"] is None else "checked")}
            | {"radical " + bundle[name]["class"]
               for name in ("alpha", "beta", "alpha_ca", "beta_ca")}
            | {"slope " + slope["class"] for slope in bundle["slopes"].values()}
            | {"scalar " + ("error" if scalar["error"] else "exact" if scalar["exact"]
                            else "estimate")})


def test_classify_prints_what_json_dumps_prints(capsys, monkeypatch):
    # every bundle classify prints, on perfbench's batch and on inputs that
    # take each branch of the renderer, is json.dumps(bundle, indent=2)
    branches = set()
    for triple in _classify_batch(1_000_003):
        branches |= _classify_branches(_classify_round_trip(capsys, ",".join(map(str, triple))))
    for triple in ("3,3,6,3,3,5", "2,3,2,3,2,5", "1,3,2,3,3,2", "1,1,1,2,2,1", "1,1,1,1,1,1",
                   "2,9,2,9,2,10"):
        branches |= _classify_branches(_classify_round_trip(capsys, triple))

    def give_up(n):
        raise BudgetExceeded(n, 0)

    monkeypatch.setattr(coprime, "factorize", give_up)
    branches |= _classify_branches(_classify_round_trip(capsys, "3,3,6,3,3,5"))
    assert branches == {
        "coprimality null", "coprimality listed", "coprimality []", "coprimality gave up",
        "exponents null", "exponents checked",
        "radical rational", "radical irrational", "radical no_real_root",
        "slope rational", "slope irrational",
        "scalar estimate", "scalar exact", "scalar error"}


def test_classify_escapes_the_error_text(capsys, monkeypatch):
    text = 'a "quoted" \\ back\\slash, a tab\t, a bell\x07 and \u00e9'

    def refuse(triple, pair):
        raise ZeroDenominator(text)

    monkeypatch.setattr(cli_mod, "scalar_estimate", refuse)
    bundle = _classify_round_trip(capsys, "3,3,6,3,3,5")
    assert bundle["scalar_m"] == {"estimate": None, "exact": None, "error": text}
