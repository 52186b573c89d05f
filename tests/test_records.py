"""Persistence round-trips and SVG emission."""

import hashlib
import json
import os
import re
import stat
import threading

import pytest

from bealsearch.records import (CSV_COLUMNS, SchemaError, canonical_json, emit_csv, emit_json,
                                parse_csv, parse_json, read_csv, records_from_report,
                                write_text)
from bealsearch.search import SearchConfig, SearchReport, brute_force_oracle, search_solutions
from bealsearch.svgplot import emit_scatter


@pytest.fixture(scope="module")
def report():
    return search_solutions(SearchConfig(bound=10 ** 4))


@pytest.fixture(scope="module")
def records(report):
    return records_from_report(report)


def test_csv_round_trip(records):
    text = emit_csv(records)
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert parse_csv(text) == records
    # a second emit of the parsed records is byte-identical
    assert emit_csv(parse_csv(text)) == text


def test_json_round_trip(report, records):
    text = emit_json(report)
    assert parse_json(text) == records
    obj = json.loads(text)
    assert obj["config"]["bound"] == str(10 ** 4)
    assert obj["counts"]["hits"] == len(records)
    assert "wall_time_s" in obj
    assert "wall_time_s" not in json.loads(canonical_json(report))


def test_phase_timings_are_reported_but_not_canonical(report):
    obj = json.loads(emit_json(report))
    assert set(obj["phases"]) == {"enumerate_s", "index_s", "scan_s", "annotate_s"}
    assert all(seconds >= 0 for seconds in obj["phases"].values())
    assert sum(obj["phases"].values()) == pytest.approx(obj["wall_time_s"], abs=1e-6)
    canonical = json.loads(canonical_json(report))
    assert "phases" not in canonical
    assert set(canonical) == {"config", "counts", "hits"}


def test_record_fields_are_canonical(records):
    for record in records:
        record.validate()
        assert int(record.A_pow_X) == int(record.A) ** int(record.X)
        assert int(record.B_pow_Y) == int(record.B) ** int(record.Y)
        assert int(record.C_pow_Z) == int(record.C) ** int(record.Z)
        assert record.alpha_class in {"rational", "irrational", "no_real_root"}


def test_csv_header_is_mandatory():
    with pytest.raises(SchemaError):
        parse_csv("")
    with pytest.raises(SchemaError):
        parse_csv("A,B\n1,2\n")


def test_csv_rejects_bad_rows(records):
    def csv_text(record):  # every field quoted, so a field may hold a newline
        return ",".join(CSV_COLUMNS) + "\n" + ",".join(f'"{value}"' for value in record) + "\n"

    def json_text(record):
        return json.dumps({"hits": [record._asdict()]})

    good = records[0]
    assert parse_csv(csv_text(good)) == parse_json(json_text(good)) == [good]
    # each bad value fails both readers, with the message for what is wrong
    for column, value, message in [
        ("A_pow_X", "007", "is not a canonical decimal"),
        ("A", f"{good.A}\n", "is not a canonical decimal"),
        ("alpha_class", "transcendental", "is not a class name"),
        ("m_cb", "2/4", "is not in lowest terms"),
        ("m_cb", "1\n", "is not a reduced fraction string"),
    ]:
        bad = good._replace(**{column: value})
        for parse, text in ((parse_csv, csv_text(bad)), (parse_json, json_text(bad))):
            with pytest.raises(SchemaError, match=re.escape(f"column {column}: {value!r} {message}")):
                parse(text)

    with pytest.raises(SchemaError):
        parse_csv(",".join(CSV_COLUMNS) + "\n1,2,3\n")


def test_json_rejects_missing_columns():
    with pytest.raises(SchemaError):
        parse_json(json.dumps({"hits": [{"A": "2"}]}))
    with pytest.raises(SchemaError):
        parse_json("not json")
    with pytest.raises(SchemaError):
        parse_json("[]")


def test_json_rejects_hits_that_are_not_a_list_of_objects():
    for hits, message in [(5, "a 'hits' array"), (None, "a 'hits' array"),
                          ("A", "a 'hits' array"), ({"A": "2"}, "a 'hits' array"),
                          ([1], "is not an object"), ([None], "is not an object"),
                          ([["A"]], "is not an object")]:
        with pytest.raises(SchemaError, match=message):
            parse_json(json.dumps({"hits": hits}))


def test_report_obj_key_order_is_stable(report):
    assert canonical_json(report) == canonical_json(report)
    obj = json.loads(emit_json(report))
    assert list(obj) == ["config", "counts", "hits", "wall_time_s", "phases", "scan_probes",
                         "sweeps", "sweep_seconds", "verification_failures"]
    assert list(obj["config"]) == ["bound", "min_x", "min_y", "min_z", "workers", "seed"]
    assert list(obj["counts"]) == ["powers_enumerated", "pairs_tested", "hits"]
    assert all(list(hit) == CSV_COLUMNS for hit in obj["hits"])


def test_svg_marker_count(records):
    svg = emit_scatter(records)
    assert svg.count("<circle") == len(records)
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")


def test_svg_empty_input():
    svg = emit_scatter([])
    assert svg.count("<circle") == 0
    assert "<svg " in svg


def test_svg_log_and_abc_axes(records):
    svg = emit_scatter(records, axes="abc", log_scale=True, title="hits")
    assert svg.count("<circle") == len(records)
    assert "log10(A)" in svg and "log10(B)" in svg
    with pytest.raises(ValueError):
        emit_scatter(records, axes="bogus")


def test_scan_probes_are_reported_but_not_canonical(report):
    assert json.loads(emit_json(report))["scan_probes"] == report.scan_probes > 0
    assert "scan_probes" not in json.loads(canonical_json(report))


def test_sweeps_are_reported_but_not_canonical(report):
    sweeps = json.loads(emit_json(report))["sweeps"]
    assert sweeps == report.sweeps
    assert sum(sweep["probes"] for sweep in sweeps.values()) == report.scan_probes
    assert "sweeps" not in json.loads(canonical_json(report))
    assert json.loads(emit_json(brute_force_oracle(10 ** 4)))["sweeps"] is None


def test_sweep_seconds_are_reported_but_not_canonical(report):
    obj = json.loads(emit_json(report))
    assert obj["sweep_seconds"] == report.sweep_seconds
    assert list(obj["sweep_seconds"]) == ["two_cubes", "cube_c", "cube_a_or_b",
                                          "no_cube_c_in_h", "no_cube_c_in_q"]
    assert "sweep_seconds" not in json.loads(canonical_json(report))
    assert json.loads(emit_json(brute_force_oracle(10 ** 4)))["sweep_seconds"] is None


def test_verification_failures_are_reported_but_not_canonical(report):
    assert report.verification_failures == {}
    assert json.loads(emit_json(report))["verification_failures"] == {}
    assert "verification_failures" not in json.loads(canonical_json(report))
    assert (json.loads(emit_json(_failing_report(report)))["verification_failures"]
            == {"equation_exact": 2, "canonical_order": 1})


def _failing_report(report):
    """Three of the report's hits, two of them marked as failing checks; no
    phases and no sweeps."""
    failing = SearchReport(report.config, report.hits[:3], report.counts, 0.0, {}, None)
    failing.hits[0] = failing.hits[0]._replace(
        checks=dict(failing.hits[0].checks, equation_exact=False, canonical_order=False))
    failing.hits[2] = failing.hits[2]._replace(
        checks=dict(failing.hits[2].checks, equation_exact=False))
    return failing


# --- the JSON report: the bytes of json.dumps(obj, indent=2) ------------------

_REPORTS = {
    "search 10^4": lambda: search_solutions(SearchConfig(10 ** 4)),
    "search 10^12": lambda: search_solutions(SearchConfig(10 ** 12)),
    "search 10^13 4,3,3 2 workers": lambda: search_solutions(
        SearchConfig(10 ** 13, 4, 3, 3, workers=2)),
    "search 10, no hits": lambda: search_solutions(SearchConfig(10)),
    "oracle 10^4": lambda: brute_force_oracle(10 ** 4),
    "failing": lambda: _failing_report(search_solutions(SearchConfig(10 ** 4))),
}


@pytest.fixture(scope="module", params=list(_REPORTS))
def any_report(request):
    return _REPORTS[request.param]()


def test_json_report_is_what_json_dumps_writes(any_report):
    for text in (emit_json(any_report), canonical_json(any_report)):
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_json_report_holds_the_report_fields_in_order(any_report):
    report, config = any_report, any_report.config
    hits = [{"A": str(A), "X": str(X), "B": str(B), "Y": str(Y), "C": str(C), "Z": str(Z),
             "A_pow_X": str(A ** X), "B_pow_Y": str(B ** Y), "C_pow_Z": str(C ** Z),
             "gcd_abc": str(hit.triple.gcd_abc),
             "alpha_class": hit.pair.alpha.classification.kind,
             "beta_class": hit.pair.beta.classification.kind,
             "m_cb": str(hit.slopes.m_cb), "m_ca": str(hit.slopes.m_ca),
             "m_ba": str(hit.slopes.m_ba)}
            for hit in report.hits for A, X, B, Y, C, Z in [hit.triple]]
    canonical = {"config": {"bound": str(config.bound), "min_x": config.min_x,
                            "min_y": config.min_y, "min_z": config.min_z,
                            "workers": config.workers, "seed": config.seed},
                 "counts": report.counts, "hits": hits}
    timed = dict(canonical, wall_time_s=report.wall_time_s, phases=report.phases,
                 scan_probes=report.scan_probes, sweeps=report.sweeps,
                 sweep_seconds=report.sweep_seconds,
                 verification_failures=report.verification_failures)
    for text, expected in ((canonical_json(report), canonical), (emit_json(report), timed)):
        assert json.loads(text) == expected
        assert json.dumps(json.loads(text)) == json.dumps(expected)  # and in this key order


def test_write_text_replaces_the_file_whole(tmp_path, records, monkeypatch):
    path = tmp_path / "hits.csv"
    write_text(str(path), emit_csv(records))
    assert read_csv(str(path)) == records
    before = path.read_bytes()
    # a write that raises partway (a lone surrogate has no UTF-8 form), and
    # a rename that fails after the whole text was written
    with pytest.raises(UnicodeEncodeError):
        write_text(str(path), "A" * 100_000 + "\ud800")
    assert path.read_bytes() == before and os.listdir(tmp_path) == ["hits.csv"]

    def failing_replace(source, target):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="replace failed"):
        write_text(str(path), emit_csv(records[:1]))
    assert path.read_bytes() == before and os.listdir(tmp_path) == ["hits.csv"]


def test_write_text_follows_a_symlink(tmp_path):
    target, link = tmp_path / "hits.csv", tmp_path / "link.csv"
    target.write_text("old")
    link.symlink_to(target)
    write_text(str(link), "new")
    assert link.is_symlink() and target.read_text() == "new"
    assert sorted(os.listdir(tmp_path)) == ["hits.csv", "link.csv"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
def test_write_text_writes_a_pipe_directly(tmp_path):
    # as for --out /dev/stdout: no temporary file, and the pipe stays a pipe
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    write_text(str(fifo), "through the pipe")
    reader.join(timeout=10)
    assert received == ["through the pipe"]
    assert os.listdir(tmp_path) == ["fifo"] and stat.S_ISFIFO(fifo.stat().st_mode)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# sha256 of the CSV and of canonical_json, pinned so that any drift in the
# bytes of a search's output fails here rather than only in a benchmark.
@pytest.mark.parametrize("bound, minimums, workers, csv_digest, json_digest", [
    (10 ** 8, (3, 3, 3), 1,
     "a74981ac40a534304ec984f87426b8045b615267d99030ffc250519402e51f45",
     "1e0226b5fb50912de93781590371ef2c3a62deaee689993b75009c5e9071e3e3"),
    (10 ** 10, (3, 3, 3), 2,
     "32d4c5c5ea116f8b954b49cae33cb073dfbe49d82ac7039fcc0574a40974b4bc",
     "a15fce70c865f6c16eb1041ea43174aaf28a18ec8474a923210ef462ec90020e"),
    (10 ** 10, (4, 3, 3), 1,
     "640bae297734510e6ff8274cd8c62430af2d0448372dfa976d68f0692d0c3925",
     "487155513e6a0d058c7405fd9bb8095be727b37b1a06d3d6bb19e2b9d8b3cad9"),
    (10 ** 12, (3, 3, 3), 1,
     "54419fd03f7ffa33e9319190f05d42661f0fca654dddc0abb30fc122fa9ce3ab",
     "042693fdff07c0828bb8ff69183c24340589d843500b2d09734e3d888bb68ce3"),
    # min_z above the left minimums: the build drops the pairs that sum to n**3
    (10 ** 10, (3, 3, 4), 1,
     "dee3a8e5aa5e47afe9dea5c69dd284e9a080adf45a636c6e28957d695f3fe45c",
     "24d73047d894feb4703cee4509bbd99ae132335204e7dd12f164dc85d5be1f6d"),
    # every cube is a power of exponent 6 or more, taken from the table
    (10 ** 10, (5, 4, 6), 1,
     "02aeb4a1cc1a09f966c8eeb17190404ee5b4c56ff2fffc360148dc4284d16ec0",
     "358b3ae8cde60acdd237d20f707d0bce78f349b92496738fcc179c76ead969ae"),
    # the left minimums above min_z: the build drops the pairs with an n**3 term
    (10 ** 12, (5, 5, 3), 1,
     "d5e1f6b0657f792db792626dbdffd96a708d538270b30b44e52cad6a0ed9575b",
     "c21ba355a1cf33747ad717997403f43a2cc0cea091f7e3f34ad2f3fa7754f3d5"),
    # min_z above the left minimums, over two stripes
    (10 ** 12, (3, 3, 5), 2,
     "1e6304b8caa1bb7c7da79b806d3d082276d7214508116aa4bdb7275976a13887",
     "7a91300bf70fcc9fd0251ac826f3c5168bf4ebf47b10016493236e6eeafa40bc"),
])
def test_search_output_bytes_are_pinned(bound, minimums, workers, csv_digest, json_digest):
    report = search_solutions(SearchConfig(bound, *minimums, workers=workers))
    assert _sha256(emit_csv(records_from_report(report))) == csv_digest
    assert _sha256(canonical_json(report)) == json_digest


def test_oracle_output_bytes_are_pinned():
    assert (_sha256(canonical_json(brute_force_oracle(10 ** 6)))
            == "1141e5964dabae27d3d980db90c39f505915a212982344483d663327b33ab848")
