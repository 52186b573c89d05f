"""Persistence round-trips and SVG emission."""

import hashlib
import json

import pytest

from bealsearch.records import (CSV_COLUMNS, SchemaError,
                                canonical_json, emit_csv, emit_json,
                                parse_csv, parse_json, records_from_report,
                                report_to_obj)
from bealsearch.search import SearchConfig, brute_force_oracle, search_solutions
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
    good = emit_csv(records[:1]).splitlines()
    row = good[1].split(",")

    row_bad_decimal = row.copy()
    row_bad_decimal[6] = "007"
    with pytest.raises(SchemaError):
        parse_csv("\n".join([good[0], ",".join(row_bad_decimal)]) + "\n")

    row_bad_class = row.copy()
    row_bad_class[10] = "transcendental"
    with pytest.raises(SchemaError):
        parse_csv("\n".join([good[0], ",".join(row_bad_class)]) + "\n")

    row_bad_fraction = row.copy()
    row_bad_fraction[12] = "2/4"
    with pytest.raises(SchemaError):
        parse_csv("\n".join([good[0], ",".join(row_bad_fraction)]) + "\n")

    with pytest.raises(SchemaError):
        parse_csv(good[0] + "\n1,2,3\n")


def test_json_rejects_missing_columns():
    with pytest.raises(SchemaError):
        parse_json(json.dumps({"hits": [{"A": "2"}]}))
    with pytest.raises(SchemaError):
        parse_json("not json")
    with pytest.raises(SchemaError):
        parse_json("[]")


def test_report_obj_key_order_is_stable(report):
    first = json.dumps(report_to_obj(report, include_timing=False))
    second = json.dumps(report_to_obj(report, include_timing=False))
    assert first == second


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
    # the right cubes differ from the left ones
    (10 ** 10, (3, 3, 4), 1,
     "dee3a8e5aa5e47afe9dea5c69dd284e9a080adf45a636c6e28957d695f3fe45c",
     "24d73047d894feb4703cee4509bbd99ae132335204e7dd12f164dc85d5be1f6d"),
    # every cube is a power of exponent 6 or more, taken from the table
    (10 ** 10, (5, 4, 6), 1,
     "02aeb4a1cc1a09f966c8eeb17190404ee5b4c56ff2fffc360148dc4284d16ec0",
     "358b3ae8cde60acdd237d20f707d0bce78f349b92496738fcc179c76ead969ae"),
])
def test_search_output_bytes_are_pinned(bound, minimums, workers, csv_digest, json_digest):
    report = search_solutions(SearchConfig(bound, *minimums, workers=workers))
    assert _sha256(emit_csv(records_from_report(report))) == csv_digest
    assert _sha256(canonical_json(report)) == json_digest


def test_oracle_output_bytes_are_pinned():
    assert (_sha256(canonical_json(brute_force_oracle(10 ** 6)))
            == "1141e5964dabae27d3d980db90c39f505915a212982344483d663327b33ab848")
