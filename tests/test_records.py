"""Persistence round-trips and SVG emission."""

import json

import pytest

from bealsearch.records import (CSV_COLUMNS, SchemaError,
                                canonical_json, emit_csv, emit_json,
                                parse_csv, parse_json, records_from_report,
                                report_to_obj)
from bealsearch.search import SearchConfig, search_solutions
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
