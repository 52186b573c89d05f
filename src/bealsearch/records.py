"""Persisted hit records: CSV and JSON forms that round-trip losslessly.

HitRecord's fields are the one definition of the record: the CSV columns,
the CSV row template and the JSON hit template are all built from them.
Every number serializes as a decimal string (arbitrary precision survives
any consumer), fractions as reduced "p/q" (integers render without the
denominator, matching Fraction's own str).  Column order is fixed and the
CSV header row is mandatory.  Readers reject a field whose text is not a
canonical decimal, a class name or a reduced fraction, as the writers give
it, and parse_json a hit field that is not a JSON string, so
parse_csv(emit_csv(records)) == records and
parse_json(emit_json(report)) == records_from_report(report).
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .errors import BealsearchError
from .exact_arith import IRRATIONAL, NO_REAL_ROOT, RATIONAL
from .search import SearchReport

_CLASS_NAMES = {RATIONAL, IRRATIONAL, NO_REAL_ROOT}
_DECIMAL_RE = re.compile(r"0|[1-9][0-9]*")
_FRACTION_RE = re.compile(r"-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?")


class SchemaError(BealsearchError):
    """A persisted file does not conform to the hit-record schema."""


class HitRecord(NamedTuple):
    """One hit in serialized form (all fields are strings, in CSV column order)."""

    A: str
    X: str
    B: str
    Y: str
    C: str
    Z: str
    A_pow_X: str
    B_pow_Y: str
    C_pow_Z: str
    gcd_abc: str
    alpha_class: str
    beta_class: str
    m_cb: str
    m_ca: str
    m_ba: str

    def validate(self) -> "HitRecord":
        """self, or a SchemaError naming the first field that is not in the
        form the writers give it."""
        for name in ("A", "X", "B", "Y", "C", "Z",
                     "A_pow_X", "B_pow_Y", "C_pow_Z", "gcd_abc"):
            value = getattr(self, name)
            if not _DECIMAL_RE.fullmatch(value):
                raise SchemaError(f"column {name}: {value!r} is not a canonical decimal")
        for name in ("alpha_class", "beta_class"):
            if getattr(self, name) not in _CLASS_NAMES:
                raise SchemaError(f"column {name}: {getattr(self, name)!r} is not a class name")
        for name in ("m_cb", "m_ca", "m_ba"):
            value = getattr(self, name)
            if not _FRACTION_RE.fullmatch(value):
                raise SchemaError(f"column {name}: {value!r} is not a reduced fraction string")
            fraction = Fraction(value)
            if str(fraction) != value:
                raise SchemaError(f"column {name}: {value!r} is not in lowest terms")
        return self


CSV_COLUMNS = list(HitRecord._fields)


def records_from_report(report: SearchReport) -> list[HitRecord]:
    """The records of the report's hits, less any hit with irrational slopes:
    a record holds its slopes as fractions, and such a hit failed verify_hit's
    slopes_rational check, which the report's verification_failures names."""
    return [HitRecord(str(A), str(X), str(B), str(Y), str(C), str(Z),
                      str(A ** X), str(B ** Y), str(C ** Z), str(gcd(A, B, C)),
                      hit.pair.alpha.classification.kind, hit.pair.beta.classification.kind,
                      str(m_cb), str(m_ca), str(m_ba))
            for hit in report.hits
            for (A, X, B, Y, C, Z), (m_cb, m_ca, m_ba) in [(hit.triple, hit.slopes)]
            if isinstance(m_cb, Fraction) and isinstance(m_ca, Fraction)]


# --- CSV ----------------------------------------------------------------------
# Every field is a decimal, a fraction or a class name, so none needs quoting.

_ROW = ",".join(["%s"] * len(CSV_COLUMNS)) + "\n"


def emit_csv(records: list[HitRecord]) -> str:
    """The header row, then one row per record."""
    return "".join(map(_ROW.__mod__, [HitRecord._fields, *records]))


def parse_csv(text: str) -> list[HitRecord]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("empty file: header row is mandatory")
    if header != CSV_COLUMNS:
        raise SchemaError(f"bad header: expected {CSV_COLUMNS}, got {header}")
    records = []
    for line_number, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(CSV_COLUMNS):
            raise SchemaError(f"line {line_number}: expected {len(CSV_COLUMNS)} fields")
        records.append(HitRecord(*row).validate())
    return records


def write_text(path: str, text: str) -> None:
    """Write text to path whole or not at all: through a temporary file beside
    it, which os.replace moves into place.  A write that raises leaves what
    was at path as it was, and removes the temporary file.

    A symlink is followed, so the file it names is replaced, not the link.
    A path that names no regular file, such as /dev/stdout, is written
    directly: it cannot be replaced.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        return
    path = os.path.realpath(path)
    temporary = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temporary, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(temporary, path)
    except BaseException:
        try:
            os.remove(temporary)
        except OSError:  # never created
            pass
        raise


def read_csv(path: str) -> list[HitRecord]:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return parse_csv(handle.read())


# --- JSON ---------------------------------------------------------------------
# The report is written from % templates, in the bytes json.dumps(obj,
# indent=2) gives for it.  Every key is a fixed ASCII name and every string a
# decimal, a fraction or a class name, so nothing needs escaping; numbers go
# in as their repr, which is how json.dumps writes ints and floats.

_REPORT = """{
  "config": {
    "bound": "%d",
    "min_x": %d,
    "min_y": %d,
    "min_z": %d,
    "workers": %d,
    "seed": %d
  },
  "counts": %s,
  "hits": [%s%s]%s
}
"""

_HIT = "\n    {%s\n    }" % ",".join(['\n      "%s": "%%s"' % name for name in CSV_COLUMNS])

_TIMING = """,
  "wall_time_s": %r,
  "phases": %s,
  "scan_probes": %s,
  "sweeps": %s,
  "sweep_seconds": %s,
  "verification_failures": %s"""


def _map_text(values: dict | None, newline: str = "\n  ") -> str:
    """A map of names to numbers, or to such maps, as json.dumps(values,
    indent=2) writes it, its lines after the first starting with newline."""
    if values is None:
        return "null"
    if not values:
        return "{}"
    inner = newline + "  "
    return "{%s%s%s}" % (inner, ("," + inner).join([
        '"%s": %s' % (name, _map_text(value, inner) if type(value) is dict else repr(value))
        for name, value in values.items()]), newline)


def emit_json(report: SearchReport, include_timing: bool = True,
              hit_records: list[HitRecord] | None = None) -> str:
    """The report as JSON text: its config (the bound as a string), counts
    and hit records, then with include_timing its timings, in the bytes
    json.dumps(obj, indent=2) + "\n" gives.  hit_records, when given, are its
    hits' records_from_report, so a caller that already built them builds
    them once.  The joined hit texts go straight into the one template, so
    the text of the whole report is copied only once."""
    if hit_records is None:
        hit_records = records_from_report(report)
    timing = _TIMING % (
        report.wall_time_s, _map_text(report.phases),
        "null" if report.scan_probes is None else report.scan_probes,
        _map_text(report.sweeps), _map_text(report.sweep_seconds),
        _map_text(report.verification_failures)) if include_timing else ""
    return _REPORT % (*report.config, _map_text(report.counts),
                      ",".join(map(_HIT.__mod__, hit_records)),
                      "\n  " if hit_records else "", timing)


def canonical_json(report: SearchReport) -> str:
    """Timing-free serialization used for byte-identity comparisons."""
    return emit_json(report, include_timing=False)


def parse_json(text: str) -> list[HitRecord]:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    hits = obj.get("hits") if isinstance(obj, dict) else None
    if not isinstance(hits, list):
        raise SchemaError("JSON report must be an object with a 'hits' array")
    records = []
    for entry in hits:
        if not isinstance(entry, dict):
            raise SchemaError(f"hit {entry!r} is not an object")
        missing = [name for name in CSV_COLUMNS if name not in entry]
        if missing:
            raise SchemaError(f"missing columns: {', '.join(missing)}")
        values = [entry[name] for name in CSV_COLUMNS]
        for name, value in zip(CSV_COLUMNS, values):
            if type(value) is not str:
                raise SchemaError(f"column {name}: {value!r} is not a string")
        records.append(HitRecord(*values).validate())
    return records
