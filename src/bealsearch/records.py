"""Persisted hit records: CSV and JSON forms that round-trip losslessly.

Every number serializes as a decimal string (arbitrary precision survives
any consumer), fractions as reduced "p/q" (integers render without the
denominator, matching Fraction's own str).  Column order is fixed and the
CSV header row is mandatory; readers validate shape and reject leading
zeros so that parse(emit(report)) == report is byte-for-byte testable.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .errors import BealsearchError
from .exact_arith import IRRATIONAL, NO_REAL_ROOT, RATIONAL
from .search import SearchReport

_CLASS_NAMES = {RATIONAL, IRRATIONAL, NO_REAL_ROOT}
_DECIMAL_RE = re.compile(r"^(0|[1-9][0-9]*)$")
_FRACTION_RE = re.compile(r"^-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?$")


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

    @classmethod
    def from_hit(cls, hit) -> "HitRecord":
        triple = hit.triple
        slopes = hit.slopes
        if not isinstance(slopes.m_cb, Fraction) or not isinstance(slopes.m_ca, Fraction):
            raise ValueError(f"hit {triple} has non-rational slopes; cannot serialize")
        return cls(
            A=str(triple.A), X=str(triple.X),
            B=str(triple.B), Y=str(triple.Y),
            C=str(triple.C), Z=str(triple.Z),
            A_pow_X=str(triple.ax), B_pow_Y=str(triple.by), C_pow_Z=str(triple.cz),
            gcd_abc=str(triple.gcd_abc),
            alpha_class=hit.pair.alpha.classification.kind,
            beta_class=hit.pair.beta.classification.kind,
            m_cb=str(slopes.m_cb), m_ca=str(slopes.m_ca), m_ba=str(slopes.m_ba),
        )

    def validate(self) -> "HitRecord":
        for name in ("A", "X", "B", "Y", "C", "Z",
                     "A_pow_X", "B_pow_Y", "C_pow_Z", "gcd_abc"):
            value = getattr(self, name)
            if not _DECIMAL_RE.match(value):
                raise SchemaError(f"column {name}: {value!r} is not a canonical decimal")
        for name in ("alpha_class", "beta_class"):
            if getattr(self, name) not in _CLASS_NAMES:
                raise SchemaError(f"column {name}: {getattr(self, name)!r} is not a class name")
        for name in ("m_cb", "m_ca", "m_ba"):
            value = getattr(self, name)
            if not _FRACTION_RE.match(value):
                raise SchemaError(f"column {name}: {value!r} is not a reduced fraction string")
            fraction = Fraction(value)
            if str(fraction) != value:
                raise SchemaError(f"column {name}: {value!r} is not in lowest terms")
        return self

    @classmethod
    def from_obj(cls, obj: dict) -> "HitRecord":
        missing = [name for name in CSV_COLUMNS if name not in obj]
        if missing:
            raise SchemaError(f"missing columns: {', '.join(missing)}")
        record = cls(**{name: str(obj[name]) for name in CSV_COLUMNS})
        return record.validate()


CSV_COLUMNS = list(HitRecord._fields)


def records_from_report(report: SearchReport) -> list[HitRecord]:
    """The records of the report's hits, less any hit with irrational slopes:
    HitRecord.from_hit cannot serialize one, and it failed verify_hit's
    slopes_rational check, which the report's verification_failures names."""
    return [HitRecord.from_hit(hit) for hit in report.hits
            if isinstance(hit.slopes.m_cb, Fraction) and isinstance(hit.slopes.m_ca, Fraction)]


# --- CSV ----------------------------------------------------------------------

def emit_csv(records: list[HitRecord]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(records)
    return buffer.getvalue()


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
        records.append(HitRecord.from_obj(dict(zip(CSV_COLUMNS, row))))
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

_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    text = repr(value)
    return _JSON_NON_FINITE.get(text, text)


# the JSON text of each type of scalar, by exact type (bool is not int here)
_JSON_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, float: _float_text,
                 bool: {True: "true", False: "false"}.__getitem__,
                 type(None): lambda _: "null"}


def json_text(obj) -> str:
    """obj as json.dumps(obj, indent=2) writes it, byte for byte.

    obj is built of dicts with str keys, lists, tuples, str, int, float,
    bool and None; any other type, or a key that is not a str, raises
    TypeError.  json.dumps falls back to its pure-Python encoder whenever an
    indent is set; this looks up the writer of each scalar by its exact type
    (most are C functions: strings go through encode_basestring_ascii) and
    joins the pieces once, in about half the time.
    """
    parts: list[str] = []
    _json_parts(obj, "\n", parts.append)
    return "".join(parts)


def _json_parts(obj, newline: str, out) -> None:
    """Append obj's JSON text to out, its nested lines starting with newline."""
    kind = type(obj)
    if kind is dict or kind is list or kind is tuple:
        if not obj:
            out("{}" if kind is dict else "[]")
            return
        inner = newline + "  "
        comma = "," + inner
        if kind is dict:
            separator = "{" + inner
            for key, value in obj.items():  # encoding a key that is not a str raises TypeError
                scalar = _JSON_SCALARS.get(type(value))
                if scalar is None:
                    out(separator + encode_basestring_ascii(key) + ": ")
                    _json_parts(value, inner, out)
                else:
                    out(separator + encode_basestring_ascii(key) + ": " + scalar(value))
                separator = comma
            out(newline + "}")
        else:
            separator = "[" + inner
            for value in obj:
                scalar = _JSON_SCALARS.get(type(value))
                if scalar is None:
                    out(separator)
                    _json_parts(value, inner, out)
                else:
                    out(separator + scalar(value))
                separator = comma
            out(newline + "]")
        return
    scalar = _JSON_SCALARS.get(kind)
    if scalar is None:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    out(scalar(obj))


def report_to_obj(report: SearchReport, include_timing: bool = True,
                  hit_records: list[HitRecord] | None = None) -> dict:
    """The report as a JSON-ready dict; hit_records, when given, are its hits'
    records_from_report, so a caller that already built them builds them once."""
    if hit_records is None:
        hit_records = records_from_report(report)
    obj = {
        "config": {**report.config._asdict(), "bound": str(report.config.bound)},
        "counts": dict(report.counts),
        "hits": [record._asdict() for record in hit_records],
    }
    if include_timing:
        obj["wall_time_s"] = report.wall_time_s
        obj["phases"] = dict(report.phases)
        obj["scan_probes"] = report.scan_probes
        obj["sweeps"] = report.sweeps
        obj["sweep_seconds"] = report.sweep_seconds
        obj["verification_failures"] = report.verification_failures
    return obj


def emit_json(report: SearchReport, include_timing: bool = True,
              hit_records: list[HitRecord] | None = None) -> str:
    return json_text(report_to_obj(report, include_timing, hit_records)) + "\n"


def canonical_json(report: SearchReport) -> str:
    """Timing-free serialization used for byte-identity comparisons."""
    return emit_json(report, include_timing=False)


def parse_json(text: str) -> list[HitRecord]:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "hits" not in obj:
        raise SchemaError("JSON report must be an object with a 'hits' array")
    return [HitRecord.from_obj(entry) for entry in obj["hits"]]
