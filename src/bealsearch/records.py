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
import re
from dataclasses import asdict, dataclass, fields
from fractions import Fraction

from .errors import BealsearchError
from .exact_arith import IRRATIONAL, NO_REAL_ROOT, RATIONAL
from .search import SearchReport

_CLASS_NAMES = {RATIONAL, IRRATIONAL, NO_REAL_ROOT}
_DECIMAL_RE = re.compile(r"^(0|[1-9][0-9]*)$")
_FRACTION_RE = re.compile(r"^-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?$")


class SchemaError(BealsearchError):
    """A persisted file does not conform to the hit-record schema."""


@dataclass(frozen=True)
class HitRecord:
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

    def to_row(self) -> list[str]:
        return [getattr(self, name) for name in CSV_COLUMNS]

    def to_obj(self) -> dict[str, str]:
        return {name: getattr(self, name) for name in CSV_COLUMNS}

    @classmethod
    def from_obj(cls, obj: dict) -> "HitRecord":
        missing = [name for name in CSV_COLUMNS if name not in obj]
        if missing:
            raise SchemaError(f"missing columns: {', '.join(missing)}")
        record = cls(**{name: str(obj[name]) for name in CSV_COLUMNS})
        return record.validate()


CSV_COLUMNS = [f.name for f in fields(HitRecord)]


def records_from_report(report: SearchReport) -> list[HitRecord]:
    return [HitRecord.from_hit(hit) for hit in report.hits]


# --- CSV ----------------------------------------------------------------------

def emit_csv(records: list[HitRecord]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in records:
        writer.writerow(record.to_row())
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


def write_csv(records: list[HitRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(emit_csv(records))


def read_csv(path: str) -> list[HitRecord]:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return parse_csv(handle.read())


# --- JSON ---------------------------------------------------------------------

def report_to_obj(report: SearchReport, include_timing: bool = True) -> dict:
    obj = {
        "config": {**asdict(report.config), "bound": str(report.config.bound)},
        "counts": dict(report.counts),
        "hits": [record.to_obj() for record in records_from_report(report)],
    }
    if include_timing:
        obj["wall_time_s"] = report.wall_time_s
        obj["phases"] = dict(report.phases)
        obj["scan_probes"] = report.scan_probes
    return obj


def emit_json(report: SearchReport, include_timing: bool = True) -> str:
    return json.dumps(report_to_obj(report, include_timing), indent=2) + "\n"


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
