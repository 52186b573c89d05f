"""In-memory span tracing of bealsearch's public functions, from outside src/.

``Tracer.install`` wraps every public module-level function of every loaded
``bealsearch`` module and rebinds each name that refers to it in any
``bealsearch`` module, so calls between modules (``search`` calling
``exact_arith.is_perfect_power``) and within a module are both recorded.
A span is (function, start, end, parent span, phase, note); the spans of one
child process share its run.  ``layer_metrics`` turns the spans into the
per-layer metrics named in BENCHMARK.json.

Private helpers such as the pair-scan stripe are not wrapped, so the scan
carries no per-pair tracing cost; its time is derived by subtraction.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
import time
from collections import defaultdict
from fractions import Fraction

# Per-call notes kept on a span, taken from the wrapped function's result.
_NOTES = {
    "bealsearch.search.search_solutions": lambda report: dict(report.counts),
    "bealsearch.reparam.scalar_m": lambda value: isinstance(value, Fraction),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.phase = "run"
        self._stack: list[int] = []

    def _wrap(self, qualname: str, func):
        note = _NOTES.get(qualname)
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            outcome = None
            try:
                result = func(*args, **kwargs)
                if note is not None:
                    outcome = note(result)
                return result
            except Exception as exc:
                outcome = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (qualname, start, end, parent, self.phase, outcome)
        return traced

    def install(self) -> None:
        """Wrap every public function of the loaded bealsearch modules."""
        modules = {name: module for name, module in sys.modules.items()
                   if name == "bealsearch" or name.startswith("bealsearch.")}
        wrapped = {}
        for name, module in modules.items():
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == name):
                    wrapped[value] = self._wrap(f"{name}.{attr}", value)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])

    def summary(self) -> dict[str, dict]:
        """Per-function calls, total and self time of the run-phase spans."""
        total = defaultdict(float)
        child = defaultdict(float)
        calls = defaultdict(int)
        for name, start, end, parent, phase, _ in self.spans:
            if phase != "run":
                continue
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
        return {name.removeprefix("bealsearch."): {
                    "calls": calls[name], "total_s": round(total[name], 6),
                    "self_s": round(total[name] - child[name], 6)}
                for name in sorted(calls, key=lambda n: -total[n])}


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans: list[tuple], bytes_written: int) -> dict[str, float]:
    """The per-layer metrics of one traced child; 0 where a layer was idle."""
    durations = defaultdict(list)
    notes = defaultdict(list)
    check_durations = defaultdict(list)
    enumerate_spans = set()
    perfect_power_in_enumeration = []
    for index, (name, start, end, parent, phase, outcome) in enumerate(spans):
        short = name.removeprefix("bealsearch.")
        if phase != "run":
            check_durations[short].append(end - start)
            continue
        durations[short].append(end - start)
        notes[short].append(outcome)
        if short == "search.enumerate_powers":
            enumerate_spans.add(index)
        elif short == "exact_arith.is_perfect_power" and parent in enumerate_spans:
            perfect_power_in_enumeration.append(end - start)

    search_s = math.fsum(durations["search.search_solutions"])
    enumerate_s = math.fsum(durations["search.enumerate_powers"])
    annotate_s = math.fsum(durations["search.annotate_hit"])
    scan_s = search_s - enumerate_s - annotate_s if search_s else 0.0
    counts = [c for c in notes["search.search_solutions"] if isinstance(c, dict)]
    pairs = sum(c["pairs_tested"] for c in counts)
    hits = sum(c["hits"] for c in counts)
    scalar_notes = notes["reparam.scalar_m"]
    factorize_notes = notes["exact_arith.factorize"]
    return {
        "search.enumerate_s": enumerate_s,
        "search.powers": float(sum(c["powers_enumerated"] for c in counts)),
        "exact_arith.is_perfect_power_us": 1e6 * _mean(perfect_power_in_enumeration),
        "search.scan_s": scan_s,
        "search.pairs_tested": float(pairs),
        "search.hits": float(hits),
        "search.scan_pairs_per_s": pairs / scan_s if scan_s > 0 else 0.0,
        "search.hit_ratio": hits / pairs if pairs else 0.0,
        "search.annotate_s": annotate_s,
        "search.verify_s": math.fsum(durations["search.verify_hit"]),
        "slopes.slope_set_us": 1e6 * _mean(durations["slopes.slope_set"]),
        "reparam.canonical_alpha_beta_us": 1e6 * _mean(durations["reparam.canonical_alpha_beta"]),
        "exact_arith.factorize_ms": 1e3 * _mean(durations["exact_arith.factorize"]),
        "exact_arith.factorize_calls": float(len(factorize_notes)),
        "exact_arith.factorize_budget_exceeded":
            float(factorize_notes.count("BudgetExceeded")),
        "coprime.propagation_ms":
            1e3 * _mean(durations["coprime.check_coprimality_propagation"]),
        "reparam.scalar_m_ms": 1e3 * _mean(durations["reparam.scalar_m"]),
        "reparam.scalar_m_exact_ratio":
            scalar_notes.count(True) / len(scalar_notes) if scalar_notes else 0.0,
        "exact_arith.classify_radical_us": 1e6 * _mean(durations["exact_arith.classify_radical"]),
        "exact_arith.iroot_us": 1e6 * _mean(durations["exact_arith.iroot"]),
        "identity.expand_difference_us": 1e6 * _mean(durations["identity.expand_difference"]),
        "identity.general_expansion_us": 1e6 * _mean(durations["identity.general_expansion"]),
        "records.emit_csv_s": math.fsum(durations["records.emit_csv"]),
        "records.emit_json_s": math.fsum(durations["records.emit_json"]),
        "records.parse_csv_s": math.fsum(check_durations["records.parse_csv"]),
        "records.parse_json_s": math.fsum(check_durations["records.parse_json"]),
        "records.bytes_written": float(bytes_written),
    }
