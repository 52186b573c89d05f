"""Time bealsearch's search and exact kernels in-process and record the numbers.

    python bench/run.py --label change --out BENCH_14.json
    python bench/run.py --label parent --src ../parent/src --out BENCH_14.json

Each search case is one search (bound, minimums 3,3,3, workers), run
--repeats times in this process after one untimed warm-up search at 10^12.
Each kernel case calls one exact kernel on a fixed, seeded list of inputs,
--repeats times; a sample is the mean time per call over at least
KERNEL_MIN_S of calls.  Every run adds its samples to the case under --label
in --out, so a parent tree and a changed tree can be timed alternately into
one file; the statistics are recomputed over all samples of a label.  Per
search case the file holds the raw samples, and for the whole run (wall_s)
and each phase of SearchReport.phases the median, minimum and quartiles, in
seconds, plus the set probes of the scan per second of median scan_s when
the report counts them (SearchReport.scan_probes).  Per kernel case it holds
the raw samples and their median, minimum and quartiles as us_per_call.  The
machine facts are nproc, the CPU model and the Python version.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

CASES = [(10 ** 12, 1), (10 ** 14, 1), (10 ** 16, 1), (10 ** 14, 2)]
PHASES = ("enumerate_s", "index_s", "scan_s", "annotate_s")
KERNEL_MIN_S = 0.05


def kernel_cases() -> dict[str, tuple]:
    """Each kernel case: the kernel and the argument tuples of its calls."""
    from fractions import Fraction

    from bealsearch.exact_arith import classify_radical, iroot, is_perfect_power
    from bealsearch.reparam import Plane, canonical_alpha_beta, scalar_m
    from bealsearch.triples import BealTriple

    rng = random.Random(14)

    def odd_ints(bits: int, count: int) -> list[int]:
        return [rng.getrandbits(bits) | 1 << (bits - 1) | 1 for _ in range(count)]

    radicands = [(Fraction(p, q), degree)
                 for p, q, degree in zip(odd_ints(64, 16), odd_ints(64, 16),
                                         [3, 4, 5, 6, 7, 8, 9, 10] * 2)]
    triple = BealTriple(3, 3, 6, 3, 3, 5)  # alpha rational, beta irrational
    return {
        "iroot 500 bits k 3,5,7": (iroot, [(n, k) for n in odd_ints(500, 16)
                                           for k in (3, 5, 7)]),
        "is_perfect_power 64 bits": (is_perfect_power, [(n,) for n in odd_ints(64, 16)]),
        "is_perfect_power 500 bits": (is_perfect_power, [(n,) for n in odd_ints(500, 8)]),
        "is_perfect_power 2000 bits": (is_perfect_power, [(n,) for n in odd_ints(2000, 4)]),
        # half irrational, half the same radicands raised to their degree
        "classify_radical": (classify_radical,
                             [(1, r, d) for r, d in radicands]
                             + [(1, r ** d, d) for r, d in radicands]),
        "scalar_m 3,3,6,3,3,5": (scalar_m, [(triple, canonical_alpha_beta(triple, Plane.CB))]),
    }


def time_kernel(kernel, calls: list[tuple], repeats: int) -> list[float]:
    """Per repeat, the mean microseconds per call over at least KERNEL_MIN_S."""
    samples = []
    for _ in range(repeats):
        rounds = 0
        started = time.perf_counter()
        while True:
            for args in calls:
                kernel(*args)
            rounds += 1
            elapsed = time.perf_counter() - started
            if elapsed >= KERNEL_MIN_S:
                break
        samples.append(1e6 * elapsed / (rounds * len(calls)))
    return samples


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summary(values: list[float]) -> dict[str, float]:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "min": min(values), "q1": q1, "q3": q3}


def time_case(search, bound: int, workers: int, repeats: int) -> tuple[list[dict], dict]:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        report = search.search_solutions(search.SearchConfig(bound=bound, workers=workers))
        sample = {"wall_s": time.perf_counter() - started}
        sample.update((name, report.phases[name]) for name in PHASES)
        samples.append(sample)
    counts = dict(report.counts)
    counts["scan_probes"] = getattr(report, "scan_probes", None)
    return samples, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="name of the tree timed, e.g. parent")
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="directory holding the bealsearch package to time")
    parser.add_argument("--out", required=True, help="JSON file to add the samples to")
    parser.add_argument("--repeats", type=int, default=5, help="timed runs per case")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    sys.path.insert(0, str(Path(args.src).resolve()))
    import bealsearch.search as search
    if not Path(search.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        parser.error(f"bealsearch was imported from {search.__file__}, not {args.src}")

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["machine"] = {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                      "python": platform.python_version()}
    runs = doc.setdefault("runs", {}).setdefault(args.label, {})

    search.search_solutions(search.SearchConfig(bound=10 ** 12))  # warm-up, untimed
    for bound, workers in CASES:
        if workers > (os.cpu_count() or 1):
            print(f"skip bound 10^{len(str(bound)) - 1} workers {workers}: too few CPUs")
            continue
        name = f"search 10^{len(str(bound)) - 1} workers {workers}"
        samples, counts = time_case(search, bound, workers, args.repeats)
        case = runs.setdefault(name, {"bound": str(bound), "minimums": [3, 3, 3],
                                      "workers": workers, "samples": []})
        case["samples"] += samples
        case["repeats"] = len(case["samples"])
        case["counts"] = counts
        for key in ("wall_s",) + PHASES:
            case[key] = summary([sample[key] for sample in case["samples"]])
        probes = counts["scan_probes"]
        case["probes_per_s"] = probes / case["scan_s"]["median"] if probes else None
        print(f"{args.label}: {name}: wall {case['wall_s']['median']:.3f} s, "
              f"scan {case['scan_s']['median']:.3f} s over {case['repeats']} runs")
    for name, (kernel, calls) in kernel_cases().items():
        case = runs.setdefault(f"kernel {name}", {"calls": len(calls), "samples": []})
        case["samples"] += time_kernel(kernel, calls, args.repeats)
        case["repeats"] = len(case["samples"])
        case["us_per_call"] = summary(case["samples"])
        print(f"{args.label}: kernel {name}: {case['us_per_call']['median']:.1f} us per call "
              f"over {case['repeats']} runs")
    out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
