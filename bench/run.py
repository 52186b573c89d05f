"""Time bealsearch.search.search_solutions in-process and record the numbers.

    python bench/run.py --label change --out BENCH_12.json
    python bench/run.py --label parent --src ../parent/src --out BENCH_12.json

Each case is one search (bound, minimums 3,3,3, workers), run --repeats
times in this process after one untimed warm-up search at 10^12.  Every run
adds its samples to the case under --label in --out, so a parent tree and a
changed tree can be timed alternately into one file; the statistics are
recomputed over all samples of a label.  Per case the file holds the raw
samples, and for the whole run (wall_s) and each phase of
SearchReport.phases the median, minimum and quartiles, in seconds, plus the
set probes of the scan per second of median scan_s when the report counts
them (SearchReport.scan_probes).  The machine facts are nproc, the CPU model
and the Python version.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

CASES = [(10 ** 12, 1), (10 ** 14, 1), (10 ** 16, 1), (10 ** 14, 2)]
PHASES = ("enumerate_s", "index_s", "scan_s", "annotate_s")


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
    out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
