"""Time bealsearch's search and exact kernels and record the numbers.

    python bench/run.py --label change --out BENCH_17.json
    python bench/run.py --label parent --src ../parent/src --out BENCH_17.json
    python bench/run.py --label change --out BENCH_17.json --repeats-1e18 1

Each search case is one search (bound, minimums 3,3,3, workers), run
--repeats times in a fresh process that runs only that case, after one
untimed warm-up search at 10^6, whose peak memory is below every case's.
That process's peak RSS, the larger of its own and its pool workers', is
the case's peak_rss_mb sample, so one case's peak cannot show in another's.
The search at 10^18 (about a minute per run) is a case only with --repeats-1e18.
The classify case runs `bealsearch classify` on perfbench's first
classify_batch (100 family solutions, then 100 random non-solutions), once
in each of --repeats fresh processes that have imported only bealsearch.cli,
so the tables the first call builds are timed with it.  It records that
time, the process's peak RSS and the sha256 of every exit code and stdout.
Each kernel case calls one exact kernel on a fixed, seeded list of inputs,
--repeats times; a sample is the mean time per call over at least
KERNEL_MIN_S of calls.  One kernel case is the identity suite,
run_random_suite, on one fixed seed and case count.  Every run adds its
samples to the case under --label in --out, so a parent tree and a changed
tree can be timed alternately into one file; the statistics are recomputed
over all samples of a label.  Per search case the file holds the raw
samples, and for the whole run (wall_s), each phase of SearchReport.phases
and peak_rss_mb the median, minimum and quartiles, in seconds or MB, plus the
set probes of the scan per second of median scan_s when the report counts
them (SearchReport.scan_probes).  Per kernel case it holds the raw samples
and their median, minimum and quartiles as us_per_call.  The machine facts
are nproc, the CPU model and the Python version.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = [(10 ** 12, 1), (10 ** 14, 1), (10 ** 16, 1), (10 ** 14, 2)]
# perfbench's first classify_batch child: seed 1, iteration 0
CLASSIFY_SEED = 1_000_003
PHASES = ("enumerate_s", "index_s", "scan_s", "annotate_s")
KERNEL_MIN_S = 0.05


def kernel_cases() -> dict[str, tuple]:
    """Each kernel case: the kernel and the argument tuples of its calls."""
    from fractions import Fraction

    from bealsearch.exact_arith import classify_radical, iroot, is_perfect_power
    from bealsearch.identity import run_random_suite
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
        "run_random_suite 200 cases seed 15": (run_random_suite, [(200, 15)]),
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


def peak_rss_mb() -> float:
    """This process's peak RSS, or its largest waited-for child's, in MB."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


def case_in_process(bound: int, workers: int, repeats: int, conn) -> None:
    import bealsearch.search as search  # from the --src the spawning process put on sys.path

    search.search_solutions(search.SearchConfig(bound=10 ** 6))  # warm-up, untimed
    samples, counts = time_case(search, bound, workers, repeats)
    conn.send((samples, counts, peak_rss_mb()))


def classify_in_process(conn) -> None:
    import bealsearch.cli as cli  # from the --src the spawning process put on sys.path
    from workloads import classify_inputs  # perfbench's, on sys.path too

    outputs = []
    triples = classify_inputs(CLASSIFY_SEED, smoke=False)
    started = time.perf_counter()
    for triple in triples:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(["classify", "--triple", ",".join(map(str, triple))])
        outputs.append(f"{code}\n{buffer.getvalue()}")
    seconds = time.perf_counter() - started
    digest = hashlib.sha256("".join(outputs).encode("utf-8")).hexdigest()
    conn.send((seconds, len(triples), digest, peak_rss_mb()))


def in_fresh_process(target, *args):
    """What target(*args, conn) sends, run in a fresh process that runs only it."""
    context = multiprocessing.get_context("spawn")
    receiver, sender = context.Pipe(duplex=False)
    process = context.Process(target=target, args=(*args, sender))
    process.start()
    sender.close()  # so recv raises EOFError, not waits, if the process dies
    try:
        return receiver.recv()
    finally:
        process.join()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="name of the tree timed, e.g. parent")
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the bealsearch package to time")
    parser.add_argument("--out", required=True, help="JSON file to add the samples to")
    parser.add_argument("--repeats", type=int, default=5, help="timed runs per case")
    parser.add_argument("--repeats-1e18", type=int, default=0,
                        help="timed runs of the search at 10^18, about a minute each "
                             "(default 0: no such case)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.repeats_1e18 < 0:
        parser.error("--repeats-1e18 must be >= 0")

    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.insert(0, str(Path(args.src).resolve()))
    import bealsearch.search as search
    if not Path(search.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        parser.error(f"bealsearch was imported from {search.__file__}, not {args.src}")

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["machine"] = {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                      "python": platform.python_version()}
    runs = doc.setdefault("runs", {}).setdefault(args.label, {})

    cases = [(bound, workers, args.repeats) for bound, workers in CASES]
    if args.repeats_1e18:
        cases.append((10 ** 18, 1, args.repeats_1e18))
    for bound, workers, repeats in cases:
        if workers > (os.cpu_count() or 1):
            print(f"skip bound 10^{len(str(bound)) - 1} workers {workers}: too few CPUs")
            continue
        name = f"search 10^{len(str(bound)) - 1} workers {workers}"
        samples, counts, rss = in_fresh_process(case_in_process, bound, workers, repeats)
        case = runs.setdefault(name, {"bound": str(bound), "minimums": [3, 3, 3],
                                      "workers": workers, "samples": []})
        case["samples"] += samples
        case["repeats"] = len(case["samples"])
        case["counts"] = counts
        for key in ("wall_s",) + PHASES:
            case[key] = summary([sample[key] for sample in case["samples"]])
        probes = counts["scan_probes"]
        case["probes_per_s"] = probes / case["scan_s"]["median"] if probes else None
        case.setdefault("peak_rss_mb_samples", []).append(rss)
        case["peak_rss_mb"] = summary(case["peak_rss_mb_samples"])
        print(f"{args.label}: {name}: wall {case['wall_s']['median']:.3f} s, "
              f"scan {case['scan_s']['median']:.3f} s over {case['repeats']} runs, "
              f"peak RSS {rss:.1f} MB")
    case = runs.setdefault("classify batch cold", {"seed": CLASSIFY_SEED, "samples": []})
    for _ in range(args.repeats):
        seconds, triples, digest, rss = in_fresh_process(classify_in_process)
        case["samples"].append({"wall_s": seconds, "peak_rss_mb": rss})
        case["triples"] = triples
        case.setdefault("output_sha256", digest)
        if digest != case["output_sha256"]:
            raise SystemExit(f"classify output sha256 {digest} != {case['output_sha256']}")
    case["repeats"] = len(case["samples"])
    for key in ("wall_s", "peak_rss_mb"):
        case[key] = summary([sample[key] for sample in case["samples"]])
    print(f"{args.label}: classify batch cold: wall {case['wall_s']['median']:.3f} s "
          f"over {case['repeats']} runs, peak RSS {case['peak_rss_mb']['median']:.1f} MB")
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
