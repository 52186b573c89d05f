"""Time bealsearch's start-up, search and exact kernels and record the numbers.

    python bench/run.py --tree parent=../parent/src --tree change=src --out BENCH_20.json
    python bench/run.py --out BENCH_20.json --repeats-1e18 1
    python bench/run.py --out BENCH_20.json --repeats 1 --completeness

Each --tree LABEL=SRC names a bealsearch package directory to time (default:
change=src of this checkout).  Every sample is taken in a fresh process that
imports bealsearch from one tree's SRC and takes only that sample.  Per
case, the trees take turns sample by sample, in alternating order (parent,
change, change, parent, ...), so a drift of the machine's speed falls on
every tree alike rather than reading as a code change.  Just before and just
after a sample, the same process times HOST_CALLS calls of perfbench's
reference work (perfbench/speed.py's reference_work, after one untimed
call); the sample's host_s is the median seconds of one call over both, so
each sample carries the speed of the host it ran at.

The cases, --repeats samples per tree each:
  startup: a fresh `python -c "import bealsearch.cli"` (import_s, timed
    inside it, and import_process_s, the whole process) and a fresh
    `bealsearch verify-identities --cases 1` (verify_identities_process_s).
    Both read bytecode from a cache of their own (PYTHONPYCACHEPREFIX in a
    new temporary directory), which one untimed verify-identities run fills
    from the tree's source first, so a stale __pycache__ in the tree cannot
    read as a code change; the facts say whether the timed import still
    compiled any module from source (compiled_from_source);
  cli search: a fresh `bealsearch search --bound 10^12` process, from the
    same kind of private bytecode cache, that times its one call of
    cli.main (main_s, as a perfbench child does) and counts the cyclic
    collector's passes in that call and in the first allocations after it,
    where a pass that a paused collector deferred runs (main_gc_passes);
    the whole process is process_s.  The output digest is that of the CSV
    it writes;
  cli verify-identities: the same for a fresh `bealsearch verify-identities
    --cases 500 --seed 1000003` process, perfbench's first identities child;
    the output digest is that of what main prints;
  search: one search (bound, minimums, workers) after one untimed warm-up
    search at 10^6, whose peak memory is below every case's; the sample
    holds wall_s, each phase of SearchReport.phases, the process's peak
    RSS, the larger of its own and its forked workers', the set probes
    and seconds of each sweep of the scan (SearchReport.sweeps and
    SearchReport.sweep_seconds), and the cyclic garbage collector's passes
    and seconds during the search (gc_s in all; gc, per generation, read
    through gc.callbacks: a library call runs with the collector on).  The
    cases are 10^12, 10^14 and 10^16 with minimums 3,3,3 and 1 worker,
    10^14 with 2, and perfbench's search_split, 10^13 with minimums 4,3,3
    and 2 workers.
    The search at 10^18 (about a minute per run) is a case only with
    --repeats-1e18;
  completeness (only with --completeness, about three minutes per tree):
    search_solutions against the plain right-anchored lookup of
    tests/test_search.py (_lookup_reference, one set lookup per pair) at
    10^13 with minimums 3,3,3 and 4,3,3 and at 10^14 with 3,3,3; the sample
    holds both times, the hit count and the triples each side lacks.  Also
    the two solution families of tests/test_search.py (_common_factor_family
    and _scaled_family, no power table) against the search's hits at 10^16;
    the sample holds both times, each family's size, their share of the hits
    together and the family triples the search lacks.  And the search at 10^16
    against the same search with its exact filters off (the search
    module's names set to tests/test_search.py's _FILTER_FREE, about 10 s);
    the sample holds both times, both hit counts and both probe counts.
    The run exits 1 when the search differs from any of these references;
  classify: `bealsearch classify` on perfbench's first classify_batch (100
    family solutions, then 100 random non-solutions), so the tables the
    first call builds are timed with it, and the process's peak RSS;
  factorize: the gcd(A, B, C) of the same batch's family solutions (100
    gcds of up to 36 bits, what classify factors), a first pass over them
    (cold_s, trial tables built) and then a second (warm_s);
  kernel: one exact kernel on a fixed, seeded list of inputs; the sample is
    the mean time per call over at least KERNEL_MIN_S of calls, after one
    untimed pass over them.  One kernel
    case is the identity suite, run_random_suite, on one fixed seed and case
    count; one is the JSON writer, records.json_text, on the report object
    of a search at 10^12; one is cli.classify_obj over each triple of the
    classify case's batch; one is the printed scalar estimate
    (cli._scalar_obj on the plane-CB pair) over the same triples, whose
    facts hold how many of them fall back to scalar_m at 256 bits.  Two
    are the two-cube solve, search._cube_pairs, over every non-cube of the
    scan's lanes at 10^12 and at 10^16 (one call per non-cube), whose facts
    hold the divisors it tries in all.
The startup, cli search, classify, factorize and completeness cases also
record the sha256 of what they print or return, which must be the same in
every sample of every tree.

Every run adds its samples to each case under its tree's label in --out, so
runs can be added to one file; the statistics are recomputed over all samples
of a label: per case the raw samples and, per timed quantity, the median,
minimum and quartiles, and for each time (a name ending in _s, or
us_per_call) beside them scaled_median, the median of the sample's time
times REFERENCE_S / host_s (perfbench/speed.py's REFERENCE_S): the time at
the host speed where the reference work takes REFERENCE_S.  A search case
also holds the report's counts and the set probes of the scan per second of
median scan_s when the report counts them (SearchReport.scan_probes), the
probes and found pairs of each sweep of the scan (SearchReport.sweeps) and,
per sweep, the statistics of its seconds (SearchReport.sweep_seconds).  The
machine facts are nproc, the CPU model, the Python version and whether
Python writes bytecode caches (without them every start-up compiles the
package from source).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import multiprocessing
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# (bound, minimums, workers); the last is perfbench's search_split
CASES = [(10 ** 12, (3, 3, 3), 1), (10 ** 14, (3, 3, 3), 1), (10 ** 16, (3, 3, 3), 1),
         (10 ** 14, (3, 3, 3), 2), (10 ** 13, (4, 3, 3), 2)]
COMPLETENESS = [(10 ** 13, (3, 3, 3)), (10 ** 13, (4, 3, 3)), (10 ** 14, (3, 3, 3))]
# perfbench's first child of a workload: seed 1, iteration 0
CHILD_SEED = 1_000_003
PHASES = ("enumerate_s", "index_s", "scan_s", "annotate_s")
KERNEL_MIN_S = 0.05
# calls of perfbench's reference work (about 1 ms each) just before and just after each sample
HOST_CALLS = 10
# Run with the tree's SRC as argv[1], each in a fresh interpreter.  The import
# prints its seconds and then whether any bealsearch module it loaded lacks a
# bytecode file, which, in a process that writes none, means it compiled that
# module from source.
IMPORT_SCRIPT = ("import os, sys, time; sys.path.insert(0, sys.argv[1]); "
                 "started = time.perf_counter(); import bealsearch.cli; "
                 "print(time.perf_counter() - started); "
                 "print(not all(os.path.exists(module.__cached__) "
                 "for name, module in sys.modules.items() if name.split('.')[0] == 'bealsearch'))")
MAIN_SCRIPT = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "from bealsearch.cli import main; sys.exit(main(sys.argv[2:]))")
# MAIN_SCRIPT that prints, after main's own output, the seconds of its call
# of main and the cyclic collector's passes from the call to the count.
TIMED_MAIN_SCRIPT = (
    "import gc, sys, time; sys.path.insert(0, sys.argv[1]); "
    "from bealsearch.cli import main; "
    "passes = lambda: sum(stats['collections'] for stats in gc.get_stats()); "
    "before = passes(); started = time.perf_counter(); code = main(sys.argv[2:]); "
    "print(time.perf_counter() - started, passes() - before); sys.exit(code)")


def use_tree(src: str) -> None:
    """Import bealsearch from src in this fresh process, and only from there."""
    sys.path.insert(0, src)
    import bealsearch
    if not Path(bealsearch.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"bealsearch was imported from {bealsearch.__file__}, not {src}")


def kernel_cases() -> dict[str, tuple]:
    """Each kernel case: a function that returns the kernel and the argument
    tuples of its calls, so a sample builds only the inputs of its own case."""
    from fractions import Fraction

    from bealsearch import cli, records, reparam, search
    from bealsearch.cli import classify_obj
    from bealsearch.exact_arith import classify_radical, iroot, is_perfect_power
    from bealsearch.identity import run_random_suite
    from bealsearch.reparam import Plane, canonical_alpha_beta, scalar_m
    from bealsearch.search import SearchConfig, search_solutions
    from bealsearch.triples import BealTriple
    from workloads import classify_inputs  # perfbench's, on sys.path too

    rng = random.Random(14)

    def odd_ints(bits: int, count: int) -> list[int]:
        return [rng.getrandbits(bits) | 1 << (bits - 1) | 1 for _ in range(count)]

    radicands = [(Fraction(p, q), degree)
                 for p, q, degree in zip(odd_ints(64, 16), odd_ints(64, 16),
                                         [3, 4, 5, 6, 7, 8, 9, 10] * 2)]
    triple = BealTriple(3, 3, 6, 3, 3, 5)  # alpha rational, beta irrational
    iroot_calls = [(n, k) for n in odd_ints(500, 16) for k in (3, 5, 7)]
    power_calls = {bits: [(n,) for n in odd_ints(bits, count)]
                   for bits, count in ((64, 16), (500, 8), (2000, 4))}

    class Caught(Exception):
        """Stops a search once its lanes are built."""

    def cube_pairs_case(bound: int):
        """search._cube_pairs over every non-cube of the scan's lanes at bound."""
        caught, real = [], search._match_forked

        def catching(lanes, workers):
            caught.append(lanes)
            raise Caught

        search._match_forked = catching
        try:
            search_solutions(SearchConfig(bound))
        except Caught:
            pass
        finally:
            search._match_forked = real
        lanes = caught[0]
        # an older tree's walk also takes a dict of the cubes it solves
        solved = ({},) if search._cube_pairs.__code__.co_argcount == 5 else ()
        calls = [(lanes, entry, entry.exponent >= lanes.lo_exp, entry.exponent >= lanes.min_z,
                  *solved) for entry in lanes.non_cubes]
        return search._cube_pairs, calls, {"tries": sum(search._cube_pairs(*args)[1]
                                                        for args in calls)}

    def scalar_estimate_case():
        """cli._scalar_obj over the classify batch, and its fallbacks to scalar_m."""
        batch = [BealTriple(*t) for t in classify_inputs(CHILD_SEED, smoke=False)]
        calls = [(t, canonical_alpha_beta(t, Plane.CB)) for t in batch]
        fallbacks, real = [], reparam.scalar_m
        reparam.scalar_m = lambda *args: fallbacks.append(args) or real(*args)
        try:
            for args in calls:
                cli._scalar_obj(*args)
        finally:
            reparam.scalar_m = real
        return cli._scalar_obj, calls, {"fallbacks": len(fallbacks)}

    return {
        "iroot 500 bits k 3,5,7": lambda: (iroot, iroot_calls),
        "is_perfect_power 64 bits": lambda: (is_perfect_power, power_calls[64]),
        "is_perfect_power 500 bits": lambda: (is_perfect_power, power_calls[500]),
        "is_perfect_power 2000 bits": lambda: (is_perfect_power, power_calls[2000]),
        # half irrational, half the same radicands raised to their degree
        "classify_radical": lambda: (classify_radical,
                                     [(1, r, d) for r, d in radicands]
                                     + [(1, r ** d, d) for r, d in radicands]),
        "scalar_m 3,3,6,3,3,5": lambda: (scalar_m,
                                         [(triple, canonical_alpha_beta(triple, Plane.CB))]),
        "run_random_suite 200 cases seed 15": lambda: (run_random_suite, [(200, 15)]),
        "json writer 10^12 report": lambda: (records.json_text, [(records.report_to_obj(
            search_solutions(SearchConfig(10 ** 12))),)]),
        "classify_obj classify batch": lambda: (classify_obj, [
            (BealTriple(*t),) for t in classify_inputs(CHILD_SEED, smoke=False)]),
        "scalar estimate classify batch": scalar_estimate_case,
        "cube_pairs 10^12 lanes": lambda: cube_pairs_case(10 ** 12),
        "cube_pairs 10^16 lanes": lambda: cube_pairs_case(10 ** 16),
    }


# The kernel case names, without importing bealsearch; kernel_cases builds the same.
KERNELS = ("iroot 500 bits k 3,5,7", "is_perfect_power 64 bits", "is_perfect_power 500 bits",
           "is_perfect_power 2000 bits", "classify_radical", "scalar_m 3,3,6,3,3,5",
           "run_random_suite 200 cases seed 15", "json writer 10^12 report",
           "classify_obj classify batch", "scalar estimate classify batch",
           "cube_pairs 10^12 lanes", "cube_pairs 10^16 lanes")


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


def peak_rss_mb() -> float:
    """This process's peak RSS, or its largest waited-for child's, in MB."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --- the cases: each sends one (sample, facts, output digest or None) through conn

@contextlib.contextmanager
def private_bytecode(src: str):
    """The environment of a process that reads bytecode from a private cache,
    filled by one untimed verify-identities run from the tree's current
    source, so no stale __pycache__ in the tree is ever read."""
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=cache)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        subprocess.run([sys.executable, "-c", MAIN_SCRIPT, src, "verify-identities",
                        "--cases", "1"], env=env, capture_output=True)
        env["PYTHONDONTWRITEBYTECODE"] = "1"  # the timed processes only read it
        yield env


class GcTimer:
    """The cyclic collector's passes and seconds per generation while installed."""

    def __init__(self):
        self.passes, self.seconds, self._started = [0, 0, 0], [0.0, 0.0, 0.0], 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.passes[info["generation"]] += 1
            self.seconds[info["generation"]] += time.perf_counter() - self._started

    def __enter__(self) -> "GcTimer":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def startup_sample(src: str, conn) -> None:
    verify = [sys.executable, "-c", MAIN_SCRIPT, src, "verify-identities", "--cases", "1"]
    with private_bytecode(src) as env:
        started = time.perf_counter()
        imported = subprocess.run([sys.executable, "-c", IMPORT_SCRIPT, src],
                                  capture_output=True, text=True, check=True, env=env)
        middle = time.perf_counter()
        verified = subprocess.run(verify, capture_output=True, text=True, env=env)
        done = time.perf_counter()
    import_s, compiled = imported.stdout.split()
    sample = {"import_s": float(import_s), "import_process_s": middle - started,
              "verify_identities_process_s": done - middle}
    conn.send((sample, {"compiled_from_source": compiled == "True"},
               digest(f"{verified.returncode}\n{verified.stdout}")))


def timed_main(src: str, argv: list[str], env: dict) -> tuple[dict, str]:
    """One fresh process's call of cli.main(argv): the sample (main_s, process_s and
    main_gc_passes) and what main printed."""
    started = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", TIMED_MAIN_SCRIPT, src, *argv],
                          capture_output=True, text=True, check=True, env=env)
    process_s = time.perf_counter() - started
    printed, _, timing = done.stdout.rstrip("\n").rpartition("\n")  # the timing line is last
    main_s, passes = timing.split()
    return ({"main_s": float(main_s), "process_s": process_s, "main_gc_passes": int(passes)},
            printed)


def cli_search_sample(src: str, conn) -> None:
    with private_bytecode(src) as env, tempfile.TemporaryDirectory() as out:
        csv = Path(out) / "hits.csv"
        sample, _ = timed_main(src, ["search", "--bound", "10^12", "--out", str(csv)], env)
        hits = csv.read_text()
    conn.send((sample, {"argv": "search --bound 10^12"}, digest(hits)))


def cli_verify_identities_sample(src: str, conn) -> None:
    from workloads import identity_argv  # perfbench's, on sys.path too

    argv = identity_argv(CHILD_SEED, smoke=False)
    with private_bytecode(src) as env:
        sample, printed = timed_main(src, argv, env)
    conn.send((sample, {"argv": " ".join(argv)}, digest(printed)))


def search_sample(src: str, bound: int, minimums: tuple[int, int, int], workers: int,
                  conn) -> None:
    use_tree(src)
    import bealsearch.search as search

    search.search_solutions(search.SearchConfig(bound=10 ** 6))  # warm-up, untimed
    with GcTimer() as collector:
        started = time.perf_counter()
        report = search.search_solutions(search.SearchConfig(bound, *minimums, workers=workers))
        sample = {"wall_s": time.perf_counter() - started}
    sample["gc_s"] = sum(collector.seconds)
    sample["gc"] = {str(generation): {"passes": passes, "s": seconds}
                    for generation, (passes, seconds)
                    in enumerate(zip(collector.passes, collector.seconds))}
    sample.update((name, report.phases[name]) for name in PHASES)
    sample["peak_rss_mb"] = peak_rss_mb()
    sample["probes"] = {name: sweep["probes"] for name, sweep in report.sweeps.items()}
    sample["sweep_seconds"] = report.sweep_seconds
    counts = dict(report.counts, scan_probes=report.scan_probes)
    conn.send((sample, {"counts": counts, "sweeps": report.sweeps}, None))


def completeness_sample(src: str, bound: int, minimums: tuple[int, int, int], conn) -> None:
    use_tree(src)
    sys.path.insert(0, str(ROOT / "tests"))
    from test_search import _lookup_reference

    from bealsearch.search import SearchConfig, search_solutions

    started = time.perf_counter()
    found = search_solutions(SearchConfig(bound, *minimums)).triples
    middle = time.perf_counter()
    reference = _lookup_reference(bound, minimums)
    done = time.perf_counter()
    sample = {"search_s": middle - started, "reference_s": done - middle}
    found_set, reference_set = set(found), set(reference)
    facts = {"hits": len(found), "reference_hits": len(reference),
             "equal": found == reference,
             "search_lacks": [str(t) for t in reference if t not in found_set],
             "reference_lacks": [str(t) for t in found if t not in reference_set]}
    conn.send((sample, facts, digest(repr(found))))


def family_sample(src: str, bound: int, conn) -> None:
    use_tree(src)
    sys.path.insert(0, str(ROOT / "tests"))
    from test_search import _common_factor_family, _scaled_family

    from bealsearch.search import SearchConfig, search_solutions

    started = time.perf_counter()
    hits = set(search_solutions(SearchConfig(bound)).triples)
    middle = time.perf_counter()
    family = _common_factor_family(bound)
    scaled = _scaled_family(bound)
    done = time.perf_counter()
    both = family | scaled
    sample = {"search_s": middle - started, "family_s": done - middle}
    facts = {"hits": len(hits), "family": len(family), "scaled_family": len(scaled),
             "families_share": len(both) / len(hits),
             "search_lacks": sorted(map(str, both - hits))}
    conn.send((sample, facts, digest(repr(sorted(both)))))


def filter_free_sample(src: str, bound: int, conn) -> None:
    use_tree(src)
    sys.path.insert(0, str(ROOT / "tests"))
    from test_search import _FILTER_FREE

    from bealsearch import search

    started = time.perf_counter()
    filtered = search.search_solutions(search.SearchConfig(bound))
    middle = time.perf_counter()
    for name, value in _FILTER_FREE.items():
        setattr(search, name, value)
    free = search.search_solutions(search.SearchConfig(bound))
    done = time.perf_counter()
    sample = {"search_s": middle - started, "filter_free_s": done - middle}
    facts = {"hits": len(filtered.triples), "filter_free_hits": len(free.triples),
             "equal": free.triples == filtered.triples, "probes": filtered.scan_probes,
             "filter_free_probes": free.scan_probes}
    conn.send((sample, facts, digest(repr(filtered.triples))))


def classify_sample(src: str, conn) -> None:
    use_tree(src)
    import bealsearch.cli as cli
    from workloads import classify_inputs  # perfbench's, on sys.path too

    outputs = []
    triples = classify_inputs(CHILD_SEED, smoke=False)
    started = time.perf_counter()
    for triple in triples:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(["classify", "--triple", ",".join(map(str, triple))])
        outputs.append(f"{code}\n{buffer.getvalue()}")
    seconds = time.perf_counter() - started
    conn.send(({"wall_s": seconds, "peak_rss_mb": peak_rss_mb()},
               {"seed": CHILD_SEED, "triples": len(triples)}, digest("".join(outputs))))


def factorize_sample(src: str, conn) -> None:
    use_tree(src)
    from bealsearch.exact_arith import factorize
    from bealsearch.triples import BealTriple
    from workloads import CLASSIFY_BATCH, classify_inputs  # perfbench's, on sys.path too

    triples = classify_inputs(CHILD_SEED, smoke=False)[:CLASSIFY_BATCH[0]]
    gcds = [BealTriple(*triple).gcd_abc for triple in triples]
    sample = {}
    for key in ("cold_s", "warm_s"):
        started = time.perf_counter()
        factors = [factorize(n) for n in gcds]
        sample[key] = time.perf_counter() - started
    conn.send((sample, {"seed": CHILD_SEED, "gcds": len(gcds)}, digest(repr(factors))))


def kernel_sample(src: str, name: str, conn) -> None:
    """The mean microseconds per call of one kernel case over at least KERNEL_MIN_S."""
    use_tree(src)
    cases = kernel_cases()
    assert tuple(cases) == KERNELS, "KERNELS names the cases of kernel_cases"
    kernel, calls, *facts = cases[name]()
    for args in calls:  # untimed, so tables a kernel builds on first use are built
        kernel(*args)
    rounds = 0
    started = time.perf_counter()
    while True:
        for args in calls:
            kernel(*args)
        rounds += 1
        elapsed = time.perf_counter() - started
        if elapsed >= KERNEL_MIN_S:
            break
    conn.send(({"us_per_call": 1e6 * elapsed / (rounds * len(calls))},
               dict({"calls": len(calls)}, **(facts[0] if facts else {})), None))


def host_seconds() -> list[float]:
    """The seconds of each of HOST_CALLS calls of perfbench's reference work,
    after one untimed call."""
    from speed import reference_work  # perfbench's, on sys.path too

    reference_work()
    seconds = []
    for _ in range(HOST_CALLS):
        started = time.perf_counter()
        reference_work()
        seconds.append(time.perf_counter() - started)
    return seconds


def host_timed(target, args: tuple, conn) -> None:
    """target(*args, conn), with the host's speed sampled just before and just
    after it: its sample gains host_s, the median seconds of one call of the
    reference work over both."""
    sent = []
    before = host_seconds()
    target(*args, types.SimpleNamespace(send=sent.append))
    sample, facts, output = sent[0]
    sample["host_s"] = statistics.median(before + host_seconds())
    conn.send((sample, facts, output))


def in_fresh_process(target, *args):
    """What target(*args, conn) sends, with host_s (host_timed), run in a fresh
    process that runs only it."""
    context = multiprocessing.get_context("spawn")
    receiver, sender = context.Pipe(duplex=False)
    process = context.Process(target=host_timed, args=(target, args, sender))
    process.start()
    sender.close()  # so recv raises EOFError, not waits, if the process dies
    try:
        return receiver.recv()
    finally:
        process.join()


def run_case(runs: dict, trees: list[tuple[str, str]], name: str, repeats: int,
             target, *args) -> None:
    """Add repeats samples per tree to the case name, the trees taking turns,
    each sample what target(src, *args, conn) sends from a fresh process."""
    from speed import REFERENCE_S  # perfbench's, on sys.path too

    for repeat in range(repeats):
        for label, src in trees if repeat % 2 == 0 else trees[::-1]:
            sample, facts, output = in_fresh_process(target, src, *args)
            case = runs[label].setdefault(name, {"samples": []})
            case["samples"].append(sample)
            case.update(facts)
            case["repeats"] = len(case["samples"])
            for key, value in sample.items():
                if isinstance(value, dict):  # a search's per-sweep figures: see main
                    continue
                case[key] = summary([run[key] for run in case["samples"]])
                if key != "host_s" and (key.endswith("_s") or key == "us_per_call"):
                    case[key]["scaled_median"] = statistics.median(
                        run[key] * REFERENCE_S / run["host_s"] for run in case["samples"]
                        if "host_s" in run)
            if output is not None:
                known = {runs[other][name].get("output_sha256") for other in runs
                         if name in runs[other]} - {None}
                if known - {output}:
                    raise SystemExit(f"{name} ({label}): output sha256 {output} != {known}")
                case["output_sha256"] = output
    for label, _ in trees:
        case = runs[label][name]
        medians = ", ".join(f"{key} {value['median']:.6g}"
                            + (f" (scaled {value['scaled_median']:.6g})"
                               if "scaled_median" in value else "")
                            for key, value in case.items()
                            if isinstance(value, dict) and "median" in value)
        print(f"{label}: {name}: {medians} over {case['repeats']} runs")


def minimums_label(minimums: tuple[int, int, int]) -> str:
    """The case-name part for minimums, empty for 3,3,3 (the names of earlier files)."""
    return "" if minimums == (3, 3, 3) else f" minimums {','.join(map(str, minimums))}"


def tree(text: str) -> tuple[str, str]:
    label, sep, src = text.partition("=")
    if not sep or not label or not (Path(src) / "bealsearch" / "cli.py").is_file():
        raise argparse.ArgumentTypeError(f"{text}: need LABEL=SRC, SRC holding bealsearch")
    return label, str(Path(src).resolve())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=tree, action="append",
                        help="LABEL=SRC: a bealsearch package directory to time under "
                             "LABEL; repeat to interleave trees (default: change=src)")
    parser.add_argument("--out", required=True, help="JSON file to add the samples to")
    parser.add_argument("--repeats", type=int, default=5, help="samples per case and tree")
    parser.add_argument("--repeats-1e18", type=int, default=0,
                        help="samples of the search at 10^18, about a minute each "
                             "(default 0: no such case)")
    parser.add_argument("--completeness", action="store_true",
                        help="also compare the search with the plain per-pair lookup "
                             "of the tests at 10^13 and 10^14 and with their solution "
                             "families at 10^16, one sample per tree")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.repeats_1e18 < 0:
        parser.error("--repeats-1e18 must be >= 0")
    trees = args.tree or [tree(f"change={ROOT / 'src'}")]
    if len({label for label, _ in trees}) < len(trees):
        parser.error("each --tree needs its own label")
    sys.path.insert(0, str(ROOT / "perfbench"))  # for perfbench's workloads, in every process

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["machine"] = {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                      "python": platform.python_version(),
                      "dont_write_bytecode": sys.dont_write_bytecode}
    runs = doc.setdefault("runs", {})
    for label, _ in trees:
        runs.setdefault(label, {})

    run_case(runs, trees, "startup", args.repeats, startup_sample)
    run_case(runs, trees, "cli search 10^12", args.repeats, cli_search_sample)
    run_case(runs, trees, "cli verify-identities", args.repeats, cli_verify_identities_sample)
    cases = [(bound, minimums, workers, args.repeats) for bound, minimums, workers in CASES]
    if args.repeats_1e18:
        cases.append((10 ** 18, (3, 3, 3), 1, args.repeats_1e18))
    for bound, minimums, workers, repeats in cases:
        name = f"search 10^{len(str(bound)) - 1}{minimums_label(minimums)} workers {workers}"
        if workers > (os.cpu_count() or 1):
            print(f"skip {name}: too few CPUs")
            continue
        run_case(runs, trees, name, repeats, search_sample, bound, minimums, workers)
        for label, _ in trees:
            case = runs[label][name]
            case.update(bound=str(bound), minimums=list(minimums), workers=workers)
            probes = case["counts"]["scan_probes"]
            case["probes_per_s"] = probes / case["scan_s"]["median"] if probes else None
            seconds = [run["sweep_seconds"] for run in case["samples"] if "sweep_seconds" in run]
            if seconds:
                case["sweep_seconds"] = {sweep: summary([run[sweep] for run in seconds])
                                         for sweep in seconds[0]}
            collected = [run["gc"] for run in case["samples"] if "gc" in run]
            if collected:
                case["gc"] = {generation: {
                    "passes": statistics.median(run[generation]["passes"] for run in collected),
                    "s": summary([run[generation]["s"] for run in collected])}
                    for generation in collected[0]}
    differ = []
    for bound, minimums in COMPLETENESS if args.completeness else []:
        name = f"completeness 10^{len(str(bound)) - 1} minimums {','.join(map(str, minimums))}"
        run_case(runs, trees, name, 1, completeness_sample, bound, minimums)
        differ += [f"{name} ({label})" for label, _ in trees if not runs[label][name]["equal"]]
    if args.completeness:
        name = "completeness 10^16 solution families"
        run_case(runs, trees, name, 1, family_sample, 10 ** 16)
        differ += [f"{name} ({label})" for label, _ in trees if runs[label][name]["search_lacks"]]
        name = "completeness 10^16 filter-free scan"
        run_case(runs, trees, name, 1, filter_free_sample, 10 ** 16)
        differ += [f"{name} ({label})" for label, _ in trees if not runs[label][name]["equal"]]
    run_case(runs, trees, "classify batch cold", args.repeats, classify_sample)
    run_case(runs, trees, "factorize family gcds", args.repeats, factorize_sample)
    for name in KERNELS:
        run_case(runs, trees, f"kernel {name}", args.repeats, kernel_sample, name)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    if differ:
        print(f"the search differs from the lookup, the families or the filter-free scan: "
              f"{'; '.join(differ)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
