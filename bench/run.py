"""Time bealsearch's start-up, search and exact kernels and record the numbers.

    python bench/run.py --tree parent=../parent/src --tree change=src --out BENCH_20.json
    python bench/run.py --out BENCH_20.json --repeats-1e18 1
    python bench/run.py --out BENCH_20.json --repeats 1 --completeness

Each --tree LABEL=SRC names a bealsearch package directory to time (default:
change=src of this checkout).  Per case, the trees take turns sample by
sample, in alternating order (parent, change, change, parent, ...), so a
drift of the machine's speed falls on every tree alike rather than reading as
a code change.

Every sample is one fresh `python -c` process (fresh_process) that imports
bealsearch from one tree's SRC, takes only that sample and prints, as its
last line, a JSON object of what it measured.  Just before and just after
what it times, the process times HOST_CALLS calls of perfbench's reference
work (perfbench/speed.py's reference_work, after one untimed call:
HOST_SCRIPT's sample_host); the sample's host_s is the median seconds of one
call over both, so each sample carries the speed of the host it ran at.  The
startup and cli cases are such processes themselves (IMPORT_SCRIPT and
TIMED_MAIN_SCRIPT), which sample the host around their import of
bealsearch.cli or their call of cli.main; their process times leave out the
seconds of that sampling, but each has loaded perfbench's speed module (and
so fractions) before what it times.  Every other case is a function of this
file, which a process of CASE_SCRIPT loads by its path and runs between its
two host samples.  Every sample process reads bytecode only from a cache
private to the run (PYTHONPYCACHEPREFIX in a new temporary directory), which
one untimed sample process per tree fills from the tree's current source
first, and writes none, so a stale __pycache__ in a tree cannot read as a
code change and no run leaves one in a tree; nor does this process write one.

The cases, --repeats samples per tree each:
  startup: a fresh `python -c "import bealsearch.cli"` (import_s, timed
    inside it, and import_process_s, the whole process) and a fresh
    `bealsearch verify-identities --cases 1` (verify_identities_process_s);
    host_s is the median over both processes.  The facts say whether the
    timed import still compiled any module from source
    (compiled_from_source);
  cli search: a fresh `bealsearch search --bound 10^12` process that times
    its one call of cli.main (main_s, as a perfbench child does) and counts
    the cyclic collector's passes in that call and in the first allocations
    after it, where a pass that a paused collector deferred runs
    (main_gc_passes); the whole process is process_s.  The output digest is
    that of the CSV it writes;
  cli verify-identities: the same for a fresh `bealsearch verify-identities
    --cases 500 --seed 1000003` process, perfbench's first identities child;
    the output digest is that of what main prints;
  search: one search (bound, minimums, workers) after one untimed warm-up
    search at 10^6, whose peak memory is below every case's; the sample
    holds wall_s, each phase of SearchReport.phases, the process's peak
    RSS, the larger of its own (peak_rss_mb) and its forked workers', the probes
    and seconds of each sweep of the scan (SearchReport.sweeps and
    SearchReport.sweep_seconds), and the cyclic garbage collector's passes
    and seconds during the search (gc_s in all; gc, per generation, read
    through gc.callbacks).  The search runs with the collector paused, as
    cli.main runs it, so a pass cannot fall in one phase and read as a code
    change; gc shows that none ran, and the collector is then left as it
    was.  The cases are 10^12, 10^14 and 10^16 with minimums 3,3,3 and 1
    worker, 10^14 with 2, and perfbench's search_split, 10^13 with minimums
    4,3,3 and 2 workers.  The search at 10^18 (a few seconds per run) is a
    case only with --repeats-1e18;
  completeness (only with --completeness, two to three minutes per tree):
    search_solutions against the plain right-anchored lookup of
    tests/test_search.py (_lookup_reference, one set lookup per pair) at
    10^13 with minimums 3,3,3 and 4,3,3 and at 10^14 with 3,3,3; the sample
    holds both times, the hit count and the triples each side lacks.  Also
    the two solution families of tests/test_search.py (_common_factor_family
    and _scaled_family, no power table) against the search's hits at 10^16;
    the sample holds both times, each family's size, their share of the hits
    together and the family triples the search lacks.  And the search at 10^16
    against the same search with its exact filters off (the search
    module's names set to tests/test_search.py's _FILTER_FREE, about a minute);
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
    count; one is the JSON report writer, records.emit_json, on the report
    of a search at 10^12 (its hit records built in the call); one is
    verify_hit, each call on its own, over the 198 triples that search
    finds; one is the classify bundle's text, cli.classify_text, over each
    triple of the classify case's batch; one is the printed scalar estimate
    (cli._scalar_text, on the plane-CB pair) over the same triples, whose
    facts hold how many of them fall back to scalar_m at 256 bits.  Two
    are the two-cube solve, search._cube_pairs, over every non-cube of the
    scan's lanes at 10^12 and at 10^16 (one call per non-cube), whose facts
    hold the divisors it tries in all.  One is a warm
    cli.main(["verify-identities", "--cases", "1"]) with stdout redirected,
    the per-call cost of the command line (parsing, the command and its
    output) beside the fresh-process cli cases and classify batch cold.
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
also holds the report's counts and the probes of the scan per second of
median scan_s when the report counts them (SearchReport.scan_probes), the
probes and found pairs of each sweep of the scan (SearchReport.sweeps) and,
per sweep, the statistics of its seconds (SearchReport.sweep_seconds).  The
machine facts are nproc (the CPUs this process may run on), the CPU model,
the Python version and whether Python writes bytecode caches by default (no
sample depends on it: every sample reads the run's private cache).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# (bound, minimums, workers); the last is perfbench's search_split
CASES = [(10 ** 12, (3, 3, 3), 1), (10 ** 14, (3, 3, 3), 1), (10 ** 16, (3, 3, 3), 1),
         (10 ** 14, (3, 3, 3), 2), (10 ** 13, (4, 3, 3), 2)]
# (name, reference, bound, minimums) of the completeness cases (completeness_sample)
COMPLETENESS = [("completeness 10^13 minimums 3,3,3", "reference", 10 ** 13, (3, 3, 3)),
                ("completeness 10^13 minimums 4,3,3", "reference", 10 ** 13, (4, 3, 3)),
                ("completeness 10^14 minimums 3,3,3", "reference", 10 ** 14, (3, 3, 3)),
                ("completeness 10^16 solution families", "family", 10 ** 16, (3, 3, 3)),
                ("completeness 10^16 filter-free scan", "filter_free", 10 ** 16, (3, 3, 3))]
# perfbench's first child of a workload: seed 1, iteration 0
CHILD_SEED = 1_000_003
PHASES = ("enumerate_s", "index_s", "scan_s", "annotate_s")
KERNEL_MIN_S = 0.05
# calls of perfbench's reference work (about 1 ms each) just before and just after each sample
HOST_CALLS = 10
# The start of every sample process's script, with the tree's SRC as argv[1]:
# sample_host times HOST_CALLS calls of perfbench's reference work, after one
# untimed call, and finish prints, as the last line, a JSON object of what
# the process measured.  That holds host, the seconds of each of those calls,
# and host_spent_s, the seconds that sampling took in all.
HOST_SCRIPT = f"""\
import os, sys, time
sys.path.insert(0, sys.argv[1])
sys.path.append({str(ROOT / "perfbench")!r})
from speed import reference_work
measured = {{"host": [], "host_spent_s": 0.0}}


def sample_host():
    started = time.perf_counter()
    reference_work()
    for _ in range({HOST_CALLS}):
        call = time.perf_counter()
        reference_work()
        measured["host"].append(time.perf_counter() - call)
    measured["host_spent_s"] += time.perf_counter() - started


def finish():
    import json
    print(json.dumps(measured))
"""
# Samples the host just before and just after it imports bealsearch.cli, and
# measures the import's seconds and whether any bealsearch module it loaded
# lacks a bytecode file, which, in a process that writes none, means it
# compiled that module from source.
IMPORT_SCRIPT = HOST_SCRIPT + """\
sample_host()
started = time.perf_counter()
import bealsearch.cli
measured["import_s"] = time.perf_counter() - started
sample_host()
measured["compiled"] = not all(os.path.exists(module.__cached__) for name, module
                               in sys.modules.items() if name.split(".")[0] == "bealsearch")
finish()
"""
# Imports cli.main and samples the host just before and just after it calls
# main(argv[2:]); measures, after main's own output, the seconds of the call
# and the cyclic collector's passes from the call to the count.  Of what it
# measures (fresh_process), a cli case's sample keeps MAIN_KEYS.
MAIN_KEYS = ("main_s", "process_s", "main_gc_passes", "host_s")
TIMED_MAIN_SCRIPT = HOST_SCRIPT + """\
import gc
from bealsearch.cli import main
passes = lambda: sum(stats["collections"] for stats in gc.get_stats())
sample_host()
before = passes()
started = time.perf_counter()
code = main(sys.argv[2:])
measured["main_s"] = time.perf_counter() - started
measured["main_gc_passes"] = passes() - before
sample_host()
finish()
sys.exit(code)
"""
# Loads this file by its path (perfbench's run.py is a `run` too), checks
# where bealsearch comes from, and runs the case function named argv[2] on
# the arguments whose repr is argv[3] between two samples of the host; the
# case returns its sample, its facts and the digest of its output or None.
CASE_SCRIPT = HOST_SCRIPT + f"""\
import ast, importlib.util
spec = importlib.util.spec_from_file_location("bench_run", {str(Path(__file__).resolve())!r})
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)
bench.use_tree(sys.argv[1])
case, args = getattr(bench, sys.argv[2]), ast.literal_eval(sys.argv[3])
sample_host()
measured["case"] = case(*args)
sample_host()
finish()
"""


def use_tree(src: str) -> None:
    """Check that this process imports bealsearch from src, and only from there."""
    import bealsearch
    if not Path(bealsearch.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"bealsearch was imported from {bealsearch.__file__}, not {src}")


def kernel_cases() -> dict:
    """Each kernel case: a function of the bealsearch package, its modules
    imported, that returns the kernel and the argument tuples of its calls
    (and perhaps facts), so a sample builds only the inputs of its own case.
    Building the dict imports no bealsearch, so any process reads the names."""
    from fractions import Fraction

    from workloads import classify_inputs  # perfbench's, on sys.path too

    rng = random.Random(14)

    def odd_ints(bits: int, count: int) -> list[int]:
        return [rng.getrandbits(bits) | 1 << (bits - 1) | 1 for _ in range(count)]

    radicands = [(Fraction(p, q), degree)
                 for p, q, degree in zip(odd_ints(64, 16), odd_ints(64, 16),
                                         [3, 4, 5, 6, 7, 8, 9, 10] * 2)]
    iroot_calls = [(n, k) for n in odd_ints(500, 16) for k in (3, 5, 7)]
    power_calls = {bits: [(n,) for n in odd_ints(bits, count)]
                   for bits, count in ((64, 16), (500, 8), (2000, 4))}

    class Caught(Exception):
        """Stops a search once its lanes are built."""

    def cube_pairs_case(search, bound: int):
        """search._cube_pairs over every non-cube of the scan's lanes at bound."""
        caught, real = [], search._match_forked

        def catching(lanes, workers):
            caught.append(lanes)
            raise Caught

        search._match_forked = catching
        try:
            search.search_solutions(search.SearchConfig(bound))
        except Caught:
            pass
        finally:
            search._match_forked = real
        lanes = caught[0]
        calls = [(lanes, entry, entry.exponent >= lanes.lo_exp, entry.exponent >= lanes.min_z)
                 for entry in lanes.non_cubes]
        return search._cube_pairs, calls, {"tries": sum(search._cube_pairs(*args)[1]
                                                        for args in calls)}

    def scalar_estimate_case(b):
        """cli._scalar_text over the classify batch, and its fallbacks to scalar_m."""
        scalar, reparam = b.cli._scalar_text, b.reparam
        calls = [(t, reparam.canonical_alpha_beta(t, reparam.Plane.CB)) for t in
                 [b.triples.BealTriple(*t) for t in classify_inputs(CHILD_SEED, smoke=False)]]
        fallbacks, real = [], reparam.scalar_m
        reparam.scalar_m = lambda *args: fallbacks.append(args) or real(*args)
        try:
            for args in calls:
                scalar(*args)
        finally:
            reparam.scalar_m = real
        return scalar, calls, {"fallbacks": len(fallbacks)}

    def search_10_12(b):
        return b.search.search_solutions(b.search.SearchConfig(10 ** 12))

    return {
        "iroot 500 bits k 3,5,7": lambda b: (b.exact_arith.iroot, iroot_calls),
        **{f"is_perfect_power {bits} bits": lambda b, calls=calls: (
            b.exact_arith.is_perfect_power, calls) for bits, calls in power_calls.items()},
        # half irrational, half the same radicands raised to their degree
        "classify_radical": lambda b: (b.exact_arith.classify_radical,
                                       [(1, r, d) for r, d in radicands]
                                       + [(1, r ** d, d) for r, d in radicands]),
        # alpha rational, beta irrational
        "scalar_m 3,3,6,3,3,5": lambda b: (b.reparam.scalar_m, [
            (t, b.reparam.canonical_alpha_beta(t, b.reparam.Plane.CB))
            for t in [b.triples.BealTriple(3, 3, 6, 3, 3, 5)]]),
        "run_random_suite 200 cases seed 15": lambda b: (b.identity.run_random_suite,
                                                         [(200, 15)]),
        "emit_json 10^12 report": lambda b: (b.records.emit_json, [(search_10_12(b),)]),
        "verify_hit 10^12 hits": lambda b: (b.search.verify_hit, [
            (triple, (3, 3, 3)) for triple in search_10_12(b).triples]),
        "classify_text classify batch": lambda b: (b.cli.classify_text, [
            (b.triples.BealTriple(*t),) for t in classify_inputs(CHILD_SEED, smoke=False)]),
        "scalar estimate classify batch": scalar_estimate_case,
        "cube_pairs 10^12 lanes": lambda b: cube_pairs_case(b.search, 10 ** 12),
        "cube_pairs 10^16 lanes": lambda b: cube_pairs_case(b.search, 10 ** 16),
        "cli.main verify-identities --cases 1": lambda b: (
            quiet_main, [(b.cli.main, ["verify-identities", "--cases", "1"])]),
    }


def quiet_main(main, argv: list[str]) -> int:
    """main(argv) with its stdout thrown away."""
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


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
    """This process's peak RSS, or its largest waited-for child's, in MB.
    Its own is VmHWM where /proc has it: Linux carries the peak of the
    process that started this one across the exec into ru_maxrss."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with contextlib.suppress(OSError), open("/proc/self/status", encoding="ascii") as status:
        own = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def usable_cpus() -> int:
    """The CPUs this process may run on, as perfbench's nproc counts them."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@contextlib.contextmanager
def private_bytecode(trees: list[tuple[str, str]]):
    """The environment of every sample process: it reads bytecode only from a
    new private cache and writes none.  One untimed sample process per tree
    first fills the cache from the tree's current source; as a kernel case,
    it imports what every sample imports."""
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=cache)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        for _, src in trees:
            subprocess.run([sys.executable, "-c", CASE_SCRIPT, src, "kernel_sample",
                            repr(("cli.main verify-identities --cases 1",))],
                           env=env, capture_output=True)
        yield dict(env, PYTHONDONTWRITEBYTECODE="1")


class GcTimer:
    """The cyclic collector's passes and seconds per generation, as one of
    gc.callbacks."""

    def __init__(self):
        self.passes, self.seconds, self._started = [0, 0, 0], [0.0, 0.0, 0.0], 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.passes[info["generation"]] += 1
            self.seconds[info["generation"]] += time.perf_counter() - self._started


def fresh_process(script: str, src: str, argv: list[str], env: dict) -> tuple[dict, str]:
    """What script measured in a fresh process on src, with host_s, the median
    of its host seconds, and process_s, the seconds of the whole process less
    those it spent sampling the host; and what it printed before its last
    line.  A process that fails raises CalledProcessError, with its stderr."""
    started = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", script, src, *argv],
                          capture_output=True, text=True, check=True, env=env)
    wall_s = time.perf_counter() - started
    printed, _, last = done.stdout.rstrip("\n").rpartition("\n")
    measured = json.loads(last)
    measured.update(host_s=statistics.median(measured["host"]),
                    process_s=wall_s - measured["host_spent_s"])
    return measured, printed


def fresh_sample(src: str, env: dict, case, *args) -> tuple[dict, dict, str | None]:
    """What case(*args), a function of this file, returns in a fresh process
    on src (CASE_SCRIPT), its sample with host_s."""
    measured, _ = fresh_process(CASE_SCRIPT, src, [case.__name__, repr(args)], env)
    sample, facts, output = measured["case"]
    return dict(sample, host_s=measured["host_s"]), facts, output


# --- the cases: each returns (sample, facts, output digest or None).  The
# startup and cli cases start their fresh processes from this one; the others
# run in a fresh process of their own (fresh_sample).

def startup_sample(src: str, env: dict) -> tuple[dict, dict, str]:
    imported, _ = fresh_process(IMPORT_SCRIPT, src, [], env)
    verified, printed = fresh_process(TIMED_MAIN_SCRIPT, src,
                                      ["verify-identities", "--cases", "1"], env)
    sample = {"import_s": imported["import_s"], "import_process_s": imported["process_s"],
              "verify_identities_process_s": verified["process_s"],
              "host_s": statistics.median(imported["host"] + verified["host"])}
    return sample, {"compiled_from_source": imported["compiled"]}, digest(printed)


def cli_search_sample(src: str, env: dict) -> tuple[dict, dict, str]:
    with tempfile.TemporaryDirectory() as out:
        csv = Path(out) / "hits.csv"
        measured, _ = fresh_process(TIMED_MAIN_SCRIPT, src,
                                    ["search", "--bound", "10^12", "--out", str(csv)], env)
        hits = csv.read_text()
    return {key: measured[key] for key in MAIN_KEYS}, {"argv": "search --bound 10^12"}, digest(hits)


def cli_verify_identities_sample(src: str, env: dict) -> tuple[dict, dict, str]:
    from workloads import identity_argv  # perfbench's, on sys.path too

    argv = identity_argv(CHILD_SEED, smoke=False)
    measured, printed = fresh_process(TIMED_MAIN_SCRIPT, src, argv, env)
    return {key: measured[key] for key in MAIN_KEYS}, {"argv": " ".join(argv)}, digest(printed)


def search_sample(bound: int, minimums: tuple[int, int, int], workers: int):
    import bealsearch.search as search

    search.search_solutions(search.SearchConfig(bound=10 ** 6))  # warm-up, untimed
    enabled = gc.isenabled()
    gc.disable()  # as cli.main runs the search
    collector = GcTimer()
    gc.callbacks.append(collector)
    try:
        started = time.perf_counter()
        report = search.search_solutions(search.SearchConfig(bound, *minimums, workers=workers))
        sample = {"wall_s": time.perf_counter() - started}
    finally:
        gc.callbacks.remove(collector)
        if enabled:
            gc.enable()
    sample["gc_s"] = sum(collector.seconds)
    sample["gc"] = {str(generation): {"passes": passes, "s": seconds}
                    for generation, (passes, seconds)
                    in enumerate(zip(collector.passes, collector.seconds))}
    sample.update((name, report.phases[name]) for name in PHASES)
    sample["peak_rss_mb"] = peak_rss_mb()
    sample["probes"] = {name: sweep["probes"] for name, sweep in report.sweeps.items()}
    sample["sweep_seconds"] = report.sweep_seconds
    counts = dict(report.counts, scan_probes=report.scan_probes)
    return sample, {"counts": counts, "sweeps": report.sweeps}, None


def completeness_sample(reference: str, bound: int, minimums: tuple[int, int, int]):
    """The search at bound against a reference of tests/test_search.py, timed
    after it as {reference}_s: "reference", its plain per-pair lookup with the
    same minimums; "family", its two solution families; "filter_free", the
    same search with the exact filters off (_FILTER_FREE)."""
    sys.path.insert(0, str(ROOT / "tests"))
    import test_search

    from bealsearch import search

    started = time.perf_counter()
    report = search.search_solutions(search.SearchConfig(bound, *minimums))
    middle = time.perf_counter()
    hits = output = report.triples
    if reference == "reference":
        lookup = test_search._lookup_reference(bound, minimums)
        done = time.perf_counter()
        found, looked_up = set(hits), set(lookup)
        facts = {"hits": len(hits), "reference_hits": len(lookup), "equal": hits == lookup,
                 "search_lacks": [str(t) for t in lookup if t not in found],
                 "reference_lacks": [str(t) for t in hits if t not in looked_up]}
    elif reference == "family":
        family, scaled = test_search._common_factor_family(bound), test_search._scaled_family(bound)
        done = time.perf_counter()
        both, found = family | scaled, set(hits)
        facts = {"hits": len(found), "family": len(family), "scaled_family": len(scaled),
                 "families_share": len(both) / len(found),
                 "search_lacks": sorted(map(str, both - found))}
        output = sorted(both)
    else:
        for name, value in test_search._FILTER_FREE.items():
            setattr(search, name, value)
        free = search.search_solutions(search.SearchConfig(bound, *minimums))
        done = time.perf_counter()
        facts = {"hits": len(hits), "filter_free_hits": len(free.triples),
                 "equal": free.triples == hits, "probes": report.scan_probes,
                 "filter_free_probes": free.scan_probes}
    sample = {"search_s": middle - started, f"{reference}_s": done - middle}
    return sample, facts, digest(repr(output))


def classify_sample():
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
    return ({"wall_s": seconds, "peak_rss_mb": peak_rss_mb()},
            {"seed": CHILD_SEED, "triples": len(triples)}, digest("".join(outputs)))


def factorize_sample():
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
    return sample, {"seed": CHILD_SEED, "gcds": len(gcds)}, digest(repr(factors))


def kernel_sample(name: str):
    """The mean microseconds per call of one kernel case over at least KERNEL_MIN_S."""
    import bealsearch
    # each an attribute of bealsearch from here on, for the case's function
    from bealsearch import cli, exact_arith, identity, records, reparam, search, triples

    kernel, calls, *facts = kernel_cases()[name](bealsearch)
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
    return ({"us_per_call": 1e6 * elapsed / (rounds * len(calls))},
            dict({"calls": len(calls)}, **(facts[0] if facts else {})), None)


def run_case(runs: dict, trees: list[tuple[str, str]], name: str, repeats: int,
             target, *args) -> None:
    """Add repeats samples per tree to the case name, the trees taking turns,
    each sample what target(src, *args) returns: (sample, facts, output
    digest or None).  A sample process that fails ends the run, naming it."""
    from speed import REFERENCE_S  # perfbench's, on sys.path too

    for repeat in range(repeats):
        for label, src in trees if repeat % 2 == 0 else trees[::-1]:
            try:
                sample, facts, output = target(src, *args)
            except subprocess.CalledProcessError as error:
                stderr = "\n".join(error.stderr.rstrip("\n").splitlines()[-8:])
                raise SystemExit(f"{name} ({label}): the sample process exited with code "
                                 f"{error.returncode}:\n{stderr}") from None
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
                        help="samples of the search at 10^18, a few seconds each "
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
    sys.path.insert(0, str(ROOT / "perfbench"))  # for perfbench's speed and workloads

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["machine"] = {"nproc": usable_cpus(), "cpu_model": cpu_model(),
                      "python": platform.python_version(),
                      "dont_write_bytecode": sys.dont_write_bytecode}
    runs = doc.setdefault("runs", {})
    for label, _ in trees:
        runs.setdefault(label, {})

    sys.dont_write_bytecode = True  # nor does this process leave a __pycache__
    with private_bytecode(trees) as env:
        differ = run_cases(runs, trees, args, env)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    if differ:
        print(f"the search differs from the lookup, the families or the filter-free scan: "
              f"{'; '.join(differ)}", file=sys.stderr)
        return 1
    return 0


def run_cases(runs: dict, trees: list[tuple[str, str]], args, env: dict) -> list[str]:
    """Run every case of args into runs, each sample process with env; the
    completeness cases whose search differs from its reference."""
    def run(name: str, repeats: int, target, *rest) -> None:
        run_case(runs, trees, name, repeats, target, env, *rest)

    run("startup", args.repeats, startup_sample)
    run("cli search 10^12", args.repeats, cli_search_sample)
    run("cli verify-identities", args.repeats, cli_verify_identities_sample)
    cases = [(bound, minimums, workers, args.repeats) for bound, minimums, workers in CASES]
    if args.repeats_1e18:
        cases.append((10 ** 18, (3, 3, 3), 1, args.repeats_1e18))
    for bound, minimums, workers, repeats in cases:
        name = f"search 10^{len(str(bound)) - 1}{minimums_label(minimums)} workers {workers}"
        if workers > usable_cpus():
            print(f"skip {name}: too few CPUs")
            continue
        run(name, repeats, fresh_sample, search_sample, bound, minimums, workers)
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
    for name, reference, bound, minimums in COMPLETENESS if args.completeness else []:
        run(name, 1, fresh_sample, completeness_sample, reference, bound, minimums)
        for label, _ in trees:  # the families record no "equal": the search need only hold them
            case = runs[label][name]
            if not case["equal"] if "equal" in case else case["search_lacks"]:
                differ.append(f"{name} ({label})")
    run("classify batch cold", args.repeats, fresh_sample, classify_sample)
    run("factorize family gcds", args.repeats, fresh_sample, factorize_sample)
    for name in kernel_cases():
        run(f"kernel {name}", args.repeats, fresh_sample, kernel_sample, name)
    return differ


if __name__ == "__main__":
    sys.exit(main())
