"""Benchmark for bealsearch: one workload per invocation, from a checkout root.

    python3 perfbench/run.py --workload search_desk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload classify_batch --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload identities --smoke      # tiny inputs, seconds

Each iteration is a fresh child process (child.py) that imports bealsearch
from ./src, generates its inputs from the seed, calls bealsearch.cli.main and
checks every output.  Iterations repeat until --seconds have passed (at
least MIN_ITERATIONS); each metric is the median over them.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, each time
rescaled by the child's host-speed probe (speed.py) to a fixed reference
speed; the raw walls and the scales are on the line before the result.
--trace 1 runs cycles of one untraced and one traced child (plus a 1-worker
child on a multi-worker search), without the probe, and reports the
per-layer metrics, the parallel efficiency and the tracing overhead.  Metric names and units come from
BENCHMARK.json.  The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
machine facts and per-run details.  Exits 2 without a result when the
program's source is not in the checkout.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, child_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
MIN_ITERATIONS = 3
DEADLINE_S = 170         # a run must end within 180 s; children past this are killed


def machine_facts() -> dict:
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu_model = next((line.split(":", 1)[1].strip() for line in handle
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "mpmath"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = "absent"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
            "python": platform.python_version(), **versions,
            "git_commit": git_commit(ROOT), "loadavg_start": os.getloadavg()}


def git_commit(root: Path) -> str:
    """HEAD's commit read from .git without running git; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(workload: str, seed: int, workdir: Path, smoke: bool, deadline: float,
          trace: bool = False, workers: int | None = None, probe: bool = False) -> dict:
    """Run one child to completion, or kill it at the deadline (time.monotonic).

    A crash, a non-zero exit or a kill becomes one failed operation.
    """
    argv = [sys.executable, str(HERE / "child.py"), "--workload", workload,
            "--seed", str(seed), "--workdir", str(workdir)]
    argv += ["--trace"] * trace + ["--smoke"] * smoke + ["--probe"] * probe
    if workers is not None:
        argv += ["--workers", str(workers)]
    spawned_at = time.monotonic()
    proc = subprocess.Popen(argv + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)   # the child and its pool workers
        out, err = proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"attempted": 1, "failed": 1,
                "details": {"exit_code": proc.returncode, "stderr": err[-2000:]}}
    return json.loads(lines[-1])


def median(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def measured(results: list[dict]) -> list[dict]:
    """Children that ran and checked their outputs to the end."""
    return [r for r in results if "work" in r]


def scaled_median(results: list[dict], key: str, scale: str = "speed_scale") -> float:
    """Median over children of a time rescaled to the reference speed (speed.py)."""
    return statistics.median(r[key] * r[scale] for r in results)


def end_to_end(results: list[dict]) -> dict[str, float]:
    ok = measured(results)
    return {"wall_s": scaled_median(ok, "wall_s"),
            "setup_s": scaled_median(ok, "setup_s"),
            "cpu_s": scaled_median(ok, "cpu_s", "cpu_scale"),
            "work_per_s": statistics.median(
                r["work"] / (r["wall_s"] * r["speed_scale"]) for r in ok),
            "peak_rss_mb": median(ok, "peak_rss_mb")}


def per_layer(plain: list[dict], traced: list[dict], one_worker: list[dict]) -> dict[str, float]:
    plain, traced, one_worker = measured(plain), measured(traced), measured(one_worker)
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in traced[0]["layers"]}
    metrics["search.parallel_efficiency"] = (
        median(one_worker, "wall_s") / (2 * median(plain, "wall_s")) if one_worker else 0.0)
    metrics["trace.overhead_s"] = median(traced, "wall_s") - median(plain, "wall_s")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
        workdir: Path) -> tuple[dict, list[dict]]:
    """Iterate until `seconds` have passed; return (metrics, child results)."""
    spec = WORKLOADS[workload]
    plain, traced, one_worker = [], [], []
    started = time.monotonic()
    deadline = started + DEADLINE_S
    minimum = 1 if smoke or trace else MIN_ITERATIONS
    iteration = 0
    while True:
        sub_seed = child_seed(seed, iteration)
        plain.append(spawn(workload, sub_seed, workdir, smoke, deadline, probe=not trace))
        if trace:
            traced.append(spawn(workload, sub_seed, workdir, smoke, deadline, trace=True))
            if spec.min_cpus > 1:
                one_worker.append(spawn(workload, sub_seed, workdir, smoke, deadline, workers=1))
        iteration += 1
        elapsed = time.monotonic() - started
        if time.monotonic() >= deadline or (
                iteration >= minimum and elapsed * (iteration + 1) / iteration > seconds):
            break
    results = plain + traced + one_worker
    if not measured(plain) or (trace and not measured(traced)):
        return {}, results
    metrics = per_layer(plain, traced, one_worker) if trace else end_to_end(plain)
    return metrics, results


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as declared in BENCHMARK.json."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (search at 10^6 against the oracle), one iteration")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bealsearch" / "cli.py").is_file():
        print(f"error: no bealsearch source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    facts = machine_facts()
    spec = WORKLOADS[args.workload]
    if facts["nproc"] < spec.min_cpus:
        print(json.dumps({"workload": args.workload, "skipped":
                          f"needs {spec.min_cpus} CPUs, nproc is {facts['nproc']}"}))
        return 0

    units = declared_metrics(bool(args.trace))
    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        metrics, results = run(args.workload, args.seed, 0 if args.smoke else args.seconds,
                               bool(args.trace), args.smoke, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:      # another run still uses it
            pass
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    facts["loadavg_end"] = os.getloadavg()
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "machine": facts, "children": len(results),
                      "walls_s": [r.get("wall_s") for r in results],
                      "speed_scales": [r.get("speed_scale") for r in results],
                      "details": results[0].get("details"),
                      "spans": next((r["summary"] for r in results if "summary" in r), None)}))
    if not metrics:
        print("error: no child ran to completion", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
