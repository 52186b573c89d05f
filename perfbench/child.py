"""One measured iteration of a workload, in a fresh process.

Started by run.py from the root of a checkout.  It imports bealsearch from
that checkout's src/ (never from an installed copy), generates the inputs
from the seed, calls bealsearch.cli.main (the timed part), checks every
output, and prints one JSON line with its timings and check counts.  With
--probe it also samples the host's speed (speed.py), in itself and in the
processes it forks, from its start to the end of the timed part, and reports
the scales for its times.
Exits 2 without a result line when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _cpu_s() -> float:
    """User plus system CPU of this process and of its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """Largest peak RSS of this process or any reaped child (Linux: KiB)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before the spawn")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--workers", type=int, help="override the search worker count")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--probe", action="store_true",
                        help="sample the host's speed over set-up and the timed part")
    args = parser.parse_args()

    probe = None
    if args.probe:
        from speed import SpeedProbe
        probe = SpeedProbe(str(Path(args.workdir) / f"probe-{os.getpid()}.bin"))
        probe.start()

    sys.path.insert(0, str(SRC))
    try:
        import bealsearch.cli
    except ImportError as exc:
        print(f"cannot import bealsearch from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(bealsearch.__file__).resolve().is_relative_to(SRC):
        print(f"bealsearch was imported from {bealsearch.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    # a fresh output directory, so no earlier child's files can pass the checks
    workdir = tempfile.mkdtemp(dir=args.workdir)
    inputs = workload.make_inputs(args.seed, args.smoke, workdir, args.workers)
    setup_s = time.monotonic() - args.spawned_at

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    result = {"setup_s": setup_s}
    cpu_before = _cpu_s()
    started = time.perf_counter()
    try:
        outcome = workload.run(inputs)
        result["wall_s"] = time.perf_counter() - started
        result["cpu_s"] = _cpu_s() - cpu_before
        if probe is not None:
            probe.stop()
            result.update(speed_scale=probe.scale(), cpu_scale=probe.cpu_scale(),
                          probe_samples={pid: len(s) for pid, s in probe.samples().items()})
        if tracer is not None:
            tracer.phase = "check"
        check = workload.check(inputs, outcome, args.smoke)
    except Exception:  # a crash is one failed operation, reported as data
        print(traceback.format_exc(), file=sys.stderr)
        result.update(attempted=1, failed=1, details={"crash": traceback.format_exc(limit=3)})
        print(json.dumps(result))
        return 0
    result.update(attempted=check.attempted, failed=check.failed, work=check.work,
                  details=check.details, peak_rss_mb=_peak_rss_mb())
    if tracer is not None:
        from tracing import layer_metrics
        result["layers"] = layer_metrics(tracer.spans, check.details.get("bytes_written", 0))
        result["spans"] = len(tracer.spans)
        result["summary"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
