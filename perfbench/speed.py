"""Host-speed probe: rescales a child's times to a fixed reference speed.

The benchmark runs on a few vCPUs of a shared host.  Their speed switches
between states (a fixed pure-Python loop takes about 1.45 times as long in
the slow state as in the fast one, in spells of seconds to minutes), and the
hypervisor steals a varying share of their time.  A 30-s run's median then
depends on how much of it fell in slow spells, and runs of the same code
spread by more than a regression bound.

The probe samples that speed during the measured interval itself.  A SIGALRM
interval timer runs a fixed piece of reference work every INTERVAL_S seconds,
about 2.5% of the time, and records how long it took, in wall-clock and in
CPU time.  The work mixes what the program's hot paths do: function calls,
dict updates, small-int and big-int arithmetic, and ``fractions.Fraction``
arithmetic.  Different code slows by different shares in a slow spell.  On
the seed program, the log-slowdowns of search, classify and identity runs
were 0.86 to 1.22 times this mix's, and 1.25 to 1.55 times a plain integer
loop's.

Itimers are not inherited across fork, so the probe re-arms itself in every
process forked from the child (the search's pool workers).  Each process
appends its samples to one file, tagged with its pid.  ``scale`` is
REFERENCE_S over the trimmed mean wall-clock duration of the slowest worker,
because a parallel search ends when its slowest worker does; with no workers
it is that of the child itself.  ``time * scale`` is then the time the same work
would take at the speed where the reference work takes REFERENCE_S.
``cpu_scale`` does the same for CPU times, from the samples of every process.
A change to the program moves the time but not the probe, so it moves the
scaled time by the same share; a slow spell moves both.
"""

from __future__ import annotations

import os
import signal
import struct
import time
from collections import defaultdict
from fractions import Fraction

INTERVAL_S = 0.05
# Any fixed value works.  This is about the reference work's duration on a
# 2-vCPU Intel Xeon VM with Python 3.11.7, so scaled times stay close to raw.
REFERENCE_S = 0.0012
TRIM = 0.1               # share of samples dropped at each end (preemptions)
MIN_SAMPLES = 10         # a process with fewer says too little about its speed
_RECORD = struct.Struct("<idd")     # pid, wall-clock s, CPU s

_BIG = 3 ** 400
_MOD = 10 ** 300 + 7


def _step(a: int, b: int) -> int:
    return a + b if a > b else b - a


def reference_work() -> tuple[int, int, Fraction]:
    table: dict[int, int] = {}
    acc = 0
    big = _BIG
    for i in range(600):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + i * i
        acc = _step(acc, i % 7)
        if i % 4 == 0:
            big = big * _BIG % _MOD
    ratio = Fraction(1, 3)
    for i in range(1, 40):
        ratio = ratio * Fraction(i + 2, i + 1) + Fraction(i ** 5, 7 * i + 3)
    return acc, big, ratio


def _scale(durations: list[float]) -> float:
    """REFERENCE_S over the trimmed mean duration; 1.0 with no samples."""
    if not durations:
        return 1.0
    ordered = sorted(durations)
    cut = int(len(ordered) * TRIM)
    kept = ordered[cut:len(ordered) - cut]
    return REFERENCE_S / (sum(kept) / len(kept))


class SpeedProbe:
    def __init__(self, path: str):
        self.path = path
        self._fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o600)
        self._running = False
        self._pid = os.getpid()

    def _tick(self, signum, frame) -> None:
        started, cpu_started = time.perf_counter(), time.thread_time()
        reference_work()
        os.write(self._fd, _RECORD.pack(os.getpid(), time.perf_counter() - started,
                                        time.thread_time() - cpu_started))

    def _arm(self) -> None:
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def start(self) -> None:
        self._running = True
        signal.signal(signal.SIGALRM, self._tick)
        self._arm()
        os.register_at_fork(after_in_child=self._arm)

    def stop(self) -> None:
        """Disarm in this process; forked workers have exited by now."""
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        os.close(self._fd)

    def samples(self) -> dict[int, list[tuple[float, float]]]:
        """pid -> [(wall-clock s, CPU s)] of every probing process."""
        with open(self.path, "rb") as handle:
            data = handle.read()
        by_pid = defaultdict(list)
        for pid, wall, cpu in _RECORD.iter_unpack(data[:len(data) - len(data) % _RECORD.size]):
            by_pid[pid].append((wall, cpu))
        return dict(by_pid)

    def scale(self) -> float:
        """Scale for wall-clock times: the slowest forked worker's speed, else our own.

        While workers run, this process's probe competes with them for the
        vCPUs, so its wall-clock samples then measure the contention too.
        """
        samples = self.samples()
        own = samples.pop(self._pid, [])
        workers = [s for s in samples.values() if len(s) >= MIN_SAMPLES]
        return min((_scale([wall for wall, _ in s]) for s in workers or [own]))

    def cpu_scale(self) -> float:
        """Scale for CPU times: a stall of the vCPU slows wall time, not CPU time."""
        return _scale([cpu for s in self.samples().values() for _, cpu in s])
