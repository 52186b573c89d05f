"""Tests of the benchmark itself: smoke runs and the BENCHMARK.json contract.

Run from the repository root:  python3 -m pytest perfbench
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import speed
from workloads import WORKLOADS, family_members

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _run(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_metric_names_follow_rule():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [w["name"] for w in SPEC["workloads"]] + [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name
    for metric in metrics:
        assert UNIT_RE.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SPEC["end_to_end"])} in SPEC["end_to_end"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_is_correct_and_complete(workload, trace):
    done = _run("--workload", workload, "--seed", "7", "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_family_members_are_oracle_hits():
    sys.path.insert(0, str(ROOT / "src"))
    from bealsearch.search import brute_force_oracle
    for minimums in ((3, 3, 3), (4, 3, 3)):
        members = family_members(10 ** 6, minimums)
        assert len(members) >= 10
        assert set(members) <= set(brute_force_oracle(10 ** 6, minimums).triples)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "identities", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_multi_worker_search_is_skipped_on_one_cpu(monkeypatch, capsys):
    monkeypatch.setattr(run, "machine_facts", lambda: {"nproc": 1})
    assert run.main(["--workload", "search_split", "--seconds", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["skipped"] == "needs 2 CPUs, nproc is 1"


def test_git_commit_outside_a_repository(tmp_path):
    assert run.git_commit(tmp_path) == "unknown"


def test_speed_probe_samples_this_process_and_forked_ones(tmp_path):
    probe = speed.SpeedProbe(str(tmp_path / "probe.bin"))
    probe.start()
    pid = os.fork()
    deadline = time.perf_counter() + 0.6
    while time.perf_counter() < deadline:
        sum(range(1000))
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)
    probe.stop()
    samples = probe.samples()
    assert set(samples) == {os.getpid(), pid}
    assert all(len(s) >= speed.MIN_SAMPLES for s in samples.values())
    assert probe.scale() > 0 and probe.cpu_scale() > 0


def test_speed_scale_trims_outliers():
    durations = [speed.REFERENCE_S * 2] * 8 + [1.0, 0.0]
    assert speed._scale(durations) == pytest.approx(0.5)
