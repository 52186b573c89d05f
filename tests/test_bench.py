"""Tests of bench/run.py, the harness that writes BENCH_*.json: the order and
statistics of its samples, and samples taken in fresh processes."""

import importlib.util
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
IROOT = "iroot 500 bits k 3,5,7"


@pytest.fixture
def bench(monkeypatch):
    """bench/run.py, loaded by its path under a name of its own: perfbench's
    run.py is imported as `run` in the same session.  run_case reads
    perfbench's speed module, as in a run."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_case_alternates_the_trees_and_summarises_each(bench):
    from speed import REFERENCE_S

    walls = {"P": iter([0.3, 0.1, 0.2]), "C": iter([0.4, 0.6, 0.5])}
    hosts = {"P": iter([0.001, 0.002, 0.004]), "C": iter([0.002, 0.001, 0.003])}
    order = []

    def stub(src, arg):
        assert arg == "arg"
        order.append(src)
        return {"wall_s": next(walls[src]), "host_s": next(hosts[src])}, {"tree": src}, "same"

    runs = {"parent": {}, "change": {}}
    bench.run_case(runs, [("parent", "P"), ("change", "C")], "case", 3, stub, "arg")
    assert order == ["P", "C", "C", "P", "P", "C"]
    case = runs["change"]["case"]
    assert case["repeats"] == 3 and case["tree"] == "C" and case["output_sha256"] == "same"
    assert [run["wall_s"] for run in case["samples"]] == [0.4, 0.6, 0.5]
    wall = case["wall_s"]
    assert wall["median"] == 0.5 and wall["min"] == 0.4
    assert (wall["q1"], wall["q3"]) == pytest.approx((0.45, 0.55))
    assert wall["scaled_median"] == pytest.approx(statistics.median(
        [0.4 * REFERENCE_S / 0.002, 0.6 * REFERENCE_S / 0.001, 0.5 * REFERENCE_S / 0.003]))
    assert "scaled_median" not in case["host_s"]
    assert runs["parent"]["case"]["wall_s"]["median"] == 0.2


def test_a_search_sample_is_flat_and_each_sweep_is_summarised(bench):
    from speed import REFERENCE_S

    from bealsearch.search import SWEEPS

    sample, facts, output = bench.search_sample(10 ** 8, (3, 3, 3), 1)
    assert all(isinstance(value, float) for value in sample.values())
    sweep_keys = {f"{name}_s" for name in SWEEPS}
    assert sweep_keys <= set(sample) and "gc" not in sample
    assert (facts["bound"], facts["minimums"], facts["workers"]) == ("100000000", [3, 3, 3], 1)
    assert output is None
    # added to a case whose earlier sample has the nested layout of BENCH_41.json
    older = {"wall_s": 0.5, "gc": {"0": {"passes": 0, "s": 0.0}}, "host_s": 0.001}
    runs = {"change": {"search": {"samples": [older]}}}
    bench.run_case(runs, [("change", "C")], "search", 1,
                   lambda src: (dict(sample, host_s=0.002), facts, output))
    case = runs["change"]["search"]
    for key in sweep_keys:
        assert case[key]["median"] == sample[key]
        assert case[key]["scaled_median"] == pytest.approx(sample[key] * REFERENCE_S / 0.002)
    assert case["wall_s"]["median"] == pytest.approx((0.5 + sample["wall_s"]) / 2)


def test_run_case_exits_when_an_output_differs(bench):
    def stub(src):
        return {"wall_s": 1.0, "host_s": 1.0}, {}, src

    with pytest.raises(SystemExit, match=r"case \(change\): output sha256 C"):
        bench.run_case({"parent": {}, "change": {}}, [("parent", "P"), ("change", "C")],
                       "case", 1, stub)


def test_a_failed_sample_names_its_case_tree_code_and_stderr(bench, tmp_path):
    (tmp_path / "bealsearch").mkdir()
    (tmp_path / "bealsearch" / "__init__.py").write_text(
        'raise RuntimeError("broken tree on purpose")\n')
    with pytest.raises(SystemExit) as raised:
        bench.run_case({"broken": {}}, [("broken", str(tmp_path))], f"kernel {IROOT}", 1,
                       bench.fresh_sample, dict(os.environ), bench.kernel_sample, IROOT)
    message = str(raised.value)
    assert message.startswith(f"kernel {IROOT} (broken): the sample process exited with code 1:")
    assert message.endswith("RuntimeError: broken tree on purpose")


def test_a_kernel_sample_runs_in_a_fresh_process_and_writes_no_bytecode(bench, tmp_path):
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "bealsearch", src / "bealsearch",
                    ignore=shutil.ignore_patterns("__pycache__"))
    runs = {"change": {}}
    with bench.private_bytecode([("change", str(src))]) as env:
        bench.run_case(runs, [("change", str(src))], f"kernel {IROOT}", 1,
                       bench.fresh_sample, env, bench.kernel_sample, IROOT)
    case = runs["change"][f"kernel {IROOT}"]
    assert set(case["samples"][0]) == {"us_per_call", "host_s"} and case["calls"] == 48
    assert case["us_per_call"]["median"] > 0 and case["host_s"]["median"] > 0
    assert not list(src.rglob("__pycache__"))


def test_the_case_names_are_read_without_bealsearch(bench):
    code = (f"import runpy, sys; sys.path.append({str(ROOT / 'perfbench')!r}); "
            f"print(len(runpy.run_path({str(ROOT / 'bench' / 'run.py')!r})['kernel_cases']())); "
            "print('bealsearch' in sys.modules)")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.split() == ["14", "False"]


def test_a_sample_s_peak_rss_leaves_out_its_launcher_s(bench):
    # Linux carries a process's peak RSS across exec into ru_maxrss: a
    # sample process started by one that holds 64 MB must report less.
    held = b"x" * (64 << 20)
    code = (f"import runpy; "
            f"print(runpy.run_path({str(ROOT / 'bench' / 'run.py')!r})['peak_rss_mb']())")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert bench.peak_rss_mb() > 64 and len(held) == 64 << 20
    assert 0 < float(done.stdout) < 64
