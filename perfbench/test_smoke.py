"""Tiny-size smoke test of the benchmark.

Run from the repository root: ``python3 -m pytest -q perfbench/test_smoke.py``.
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (puts the package sources on sys.path)
import inputs  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name, tmp_path):
    wl = workloads.make(name, seed=7, seconds=0.1, workdir=tmp_path / "work")
    if name.startswith("flow"):
        wl.sizes, wl.cycle_len, wl.min_cycles = (4, 5), 2, 1
    elif name == "oracle":
        wl.plan = ((5, 60), (6, 12))
    else:
        wl.plan = ((6, 2, 4, 0.05), (6, 3, 3, 0.05), (9, 2, 4, 1e-6))
    return wl


@pytest.mark.parametrize("name", ["flow-small", "oracle", "cli"])
def test_untraced_and_traced_runs_pass_their_checks(name, tmp_path):
    wl = tiny(name, tmp_path)
    wl.setup()
    try:
        out = worker.untraced(wl, 0.1)
        assert out["correct"], out["errors"]
        assert out["failed"] == 0 and out["attempted"] >= wl.cycle_len
        assert out["attempted"] % wl.cycle_len == 0  # whole cycles
        assert all(m["value"] > 0 for m in out["metrics"].values())
        if name == "cli":  # no timed op repeats a vector
            assert out["info"]["vectors"] == out["attempted"]

        traced = worker.traced(wl, 0.1, tmp_path / "spans.npz")
        assert traced["correct"], traced["errors"]
        assert list(traced["metrics"]) == list(tracer.PER_LAYER)
    finally:
        wl.close()
    assert (tmp_path / "spans.npz").is_file()


def test_inputs_past_the_pool_continue_the_seeded_stream(tmp_path):
    short, long = (workloads.make("oracle", seed=7, seconds=s, workdir=tmp_path)
                   for s in (0.1, 60))
    short.setup()
    long.setup()
    assert len(short.inputs) < len(long.inputs)
    for i in range(len(long.inputs) + 2):
        assert np.array_equal(short.input(i).lengths, long.input(i).lengths)


def test_per_layer_metrics_match_benchmark_file():
    listed = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert listed == tracer.PER_LAYER


def test_failed_check_is_reported(tmp_path):
    wl = tiny("oracle", tmp_path)
    wl.setup()
    wl.check = lambda i, result: ["forced failure"]
    out = worker.untraced(wl, 0.1)
    assert not out["correct"] and out["failed"] == out["attempted"] > 0


def test_output_that_differs_on_repeat_fails_each_repeated_vector(tmp_path):
    wl = tiny("cli", tmp_path)
    wl.setup()
    counter = itertools.count()
    wl.fingerprint = lambda runs: next(counter)
    try:
        out = worker.untraced(wl, 0.1)
    finally:
        wl.close()
    assert not out["correct"] and out["failed"] == wl.cycle_len  # the first cycle


def test_stratified_polygons_take_the_strata_in_turn():
    first, again = (inputs.StratifiedPolygons(np.random.default_rng(5))
                    for _ in range(2))
    for k in range(2 * inputs.STRATA):
        chain = first.draw(6)
        stratum = np.searchsorted(inputs.REFLEX_BOUNDS[6], inputs.reflex(chain))
        assert stratum == k % inputs.STRATA
        assert np.array_equal(chain.vertices, again.draw(6).vertices)
    sizes = {n for name in ("flow-small", "flow-large")
             for n in workloads.make(name, 1, 1.0, HERE).sizes}
    assert sizes <= set(inputs.REFLEX_BOUNDS)


def test_command_prints_result_line_and_refuses_without_sources(tmp_path):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "flow-large",
           "--seed", "3", "--seconds", "0.2", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]

    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
