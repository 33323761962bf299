"""Tests of the benchmark itself: metric names, metric coverage, a tiny smoke run.

    python3 -m pytest perfbench -q
"""

import io
import json
import random
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import inputs
import run
from tracer import Tracer

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark_json() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_metric_names_are_well_formed():
    for name, _ in run.LOGGED + run.PER_LAYER:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    names = [name for name, _ in run.LOGGED + run.PER_LAYER]
    assert len(names) == len(set(names))


def test_benchmark_json_lists_the_metrics_and_workloads_run_py_emits():
    spec = _benchmark_json()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)


def test_inputs_depend_only_on_the_seed():
    for name, gen in inputs.GENERATORS.items():
        assert gen(7) == gen(7), name
    assert inputs.scenario_mix(7) != inputs.scenario_mix(8)
    texts = inputs.scenario_mix(7)["ops"]
    assert len(texts) == len(set(texts)) == len(inputs.CELLS) * inputs.PER_CELL
    assert inputs.witness_scan(7) == inputs.witness_scan(8)


def test_seeded_objects_are_plain_and_valid():
    rng = random.Random(1)
    for d, n in ((2, 2), (3, 2), (5, 1)):
        for rank in range(1, n + 1):
            known, valuation = inputs.random_state(rng, n, d, rank)
            assert len(known) == rank and len(valuation) == 2 * n
            assert all(inputs._symp(x, y, n) % d == 0 for x in known for y in known)
        s, a = inputs.random_map(rng, n, d)
        assert inputs.is_symplectic(s, n, d) and len(a) == 2 * n


@pytest.mark.parametrize("mod", [0, 2, 3, 5])
def test_generated_maps_are_symplectic(mod):
    rng = random.Random(mod)
    for n in (1, 2, 3):
        s = inputs.random_symplectic(rng, n, mod)
        assert inputs.is_symplectic(s, n, mod)
    bad = [[1, 1], [0, 2]]  # determinant 2: not symplectic over Q or Z_3
    assert not inputs.is_symplectic(bad, 1, 0)
    assert not inputs.is_symplectic(bad, 1, 3)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail_percentile(3158) == 99
    assert run.tail_percentile(136) == 90
    assert run.tail_percentile(5) == 100
    assert run.percentile([3, 1, 2], 50) == 2


def test_tracer_counts_calls_and_busy_time_once_per_nesting():
    tr = Tracer()
    inner = tr.wrap("inner", lambda: sum(range(10_000)))

    def outer(depth):
        with tr.span("outer"):
            inner()
            if depth:
                outer(depth - 1)

    outer(1)
    assert tr.calls["outer"] == 2 and tr.calls["inner"] == 2
    assert tr.busy["outer"] >= tr.busy["inner"] > 0


def test_reference_sampler_runs_during_work_and_leaves_its_time_out():
    from child import ReferenceSampler
    refs = []
    sampler = ReferenceSampler(refs)
    sampler.start()
    try:
        w0, c0 = time.perf_counter(), sampler.clock()
        while time.perf_counter() - w0 < 0.5:
            sum(range(1000))
        wall, own = time.perf_counter() - w0, sampler.clock() - c0
    finally:
        sampler.stop()
    assert len(refs) >= 3
    assert own == pytest.approx(wall - sum(refs), abs=1e-3)


def test_oracle_rejects_a_wrong_distribution():
    # One free direction along q over Z_2, identity map, measure q: 1/2 each.
    args = ([[1, 0]], [0, 0], [[1, 0], [0, 1]], [0, 0], [[1, 0]], 2)
    want = {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}
    assert checks.oracle_distribution(*args) == want
    good = [[0, 0, 1, 2], [1, 0, 1, 2]]
    assert checks.library_distribution(good, [[1, 0]], 2) == want
    assert checks.library_distribution([[0, 0, 1, 1]], [[1, 0]], 2) != want


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_metric_and_passes_its_checks(workload, trace):
    log = io.StringIO()
    result = run.run_benchmark(workload, seed=3, seconds=0, trace=trace, small=True,
                               log=log)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, log.getvalue()
    assert result["attempted"] >= run.PASSES[workload]
    wanted = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(wanted)
    for name, unit in run.LOGGED:
        assert re.search(rf"^{name} +\S+ {re.escape(unit)}", log.getvalue(), re.M), name
    assert "fail_ratio" in log.getvalue() and "nproc=" in log.getvalue()
    assert f"({run.OP_UNITS[workload][1]} per second)" in log.getvalue()
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "witness-scan", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
