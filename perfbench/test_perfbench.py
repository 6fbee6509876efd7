"""Tests of the benchmark itself: smoke mode, checks and workload inputs.

Run with ``python -m pytest -q perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from fairpace import AgentWeights, ValueSequence, run, solve_eg  # noqa: E402
from fairpace.dynamics import Proportional, SetAside, Unconstrained  # noqa: E402


def _instance(t=300, n=3, seed=5):
    rng = np.random.default_rng(seed)
    return rng.random((t, n)), np.ones(n)


def _run(values, weights, variant):
    return run(ValueSequence(values), AgentWeights(weights), variant)


def test_smoke_mode_runs_every_workload_with_all_checks():
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    lines = [json.loads(line) for line in out.stdout.strip().splitlines()]
    assert {line["smoke"] for line in lines[:-1]} == set(workloads.WORKLOADS)
    assert all(line["failures"] == [] for line in lines[:-1])
    assert lines[-1]["correct"] is True and lines[-1]["failed"] == 0
    iid = next(line for line in lines if line.get("smoke") == "iid-variants")
    assert iid["checks"]["exact-n2"] == 3 and iid["checks"]["pace-replay"] == 3


def test_pace_replay_accepts_the_program_and_rejects_a_broken_winner():
    values, weights = _instance()
    trace = _run(values, weights, Unconstrained())
    found, rebuilt = checks.replay_pace(values, weights, trace.winners)
    assert found == []
    assert np.array_equal(rebuilt, trace.final_utilities)
    broken = trace.winners.copy()
    broken[100] = (broken[100] + 1) % values.shape[1]
    found, _ = checks.replay_pace(values, weights, broken)
    assert found and "round 101" in found[0]


@pytest.mark.parametrize(
    "variant,typ",
    [(Unconstrained(), "pace"), (SetAside(), "setaside"), (Proportional(), "proportional")],
)
def test_allocation_utilities_reject_a_corrupted_utility_vector(variant, typ):
    values, weights = _instance()
    trace = _run(values, weights, variant)
    assert checks.check_allocation_utilities(typ, values, weights, trace.winners, trace.final_utilities) == []
    corrupted = trace.final_utilities.copy()
    corrupted[1] *= 1.0 + 1e-6
    assert checks.check_allocation_utilities(typ, values, weights, trace.winners, corrupted)


def test_hindsight_check_accepts_a_certified_solution_and_rejects_a_bad_one():
    values, weights = _instance(t=200)
    eq = solve_eg(ValueSequence(values), AgentWeights(weights), 1e-6, include_allocation=True)
    assert checks.check_hindsight_solution(values, weights, eq.allocation, eq.utilities, 1e-6) == []
    assert checks.check_hindsight_solution(values, weights, eq.allocation * 1.01, eq.utilities, 1e-6)
    skewed = eq.allocation.copy()
    skewed[:, 0] *= 0.9
    own = (skewed * values).sum(axis=0)
    assert checks.check_hindsight_solution(values, weights, skewed, own, 1e-6)


def test_prefix_welfare_rejects_utilities_above_the_benchmark():
    values, weights = _instance(t=64)
    eq = solve_eg(ValueSequence(values), AgentWeights(weights), 1e-8)
    trace = _run(values, weights, Unconstrained())
    args = (values, weights, 64, eq.utilities, ())
    assert checks.check_prefix_welfare(*args, trace.final_utilities, 1e-8, "pace") == []
    assert checks.check_prefix_welfare(*args, eq.utilities * 1.001, 1e-8, "pace")


def test_prefix_certificate_rejects_inflated_or_suboptimal_utilities():
    values, weights = _instance(t=64)
    eq = solve_eg(ValueSequence(values), AgentWeights(weights), 1e-8)
    assert checks.check_prefix_certificate(values, weights, 64, eq.utilities, 1e-8) == []
    assert checks.check_prefix_certificate(values, weights, 64, eq.utilities * 1.001, 1e-8)
    assert checks.check_prefix_certificate(values, weights, 64, eq.utilities * [1.01, 0.99, 1.0], 1e-8)


def test_exact_n2_equilibrium_agrees_with_the_solver_on_distinct_items():
    values, weights = _instance(t=400, n=2, seed=9)
    weights = np.array([1.0, 2.0])
    eq = solve_eg(ValueSequence(values), AgentWeights(weights), 1e-10)
    u, threshold, f = checks.exact_n2_equilibrium(values, weights)
    assert 0.0 <= f <= 1.0
    assert np.allclose(u, eq.utilities, rtol=1e-4)
    assert checks.check_exact_n2(values, weights, eq.utilities, 1e-10) == []
    assert checks.check_exact_n2(values, weights, eq.utilities * [1.01, 0.99], 1e-10)


def test_distinct_prefix_seed_reorders_items_inside_pow2_blocks_only():
    a = workloads.distinct_values(512, seed=1)
    b = workloads.distinct_values(512, seed=2)
    assert not np.array_equal(a, b)
    assert checks.duplicate_share(a) == 0.0
    for tau in workloads.pow2_checkpoints(512):
        rows_a = a[:tau][np.lexsort(a[:tau].T)]
        rows_b = b[:tau][np.lexsort(b[:tau].T)]
        assert np.array_equal(rows_a, rows_b)


def test_workload_files_depend_on_the_seed_only(tmp_path):
    for name, build in workloads.WORKLOADS.items():
        for seed, sub in ((3, "a"), (3, "b"), (4, "c")):
            (tmp_path / sub).mkdir(exist_ok=True)
            build(seed, str(tmp_path / sub), smoke=True)
        for path in (tmp_path / "a").iterdir():
            assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()
    seeded = [p.name for p in (tmp_path / "a").iterdir() if p.read_bytes() != (tmp_path / "c" / p.name).read_bytes()]
    assert sorted(seeded) == ["distinct-prefix.csv", "iid-variants.yaml", "wide-stream.yaml"]


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "iid-variants", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_end_to_end_metrics_match_benchmark_json_and_calibration_runs():
    import run

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == run.END_TO_END_UNITS
    out = subprocess.run([sys.executable, str(HERE / "calibrate.py")], capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
