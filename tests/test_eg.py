"""Equilibrium solver: certificates, duality, verification, prefixes."""

import math

import numpy as np
import pytest

from oracles import check_equilibrium, dual_objective, eg_grid_oracle, eg_split_oracle, primal_objective
from tracing import traced_peak

from fairpace.eg import (
    ConvergenceError,
    _solve_normal,
    _tie_split,
    hindsight_prefix,
    solve_eg,
    solve_underlying,
)
from fairpace.harness import parse_checkpoints
from fairpace.inputs import IID, FiniteDistribution, InputModelSpec, gen
from fairpace.model import AgentWeights, InstanceError, ValueSequence

W2 = AgentWeights.equal(2)


def test_disjoint_interests_identity():
    vs = ValueSequence([[1.0, 0.0], [0.0, 1.0]])
    eq = solve_eg(vs, W2, 1e-12)
    assert np.allclose(eq.utilities, [1.0, 1.0], atol=1e-9)
    assert np.allclose(eq.beta, [1.0, 1.0], atol=1e-9)
    assert np.allclose(eq.prices, [1.0, 1.0], atol=1e-9)
    assert np.allclose(eq.allocation, np.eye(2), atol=1e-9)


def test_identical_items_utilities_proportional_to_weights():
    vs = ValueSequence(np.ones((3, 2)))
    eq = solve_eg(vs, AgentWeights([1.0, 2.0]), 1e-12)
    assert np.allclose(eq.utilities, [1.0, 2.0], atol=1e-9)


def test_two_by_two_matches_grid_oracle():
    vs = ValueSequence([[2.0, 1.0], [1.0, 2.0]])
    eq = solve_eg(vs, W2, 1e-10)
    grid = eg_grid_oracle(vs.matrix, W2.array)
    assert np.allclose(eq.utilities, [2.0, 2.0], atol=1e-6)
    assert np.allclose(eq.utilities, grid, atol=1e-3)


def test_split_oracle_crosscheck_on_random_two_agent_instances():
    # third route: ownership-pattern enumeration with a closed-form split
    rng = np.random.default_rng(99)
    for _ in range(15):
        t = int(rng.integers(1, 6))
        m = rng.random((t, 2)) + 1e-3
        w = AgentWeights(rng.uniform(0.5, 2.0, 2))
        eq = solve_eg(ValueSequence(m), w, 1e-10)
        exact = eg_split_oracle(m, w.array)
        assert np.allclose(eq.utilities, exact, atol=1e-7)


def test_certificate_bounds_gap_on_random_instances():
    rng = np.random.default_rng(100)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        t = int(rng.integers(2, 7))
        vs = ValueSequence(rng.random((t, n)) + 1e-3)
        w = AgentWeights(rng.uniform(0.5, 2.0, n))
        eq = solve_eg(vs, w, 1e-9)
        assert 0.0 <= eq.gap <= 1e-9 * w.total


def test_dual_objective_examples():
    vs = ValueSequence([[1.0, 0.0], [0.0, 1.0]])
    # at the optimum the dual meets the primal: both zero
    assert dual_objective([1.0, 1.0], vs, W2) == pytest.approx(0.0, abs=1e-12)
    assert primal_objective([1.0, 1.0], W2) == pytest.approx(0.0)
    # one identical item: dual -1, primal optimum 2 log 0.5
    one = ValueSequence([[1.0, 1.0]])
    d = dual_objective([1.0, 1.0], one, W2)
    assert d == pytest.approx(-1.0)
    p = primal_objective([0.5, 0.5], W2)
    assert d - p == pytest.approx(-1.0 - 2 * math.log(0.5))
    assert d - p == pytest.approx(0.3862943611198906)


def test_dual_scaling_identity():
    # scaling beta by c shifts the value by (c-1)*sum(p) - ||B||_1 log c,
    # minimized at c = ||B||_1 / sum(p)
    rng = np.random.default_rng(101)
    vs = ValueSequence(rng.random((5, 3)) + 0.05)
    w = AgentWeights([1.0, 2.0, 0.5])
    beta = rng.uniform(0.5, 2.0, 3)
    base = dual_objective(beta, vs, w)
    p_sum = float((vs.matrix * beta).max(axis=1).sum())
    for c in (0.5, 1.7, 3.0):
        expected = base + (c - 1.0) * p_sum - w.total * math.log(c)
        assert dual_objective(c * beta, vs, w) == pytest.approx(expected, rel=1e-12)
    c_star = w.total / p_sum
    eps = 1e-4
    f = lambda c: dual_objective(c * beta, vs, w)
    assert f(c_star) <= min(f(c_star * (1 + eps)), f(c_star * (1 - eps)))


def test_weak_duality_on_random_pairs():
    rng = np.random.default_rng(102)
    for _ in range(25):
        n, t = int(rng.integers(2, 4)), int(rng.integers(1, 6))
        vs = ValueSequence(rng.random((t, n)) + 1e-6)
        w = AgentWeights(rng.uniform(0.5, 2.0, n))
        x = rng.dirichlet(np.ones(n), size=t)  # feasible allocation
        u = (vs.matrix * x).sum(axis=0)
        beta = rng.uniform(0.1, 5.0, n)
        assert dual_objective(beta, vs, w) >= primal_objective(u, w) - 1e-12


def test_scale_invariance_recertified():
    rng = np.random.default_rng(103)
    vs = ValueSequence(rng.random((6, 3)) + 1e-3)
    w = AgentWeights([1.0, 0.7, 1.5])
    eq = solve_eg(vs, w, 1e-10)
    alphas = np.array([2.0, 0.25, 5.0])
    scaled = ValueSequence(vs.matrix * alphas)
    u2 = (scaled.matrix * eq.allocation).sum(axis=0)
    beta2 = eq.beta / alphas
    assert np.allclose(u2, eq.utilities * alphas, rtol=1e-12)
    dual, primal = dual_objective(beta2, scaled, w), primal_objective(u2, w)
    # an exactly optimal split has gap zero, which reads a few ulps either side
    rounding = 16 * np.finfo(np.float64).eps * (abs(dual) + abs(primal) + w.total)
    assert -rounding <= dual - primal <= 1e-9 * w.total


def test_degenerate_item_gets_zero_price_and_row():
    vs = ValueSequence([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    eq = solve_eg(vs, W2, 1e-10)
    assert eq.prices[1] == 0.0
    assert np.allclose(eq.allocation[1], [0.0, 0.0])
    report = check_equilibrium(eq, vs, W2, 1e-6)
    assert report.ok


def test_prices_are_the_row_maximum_and_a_zero_price_is_positive_zero():
    # rows of zeros of both signs at ten agents, where the order of
    # (matrix * beta).max(axis=1) gives some of them -0.0; the row merge
    # counts -0.0 as 0.0, so the prices may not tell the two apart
    rng = np.random.default_rng(3)
    m = rng.choice([0.0, -0.0, 0.25, 0.5, 1.0], size=(200, 10), p=[0.45, 0.45, 0.04, 0.03, 0.03])
    m[:10] = np.eye(10)
    w = AgentWeights.equal(10)
    eq = solve_eg(ValueSequence(m), w, 1e-6)
    assert (m.max(axis=1) == 0).sum() > 50
    assert not np.signbit(eq.prices).any()
    assert eq.prices.tobytes() == solve_eg(ValueSequence(m + 0.0), w, 1e-6).prices.tobytes()
    assert eq.prices.tobytes() == ((m * eq.beta).max(axis=1) + 0.0).tobytes()


def test_solve_underlying_examples():
    w = W2
    m = solve_underlying([[1.0, 1.0]], [1.0], w, 1e-12)
    assert np.allclose(m.utilities, [0.5, 0.5], atol=1e-9)
    m = solve_underlying([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5], w, 1e-12)
    assert np.allclose(m.utilities, [0.5, 0.5], atol=1e-9)
    assert np.allclose(m.beta, [2.0, 2.0], atol=1e-8)
    m = solve_underlying([[2.0, 1.0], [1.0, 2.0]], [0.5, 0.5], w, 1e-12)
    assert np.allclose(m.utilities, [1.0, 1.0], atol=1e-8)


def test_solve_underlying_validates_probs():
    with pytest.raises(InstanceError):
        solve_underlying([[1.0, 1.0]], [0.9], W2, 1e-9)


def test_solve_underlying_refuses_weights_for_another_agent_count():
    with pytest.raises(InstanceError, match="weights length does not match agent count"):
        solve_underlying([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5], AgentWeights([1.0, 1.0, 1.0]))


@pytest.mark.parametrize(
    "support, message",
    [
        ([[1.0, -1.0], [1.0, 3.0]], "^negative value at item 1, agent 2$"),
        ([[1.0, math.inf], [1.0, 1.0]], "^non-finite value at item 1, agent 2$"),
    ],
    ids=["negative", "infinite"],
)
def test_solve_underlying_refuses_a_negative_or_infinite_support_vector(support, message):
    with pytest.raises(InstanceError, match=message):
        solve_underlying(support, [0.5, 0.5], W2, 1e-9)


def test_nan_gap_is_never_a_certificate():
    # the two merged items' supply-weighted values overflow, so the gap reads NaN
    vs = ValueSequence([[1e308, 1e308], [1e308, 1e308]])
    with pytest.raises(ConvergenceError, match="gap nan") as exc_info:
        solve_eg(vs, W2, 1e-9)
    assert math.isnan(exc_info.value.gap)
    assert exc_info.value.iterations == 1


def test_check_equilibrium_passes_on_solution():
    rng = np.random.default_rng(104)
    vs = ValueSequence(rng.random((8, 3)) + 1e-3)
    w = AgentWeights([1.0, 2.0, 1.0])
    eq = solve_eg(vs, w, 1e-10)
    report = check_equilibrium(eq, vs, w, 1e-6)
    assert report.ok, report.failures


def test_check_equilibrium_catches_envy_after_perturbation():
    from dataclasses import replace

    vs = ValueSequence(np.ones((3, 2)))
    eq = solve_eg(vs, W2, 1e-12)
    x = eq.allocation.copy()
    x[0, 0] -= 0.1
    x[0, 1] += 0.1
    bad = replace(eq, allocation=x)
    report = check_equilibrium(bad, vs, W2, 1e-6)
    assert not report.envy_free
    assert not report.ok


def test_equal_split_proportionality_is_tight():
    vs = ValueSequence(np.ones((4, 2)))
    eq = solve_eg(vs, W2, 1e-12)
    fair = 0.5 * vs.matrix.sum(axis=0)
    assert np.allclose(eq.utilities, fair, atol=1e-9)
    assert check_equilibrium(eq, vs, W2, 1e-6).proportional


def test_nonconvergence_error_carries_gap(monkeypatch):
    rng = np.random.default_rng(105)
    vs = ValueSequence(rng.random((6, 3)) + 1e-3)
    monkeypatch.setattr("fairpace.eg._MAX_ITERS", 2)
    with pytest.raises(ConvergenceError) as exc_info:
        solve_eg(vs, AgentWeights.equal(3), 1e-12)
    assert exc_info.value.gap > 0
    assert exc_info.value.iterations == 2


def test_hindsight_prefix_single_checkpoint_is_full_solve():
    rng = np.random.default_rng(106)
    vs = ValueSequence(rng.random((10, 3)) + 1e-3)
    w = AgentWeights.equal(3)
    [sol] = hindsight_prefix(vs, w, [vs.t], 1e-9)
    eq = solve_eg(vs, w, 1e-9)
    assert sol.tau == vs.t
    assert np.allclose(sol.avg_utilities, eq.utilities / vs.t, atol=1e-7)
    assert sol.flagged == ()


def test_hindsight_prefix_flags_zero_agents():
    vs = ValueSequence([[1.0, 0.0], [0.0, 1.0]])
    sols = hindsight_prefix(vs, W2, [1, 2], 1e-10)
    assert sols[0].flagged == (1,)
    assert sols[0].avg_utilities[1] == 0.0
    assert sols[0].avg_utilities[0] == pytest.approx(1.0, abs=1e-9)
    assert sols[1].flagged == ()
    assert np.allclose(sols[1].avg_utilities, [0.5, 0.5], atol=1e-9)


def test_hindsight_prefix_flags_every_agent_when_no_item_is_valued():
    # run accepts an instance whose first items nobody values; so does its benchmark
    vs = ValueSequence([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    sols = hindsight_prefix(vs, W2, [1, 2, 4], 1e-10)
    for sol in sols[:2]:
        assert sol.flagged == (0, 1)
        assert sol.avg_utilities.tolist() == [0.0, 0.0]
        assert (sol.iterations, sol.gap) == (0, 0.0)
    assert sols[2].flagged == ()
    assert np.allclose(sols[2].avg_utilities, [0.25, 0.25], atol=1e-9)


def test_hindsight_prefix_identical_items_constant():
    vs = ValueSequence(np.ones((3, 2)))
    w = AgentWeights([1.0, 3.0])
    sols = hindsight_prefix(vs, w, [1, 2, 3], 1e-11)
    for sol in sols:
        assert np.allclose(sol.avg_utilities, [0.25, 0.75], atol=1e-8)


@pytest.mark.parametrize("checkpoints", [[2.5], [0], [2.5, 3]])
def test_hindsight_prefix_refuses_checkpoints_run_refuses(checkpoints):
    # a fractional round is refused, not truncated to the prefix before it
    vs = ValueSequence(np.ones((3, 2)))
    with pytest.raises(InstanceError, match="checkpoints"):
        hindsight_prefix(vs, W2, checkpoints)


def test_duplicate_item_compression_is_exact():
    rng = np.random.default_rng(107)
    base = rng.random((4, 3)) + 1e-3
    stacked = np.repeat(base, [5, 1, 3, 2], axis=0)
    vs = ValueSequence(stacked)
    w = AgentWeights.equal(3)
    eq = solve_eg(vs, w, 1e-10)
    # same utilities as the explicit instance with unique rows scaled
    m = solve_underlying(base, np.array([5, 1, 3, 2]) / 11.0, w, 1e-10)
    assert np.allclose(eq.utilities / 11.0, m.utilities, rtol=1e-6)
    report = check_equilibrium(eq, vs, w, 1e-6)
    assert report.ok


def test_binary_values_tied_in_cycles_certify_at_1e_12():
    # items tied exactly between the same agents close cycles in the tie
    # support: smoothing alone certifies no better than 2e-9 here, the spanning
    # forest alone spends negative amounts, and the split needs the
    # nonnegative least squares
    rng = np.random.default_rng(0)
    m = (rng.random((25, 8)) < 0.7).astype(float)
    m[0] = 1.0
    vs, w = ValueSequence(m), AgentWeights(rng.choice([0.5, 1.0, 2.0], size=8))
    eq = solve_eg(vs, w, 1e-12)
    assert 0.0 <= eq.gap <= 1e-12 * w.total
    report = check_equilibrium(eq, vs, w, 1e-9)
    assert report.ok, report.failures


# Cost guards: Newton step counts are deterministic, unlike wall time.
# Each bound is about twice the count measured when it was set.

# a fixed eight-point support at ten agents, the shape of the wide-stream
# benchmark workload: fewer distinct items than agents
EIGHT_POINT_SUPPORT = [
    [1.0, 0.2, 0.4, 0.6, 0.8, 0.3, 0.5, 0.7, 0.9, 0.1],
    [0.2, 1.0, 0.3, 0.5, 0.1, 0.9, 0.4, 0.8, 0.6, 0.7],
    [0.5, 0.6, 1.0, 0.2, 0.7, 0.1, 0.9, 0.3, 0.4, 0.8],
    [0.7, 0.3, 0.1, 1.0, 0.4, 0.8, 0.2, 0.6, 0.5, 0.9],
    [0.3, 0.8, 0.6, 0.1, 1.0, 0.4, 0.7, 0.9, 0.2, 0.5],
    [0.9, 0.5, 0.7, 0.8, 0.2, 1.0, 0.1, 0.4, 0.3, 0.6],
    [0.4, 0.9, 0.2, 0.7, 0.6, 0.5, 1.0, 0.1, 0.8, 0.3],
    [0.6, 0.1, 0.8, 0.4, 0.9, 0.7, 0.3, 1.0, 0.1, 0.2],
]


def test_newton_steps_on_5000_non_repeating_items_at_the_default_tolerance():
    vs = ValueSequence(np.random.default_rng(0).random((5000, 10)))
    eq = solve_eg(vs, AgentWeights.equal(10), 1e-9)
    assert eq.gap <= 1e-9 * 10
    assert eq.iterations <= 100  # 49 when set


def test_newton_steps_over_the_pow2_prefixes_of_256_non_repeating_items():
    vs = ValueSequence(np.random.default_rng(0).random((256, 10)))
    sols = hindsight_prefix(vs, AgentWeights.equal(10), parse_checkpoints("pow2", 256), 1e-6)
    assert len(sols) == 9
    assert sum(s.iterations for s in sols) <= 540  # 266 when set


def test_newton_steps_over_the_pow2_prefixes_of_an_eight_point_support_at_ten_agents():
    # fewer distinct items than agents: every item is tied between agents
    spec = InputModelSpec(IID(FiniteDistribution.uniform(EIGHT_POINT_SUPPORT)), 4096, 0)
    sols = hindsight_prefix(gen(spec), AgentWeights.equal(10), parse_checkpoints("pow2", 4096), 1e-6)
    assert len(sols) == 13
    assert sum(s.iterations for s in sols) <= 670  # 335 when set


def test_dual_objective_of_a_point_form_prices_each_point():
    # prices are taken per point and mapped to the rounds: the matrix's
    # sum bit for bit, without the matrix
    vs = gen(InputModelSpec(IID(FiniteDistribution.uniform(EIGHT_POINT_SUPPORT)), 40_000, 1))
    w = AgentWeights(np.linspace(0.5, 2.0, 10))
    for beta in (np.ones(10), np.linspace(0.1, 3.0, 10), np.geomspace(1e-3, 1e3, 10)):
        assert dual_objective(beta, vs, w) == dual_objective(beta, ValueSequence(vs.matrix), w)
    peak = traced_peak(dual_objective, np.linspace(0.5, 1.5, 10), vs, w)
    # 0.10 when set; 1.20 with the matrix gathered
    assert peak <= 0.25 * vs.matrix.nbytes, peak / vs.matrix.nbytes


def test_hindsight_prefix_memory_is_a_fraction_of_the_matrix():
    # merging identical items sorts an index, not the rows: the sorted rows
    # are compared one block at a time and only the unique rows are copied
    spec = InputModelSpec(IID(FiniteDistribution.uniform(EIGHT_POINT_SUPPORT)), 40_000, 1)
    vs = gen(spec)
    cps = parse_checkpoints("pow2", vs.t)
    peak = traced_peak(hindsight_prefix, vs, AgentWeights.equal(10), cps, 1e-6)
    # 0.31 when set; 1.41 with a sorted copy of the rows
    assert peak <= 0.5 * vs.matrix.nbytes, peak / vs.matrix.nbytes


def test_solve_memory_is_a_fraction_of_the_matrix():
    # the prices are taken column by column, with no t x n product
    spec = InputModelSpec(IID(FiniteDistribution.uniform(EIGHT_POINT_SUPPORT)), 20_000, 1)
    vs = gen(spec)
    peak = traced_peak(solve_eg, vs, AgentWeights.equal(10), 1e-6, include_allocation=False)
    # 0.34 when set; 1.20 with the product
    assert peak <= 0.5 * vs.matrix.nbytes, peak / vs.matrix.nbytes


def test_a_singular_normal_system_is_solved_by_least_squares():
    ata, atd = np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([2.0, 2.0])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(ata, atd)
    z = _solve_normal(ata, atd)
    assert np.all(np.isfinite(z)) and np.allclose(ata @ z, atd) and np.allclose(z, [1.0, 1.0])


def test_tie_split_gives_none_when_an_agent_has_nothing_to_spend_on():
    beta, c, b = np.ones(2), np.ones(2), np.ones(2)
    # agent 1 holds no item's top ratio and no tied edge, so its component spends nothing
    v = np.array([[1.0, 0.5], [1.0, 0.25]])
    ratio = v / v.max(axis=1, keepdims=True)
    assert _tie_split(beta, v, c, b, ratio, ratio >= 1.0) is None
    # tied on the first item, agent 1 spends its budget there
    v = np.array([[1.0, 1.0], [1.0, 0.25]])
    ratio = v / v.max(axis=1, keepdims=True)
    assert np.array_equal(_tie_split(beta, v, c, b, ratio, ratio >= 1.0), [[0.0, 1.0], [1.0, 0.0]])
