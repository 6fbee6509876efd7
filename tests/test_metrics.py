"""Metric formulas, flags, and cross-checks against enumeration."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import cross_utilities_by_column_sums, expenditure_deviation, utility_ratio_enum

from fairpace import metrics
from fairpace.dynamics import (
    Constrained,
    OneStepGreedy,
    Proportional,
    Seeded,
    SetAside,
    Unconstrained,
    run,
)
from fairpace.eg import solve_eg, hindsight_prefix
from fairpace.metrics import (
    additive_envy,
    build_report,
    competitive_ratio,
    cross_utilities,
    multiplicative_envy,
    nash_welfare,
    regret,
    relative_regret_trajectory,
    seeded_utility_ratio,
    utility_ratio,
)
from fairpace.model import AgentWeights, InstanceError, ValueSequence

W2 = AgentWeights.equal(2)
ALL_ONES_3 = ValueSequence(np.ones((3, 2)))


@pytest.fixture(scope="module")
def hand_trace():
    """The three-round all-ones run: winners (1, 2, 1), U = (2, 1)."""
    return run(ALL_ONES_3, W2, Unconstrained())


def test_regret_examples():
    assert regret([1.0, 2.0], [1.0, 2.0]).tolist() == [0.0, 0.0]
    assert regret([2 / 3, 1 / 3], [0.5, 0.5]).tolist() == [0.0, pytest.approx(1 / 6)]
    assert regret([0.0, 0.0], [0.7, 0.3]).tolist() == [0.7, 0.3]


def test_additive_envy_equal_split_is_zero():
    x = np.full((3, 2), 0.5)
    assert np.allclose(additive_envy(ALL_ONES_3, x, W2), 0.0)


def test_additive_envy_hand_trace(hand_trace):
    env = additive_envy(ALL_ONES_3, hand_trace, W2)
    assert env[0] == 0.0
    assert env[1] == pytest.approx(1 / 3)


def test_additive_envy_at_equilibrium_is_tiny():
    rng = np.random.default_rng(200)
    vs = ValueSequence(rng.random((8, 3)) + 1e-3)
    w = AgentWeights([1.0, 2.0, 0.5])
    eq = solve_eg(vs, w, 1e-10)
    assert np.all(additive_envy(vs, eq.allocation, w) <= 1e-6)


def test_multiplicative_envy_hand_trace(hand_trace):
    env = multiplicative_envy(ALL_ONES_3, hand_trace, W2)
    assert env[1] == pytest.approx(2.0)
    assert env[0] == pytest.approx(0.5)


def test_multiplicative_envy_disjoint_identity_is_zero():
    vs = ValueSequence([[1.0, 0.0], [0.0, 1.0]])
    x = np.eye(2)
    assert multiplicative_envy(vs, x, W2).tolist() == [0.0, 0.0]


def test_multiplicative_envy_flags_zero_utility_agent():
    vs = ValueSequence([[1.0, 1.0]])
    x = np.array([[1.0, 0.0]])
    env = multiplicative_envy(vs, x, W2)
    assert env[1] == math.inf


def test_nash_welfare_and_cr_examples():
    assert nash_welfare([4.0, 1.0], W2) == pytest.approx(2.0)
    assert competitive_ratio([1.5, 1.5], [1.5, 1.5], W2) == pytest.approx(1.0)
    assert competitive_ratio([2.0, 1.0], [1.5, 1.5], W2) == pytest.approx(math.sqrt(1.125))
    assert competitive_ratio([0.0, 1.0], [1.0, 1.0], W2) == math.inf


def test_competitive_ratio_of_a_zero_or_underflowed_ratio_takes_no_log_of_zero():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert competitive_ratio([1.0, 1.0], [0.0, 1.0], W2) == 0.0
        # uh / ua underflows to zero; the weighted geometric mean is sqrt(1e-600)
        assert competitive_ratio([1e300, 1.0], [1e-300, 1.0], W2) == pytest.approx(1e-300, rel=1e-12)


def test_utility_ratio_hand_trace(hand_trace):
    # every item goes to agent 2 in the best alternative: R = 1.5
    r = utility_ratio(ALL_ONES_3, hand_trace.final_utilities, W2)
    assert r == pytest.approx(1.5)


def test_utility_ratio_single_agent_is_monopoly_share():
    vs = ValueSequence([[2.0], [3.0]])
    assert utility_ratio(vs, [4.0], AgentWeights([1.0])) == pytest.approx(5.0 / 4.0)


def test_utility_ratio_matches_enumeration():
    rng = np.random.default_rng(201)
    for _ in range(15):
        n = int(rng.integers(2, 4))
        t = int(rng.integers(1, 7 if n == 2 else 5))
        vs = ValueSequence(rng.random((t, n)) + 1e-3)
        u = rng.uniform(0.2, 3.0, n)
        w = AgentWeights(rng.uniform(0.5, 2.0, n))
        closed = utility_ratio(vs, u, w)
        brute = utility_ratio_enum(vs.matrix, u, w.array)
        assert closed == pytest.approx(brute, rel=1e-12)


def test_utility_ratio_dominates_cr():
    rng = np.random.default_rng(202)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        t = int(rng.integers(3, 30))
        vs = ValueSequence(rng.random((t, n)) + 1e-3)
        w = AgentWeights(rng.uniform(0.5, 2.0, n))
        trace = run(vs, w, Unconstrained())
        eq = solve_eg(vs, w, 1e-9)
        cr = competitive_ratio(trace.final_utilities, eq.utilities, w)
        r = utility_ratio(vs, trace.final_utilities, w)
        assert r >= cr - 1e-9


def test_seeded_ratio_examples():
    vs = ValueSequence([[1.0, 1.0]])
    # seeded run on the single item: agent 1 wins, U = (1, 0)
    trace = run(vs, W2, Seeded(1.0))
    assert trace.final_utilities.tolist() == [1.0, 0.0]
    r = seeded_utility_ratio(vs, trace.final_utilities, W2, 1.0)
    assert r == pytest.approx(2.5)
    # huge seed: ratio tends to the weight total
    r_big = seeded_utility_ratio(vs, trace.final_utilities, W2, 1e12)
    assert r_big == pytest.approx(W2.total, rel=1e-9)


@pytest.mark.parametrize("seed_utility", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_seeded_ratio_refuses_a_seed_that_is_not_positive_and_finite(seed_utility):
    # an infinite seed once gave nan with a RuntimeWarning
    vs = ValueSequence(np.eye(2))
    with pytest.raises(InstanceError, match="seed_utility must be positive and finite"):
        seeded_utility_ratio(vs, np.ones(2), W2, seed_utility)


def test_scale_behavior_of_metrics():
    rng = np.random.default_rng(203)
    vs = ValueSequence(rng.random((12, 3)) + 1e-3)
    w = AgentWeights([1.0, 2.0, 1.0])
    trace = run(vs, w, Unconstrained())
    eq = solve_eg(vs, w, 1e-10)
    c = 3.7
    scaled = ValueSequence(vs.matrix * c)
    trace_c = run(scaled, w, Unconstrained())
    eq_c = solve_eg(scaled, w, 1e-10)
    # scale-free metrics match; additive metrics scale linearly
    assert competitive_ratio(trace_c.final_utilities, eq_c.utilities, w) == pytest.approx(
        competitive_ratio(trace.final_utilities, eq.utilities, w), rel=1e-6
    )
    assert utility_ratio(scaled, trace_c.final_utilities, w) == pytest.approx(
        utility_ratio(vs, trace.final_utilities, w), rel=1e-9
    )
    assert np.allclose(
        multiplicative_envy(scaled, trace_c, w), multiplicative_envy(vs, trace, w), rtol=1e-9
    )
    assert np.allclose(
        additive_envy(scaled, trace_c, w), c * additive_envy(vs, trace, w), rtol=1e-9
    )
    assert np.allclose(
        regret(trace_c.final_avg_utilities, eq_c.utilities / vs.t),
        c * regret(trace.final_avg_utilities, eq.utilities / vs.t),
        rtol=1e-5, atol=1e-9,
    )


def test_equilibrium_self_benchmark():
    rng = np.random.default_rng(204)
    vs = ValueSequence(rng.random((9, 3)) + 1e-3)
    w = AgentWeights([0.5, 1.0, 2.0])
    eq = solve_eg(vs, w, 1e-10)
    assert np.all(additive_envy(vs, eq.allocation, w) <= 1e-6)
    assert competitive_ratio(eq.utilities, eq.utilities, w) <= 1.0 + 1e-12


def test_cross_utilities_trace_matches_dense():
    rng = np.random.default_rng(205)
    vs = ValueSequence(rng.random((20, 3)) + 1e-3)
    w = AgentWeights([0.5, 1.0, 2.0])
    variants = (
        Unconstrained(),
        Constrained.from_slack(w, 0.3),
        Seeded(0.4),
        SetAside(tuple(vs.monopolistic_utilities())),
        OneStepGreedy(),
        Proportional(),
    )
    for variant in variants:
        trace = run(vs, w, variant)
        dense = cross_utilities(vs, trace.allocation_matrix())
        fast = cross_utilities(vs, trace)
        assert np.allclose(dense, fast, rtol=1e-12)


@st.composite
def _point_form_instances(draw):
    """Points with zeros of both signs and subnormals, each agent valuing
    some item that arrives (a run refuses an agent that values none)."""
    n = draw(st.integers(1, 10))
    q = draw(st.integers(1, 12))
    entry = st.one_of(st.sampled_from([-0.0, 0.0, 1e-310, 5e-324]), st.floats(1e-3, 1e3))
    points = np.array(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=q, max_size=q)))
    index = np.array(draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=200)))
    for i, tau in enumerate(draw(st.lists(st.integers(0, index.size - 1), min_size=n, max_size=n))):
        if not np.any(points[index, i] > 0):
            points[index[tau], i] = draw(st.sampled_from([1e-310, 1.0]))
    return points, index


@settings(max_examples=60, deadline=None)
@given(_point_form_instances())
# one column is summed pairwise by numpy: 40 distinct values at n = 1 round differently in sequence
@example((np.random.default_rng(3).uniform(1e-3, 1e3, (40, 1)), np.arange(40)))
def test_cross_utilities_of_a_trace_are_the_column_sums_of_its_winners_bit_for_bit(instance):
    points, index = instance
    w = AgentWeights.equal(points.shape[1])
    for vs in (ValueSequence(points, index=index), ValueSequence(points[index])):
        for variant in (Unconstrained(), Constrained.from_slack(w, 0.5), Seeded(0.5),
                        SetAside(tuple(vs.monopolistic_utilities())), OneStepGreedy(), Proportional()):
            trace = run(vs, w, variant)
            expected = cross_utilities_by_column_sums(vs, trace)
            assert cross_utilities(vs, trace).tobytes() == expected.tobytes(), variant


def test_expenditure_deviation_single_agent():
    vs = ValueSequence(np.ones((10, 1)))
    w1 = AgentWeights([1.0])
    trace = run(vs, w1, Unconstrained(), checkpoints=[2, 10])
    dev = expenditure_deviation(trace, w1, warmup=2)
    # constant bid 1 each round: average over rounds 3..10 is 8/10
    assert dev.value == pytest.approx((1.0 - 0.8) ** 2)
    assert not dev.flagged


def test_expenditure_deviation_flags_late_infinite_spend():
    vs = ValueSequence([[1.0, 0.5], [0.0, 0.5], [1.0, 1.0]])
    trace = run(vs, W2, Unconstrained(), checkpoints=[1, 3])
    assert trace.infinite_spend_rounds == (1, 2)
    dev0 = expenditure_deviation(trace, W2, warmup=0)
    assert dev0.flagged and dev0.infinite_rounds_after_warmup == (1, 2)
    # warm-up past the unserved win: clean
    trace2 = run(vs, W2, Unconstrained(), checkpoints=[2])
    dev2 = expenditure_deviation(trace2, W2, warmup=2)
    assert not dev2.flagged


def test_expenditure_deviation_rejects_nonpacing():
    vs = ValueSequence(np.ones((4, 2)))
    trace = run(vs, W2, Proportional())
    with pytest.raises(InstanceError):
        expenditure_deviation(trace, W2, warmup=0)


def test_relative_regret_trajectory(hand_trace):
    prefixes = hindsight_prefix(ALL_ONES_3, W2, [1, 2, 3], 1e-11)
    trace = run(ALL_ONES_3, W2, Unconstrained(), checkpoints=[1, 2, 3])
    points = relative_regret_trajectory(trace, prefixes)
    # tau=1: winner has zero regret, loser is not flagged (it values the item)
    assert points[0].per_agent[0] == 0.0
    assert points[0].per_agent[1] == 1.0  # ubar = 0 against positive benchmark
    # tau=3: agent 2 at (0.5 - 1/3)/0.5 = 1/3
    assert points[2].per_agent[1] == pytest.approx(1 / 3)
    assert points[2].max_value == pytest.approx(1 / 3)
    assert points[2].excluded == 0


def test_relative_regret_excludes_flagged_agents():
    vs = ValueSequence([[1.0, 0.0], [0.0, 1.0]])
    prefixes = hindsight_prefix(vs, W2, [1, 2], 1e-10)
    trace = run(vs, W2, Unconstrained(), checkpoints=[1, 2])
    points = relative_regret_trajectory(trace, prefixes)
    assert points[0].excluded == 1
    assert math.isnan(points[0].per_agent[1])
    assert points[1].excluded == 0


def test_starved_agent_reports_flagged_infinities_without_throwing():
    # interval-projected pacing can legitimately leave an agent at zero
    # utility; the report must flag rather than raise so adversarial
    # experiments stay comparable
    from fairpace.dynamics import Constrained
    from fairpace.inputs import adv_constrained_failure

    vs = adv_constrained_failure(2.0, 1.0, 30)
    trace = run(vs, W2, Constrained(lower=(0.0, 0.0), upper=(4.0, 2.0)))
    assert trace.final_utilities[1] == 0.0
    eq = solve_eg(vs, W2, 1e-10)
    report = build_report(trace, vs, W2, eq.utilities)
    assert report.flagged_agents == (1,)
    assert report.multiplicative_envy[1] == math.inf
    assert report.competitive_ratio == math.inf
    assert report.utility_ratio == math.inf
    d = report.to_json_dict()  # infinities serialize as nulls
    assert d["multiplicative_envy"][1] is None
    assert d["competitive_ratio"] is None


def test_build_report_roundtrip(hand_trace):
    eq = solve_eg(ALL_ONES_3, W2, 1e-11)
    report = build_report(hand_trace, ALL_ONES_3, W2, eq.utilities)
    d = report.to_json_dict()
    assert d["variant"] == "pace"
    assert d["competitive_ratio"] == pytest.approx(math.sqrt(1.125), rel=1e-6)
    assert d["utility_ratio"] == pytest.approx(1.5)
    assert d["multiplicative_envy"][1] == pytest.approx(2.0)


def test_build_report_computes_cross_utilities_once():
    rng = np.random.default_rng(206)
    vs = ValueSequence(rng.random((30, 3)) + 1e-3)
    w = AgentWeights([0.5, 1.0, 2.0])
    trace = run(vs, w, Seeded(0.4))
    eq = solve_eg(vs, w, 1e-9)
    with mock.patch.object(metrics, "cross_utilities", wraps=metrics.cross_utilities) as cu:
        report = build_report(trace, vs, w, eq.utilities)
    assert cu.call_count == 1
    # the same envies as the public functions, bit for bit
    assert np.array_equal(report.additive_envy, additive_envy(vs, trace, w))
    assert np.array_equal(report.multiplicative_envy, multiplicative_envy(vs, trace, w))


@st.composite
def _scaled_instances(draw):
    """An instance with exact zeros, each agent valuing some item, its
    weights, and one power of two 2^k per agent with k in [-60, 60]."""
    n = draw(st.integers(2, 5))
    t = draw(st.integers(1, 40))
    entry = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    m = np.array(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=t, max_size=t)))
    for i, tau in enumerate(draw(st.lists(st.integers(0, t - 1), min_size=n, max_size=n))):
        if not np.any(m[:, i] > 0):
            m[tau, i] = 1.0
    w = AgentWeights(draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=n, max_size=n)))
    scale = np.ldexp(1.0, draw(st.lists(st.integers(-60, 60), min_size=n, max_size=n)))
    return m, w, scale


_SCALE_TOL = 1e-9


def _within(a, b, rel):
    """Equal where either is NaN or infinite, else within ``rel`` of each other."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    exact = ~np.isfinite(a) | ~np.isfinite(b)
    return np.array_equal(a[exact], b[exact], equal_nan=True) and np.all(np.abs(a[~exact] - b[~exact]) <= rel)


@settings(max_examples=80, deadline=None)
@given(_scaled_instances())
# the hand trace's instance in units of 2**-60: every utility was flagged below 1e-12
@example((np.ones((3, 2)), W2, np.ldexp(1.0, [-60, -60])))
def test_metrics_hold_in_any_units(instance):
    # seeded and constrained are left out: their seed and bounds are absolute
    m, w, scale = instance
    vs, scaled = ValueSequence(m), ValueSequence(m * scale)
    cps = list(range(1, vs.t + 1))
    # each solve's utilities lie within a factor 1 +- eps of the exact ones
    # (ROADMAP item 3), so two solves' lie within rho = (1 + eps)/(1 - eps)
    eps = math.sqrt(2 * _SCALE_TOL * w.total / w.array.min())
    rho = (1 + eps) / (1 - eps)
    prefixes = hindsight_prefix(vs, w, cps, _SCALE_TOL)
    prefixes_s = hindsight_prefix(scaled, w, cps, _SCALE_TOL)
    for variant in (Unconstrained(), OneStepGreedy(), SetAside(), Proportional()):
        trace, trace_s = run(vs, w, variant, cps), run(scaled, w, variant, cps)
        assert np.array_equal(trace_s.winners, trace.winners), variant
        assert trace_s.final_utilities.tobytes() == (trace.final_utilities * scale).tobytes(), variant
        report = build_report(trace, vs, w, prefixes[-1].avg_utilities * vs.t)
        report_s = build_report(trace_s, scaled, w, prefixes_s[-1].avg_utilities * vs.t)
        assert report_s.multiplicative_envy.tobytes() == report.multiplicative_envy.tobytes(), variant
        assert np.float64(report_s.utility_ratio).tobytes() == np.float64(report.utility_ratio).tobytes(), variant
        assert report_s.flagged_agents == report.flagged_agents, variant
        assert _within(math.log(report_s.competitive_ratio), math.log(report.competitive_ratio), math.log(rho)), variant
        for p, p_s in zip(relative_regret_trajectory(trace, prefixes), relative_regret_trajectory(trace_s, prefixes_s)):
            assert p_s.excluded == p.excluded, (variant, p.tau)
            for a, b in ((p.per_agent, p_s.per_agent), (p.max_value, p_s.max_value), (p.mean_value, p_s.mean_value)):
                assert _within(a, b, rho - 1), (variant, p.tau)


def test_ratios_past_the_float_range_are_inf_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # the share 0.5/5e-324 overflows: the ratio is past the float range
        assert utility_ratio(ValueSequence([[1, 1], [1e-310, 1]]), [5e-324, 1.0], W2) == math.inf
        assert competitive_ratio([1e-300, 1], [1, 1], W2) == pytest.approx(1e150)
        assert competitive_ratio([5e-324, 1], [1, 1], W2) == math.inf
        # agent 1 holds only its 1e-300 item and envies the 1e300 one
        assert multiplicative_envy(ValueSequence([[1e300, 1], [1e-300, 1]]), np.array([[0, 1], [1, 0]]), W2)[0] == math.inf
        # an exactly zero utility still gives inf
        assert competitive_ratio([0.0, 1.0], [1.0, 1.0], W2) == math.inf
        assert utility_ratio(ALL_ONES_3, [0.0, 3.0], W2) == math.inf
        assert multiplicative_envy(ValueSequence([[1.0, 1.0]]), np.array([[1.0, 0.0]]), W2)[1] == math.inf

