"""Allocation dynamics: bids, steps, full runs, and their invariants."""

import dataclasses
import hashlib
import json
import math
from functools import partialmethod
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import greedy_reference_winners, pace_reference_trace, restrict_instance, window_arrivals_by_sorting
from test_eg import EIGHT_POINT_SUPPORT
from tracing import traced_peak

from fairpace import dynamics
from fairpace.dynamics import (
    VARIANTS,
    Constrained,
    OneStepGreedy,
    Proportional,
    Seeded,
    SetAside,
    Unconstrained,
    new_state,
    pace_bid,
    pace_step,
    run,
    variant_from_dict,
)
from fairpace.harness import parse_checkpoints
from fairpace.inputs import IID, FiniteDistribution, InputModelSpec, gen
from fairpace.model import AgentWeights, InstanceError, ValueSequence

W2 = AgentWeights.equal(2)
INF = math.inf


def _random_instance(rng, t_max=60, n_max=4, zero_frac=0.3):
    t = int(rng.integers(2, t_max))
    n = int(rng.integers(2, n_max + 1))
    m = rng.random((t, n))
    m[rng.random((t, n)) < zero_frac] = 0.0
    m[0] = rng.uniform(0.1, 1.0, n)  # keep validation happy
    return ValueSequence(m), AgentWeights(rng.uniform(0.5, 2.0, n))


def _all_variants(vs, w):
    """Every variant, the instance-dependent ones fitted to ``vs`` and ``w``."""
    return (
        Unconstrained(),
        Constrained.from_slack(w, 0.3),
        Seeded(0.4),
        SetAside(tuple(vs.monopolistic_utilities())),
        OneStepGreedy(),
        Proportional(),
    )


# ---------------------------------------------------------------- bids


def test_first_round_bids():
    # seeded/projected variants start at unit multipliers: bids = values
    assert np.array_equal(pace_bid(new_state(Seeded(0.5), W2), [1.0, 2.0]), [1.0, 2.0])
    v = Constrained((0.1, 0.1), (9.0, 9.0))
    assert np.array_equal(pace_bid(new_state(v, W2), [1.0, 2.0]), [1.0, 2.0])
    assert np.array_equal(new_state(Seeded(0.5), W2).beta, [1.0, 1.0])
    # unconstrained: everyone starts unserved, so valued items draw
    # infinite bids (this is what makes instance restriction exact)
    bids = pace_bid(new_state(Unconstrained(), W2), [1.0, 0.0])
    assert bids[0] == INF and bids[1] == 0.0
    assert np.all(new_state(Unconstrained(), W2).beta == INF)


def test_run_rejects_invalid_instances():
    with pytest.raises(InstanceError, match="all-zero"):
        run(ValueSequence([[1.0, 0.0], [1.0, 0.0]]), W2, Unconstrained())
    with pytest.raises(InstanceError, match="negative"):
        run(ValueSequence([[1.0, -0.5]]), W2, Unconstrained())


def test_every_run_refuses_an_all_zero_agent_found_once_per_instance():
    vs = ValueSequence([[1.0, 0.0, 2.0], [1.0, 0.0, 0.0]])
    w = AgentWeights.equal(3)
    # set-aside unresolved: its monopoly utilities would hold agent 2's zero
    variants = (Unconstrained(), Constrained.from_slack(w, 0.3), Seeded(0.4), SetAside(), OneStepGreedy(),
                Proportional())
    for variant in variants * 2:
        with pytest.raises(InstanceError, match="^agent 2 has all-zero values$"):
            run(vs, w, variant)
    assert vars(vs)["zero_agents"] == (1,)  # the column check is cached on the instance
    with pytest.raises(InstanceError, match="^dimension mismatch: 2 weights for 3 agents$"):
        run(vs, W2, Unconstrained())


def test_served_bids_are_multiplier_times_value():
    st = new_state(Unconstrained(), W2)
    st, _ = pace_step(st, [2.0, 0.0])  # only agent 1 values it: served
    st, _ = pace_step(st, [0.0, 1.5])  # only agent 2 values it: served
    beta = st.beta
    assert np.all(np.isfinite(beta))
    bids = pace_bid(st, [1.0, 2.0])
    assert np.allclose(bids, beta * [1.0, 2.0])
    assert np.allclose(beta * st.averages, W2.array, rtol=1e-12)


def test_unserved_bids_infinite_on_valued_items_and_zero_otherwise():
    st = new_state(Unconstrained(), W2)
    st, _ = pace_step(st, [3.0, 0.5])  # agent 1 wins; agent 2 unserved
    bids = pace_bid(st, [3.0, 0.5])
    assert bids[1] == INF and np.isfinite(bids[0])
    assert pace_bid(st, [3.0, 0.0])[1] == 0.0  # zero value beats the infinity
    assert st.beta[1] == INF


def test_hand_trace_three_rounds_all_ones():
    trace = run(ValueSequence(np.ones((3, 2))), W2, Unconstrained())
    assert trace.winners.tolist() == [0, 1, 0]
    assert trace.final_utilities.tolist() == [2.0, 1.0]


def test_all_zero_bid_round_goes_to_agent_one():
    vs = ValueSequence([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    trace = run(vs, W2, Unconstrained())
    assert trace.winners.tolist() == [0, 0, 0]
    assert trace.final_utilities.tolist() == [1.0, 0.0]


# ---------------------------------------------------------------- seeded


def test_seeded_step_example():
    xi = 0.25
    st = new_state(Seeded(xi), W2)
    st, out = pace_step(st, [1.0, 0.0])
    assert out.winner == 0
    assert np.allclose(st.averages, [1.0 + xi, xi])
    assert np.allclose(st.beta, [1.0 / (1.0 + xi), 1.0 / xi])


def test_seeded_average_closed_form():
    rng = np.random.default_rng(8)
    vs, w = _random_instance(rng)
    xi = 0.7
    trace = run(vs, w, Seeded(xi), checkpoints=range(1, vs.t + 1))
    for k, tau in enumerate(trace.checkpoints):
        u = trace.checkpoint_utilities[k]
        assert np.allclose(
            trace.checkpoint_beta[k], w.array / ((u + xi) / tau), rtol=1e-12
        )


def test_seeded_never_unserved():
    vs = ValueSequence([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    trace = run(vs, W2, Seeded(0.5))
    assert np.all(np.isfinite(trace.final_beta))
    assert trace.infinite_spend_rounds == (0, 0)


# ---------------------------------------------------------------- constrained


def test_constrained_failure_instance_starves_agent_two():
    upper = 2.0
    variant = Constrained(lower=(0.1, 0.1), upper=(upper, upper))
    c = min(1.0 / upper, 1.0)
    t = 40
    vs = ValueSequence(np.full((t, 2), c))
    trace = run(vs, W2, variant)
    assert np.all(trace.winners == 0)
    assert trace.final_utilities.tolist() == [t * c, 0.0]
    # multipliers pinned at the projected upper bound
    assert np.allclose(trace.final_beta, [upper, upper])


def test_constrained_projection_interval_constructor():
    v = Constrained.from_slack(AgentWeights([1.0, 2.0]), slack=1.0)
    assert v.lower == (0.5, 1.0)
    assert v.upper == (2.0, 4.0)
    with pytest.raises(InstanceError):
        Constrained(lower=(1.0,), upper=(0.5,))


# ---------------------------------------------------------------- greedy


def test_greedy_matches_direct_objective_argmax():
    rng = np.random.default_rng(21)
    for _ in range(20):
        vs, w = _random_instance(rng, t_max=40)
        trace = run(vs, w, OneStepGreedy())
        assert trace.winners.tolist() == greedy_reference_winners(vs.matrix, w.array)


def test_greedy_equal_weights_matches_pace_decision_on_served_states():
    # with equal weights, the greedy increment and the pacing bid rank
    # served agents identically (log(1+x) is increasing in x = v/U)
    rng = np.random.default_rng(22)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        u = rng.uniform(0.2, 5.0, n)
        v = rng.uniform(0.01, 1.0, n)
        greedy_pick = int(np.argmax(np.log1p(v / u)))
        pace_pick = int(np.argmax(v / u))
        assert greedy_pick == pace_pick


# math.log1p of both is A; np.log1p of the second is A plus one ulp on an
# x86-64 numpy 2.x build, so numpy ranks the second agent strictly first
# while the loop's tie goes to the first
_ULP_APART = (0.3510059666686379, 0.351005966668638)


def test_greedy_bids_are_the_loops_math_increments():
    w = AgentWeights([2.0, 3.0, 1.0, 1.0])
    state = new_state(OneStepGreedy(), w)
    for row in ([5e-324, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]):  # utilities (5e-324, 1, 0, 0)
        state, _ = pace_step(state, row)
    bids = pace_bid(state, [1.0, _ULP_APART[1], 0.5, 0.0])
    # 1/5e-324 overflows, so the first agent's increment is a difference of
    # logs; the second's is 3 * math.log1p, not numpy's (see _ULP_APART)
    assert bids.tolist() == [2.0 * (math.log(1.0) - math.log(5e-324)), 3.0 * math.log1p(_ULP_APART[1]), INF, 0.0]


# ---------------------------------------------------------------- proportional


def test_proportional_closed_form():
    rng = np.random.default_rng(4)
    vs, _ = _random_instance(rng)
    trace = run(vs, AgentWeights.equal(vs.n), Proportional())
    assert np.allclose(trace.final_utilities, vs.matrix.sum(axis=0) / vs.n, rtol=1e-12)
    assert np.all(trace.winners == -1)
    x = trace.allocation_matrix()
    assert np.allclose(x, 1.0 / vs.n)


def test_proportional_weight_shares():
    vs = ValueSequence([[1.0, 1.0], [1.0, 1.0]])
    trace = run(vs, AgentWeights([1.0, 3.0]), Proportional())
    assert np.allclose(trace.final_utilities, [0.5, 1.5])


# ---------------------------------------------------------------- set-aside


def test_setaside_single_item_example():
    vs = ValueSequence([[1.0, 1.0]])
    trace = run(vs, W2, SetAside())
    assert trace.winners.tolist() == [0]  # tie on normalized values
    x = trace.allocation_matrix()
    assert np.allclose(x, [[0.25 + 0.5, 0.25]])
    assert np.allclose(trace.final_utilities, [0.75, 0.25])


def test_setaside_everyone_gets_proportional_floor():
    rng = np.random.default_rng(9)
    for _ in range(10):
        vs, w = _random_instance(rng, zero_frac=0.5)
        trace = run(vs, w, SetAside())
        wmono = vs.monopolistic_utilities()
        floor = wmono / (2 * vs.n)
        assert np.all(trace.final_utilities >= floor - 1e-12)
        assert np.all(trace.final_utilities >= floor - vs.matrix.max())


def test_setaside_beta_is_weight_times_monopoly_over_average():
    vs = ValueSequence([[1.0, 2.0], [3.0, 1.0], [0.5, 0.5]])
    trace = run(vs, W2, SetAside())
    st = new_state(SetAside(tuple(vs.monopolistic_utilities())), W2)
    for row in vs.matrix:
        st, _ = pace_step(st, row)
    wmono = vs.monopolistic_utilities()
    assert np.allclose(st.beta * st.averages, wmono * W2.array, rtol=1e-12)
    assert np.array_equal(st.beta, trace.final_beta)


def test_setaside_utilities_add_in_round_order():
    # the scalar loop that the block cumsum replaces: every agent's base
    # share of the row, then the winner's half
    rng = np.random.default_rng(31)
    vs, w = _random_instance(rng)
    with mock.patch.object(dynamics, "_CHUNK", 7):
        trace = run(vs, w, SetAside())
    share = 1.0 / (2.0 * vs.n)
    u = [0.0] * vs.n
    for row, win in zip(vs.matrix.tolist(), trace.winners.tolist()):
        for i in range(vs.n):
            u[i] += share * row[i]
        u[win] += 0.5 * row[win]
    assert trace.final_utilities.tolist() == u


# ---------------------------------------------------------------- invariants


@pytest.mark.parametrize(
    "variant",
    [Unconstrained(), Seeded(0.3), OneStepGreedy(), Constrained((0.01, 0.01, 0.01, 0.01), (50.0, 50.0, 50.0, 50.0))],
)
def test_integral_variants_allocate_whole_item(variant):
    rng = np.random.default_rng(13)
    vs, _ = _random_instance(rng, n_max=4)
    w = AgentWeights.equal(vs.n)
    if isinstance(variant, Constrained):
        variant = Constrained(variant.lower[: vs.n], variant.upper[: vs.n])
    trace = run(vs, w, variant)
    state, outcomes = new_state(variant, w), []
    for row in vs.matrix:
        state, out = pace_step(state, row)
        outcomes.append(out)
    for out in outcomes:
        assert out.allocation.sum() == 1.0
        assert (out.allocation > 0).sum() == 1
    realized = np.sum([out.utilities for out in outcomes], axis=0)
    assert np.allclose(realized, trace.final_utilities, rtol=1e-12)


def test_multiplier_identity_after_every_step():
    rng = np.random.default_rng(14)
    vs, w = _random_instance(rng)
    st = new_state(Unconstrained(), w)
    for row in vs.matrix:
        st, _ = pace_step(st, row)
        served = st.utilities > 0
        beta, avg = st.beta, st.averages
        assert np.allclose(beta[served] * avg[served], w.array[served], rtol=1e-12)


def _assert_run_is_fold(vs, w, variant, trace):
    """Fold ``pace_step`` over the rows and compare every field of
    ``trace`` with ``==``; returns the folded state."""
    state = new_state(variant, w)
    dense = trace.allocation_matrix()
    cps = list(trace.checkpoints)
    spend = np.zeros(vs.n)
    inf_rounds = [0] * vs.n
    for k, row in enumerate(vs.matrix):
        state, out = pace_step(state, row)
        assert out.winner == (None if trace.winners[k] < 0 else trace.winners[k])
        assert np.array_equal(out.allocation, dense[k])
        for i in np.nonzero(np.isinf(out.expenditure))[0]:
            inf_rounds[i] = k + 1  # won from the unserved state: flagged, not spent
        spend += np.where(np.isinf(out.expenditure), 0.0, out.expenditure)
        if k + 1 in cps:
            j = cps.index(k + 1)
            assert np.array_equal(state.utilities, trace.checkpoint_utilities[j])
            assert np.array_equal(state.beta, trace.checkpoint_beta[j])
            assert np.array_equal(spend, trace.checkpoint_spend[j])
    assert np.array_equal(state.utilities, trace.final_utilities)
    assert np.array_equal(state.beta, trace.final_beta)
    assert np.array_equal(spend, trace.final_spend)
    assert tuple(inf_rounds) == trace.infinite_spend_rounds
    return state


def _assert_aux(vs, trace, state):
    """The folded state's variant internals agree with ``trace``."""
    variant = trace.variant
    if isinstance(variant, SetAside):
        # the normalized auction utilities, accumulated in round order
        aux = np.zeros(vs.n)
        for row, win in zip(vs.matrix, trace.winners):
            aux[win] += 0.5 * (row[win] / variant.monopoly_utilities[win])
        assert np.array_equal(state.aux, aux)
    else:
        assert state.aux is None


def test_run_equals_repeated_steps_bitwise():
    rng = np.random.default_rng(15)
    vs, w = _random_instance(rng)
    # tiny chunks make segments end at chunk multiples and at checkpoints
    for chunk in (1, 2, 5, dynamics._CHUNK):
        for cps in (range(1, vs.t + 1), sorted(set(rng.integers(1, vs.t + 1, size=5).tolist()))):
            with mock.patch.object(dynamics, "_CHUNK", chunk):
                for variant in _all_variants(vs, w):
                    trace = run(vs, w, variant, checkpoints=cps)
                    state = _assert_run_is_fold(vs, w, variant, trace)
                    if isinstance(variant, Proportional):
                        # the scalar loop that the block cumsum replaces
                        b = w.array.tolist()
                        shares = [x / sum(b) for x in b]
                        u = [0.0] * vs.n
                        for row in vs.matrix.tolist():
                            for i, s in enumerate(shares):
                                u[i] += s * row[i]
                        assert trace.final_utilities.tolist() == u
                    _assert_aux(vs, trace, state)


# a few value levels make ties and unserved agents common
_LEVELS = st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.0])


@settings(max_examples=50, deadline=None)
@given(
    matrix=st.tuples(st.integers(1, 12), st.integers(1, 4)).flatmap(
        lambda shape: arrays(np.float64, shape, elements=_LEVELS)
    ),
    weights=st.lists(st.sampled_from([0.5, 1.0, 3.0]), min_size=4, max_size=4),
    which=st.integers(0, 5),
    chunk=st.sampled_from([1, 2, 5]),
    cps=st.sets(st.integers(1, 12), max_size=5),
)
def test_run_is_a_fold_of_pace_step(matrix, weights, which, chunk, cps):
    matrix[0, matrix.max(axis=0) == 0] = 1.0  # every agent values some item
    vs = ValueSequence(matrix)
    w = AgentWeights(weights[: vs.n])
    variant = _all_variants(vs, w)[which]
    with mock.patch.object(dynamics, "_CHUNK", chunk):
        trace = run(vs, w, variant, [c for c in cps if c <= vs.t])
    _assert_run_is_fold(vs, w, variant, trace)


@pytest.mark.parametrize("n", [1, 2, 10])
def test_block_sums_add_the_rows_one_after_another(n):
    # proportional's utilities, set-aside's utilities and the spend of a
    # speculated window are each one sum over many rows; numpy adds the rows of
    # two or more columns one after another, but sums a single column pairwise,
    # which the fold's row-by-row sums would not match.  Values three orders of
    # magnitude apart make the order of the additions show in the last bits
    rng = np.random.default_rng(40 + n)
    points = rng.random((3, n)) * np.array([[1.0], [1e-3], [1e3]])
    points[0] = 1.0 + rng.random(n)  # one point every agent values
    vs = ValueSequence(points, index=rng.integers(0, 3, 2000))
    w = AgentWeights.equal(n)
    for variant in (Unconstrained(), SetAside(), Proportional()):
        trace = run(vs, w, variant)
        _assert_aux(vs, trace, _assert_run_is_fold(vs, w, trace.variant, trace))


@pytest.mark.parametrize(
    "row, fault",
    [([1.0], "length"), ([math.nan, 1.0], "non-finite"), ([1.0, math.inf], "non-finite"),
     ([-1.0, 2.0], "negative"), ([True, 1.0], "True is not a number")],
)
@pytest.mark.parametrize("call", [pace_bid, pace_step])
def test_single_step_api_rejects_rows_run_rejects(call, row, fault):
    with pytest.raises(InstanceError, match=fault):
        call(new_state(Unconstrained(), W2), row)


def test_kernels_refuse_variants_that_do_not_fit_the_agents():
    with pytest.raises(InstanceError, match="resolved monopoly utilities"):
        new_state(SetAside(), W2)
    with pytest.raises(InstanceError, match="monopoly utilities length"):
        new_state(SetAside((1.0, 2.0, 3.0)), W2)
    with pytest.raises(InstanceError, match="projection intervals length"):
        new_state(Constrained((0.5,), (2.0,)), W2)


def test_run_memory_stays_on_the_order_of_the_matrix():
    # one block of rows at a time is held as Python floats, and a speculated
    # window's arrays are a block's size, never the matrix's; on the
    # two-point rows constrained speculates every row
    rng = np.random.default_rng(27)
    continuous = ValueSequence(rng.random((40_000, 10)))
    support = np.full((2, 10), 0.2)  # stationary iid rows over two points
    support[1] = 0.3
    support[0, 0] = support[1, 1] = 1.0
    stationary = ValueSequence(support[rng.integers(0, 2, 40_000)])
    w = AgentWeights.equal(10)
    for vs, variants in (
        (continuous, (Unconstrained(), Proportional())),
        (stationary, _all_variants(stationary, w)[:4]),
    ):
        for variant in variants:
            peak = traced_peak(run, vs, w, variant, checkpoints=[1, 2, 4, vs.t])
            assert peak < 2 * vs.matrix.nbytes, (variant.name, peak / vs.matrix.nbytes)


# (support, weights) of two iid instances at t=5000, seed=13: on the first
# (n=2) winners settle and whole windows are speculated; on the second
# (n=4) items split between agents and the loop takes most rows
_PINNED_INSTANCES = {
    "two-point": ([[1.0, 0.2], [0.3, 1.0]], [1.0, 1.0]),
    "eight-point": (
        [[1.0, 1.0, 0.2, 0.2], [0.2, 0.2, 1.0, 1.0], [1.0, 0.5, 0.5, 1.0], [0.5, 1.0, 1.0, 0.5],
         [0.6, 0.6, 0.6, 0.6], [0.3, 0.9, 0.3, 0.9], [0.9, 0.3, 0.9, 0.3], [0.4, 0.4, 0.8, 0.8]],
        [1.0, 2.0, 1.0, 0.5],
    ),
}

# SHA-256 of json.dumps(run(...).to_json_dict(), sort_keys=True) with pow2
# checkpoints; the dynamics use only elementwise IEEE operations and
# sequential sums, so their bytes must not change across runs, releases
# or platforms
_RUN_SHA256 = {
    ("two-point", "pace"): "22916ef123bb8b7aa38f95523c7f159b91d813dd7b6a28bd8d04a7f8f8bb15ed",
    ("two-point", "constrained"): "fa4d7a84d3be900c13ffdab8a4bec494f3d5a38dd2aa7d78d4eae102a1b4f9cc",
    ("two-point", "seeded"): "63870bcab0f691c7f36a3dd27cd21c0e279bdc7fe4b4e8f18fcc24d118941f06",
    ("two-point", "setaside"): "1242b4c884d4f20a2553f3798d0edfc6476426e4425d4096615f7528717df508",
    ("two-point", "greedy"): "5b6b01fcaaf004154a73e9d3e25bdc396b5495b55c2e2287aaae42c9aebc54f6",
    ("two-point", "proportional"): "693270717df9dc86a113d84aec160f638d91ceb0a14c0a1d87e977223dce9ea8",
    ("eight-point", "pace"): "a300a30a812394da405635b9f2572fd83b6317858e7c2a891a61d975cd9ffb3d",
    ("eight-point", "constrained"): "1a4619253d8809537f280698422b16a5d4d6d67cd6e74da13087c79dc0ee01a4",
    ("eight-point", "seeded"): "f5c92b05010d209811a2de47101490298941c89ce46c2395a8630df27cde0122",
    ("eight-point", "setaside"): "c1531f8d514101cb7524a08312290a93c0d68c3c99bf2ad3d97a759ca151d2c5",
    ("eight-point", "greedy"): "821e569d2652b6a187dbeb9b2b721a8824110aa5e74c45b1dbc6c6d74e29634e",
    ("eight-point", "proportional"): "c6aa5d92e61e35f4aad363850947853dc1926574b648e0fa289935e8bdd4eae7",
}


@pytest.mark.parametrize("instance", sorted(_PINNED_INSTANCES))
def test_run_output_is_pinned(instance):
    support, weights = _PINNED_INSTANCES[instance]
    vs = gen(InputModelSpec(IID(FiniteDistribution.uniform(support)), t=5000, seed=13))
    w = AgentWeights(weights)
    cps = parse_checkpoints("pow2", vs.t)
    for variant in _all_variants(vs, w):
        d = run(vs, w, variant, cps).to_json_dict()
        digest = hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()
        assert digest == _RUN_SHA256[instance, variant.name], variant.name


def test_rerun_is_bit_identical():
    rng = np.random.default_rng(16)
    vs, w = _random_instance(rng)
    a = run(vs, w, Unconstrained(), checkpoints=[1, vs.t])
    b = run(vs, w, Unconstrained(), checkpoints=[1, vs.t])
    assert np.array_equal(a.winners, b.winners)
    assert np.array_equal(a.final_utilities, b.final_utilities)
    assert np.array_equal(a.checkpoint_beta, b.checkpoint_beta)


def test_checkpoint_choice_does_not_affect_the_run():
    rng = np.random.default_rng(26)
    vs, w = _random_instance(rng)
    bare = run(vs, w, Unconstrained())
    dense = run(vs, w, Unconstrained(), checkpoints=range(1, vs.t + 1))
    assert np.array_equal(bare.winners, dense.winners)
    assert np.array_equal(bare.final_utilities, dense.final_utilities)
    assert np.array_equal(bare.final_spend, dense.final_spend)


@pytest.mark.parametrize("variant", [Unconstrained(), Seeded(seed_utility=0.5), OneStepGreedy()])
def test_a_run_without_checkpoints_leaves_the_loop_few_rows(variant):
    # a guess that misses while the multipliers settle hands the loop the
    # rest of its block; blocks end at every power of two below _CHUNK, so
    # speculation starts again long before the first 4096 rows are out
    vs = gen(InputModelSpec(IID(FiniteDistribution.uniform([[1, 0.2], [0.3, 1]])), 20_000, 1))
    rows = []
    loop = dynamics._PaceKernel._rounds

    def counted(self, block, ids):
        rows.append(len(block))
        return loop(self, block, ids)

    with mock.patch.object(dynamics._PaceKernel, "_rounds", counted):
        run(vs, AgentWeights.equal(2), variant)
    assert sum(rows) <= 10


def test_tie_break_is_purely_positional():
    rng = np.random.default_rng(17)
    col = rng.random(30)
    m = np.column_stack([col, col, rng.random(30)])
    vs = ValueSequence(m)
    w = AgentWeights.equal(3)
    tr = run(vs, w, Unconstrained())
    # two identical agents: swapping them yields the same matrix, so the
    # tie-break must again favor the earlier column
    tr2 = run(ValueSequence(m[:, [1, 0, 2]]), w, Unconstrained())
    assert np.array_equal(tr.winners, tr2.winners)
    assert tr.final_utilities[0] >= tr.final_utilities[1]


def test_permutation_equivariance_once_served():
    # infinite-bid ties among unserved agents break positionally, so full
    # relabeling equivariance needs every agent served first: start with
    # one private item per agent, then continuous rows (ties measure zero)
    rng = np.random.default_rng(30)
    for _ in range(10):
        t, n = 40, 3
        intro = np.diag(rng.uniform(0.2, 1.0, n))
        m = np.vstack([intro, rng.uniform(0.05, 1.0, (t, n))])
        b = rng.uniform(0.5, 2.0, n)
        perm = rng.permutation(n)
        tr = run(ValueSequence(m), AgentWeights(b), Unconstrained())
        tr2 = run(ValueSequence(m[:, perm]), AgentWeights(b[perm]), Unconstrained())
        assert np.array_equal(tr.final_utilities[perm], tr2.final_utilities)
        inv = np.argsort(perm)
        assert np.array_equal(inv[tr.winners], tr2.winners)


def test_common_scale_invariance_of_winners():
    rng = np.random.default_rng(18)
    vs, w = _random_instance(rng)
    tr = run(vs, w, Unconstrained())
    tr2 = run(ValueSequence(vs.matrix * 7.5), w, Unconstrained())
    assert np.array_equal(tr.winners, tr2.winners)


def test_per_agent_scaling_preserves_winners_when_first_round_fixed():
    rng = np.random.default_rng(19)
    for _ in range(10):
        vs, w = _random_instance(rng, zero_frac=0.2)
        m = vs.matrix.copy()
        # make the first-round argmax strict and keep it under scaling
        m[0] = 0.0
        m[0, 0] = 1.0
        vs = ValueSequence(m)
        alphas = rng.uniform(0.5, 2.0, vs.n)
        scaled = ValueSequence(m * alphas)
        tr = run(vs, w, Unconstrained())
        tr2 = run(scaled, w, Unconstrained())
        assert np.array_equal(tr.winners, tr2.winners)


def test_matches_independent_reference_simulation():
    rng = np.random.default_rng(20)
    for _ in range(25):
        vs, w = _random_instance(rng)
        trace = run(vs, w, Unconstrained())
        ref_winners, ref_u = pace_reference_trace(vs.matrix, w.array)
        assert trace.winners.tolist() == ref_winners
        assert np.allclose(trace.final_utilities, ref_u, rtol=0, atol=0)


def _pace_oracle(matrix, weights, **kw):
    # the oracle's b / avg overflows to inf on a subnormal average, which
    # is its unserved state (or its upper bound); numpy warns about that overflow
    with np.errstate(over="ignore"):
        return pace_reference_trace(matrix, weights, **kw)


# tie-heavy levels as above, plus a subnormal one whose averages underflow
_TINY_LEVELS = st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.0, 1e-310])
_MATRICES = st.tuples(st.integers(1, 12), st.integers(1, 4)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=_TINY_LEVELS)
)
_WEIGHTS = st.lists(st.sampled_from([0.5, 1.0, 3.0]), min_size=4, max_size=4)


def _instance(matrix, weights):
    matrix[0, matrix.max(axis=0) == 0] = 1.0  # every agent values some item
    vs = ValueSequence(matrix)
    return vs, AgentWeights(weights[: vs.n])


@settings(max_examples=60, deadline=None)
@given(matrix=_MATRICES, weights=_WEIGHTS)
def test_pace_matches_the_reference_trace(matrix, weights):
    vs, w = _instance(matrix, weights)
    trace = run(vs, w, Unconstrained())
    ref_winners, ref_u = _pace_oracle(vs.matrix, w.array)
    assert trace.winners.tolist() == ref_winners
    assert trace.final_utilities.tolist() == ref_u.tolist()


# constrained: agent index 1 wins nothing before round four, where its zero
# average bids its upper bound and wins (winners 2, 0, 2, 1); a bid at its
# lower bound would hand round four to agent index 0
@example(
    matrix=np.array([[1, 0, 2], [2, 0.5, 1], [1, 0, 2], [2, 2, 0.5]]), weights=[1.0] * 4, seed=0.4, slack=2.0
)
@settings(max_examples=60, deadline=None)
@given(matrix=_MATRICES, weights=_WEIGHTS, seed=st.sampled_from([0.4, 5e-324]), slack=st.sampled_from([0.3, 2.0]))
def test_seeded_and_constrained_match_the_reference_trace(matrix, weights, seed, slack):
    vs, w = _instance(matrix, weights)
    c = Constrained.from_slack(w, slack)
    for variant, kw in ((Seeded(seed), {"seed": seed}), (c, {"interval": (c.lower, c.upper)})):
        trace = run(vs, w, variant)
        ref_winners, ref_u = _pace_oracle(vs.matrix, w.array, **kw)
        assert trace.winners.tolist() == ref_winners, variant.label
        assert trace.final_utilities.tolist() == ref_u.tolist(), variant.label


def _loop_instance(n, t, levels, zeros, dup, late, window, seed, weights):
    """``t`` rows for ``n`` agents that keep a run in the pruned loop: values
    that never repeat, or ``{0, .5, 1}`` levels with ties; a share of zeros;
    agent 1 a copy of agent 0 at equal weight; and the last agent's first
    positive value ``late`` rows after the first window."""
    rng = np.random.default_rng(seed)
    m = rng.choice([0.0, 0.5, 1.0], (t, n)) if levels else rng.random((t, n))
    m[rng.random((t, n)) < zeros] = 0.0
    m[0, m.max(axis=0) == 0] = 1.0  # every agent values some item
    w = list(weights[:n])
    if dup:
        m[:, 1], w[1] = m[:, 0], w[0]
    if late is not None and window + late < t:
        m[: window + late, -1] = 0.0
        m[window + late, -1] = 0.75
    return ValueSequence(m), AgentWeights(w)


# constrained agents that have not won yet bid their upper bound in the loop
# from round two on; bidding the lower bound changes the winners here
@example(n=5, t=5, levels=False, zeros=0.0, dup=False, late=None, window=2, seed=0, weights=[0.5] * 10, slack=0.01)
@example(n=10, t=200, levels=True, zeros=0.3, dup=True, late=10, window=16, seed=1, weights=[1.0] * 10, slack=0.01)
@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 10),
    t=st.integers(2, 200),
    levels=st.booleans(),
    zeros=st.sampled_from([0.0, 0.3, 0.6]),
    dup=st.booleans(),
    late=st.one_of(st.none(), st.integers(0, 40)),
    window=st.sampled_from([1, 2, 5, 16, dynamics._WINDOW]),
    seed=st.integers(0, 2**32 - 1),
    weights=st.lists(st.sampled_from([0.5, 1.0, 3.0]), min_size=10, max_size=10),
    slack=st.sampled_from([0.01, 0.5]),
)
def test_pruned_loop_matches_the_reference_trace(n, t, levels, zeros, dup, late, window, seed, weights, slack):
    # a row of the loop scores only the agents whose score bounds over its
    # window reach the row's best lower bound; the reference scores them all.
    # Slack 0.01 makes both ends of the projection bind, and the late agent
    # bids from the unserved state (``cap`` times its value) in the loop
    vs, w = _loop_instance(n, t, levels, zeros, dup, late, window, seed, weights)
    c = Constrained.from_slack(w, slack)
    cases = ((Unconstrained(), {}), (Seeded(0.5), {"seed": 0.5}), (c, {"interval": (c.lower, c.upper)}))
    for variant, kw in cases:
        with mock.patch.object(dynamics, "_WINDOW", window):
            trace = run(vs, w, variant, [1, vs.t])
        ref_winners, ref_u = _pace_oracle(vs.matrix, w.array, **kw)
        assert trace.winners.tolist() == ref_winners, variant.label
        assert trace.final_utilities.tolist() == ref_u.tolist(), variant.label


@settings(max_examples=60, deadline=None)
@given(matrix=_MATRICES, weights=_WEIGHTS)
def test_greedy_matches_the_reference_winners(matrix, weights):
    vs, w = _instance(matrix, weights)
    assert run(vs, w, OneStepGreedy()).winners.tolist() == greedy_reference_winners(vs.matrix, w.array)


@settings(max_examples=60, deadline=None)
@given(matrix=_MATRICES, weights=_WEIGHTS, which=st.integers(0, 4))
def test_each_winner_is_the_smallest_argmax_of_pace_bid(matrix, weights, which):
    vs, w = _instance(matrix, weights)
    variant = _all_variants(vs, w)[which]  # the five auctions
    trace = run(vs, w, variant)
    state = new_state(variant, w)
    for row, winner in zip(vs.matrix, trace.winners.tolist()):
        bids = pace_bid(state, row)
        assert not np.isnan(bids).any()
        assert winner == bids.tolist().index(bids.max())
        state, out = pace_step(state, row)
        assert out.winner == winner
        assert np.array_equal(out.bids, bids)


# two or three support rows over the tie-heavy levels, for 1 to 4 agents
_SUPPORTS = st.integers(1, 4).flatmap(
    lambda n: st.lists(arrays(np.float64, n, elements=_TINY_LEVELS), min_size=2, max_size=3)
)


@settings(max_examples=60, deadline=None)
@given(
    support=_SUPPORTS,
    t=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
    weights=_WEIGHTS,
    which=st.integers(0, 4),
    chunk=st.sampled_from([1, 3, 16, 100, dynamics._CHUNK]),
    cps=st.sets(st.integers(1, 400), max_size=6),
)
def test_speculated_runs_are_a_fold_of_pace_step_on_long_stretches(support, t, seed, weights, which, chunk, cps):
    # rows repeat, so the winners settle and ``run`` keeps long speculated
    # windows; after a wrong guess the loop takes the rest of a block, while
    # the fold scores every row in a one-row speculated window (greedy's in
    # its loop)
    rows = np.random.default_rng(seed).integers(0, len(support), t)
    vs, w = _instance(np.array(support)[rows], weights)
    variant = _all_variants(vs, w)[which]  # pace, constrained, seeded, set-aside, greedy
    with mock.patch.object(dynamics, "_CHUNK", chunk):
        trace = run(vs, w, variant, [c for c in cps if c <= t])
    _assert_aux(vs, trace, _assert_run_is_fold(vs, w, trace.variant, trace))


def _stretch(support, t, seed):
    """``t`` rows drawn iid from the rows of ``support``."""
    return np.array(support)[np.random.default_rng(seed).integers(0, len(support), t)]


# long iid stretches over two or three points, where greedy's winners settle
# and whole windows are kept, or over tie-heavy levels, where they are not
_GREEDY_MATRICES = st.one_of(
    st.builds(
        _stretch,
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                arrays(np.float64, n, elements=st.one_of(_TINY_LEVELS, st.floats(0.01, 4.0))), min_size=2, max_size=3
            )
        ),
        st.integers(1, 3000),
        st.integers(0, 2**32 - 1),
    ),
    _MATRICES,
)


def _no_row(self, block, points, ids, out):
    return np.empty(0, dtype=np.intp)


@example(matrix=np.array([[1.0, 0.0], [0.0, 1.0], list(_ULP_APART)]), weights=[1.0] * 4, chunk=dynamics._CHUNK)
@settings(max_examples=80, deadline=None)
@given(matrix=_GREEDY_MATRICES, weights=_WEIGHTS, chunk=st.sampled_from([3, 100, dynamics._CHUNK]))
def test_speculated_greedy_is_the_loop(matrix, weights, chunk):
    # a row's winner is kept from numpy's scores only where math.log1p cannot
    # rank it otherwise, and the loop scans the agents that numpy's bounds,
    # widened by the margin, leave in; the reference speculates no row and,
    # at a margin of 1 (every lower bound below zero), scans every agent
    vs, w = _instance(matrix, weights)
    cps = parse_checkpoints("pow2", vs.t)
    with mock.patch.object(dynamics, "_CHUNK", chunk):
        trace = run(vs, w, OneStepGreedy(), cps)
    assert trace.winners.tolist() == greedy_reference_winners(vs.matrix, w.array)
    with mock.patch.object(dynamics._GreedyKernel, "_speculate", _no_row):
        with mock.patch.object(dynamics._GreedyKernel, "_margin", 1.0):
            loop = run(vs, w, OneStepGreedy(), cps)
    assert trace.winners.tolist() == loop.winners.tolist()
    assert trace.checkpoint_utilities.tolist() == loop.checkpoint_utilities.tolist()
    assert trace.final_utilities.tolist() == loop.final_utilities.tolist()


def test_greedy_near_ties_keep_the_loops_winner():
    # n identity rows serve every agent at utility 1; then each row offers one
    # pair of agents the _ULP_APART values, which math.log1p ties and np.log1p
    # ranks second first.  No row is speculated past the first pair, whose lead
    # is an ulp; a pair's values are new to its window, so numpy's lower bound
    # on the second is its exact score, above the first's upper bound: only
    # the margin keeps the first a candidate, and the loop gives it the tie
    a, b = _ULP_APART
    assert math.log1p(a) == math.log1p(b) < float(np.log1p(b))  # x86-64 numpy 2.x
    n = 10
    pairs = np.zeros((n // 2, n))
    pairs[np.arange(n // 2), np.arange(0, n, 2)], pairs[np.arange(n // 2), np.arange(1, n, 2)] = a, b
    vs, w = ValueSequence(np.vstack((np.eye(n), pairs))), AgentWeights.equal(n)
    for window in (1, dynamics._WINDOW):
        with mock.patch.object(dynamics, "_WINDOW", window):
            trace = run(vs, w, OneStepGreedy())
        assert trace.winners.tolist() == [*range(n), *range(0, n, 2)]
        assert trace.winners.tolist() == greedy_reference_winners(vs.matrix, w.array)


# more rows than a window, where items split between the ten agents: the loop
# takes most rows of greedy's run, scanning each row's candidates, while the
# fold scores every agent of every row in a single step
@pytest.mark.parametrize("values", ["non-repeating", "eight-point"])
def test_greedy_in_the_pruned_loop_is_a_fold_of_pace_step(values):
    if values == "eight-point":
        vs = gen(InputModelSpec(IID(FiniteDistribution.uniform(EIGHT_POINT_SUPPORT)), 1200, 3))
    else:
        vs = ValueSequence(np.random.default_rng(33).random((1200, 10)))
    w = AgentWeights([0.5, 1.0, 2.0] * 3 + [1.0])
    scanned = []
    scan = dynamics._GreedyKernel._scan

    def counted(self, rows, out=None):
        rows = list(rows)
        scanned.append(len(rows))
        return scan(self, rows, out)

    with mock.patch.object(dynamics._GreedyKernel, "_scan", counted):
        trace = run(vs, w, OneStepGreedy(), parse_checkpoints("pow2", vs.t))
    assert sum(scanned) > vs.t // 2  # rows the loop took
    _assert_run_is_fold(vs, w, trace.variant, trace)
    assert trace.winners.tolist() == greedy_reference_winners(vs.matrix, w.array)


def test_the_loop_bounds_each_point_of_a_window_once():
    # with no row speculated past round one, the loop takes every later row of
    # an eight-point instance; its two bound passes per window score each
    # distinct point of the window once, not each of the window's rows
    vs = gen(InputModelSpec(IID(FiniteDistribution.uniform(EIGHT_POINT_SUPPORT)), 3000, 3))
    w = AgentWeights([0.5, 1.0, 2.0] * 3 + [1.0])
    speculate = dynamics._PaceKernel._speculate

    def first_round_only(self, block, points, ids, out):  # the pacing loop never starts at round one
        if self.tau == 0 and not self._margin:
            return speculate(self, block[:1], points, None if ids is None else ids[:1], out)
        return np.empty(0, dtype=np.intp)

    for kernel in (dynamics._PaceKernel, dynamics._GreedyKernel):
        scored = []
        bids = kernel._bids

        def counted(self, acc, tau, v, bids=bids, scored=scored):
            scored.append(len(v))
            return bids(self, acc, tau, v)

        for variant in _all_variants(vs, w)[:5]:  # the five auctions
            if isinstance(variant.kernel(w), kernel):
                with mock.patch.object(dynamics._PaceKernel, "_speculate", first_round_only):
                    with mock.patch.object(kernel, "_bids", counted):
                        looped = run(vs, w, variant, [1, 512, vs.t])
                trace = run(vs, w, variant, [1, 512, vs.t])
                assert looped.winners.tolist() == trace.winners.tolist(), variant.label
                assert looped.final_spend.tolist() == trace.final_spend.tolist(), variant.label
                assert looped.checkpoint_utilities.tolist() == trace.checkpoint_utilities.tolist(), variant.label
        assert len(scored) > 2 * (vs.t // dynamics._WINDOW)  # the loop bounded every window
        assert max(scored) <= 8


def test_pruning_leaves_the_loop_the_candidates_it_had():
    # pace on wide-stream's support (n=10, T=20k, seed 1): the loop's rows scan
    # 87748 candidates in all, 4.40 a row, as with the sort-based bookkeeping;
    # a rewrite that loosened a bound would scan more and change no winner
    vs = gen(InputModelSpec(IID(FiniteDistribution.uniform(EIGHT_POINT_SUPPORT)), 20_000, 1))
    scanned, rows = [], []
    candidates = dynamics._PaceKernel._candidates

    def counted(self, v, *args):
        found = candidates(self, v, *args)
        counts, point = found[2], found[3]
        scanned.append(int(counts.sum() if point is None else counts[point].sum()))
        rows.append(len(v))
        return found

    with mock.patch.object(dynamics._PaceKernel, "_candidates", counted):
        run(vs, AgentWeights.equal(10), Unconstrained(), parse_checkpoints("pow2", vs.t))
    assert (sum(scanned), sum(rows)) == (87748, 19925)


# perfbench's iid-variants workload: two points, n=2, T=20k, pow2 checkpoints
_IID_VARIANTS_SPEC = InputModelSpec(IID(FiniteDistribution.uniform([[1.0, 0.25], [0.5, 1.0]])), 20_000, 1)


def _iid_variants_auctions(w):
    """The workload's five auctions."""
    return Unconstrained(), Constrained.from_slack(w, 0.5), Seeded(0.5), SetAside(), OneStepGreedy()


def test_speculation_guesses_each_point_of_a_window_once():
    # once the winners settle, a speculated window spans up to 2048 rows of
    # two points; its guess scores the two points, not the window's rows.
    # A guess is a ``_bids`` call at one row of ``acc`` and of ``tau``, as is
    # the loop's upper bound on a window of one point, which scores one row
    vs, w = gen(_IID_VARIANTS_SPEC), AgentWeights.equal(2)
    cps = parse_checkpoints("pow2", vs.t)
    for variant in _iid_variants_auctions(w):
        calls = []

        def counted(self, acc, tau, v, bids):
            calls.append((len(acc), len(tau), len(v)))
            return bids(self, acc, tau, v)

        pace, greedy = (partialmethod(counted, bids=k._bids) for k in (dynamics._PaceKernel, dynamics._GreedyKernel))
        with mock.patch.object(dynamics._PaceKernel, "_bids", pace):
            with mock.patch.object(dynamics._GreedyKernel, "_bids", greedy):
                counted_run = run(vs, w, variant, cps)
        assert counted_run.to_json_dict() == run(vs, w, variant, cps).to_json_dict(), variant.label
        assert max(rows for acc, tau, rows in calls if acc > 1) >= 1024, variant.label  # long windows
        assert max(rows for acc, tau, rows in calls if acc == tau == 1) <= len(vs.points), variant.label


@pytest.mark.parametrize("form", ["points", "matrix"])
@pytest.mark.parametrize("n", [1, 2, 10])
def test_speculated_spend_adds_each_win_in_round_order(n, form):
    # each agent alone values two points, at 1e-8 and 1e8, so every guess is
    # right and an agent wins scores at least 16 orders of magnitude apart in
    # each long speculated window; its spend must be the round-by-round sum,
    # which the window's wins summed first and then added to the old spend
    # round otherwise
    points = np.zeros((2 * n, n))
    points[np.arange(0, 2 * n, 2), np.arange(n)] = 1e-8
    points[np.arange(1, 2 * n, 2), np.arange(n)] = 1e8
    ids = np.random.default_rng(n).integers(0, 2 * n, 1500)
    vs = ValueSequence(points, index=ids) if form == "points" else ValueSequence(points[ids])
    w = AgentWeights.equal(n)
    for variant in _all_variants(vs, w)[:4]:  # the four that spend
        trace = run(vs, w, variant, parse_checkpoints("pow2", vs.t))
        _assert_run_is_fold(vs, w, trace.variant, trace)


def test_speculation_leaves_the_loop_the_rows_it_had():
    # the rows each auction's loop takes on the workload's three repetitions,
    # measured when every window's guess scored each of its rows; a guess that
    # missed more often would hand the loop more rows and change no winner
    w = AgentWeights.equal(2)
    looped = []
    rounds = dynamics._PaceKernel._rounds

    def counted(self, block, ids):
        looped[-1] += len(block)
        return rounds(self, block, ids)

    for rep in range(3):
        vs = gen(_IID_VARIANTS_SPEC, repetition=rep)
        for variant in _iid_variants_auctions(w):
            looped.append(0)
            with mock.patch.object(dynamics._PaceKernel, "_rounds", counted):
                run(vs, w, variant, parse_checkpoints("pow2", vs.t))
    assert looped == [5, 0, 6, 0, 9, 2, 0, 8, 0, 9, 15, 0, 11, 0, 24]


# one to twelve point ids, up to above a block's 4096 rows, arriving in a
# window of 1 to 512 rows, or each once; ``k`` bounds the ids, as the
# block's largest id does
@example(points=[7], length=512, seed=0, distinct=False, extra=0)
@example(points=list(range(4085, 4097)), length=1, seed=1, distinct=True, extra=3)
@settings(max_examples=200, deadline=None)
@given(
    points=st.lists(st.integers(0, 5000), min_size=1, max_size=12, unique=True),
    length=st.integers(1, 512),
    seed=st.integers(0, 2**32 - 1),
    distinct=st.booleans(),
    extra=st.integers(0, 100),
)
def test_a_windows_arrivals_counted_are_those_sorted(points, length, seed, distinct, extra):
    rng = np.random.default_rng(seed)
    ids = (rng.permutation(points) if distinct else rng.choice(points, length)).astype(np.intp)
    sorted_ = window_arrivals_by_sorting(ids)
    counted = dynamics._arrivals(ids, int(ids.max()) + 1 + extra)
    if sorted_ is None:
        assert counted is None
        assert len(set(ids.tolist())) == len(ids)
        return
    first, last, point = counted
    for a, b in zip(counted, sorted_):
        assert a.tolist() == b.tolist()
    assert ids[first].tolist() == sorted(set(ids.tolist()))  # the points in ascending id order
    assert ids[last].tolist() == ids[first].tolist()
    assert ids[first][point].tolist() == ids.tolist()  # each row's point


# up to twelve points over tie-heavy levels with a subnormal one, for 1 to 4
# agents, and an arrival index long enough that windows of 512 rows repeat
# points; the runs' short blocks and few points leave windows that do not
@settings(max_examples=30, deadline=None)
@given(
    points=st.tuples(st.integers(1, 12), st.integers(1, 4)).flatmap(
        lambda shape: arrays(np.float64, shape, elements=_TINY_LEVELS)
    ),
    t=st.integers(1, 700),
    seed=st.integers(0, 2**32 - 1),
    weights=_WEIGHTS,
    window=st.sampled_from([8, 512]),
)
def test_a_point_form_runs_as_its_gathered_matrix(points, t, seed, weights, window):
    # the loop bounds and lists the candidates of each point of a window once
    # in point form, and of each row of a matrix; both must give the same run
    index = np.random.default_rng(seed).integers(0, len(points), t)
    points[index[0], points[index].max(axis=0) == 0] = 1.0  # every agent values an item that arrives
    forms = ValueSequence(points, index=index), ValueSequence(points[index])
    w = AgentWeights(weights[: points.shape[1]])
    variants = (Unconstrained(), Constrained.from_slack(w, 0.3), Seeded(0.4), SetAside(), OneStepGreedy(),
                Proportional())
    cps = parse_checkpoints("pow2", t)
    for variant in variants:
        with mock.patch.object(dynamics, "_WINDOW", window):
            a, b = (run(vs, w, variant, cps) for vs in forms)
        for field in ("winners", "checkpoint_utilities", "checkpoint_beta", "checkpoint_spend",
                      "final_utilities", "final_beta", "final_spend"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), (variant.label, field)
        assert a.infinite_spend_rounds == b.infinite_spend_rounds, variant.label


@pytest.mark.parametrize(
    "matrix",
    [[[1e-310, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 1.0]], [[5e-324, 0.0], [0.0, 1.0], [1.0, 1.0]]],
)
def test_an_underflowed_average_is_the_unserved_state(matrix):
    # agent 1's average underflows to zero, or its multiplier overflows: it
    # bids inf on the last item, as an agent that never won does
    vs = ValueSequence(matrix)
    ref_winners, ref_u = _pace_oracle(vs.matrix, W2.array)
    trace = run(vs, W2, Unconstrained())
    assert trace.winners.tolist() == ref_winners
    assert trace.final_utilities.tolist() == ref_u.tolist()
    assert trace.infinite_spend_rounds[0] == vs.t
    assert trace.final_beta[0] < INF  # served once its last win is averaged in
    for variant in (*_all_variants(vs, W2)[1:], Seeded(5e-324)):
        trace = run(vs, W2, variant, checkpoints=range(1, vs.t + 1))
        if trace.variant.kernel(W2).top == 1.0:
            assert trace.winners.tolist() == ref_winners
        _assert_run_is_fold(vs, W2, trace.variant, trace)


# ---------------------------------------------------------------- restriction


def test_restrict_identity_on_full_subset():
    rng = np.random.default_rng(23)
    vs, w = _random_instance(rng)
    trace = run(vs, w, Unconstrained())
    sub = restrict_instance(vs, trace, range(vs.n))
    assert np.array_equal(sub.matrix, vs.matrix)


def test_restrict_drops_agents_and_their_items():
    vs = ValueSequence(np.array([
        [1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 1.0, 0.0],
        [1.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ]))
    w = AgentWeights.equal(3)
    trace = run(vs, w, Unconstrained())
    won_by_3 = set(np.nonzero(trace.winners == 2)[0].tolist())
    sub = restrict_instance(vs, trace, [0, 1])
    assert sub.n == 2
    assert sub.t == vs.t - len(won_by_3)


@settings(max_examples=60, deadline=None)
@given(
    matrix=st.tuples(st.integers(1, 12), st.integers(1, 4)).flatmap(
        lambda shape: arrays(np.float64, shape, elements=_LEVELS)
    ),
    weights=st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=4, max_size=4),
    keep=st.sets(st.integers(0, 3), min_size=1),
)
def test_restriction_preserves_kept_agents_utilities(matrix, weights, keep):
    matrix[0, matrix.max(axis=0) == 0] = 1.0  # every agent values some item
    vs = ValueSequence(matrix)
    w = AgentWeights(weights[: vs.n])
    agents = sorted(i for i in keep if i < vs.n)
    trace = run(vs, w, Unconstrained())
    rows = np.isin(trace.winners, agents)
    # run refuses a restriction that leaves a kept agent valuing nothing
    assume(agents and rows.any() and np.all(vs.matrix[rows][:, agents].max(axis=0) > 0))
    sub = restrict_instance(vs, trace, agents)
    sub_trace = run(sub, AgentWeights(w.array[agents]), Unconstrained())
    assert np.array_equal(sub_trace.final_utilities, trace.final_utilities[agents])


def test_restriction_of_a_point_form_keeps_the_point_form():
    vs = gen(InputModelSpec(IID(FiniteDistribution.uniform(EIGHT_POINT_SUPPORT)), 40_000, 1))
    w = AgentWeights.equal(10)
    trace = run(vs, w, Unconstrained())
    agents = [0, 2, 5]
    sub = restrict_instance(vs, trace, agents)
    assert sub.index is not None and sub.points.shape == (8, 3)
    expected = restrict_instance(ValueSequence(vs.matrix), trace, agents)
    assert sub.agents == expected.agents and np.array_equal(sub.matrix, expected.matrix)
    peak = traced_peak(restrict_instance, vs, trace, agents)
    # 0.14 when set; 1.33 with the matrix gathered
    assert peak <= 0.25 * vs.matrix.nbytes, peak / vs.matrix.nbytes


def test_restrict_empty_subset_errors():
    vs = ValueSequence([[1.0, 1.0]])
    trace = run(vs, W2, Unconstrained())
    with pytest.raises(InstanceError):
        restrict_instance(vs, trace, [])


# ---------------------------------------------------------------- misc


def test_expenditure_single_agent_all_ones():
    vs = ValueSequence(np.ones((10, 1)))
    trace = run(vs, AgentWeights([1.0]), Unconstrained())
    # round 1 is an unserved win (flagged); the bid is 1 from round 2 on
    assert trace.final_spend.tolist() == [9.0]
    assert trace.infinite_spend_rounds == (1,)


def test_infinite_spend_flagged_not_accumulated():
    vs = ValueSequence([[1.0, 0.5], [0.0, 0.5]])
    trace = run(vs, W2, Unconstrained())
    assert trace.winners.tolist() == [0, 1]
    assert trace.infinite_spend_rounds == (1, 2)
    assert np.isfinite(trace.final_spend).all()


def test_trace_json_round_trip(tmp_path):
    import json

    rng = np.random.default_rng(25)
    vs, w = _random_instance(rng)
    trace = run(vs, w, Seeded(0.2), checkpoints=[1, vs.t])
    blob = json.dumps(trace.to_json_dict())
    from fairpace.dynamics import RunTrace

    back = RunTrace.from_json_dict(json.loads(blob), vs)
    assert np.array_equal(back.winners, trace.winners)
    assert np.array_equal(back.final_utilities, trace.final_utilities)
    assert back.variant == trace.variant
    assert np.array_equal(back.checkpoint_spend, trace.checkpoint_spend)


def test_variant_dict_round_trip():
    for variant in (
        Unconstrained(),
        Constrained((0.1, 0.2), (1.0, 2.0)),
        Seeded(0.5),
        SetAside((1.0, 2.0)),
        OneStepGreedy(),
        Proportional(),
    ):
        assert variant_from_dict(variant.to_dict()) == variant


def _bounds(n):
    return st.lists(st.floats(0.0, 1e3), min_size=n, max_size=n).map(tuple)


# every variant with random valid parameters for 1 to 4 agents
_VARIANT_SPECS = st.integers(1, 4).flatmap(
    lambda n: st.one_of(
        st.sampled_from([Unconstrained(), OneStepGreedy(), Proportional()]),
        st.builds(
            lambda lo, gap: Constrained(lo, tuple(a + 1e-3 + b for a, b in zip(lo, gap))), _bounds(n), _bounds(n)
        ),
        st.builds(Seeded, st.floats(1e-9, 1e9)),
        st.builds(SetAside, st.none() | _bounds(n).map(lambda w: tuple(1e-3 + x for x in w))),
    )
)


# "slack" beside constrained's bounds has its own message
@settings(max_examples=80, deadline=None)
@given(variant=_VARIANT_SPECS, key=st.text(min_size=1, max_size=6).filter(lambda k: k != "slack"))
def test_variant_spec_round_trips_through_json_and_refuses_unknown_keys(variant, key):
    d = variant.to_dict()
    back = variant_from_dict(json.loads(json.dumps(d)))
    assert back == variant
    assert back.label == variant.label
    assert variant.label == (
        f"seeded(seed_utility={variant.seed_utility:g})" if isinstance(variant, Seeded) else variant.name
    )
    if key not in d:
        with pytest.raises(InstanceError, match=f"{variant.name} variant: unknown key"):
            variant_from_dict({**d, key: 1.0})


def test_variants_table_holds_the_six_classes():
    classes = {Unconstrained, Constrained, Seeded, SetAside, OneStepGreedy, Proportional}
    assert set(VARIANTS.values()) == classes
    assert all(VARIANTS[cls.name] is cls for cls in classes)


def test_variant_names_are_class_constants():
    # a settable name would relabel the variant and break the round trip
    for cls in (Unconstrained, Constrained, Seeded, SetAside, OneStepGreedy, Proportional):
        assert "name" not in {f.name for f in dataclasses.fields(cls)}
    with pytest.raises(TypeError):
        Unconstrained(name="x")


def test_trace_csv_has_checkpoint_rows(tmp_path):
    vs = ValueSequence(np.ones((8, 2)))
    trace = run(vs, W2, Unconstrained(), checkpoints=[2, 4, 8])
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("tau,u_avg_a1")
    assert len(lines) == 4
