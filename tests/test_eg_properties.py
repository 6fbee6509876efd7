"""Property tests for the solver, duplicate merging and the prefix benchmarks."""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import check_equilibrium, dual_objective, eg_threshold_oracle, nnls_enum, primal_objective

from fairpace import model
from fairpace.eg import (
    _nnls,
    hindsight_prefix,
    solve_eg,
    solve_underlying,
)
from fairpace.harness import parse_checkpoints
from fairpace.model import AgentWeights, ValueSequence, _compress

EPS = np.finfo(np.float64).eps

# a few value levels make ties common; zero (of either sign) is half the
# draws, so all-zero rows and all-zero columns are common too
LEVELS = st.sampled_from([0.0, -0.0, 0.0, 0.25, 1.0, 3.0])


def _tie_heavy(max_t=40, max_n=4, elements=LEVELS):
    shapes = st.tuples(st.integers(1, max_t), st.integers(1, max_n))
    return shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=elements))


@st.composite
def _signed_zero_twins(draw):
    """A tie-heavy matrix with some rows repeated at drawn places, each
    repeat with the sign of its every zero flipped, so ``-0.0`` and
    ``0.0`` rows merge."""
    matrix = draw(_tie_heavy())
    t = matrix.shape[0]
    picks = draw(st.lists(st.tuples(st.integers(0, t - 1), st.integers(0, t)), max_size=6))
    for src, at in picks:
        row = matrix[src]
        twin = np.where(row == 0, -row, row)  # -(0.0) is -0.0 and -(-0.0) is 0.0
        matrix = np.insert(matrix, at, twin, axis=0)
    return matrix


@settings(max_examples=60, deadline=None)
@given(_signed_zero_twins(), st.sampled_from([1, 2, 3, model._ROW_BLOCK]))
def test_compress_matches_np_unique(matrix, block):
    # blocks of 1, 2 and 3 rows put group starts on every block edge
    with mock.patch.object(model, "_ROW_BLOCK", block):
        uniq, counts, inverse = _compress(matrix)
    ref_uniq, ref_inverse, ref_counts = np.unique(
        matrix, axis=0, return_inverse=True, return_counts=True
    )
    # np.unique may keep either sign of a merged zero; array_equal ignores the sign
    assert np.array_equal(uniq, ref_uniq)
    assert np.array_equal(counts, ref_counts)
    assert np.array_equal(inverse, ref_inverse.reshape(-1))
    assert counts.dtype == np.float64
    # each kept row is bit for bit its group's first arrival, signed zeros included
    _, first_arrival = np.unique(inverse, return_index=True)
    assert np.array_equal(uniq.view(np.uint64), matrix[first_arrival].view(np.uint64))


@settings(max_examples=80, deadline=None)
@given(_signed_zero_twins(), st.data(), st.sampled_from([1, 2, model._ROW_BLOCK]))
def test_compress_of_points_and_index_is_that_of_the_gathered_rows_bit_for_bit(points, data, block):
    # repeated points and signed-zero twins arrive in any order, some never:
    # each merged row keeps its first arrival's signs
    q = points.shape[0]
    index = np.array(data.draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=120), label="index"),
                     dtype=np.intp)
    with mock.patch.object(model, "_ROW_BLOCK", block):
        got = _compress(points, index)
        expected = _compress(points[index])
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _cold_prefix(values, weights, tau, tol):
    """A cold ``solve_eg`` of the first ``tau`` items and the agents present."""
    prefix = values.matrix[:tau]
    idx = np.nonzero((prefix > 0).any(axis=0))[0]
    eq = solve_eg(ValueSequence(prefix[:, idx]), AgentWeights(weights.array[idx]), tol)
    u = np.zeros(values.n)
    u[idx] = eq.utilities / tau
    absent = tuple(int(i) for i in np.setdiff1d(np.arange(values.n), idx))
    return u, absent, eq


@st.composite
def _prefix_instances(draw):
    elements = st.one_of(LEVELS, st.floats(0.01, 1.0))
    matrix = draw(_tie_heavy(max_t=24, elements=elements))
    # every prefix needs one positive value; later agents may arrive late
    matrix[0, 0] = draw(st.sampled_from([0.5, 1.0]))
    t, n = matrix.shape
    weights = draw(arrays(np.float64, n, elements=st.sampled_from([0.5, 1.0, 2.0])))
    if draw(st.booleans()):
        cps = parse_checkpoints("pow2", t)
    else:
        cps = tuple(draw(st.lists(st.integers(1, t), min_size=1, max_size=6)))
    return ValueSequence(matrix), AgentWeights(weights), cps


@settings(max_examples=40, deadline=None)
@given(_prefix_instances())
def test_hindsight_prefix_equals_cold_solve_of_each_prefix(instance):
    values, weights, cps = instance
    tol = 1e-6
    sols = hindsight_prefix(values, weights, cps, tol)
    assert [s.tau for s in sols] == sorted(set(cps))
    for sol in sols:
        u, absent, eq = _cold_prefix(values, weights, sol.tau, tol)
        assert np.array_equal(sol.avg_utilities, u)
        assert sol.flagged == absent
        assert sol.iterations == eq.iterations
        assert sol.gap == eq.gap


# instance families the solver must certify: ties on a few value levels,
# sparse values, fewer items than agents, and continuous values; in every
# family the weights are drawn from {0.5, 1, 2}
FAMILIES = {
    "tie-heavy": st.sampled_from([0.0, 0.25, 1.0, 3.0]),
    "sparse": st.one_of(st.just(0.0), st.just(0.0), st.floats(0.01, 1.0)),
    "few-items": st.one_of(st.just(0.0), st.sampled_from([0.25, 1.0]), st.floats(0.01, 1.0)),
    "continuous": st.floats(0.01, 1.0),
}


@st.composite
def _markets(draw, n_range=(1, 6)):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    n = draw(st.integers(*n_range))
    t = draw(st.integers(1, n - 1)) if family == "few-items" and n > 1 else draw(st.integers(1, 11))
    matrix = draw(arrays(np.float64, (t, n), elements=FAMILIES[family]))
    for i in np.nonzero(matrix.max(axis=0) <= 0)[0]:  # every agent values some item
        matrix[draw(st.integers(0, t - 1)), i] = draw(st.sampled_from([0.25, 1.0, 3.0]))
    weights = draw(arrays(np.float64, n, elements=st.sampled_from([0.5, 1.0, 2.0])))
    return ValueSequence(matrix), AgentWeights(weights)


def _rounding(*terms):
    return 16 * EPS * sum(abs(x) for x in terms)


@settings(max_examples=60, deadline=None)
@given(_markets(), st.sampled_from([1e-6, 1e-9]))
def test_solve_eg_certifies_its_gap_and_allocation(market, tol):
    values, weights = market
    eq = solve_eg(values, weights, tol)
    limit = tol * weights.total
    assert 0.0 <= eq.gap <= limit
    # the certificate again, from the allocation alone
    x = eq.allocation
    assert np.all(x >= 0) and np.all(x.sum(axis=1) <= 1.0 + 1e-12)
    u = (values.matrix * x).sum(axis=0)
    assert np.allclose(u, eq.utilities, rtol=1e-12, atol=0)
    dual, primal = dual_objective(weights.array / u, values, weights), primal_objective(u, weights)
    rounding = _rounding(dual, primal, weights.total)
    assert -rounding <= dual - primal <= limit + rounding
    if tol == 1e-9:
        # a gap of 1e-6 bounds the welfare, not each equilibrium condition, to 1e-6
        report = check_equilibrium(eq, values, weights, 1e-6)
        assert report.ok, report.failures


@settings(max_examples=60, deadline=None)
@given(_markets(n_range=(2, 2)), st.sampled_from([1e-6, 1e-9]))
def test_two_agent_welfare_matches_the_threshold_oracle(market, tol):
    values, weights = market
    eq = solve_eg(values, weights, tol)
    exact = primal_objective(eg_threshold_oracle(values.matrix, weights.array), weights)
    mine = primal_objective(eq.utilities, weights)
    rounding = _rounding(exact, mine, weights.total)  # log u to a few ulps of u
    assert mine <= exact + rounding
    assert exact - mine <= tol * weights.total + rounding


@settings(max_examples=40, deadline=None)
@given(_markets(), st.data())
def test_solve_underlying_certifies_on_finite_distributions(market, data):
    values, weights = market
    support = values.matrix
    raw = data.draw(arrays(np.float64, support.shape[0], elements=st.floats(0.05, 1.0)))
    probs = raw / raw.sum()
    tol = data.draw(st.sampled_from([1e-6, 1e-9]))
    m = solve_underlying(support, probs, weights, tol)
    b = weights.array
    assert 0.0 <= m.gap <= tol * weights.total
    assert np.allclose(m.beta * m.utilities, b, rtol=1e-12, atol=0)
    # the dual at beta = B / u with supplies equal to the probabilities
    prices = float(probs @ (support * m.beta).max(axis=1))
    dual = prices - math.fsum(b * np.log(m.beta)) + math.fsum(b * np.log(b) - b)
    primal = math.fsum(b * np.log(m.utilities))
    rounding = _rounding(dual, primal, prices)
    assert -rounding <= dual - primal <= tol * weights.total + rounding


@st.composite
def _nnls_problems(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    # 0/1 columns like the incidence columns of tied edges, repeats included
    a = draw(arrays(np.float64, (rows, cols), elements=st.sampled_from([0.0, 0.0, 1.0])))
    return a, draw(arrays(np.float64, rows, elements=st.floats(0.0, 2.0)))


@settings(max_examples=80, deadline=None)
@given(_nnls_problems())
def test_nnls_reaches_the_least_nonnegative_residual(problem):
    a, d = problem
    f = _nnls(a, d)
    assert np.all(f >= 0)
    assert np.linalg.norm(a @ f - d) <= nnls_enum(a, d) + 1e-9 * (1.0 + np.abs(d).sum())
