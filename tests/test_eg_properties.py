"""Property tests for duplicate merging and the prefix benchmarks."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fairpace.eg import _compress, hindsight_prefix, solve_eg
from fairpace.harness import parse_checkpoints
from fairpace.model import AgentWeights, ValueSequence

# a few value levels make ties common; zero (of either sign) is half the
# draws, so all-zero rows and all-zero columns are common too
LEVELS = st.sampled_from([0.0, -0.0, 0.0, 0.25, 1.0, 3.0])


def _tie_heavy(max_t=40, max_n=4, elements=LEVELS):
    shapes = st.tuples(st.integers(1, max_t), st.integers(1, max_n))
    return shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=elements))


@settings(max_examples=60, deadline=None)
@given(_tie_heavy())
def test_compress_matches_np_unique(matrix):
    uniq, counts, inverse = _compress(matrix)
    ref_uniq, ref_inverse, ref_counts = np.unique(
        matrix, axis=0, return_inverse=True, return_counts=True
    )
    # the two may keep different signs of a merged zero; array_equal ignores the sign
    assert np.array_equal(uniq, ref_uniq)
    assert np.array_equal(counts, ref_counts)
    assert np.array_equal(inverse, ref_inverse.reshape(-1))
    assert counts.dtype == np.float64


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
