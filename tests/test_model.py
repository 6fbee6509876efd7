"""Domain types, CSV ingestion, normalization, extremity."""

import ast
import math
import os
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from test_eg import EIGHT_POINT_SUPPORT
from tracing import traced_peak

from fairpace import model
from fairpace.inputs import IID, Block, Corrupted, Ergodic, InputModelSpec, Periodic, gen
from fairpace.model import (
    FiniteDistribution,
    AgentWeights,
    InstanceError,
    ValueSequence,
    extremity,
    integral,
    load_csv,
    normalize_values,
    real,
    reals,
    save_csv,
    validate_instance,
)


def test_validate_wellformed():
    report = validate_instance(ValueSequence([[1, 0], [0, 1]]), AgentWeights([1, 1]))
    assert report.ok and report.failures == ()


def test_validate_negative_value_located():
    with pytest.raises(InstanceError, match="negative value at item 2, agent 2"):
        ValueSequence([[1, 0], [0, -1]])


def test_validate_dimension_mismatch_and_all_zero_agent():
    report = validate_instance(ValueSequence([[1, 0], [1, 0]]), AgentWeights([1, 51, 2]))
    assert not report.ok
    assert any("dimension mismatch" in f for f in report.failures)
    assert any("agent 2 has all-zero values" in f for f in report.failures)


def test_nonpositive_weight_rejected():
    with pytest.raises(InstanceError, match="nonpositive weight at agent 2"):
        AgentWeights([1, 0])


def test_validate_nan_located():
    with pytest.raises(InstanceError, match="non-finite value at item 1, agent 2"):
        ValueSequence([[1, float("nan")]])


@settings(max_examples=60, deadline=None)
@given(
    t=st.integers(1, 6),
    n=st.integers(1, 5),
    bad=st.sampled_from([(math.nan, "non-finite"), (math.inf, "non-finite"), (-math.inf, "non-finite"),
                         (-1.0, "negative"), (-5e-324, "negative")]),
    data=st.data(),
)
def test_value_sequence_refuses_one_bad_entry_naming_its_place(t, n, bad, data):
    value, fault = bad
    tau = data.draw(st.integers(0, t - 1), label="tau")
    i = data.draw(st.integers(0, n - 1), label="agent")
    m = np.array(data.draw(st.lists(st.lists(st.floats(0.0, 1e6), min_size=n, max_size=n),
                                    min_size=t, max_size=t), label="values"))
    m[tau, i] = value
    with pytest.raises(InstanceError, match=f"^{fault} value at item {tau + 1}, agent {i + 1}$"):
        ValueSequence(m)


# every matrix of value vectors, however it enters, is checked as an instance is
_VALUE_HOLDERS = {
    "instance": ValueSequence,
    "support": FiniteDistribution,
    "pool": lambda m: Periodic((m, m)),
    "states": lambda m: Ergodic(m, np.eye(m.shape[0])),
    "block": lambda m: Block((2,), ({"support": m},)),
    "corruption": lambda m: Corrupted({"support": [[1.0] * m.shape[1]] * 2}, {1: {"support": m}}),
}


@pytest.mark.parametrize("holder", list(_VALUE_HOLDERS))
@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[1.0, 1.0], [math.nan, 1.0]], "non-finite value at item 2, agent 1"),
        ([[1.0, math.inf], [1.0, 1.0]], "non-finite value at item 1, agent 2"),
        ([[1.0, 1.0], [1.0, -1.0]], "negative value at item 2, agent 2"),
        (np.zeros((2, 0)), "value matrix needs at least one item and one agent"),
    ],
    ids=["nan", "inf", "negative", "zero-agents"],
)
def test_every_value_matrix_is_refused_with_the_instance_message(holder, matrix, message):
    with pytest.raises(InstanceError) as exc_info:
        _VALUE_HOLDERS[holder](np.array(matrix, dtype=np.float64))
    assert str(exc_info.value) == message


def _package_imports(module: str):
    """The package modules that ``src/fairpace/<module>.py`` imports."""
    path = Path(model.__file__).with_name(f"{module}.py")
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fairpace":
            found.add(node.module)
        elif isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.split(".")[0] == "fairpace")
    return found


def test_the_value_layer_imports_no_generator_or_dynamics():
    # the hindsight benchmark reads values only through model, and model
    # reads no other package module
    assert _package_imports("eg") == {".model"}
    assert _package_imports("model") == set()


def test_real_reads_numbers_and_refuses_booleans_and_strings():
    assert real(2) == 2.0 and real(np.float32(0.5)) == 0.5
    for x in (True, False, np.True_, "1", "nan"):
        with pytest.raises(ValueError, match="is not a number"):
            real(x)
    with pytest.raises(TypeError):
        real([1.0])


@pytest.mark.parametrize(
    "read, x, message",
    [
        (real, True, "tol must be a number, not True"),
        (real, np.False_, f"tol must be a number, not {np.False_!r}"),
        (real, "1e-9", "tol must be a number, not '1e-9'"),
        (real, [1.0], "tol must be a number, not [1.0]"),
        (real, 10**400, f"tol must be a number, not {10**400}"),
        (integral, np.True_, f"tol must be a number with an integer value, not {np.True_!r}"),
        (integral, 2.5, "tol must be a number with an integer value, not 2.5"),
        (integral, math.inf, "tol must be a number with an integer value, not inf"),
        (integral, None, "tol must be a number with an integer value, not None"),
    ],
)
def test_a_named_scalar_is_refused_in_one_line_naming_its_field(read, x, message):
    with pytest.raises(InstanceError) as exc_info:
        read(x, "tol")
    assert str(exc_info.value) == message


def _nested(flat, shape):
    """``flat`` as nested lists of ``shape``."""
    if not shape:
        return flat[0]
    step = len(flat) // shape[0]
    return [_nested(flat[k * step : (k + 1) * step], shape[1:]) for k in range(shape[0])]


_NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-(2**70), 2**70))


@settings(max_examples=100, deadline=None)
@given(shape=st.lists(st.integers(1, 4), max_size=3), data=st.data())
def test_reals_reads_nested_numbers_as_numpy_does_and_refuses_booleans_and_strings(shape, data):
    flat = data.draw(st.lists(_NUMBERS, min_size=math.prod(shape), max_size=math.prod(shape)), label="flat")
    x = _nested(flat, shape)
    got, want = reals(x), np.asarray(x, dtype=np.float64)
    assert got.dtype == np.float64 and got.shape == want.shape and got.tobytes() == want.tobytes()
    bad = data.draw(st.sampled_from([True, False, np.True_, "1", "1e-9", "nan"]), label="bad")
    flat[data.draw(st.integers(0, len(flat) - 1), label="at")] = bad
    with pytest.raises(InstanceError, match="is not a number"):
        reals(_nested(flat, shape))
    with pytest.raises(InstanceError, match="is not a number"):
        reals(np.array(_nested(flat, shape), dtype=object))


def test_reals_keeps_a_float64_array_and_refuses_a_boolean_or_text_array():
    m = np.ones((3, 2))
    assert reals(m) is m
    assert reals(np.arange(3)).tolist() == [0.0, 1.0, 2.0]
    for bad in (np.eye(2, dtype=bool), np.array(["1", "2"])):
        with pytest.raises(InstanceError, match="is not a number"):
            reals(bad)


def test_weights_whose_total_overflows_are_refused_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InstanceError, match="^agent weights and their total must be finite$"):
            AgentWeights([1e308, 1e308])
        assert AgentWeights([1e308, 7e307]).total == 1e308 + 7e307


def test_load_csv_basic(tmp_path):
    path = tmp_path / "inst.csv"
    path.write_text("a,b\n1,0\n0,1\n")
    vs = load_csv(path)
    assert vs.t == 2 and vs.n == 2
    assert vs.agents == ("a", "b")
    assert np.array_equal(vs.matrix, [[1, 0], [0, 1]])


def test_load_csv_malformed_number(tmp_path):
    path = tmp_path / "inst.csv"
    path.write_text("a,b\n1,0\n1,x\n")
    with pytest.raises(InstanceError, match="line 3: malformed number"):
        load_csv(path)


def test_load_csv_ragged_row(tmp_path):
    path = tmp_path / "inst.csv"
    path.write_text("a,b\n1,0,3\n")
    with pytest.raises(InstanceError, match="line 2: ragged row"):
        load_csv(path)


def test_load_csv_no_items(tmp_path):
    path = tmp_path / "inst.csv"
    path.write_text("a,b\n")
    with pytest.raises(InstanceError, match="no items"):
        load_csv(path)


def _csv_lines(rows):
    return "a,b\n" + "".join(f"{x},{y}\n" for x, y in rows)


@pytest.mark.parametrize(
    "bad, message",
    [("1,0,3\n", "ragged row (3 fields, expected 2)"), ("1,x\n", "malformed number")],
    ids=["ragged", "malformed"],
)
def test_load_csv_errors_after_the_first_block_name_their_line(tmp_path, bad, message):
    # blank lines after the first block are skipped but still counted
    good = _csv_lines((i, 1) for i in range(model._ROW_BLOCK + 3))
    path = tmp_path / "inst.csv"
    path.write_text(good + "\n\n" + "2,2\n" + bad + "3,3\n")
    lineno = 1 + (model._ROW_BLOCK + 3) + 2 + 1 + 1
    with pytest.raises(InstanceError, match=f"^line {lineno}: {re.escape(message)}$"):
        load_csv(path)


def test_load_csv_skips_blank_lines_across_blocks(tmp_path):
    rows = [(i, i % 3) for i in range(2 * model._ROW_BLOCK + 5)]
    text = _csv_lines(rows[: model._ROW_BLOCK])
    text += "\n" + _csv_lines(rows[model._ROW_BLOCK : 2 * model._ROW_BLOCK]).split("\n", 1)[1]
    text += "\n\n" + _csv_lines(rows[2 * model._ROW_BLOCK :]).split("\n", 1)[1] + "\n"
    path = tmp_path / "inst.csv"
    path.write_text(text)
    vs = load_csv(path)
    assert vs.matrix.tobytes() == np.array(rows, dtype=np.float64).tobytes()


def test_load_csv_memory_stays_near_the_matrix(tmp_path):
    # one block of rows is held as Python floats at a time; the blocks'
    # arrays and the matrix they are joined into make up the rest
    values = ValueSequence(np.random.default_rng(3).random((20_000, 10)))
    path = tmp_path / "distinct.csv"
    save_csv(path, values)
    peak = traced_peak(load_csv, path)
    assert load_csv(path).matrix.tobytes() == values.matrix.tobytes()
    # 2.16 when set; 6.82 with every row held as a list of floats
    assert peak <= 2.5 * values.matrix.nbytes, peak / values.matrix.nbytes


def test_value_sequence_keeps_a_c_contiguous_float64_matrix_without_a_copy():
    m = np.random.default_rng(4).random((5, 3))
    vs = ValueSequence(m)
    assert vs.matrix is m
    assert not m.flags.writeable
    # any other input is copied into a read-only array of its own
    for other in (m.tolist(), np.asfortranarray(m), m.astype(np.float32)):
        assert ValueSequence(other).matrix is not other
        assert not ValueSequence(other).matrix.flags.writeable


def _point_form(n, t, seed, q=9):
    """Points of spread-out magnitudes, so that the order of a sum shows in
    its bits, with some zeros of either sign; and ``t`` drawn point ids."""
    rng = np.random.default_rng(seed)
    points = rng.random((q, n)) * 10.0 ** rng.integers(-8, 9, size=(q, 1))
    points[rng.random((q, n)) < 0.2] = 0.0
    points[rng.random((q, n)) < 0.1] = -0.0
    return ValueSequence(points, index=rng.integers(0, q, t))


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3, 10]),
    t=st.integers(1, 3000),
    block=st.sampled_from([1, 7, model._ROW_BLOCK]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, t=3000, block=7, seed=0)  # pairwise, not in sequence: one column is gathered whole
@example(n=2, t=3000, block=7, seed=0)
def test_column_sums_of_the_point_form_are_the_matrix_sums_bit_for_bit(n, t, block, seed):
    vs = _point_form(n, t, seed)
    rounds = np.random.default_rng(seed + 1).random(t) < 0.5
    with mock.patch.object(model, "_ROW_BLOCK", block):
        assert vs.column_sums().tobytes() == vs.matrix.sum(axis=0).tobytes()
        assert vs.column_sums(rounds).tobytes() == vs.matrix[rounds].sum(axis=0).tobytes()
        assert vs.monopolistic_utilities().tobytes() == vs.matrix.sum(axis=0).tobytes()
    m = ValueSequence(vs.matrix)  # the matrix form sums as numpy does
    assert m.column_sums(rounds).tobytes() == vs.matrix[rounds].sum(axis=0).tobytes()


def test_point_form_reads_as_its_gathered_matrix(tmp_path):
    vs = _point_form(3, 2500, 5)
    m = vs.points[vs.index]
    assert (vs.t, vs.n) == (2500, 3)
    assert vs.matrix.tobytes() == m.tobytes()
    assert vs.rows(1000, 2100).tobytes() == m[1000:2100].tobytes()
    assert vs.per_round(np.arange(9.0)).tolist() == vs.index.tolist()
    assert not vs.index.flags.writeable
    # normalizing rescales the points and keeps the index
    out = normalize_values(vs)
    assert out.index is vs.index
    assert out.matrix.tobytes() == normalize_values(ValueSequence(m)).matrix.tobytes()
    # an instance is written and read back as its matrix
    save_csv(tmp_path / "points.csv", vs)
    assert load_csv(tmp_path / "points.csv").matrix.tobytes() == m.tobytes()


def test_normalizing_the_point_form_scales_only_the_points_that_arrive():
    # the first point never arrives, and would overflow if it were scaled
    points = [[1e308, 1e308], [0.5, 0.5], [0.25, 0.5]]
    vs = ValueSequence(points, index=[1, 2, 1, 1])
    out = normalize_values(vs)
    assert out.matrix.tobytes() == normalize_values(ValueSequence(vs.matrix)).matrix.tobytes()


def test_zero_agents_count_only_the_points_that_arrive():
    vs = ValueSequence([[1.0, 0.0], [0.0, 1.0], [1.0, 0.5]], index=[0, 2, 0])
    assert vs.zero_agents == ()
    vs = ValueSequence([[1.0, 0.0], [0.0, 1.0], [1.0, 0.5]], index=[0, 0])
    assert vs.zero_agents == (1,)
    assert validate_instance(vs, AgentWeights([1, 1])).failures == ("agent 2 has all-zero values",)


@pytest.mark.parametrize(
    "index, message",
    [
        ([], "index must be a nonempty vector of point ids"),
        ([[0, 1]], "index must be a nonempty vector of point ids"),
        ([0.0, 1.0], "index must be a nonempty vector of point ids"),
        ([0, 2], r"point ids must lie in \[0, 2\)"),
        ([-1, 0], r"point ids must lie in \[0, 2\)"),
    ],
)
def test_an_index_is_refused_unless_it_names_points(index, message):
    with pytest.raises(InstanceError, match=message):
        ValueSequence([[1.0, 0.0], [0.0, 1.0]], index=np.array(index))


def test_save_csv_writes_the_point_form_without_its_matrix(tmp_path):
    # rows are gathered and written one block at a time
    vs = _point_form(10, 40_000, 8)
    peak = traced_peak(save_csv, tmp_path / "points.csv", vs)
    assert peak <= 0.25 * vs.matrix.nbytes, peak / vs.matrix.nbytes


def test_csv_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(42)
    for k in range(5):
        m = rng.random((7, 3)) * 10.0 ** float(rng.integers(-12, 12))
        m[0, 0] = 1 / 3  # not exactly representable in decimal
        m[1, 1] = 1e-300
        vs = ValueSequence(m, ("x", "y", "z"))
        path = tmp_path / f"rt{k}.csv"
        save_csv(path, vs)
        back = load_csv(path)
        assert back.agents == vs.agents
        assert np.array_equal(back.matrix, vs.matrix)  # bitwise


@settings(max_examples=60, deadline=None)
@given(
    matrix=st.tuples(st.integers(1, 6), st.integers(1, 3)).flatmap(
        lambda shape: arrays(np.float64, shape, elements=st.floats(0.0, allow_infinity=False))
    )
)
# the smallest subnormal, the smallest normal and the largest finite float
@example(matrix=np.array([[5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]]))
def test_csv_round_trip_is_bit_exact_for_any_finite_values(matrix):
    vs = ValueSequence(matrix)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rt.csv")
        save_csv(path, vs)
        back = load_csv(path)
    assert back.agents == vs.agents
    assert back.matrix.tobytes() == vs.matrix.tobytes()


def test_normalize_examples():
    # single agent whose mean is already one
    out = normalize_values(ValueSequence([[2.0], [0.0]]))
    assert np.array_equal(out.matrix, [[2.0], [0.0]])
    # scale by a half
    out = normalize_values(ValueSequence([[4.0], [0.0]]))
    assert np.array_equal(out.matrix, [[2.0], [0.0]])
    # per-column scaling: column sums become t
    vs = ValueSequence([[1.0, 3.0], [1.0, 1.0]])
    scale = vs.t / vs.matrix.sum(axis=0)  # independent column-sum arithmetic
    expected = vs.matrix * scale
    out = normalize_values(vs)
    assert np.allclose(out.matrix, expected, rtol=0, atol=0)
    assert np.allclose(out.matrix, [[1.0, 1.5], [1.0, 0.5]])
    assert np.allclose(out.matrix.sum(axis=0), vs.t, rtol=1e-12)


def test_normalize_idempotent():
    rng = np.random.default_rng(3)
    m = rng.random((20, 4))
    once = normalize_values(ValueSequence(m))
    twice = normalize_values(once)
    assert np.allclose(once.matrix, twice.matrix, rtol=1e-12)


def test_normalize_all_zero_agent_error():
    with pytest.raises(InstanceError, match="agent 2"):
        normalize_values(ValueSequence([[1.0, 0.0], [1.0, 0.0]]))


def test_extremity_examples():
    assert extremity(ValueSequence([[1.0], [1.0], [0.0]])) == 1.0
    assert extremity(ValueSequence([[0.1], [1.0]])) == pytest.approx(0.1)
    vs = ValueSequence([[0.5, 0.2], [1.0, 0.0], [0.5, 1.0]])
    assert extremity(vs) == pytest.approx(0.2)


def test_extremity_all_zero_error():
    with pytest.raises(InstanceError, match="agent 1"):
        extremity(ValueSequence([[0.0, 1.0]]))


def test_extremity_of_a_point_form_reads_the_points_that_arrive():
    # point 2 never arrives, so its small value is not the instance's
    points = [[0.5, 0.2], [1.0, 0.0], [0.5, 1.0], [1e-9, 3.0]]
    vs = ValueSequence(points, index=np.array([2, 0, 1, 2, 0]))
    assert extremity(vs) == extremity(ValueSequence(vs.matrix)) == 0.2
    assert extremity(ValueSequence(points)) == 1e-9
    with pytest.raises(InstanceError, match="agent 2 has all-zero values"):
        extremity(ValueSequence(points, index=np.array([1, 1])))


def test_extremity_memory_is_a_fraction_of_the_matrix():
    vs = gen(InputModelSpec(IID(FiniteDistribution.uniform(EIGHT_POINT_SUPPORT)), 40_000, 1))
    peak = traced_peak(extremity, vs)
    # 0.10 when set; 1.21 with the matrix gathered
    assert peak <= 0.25 * vs.matrix.nbytes, peak / vs.matrix.nbytes


def test_extremity_scale_free_under_normalization():
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = rng.random((12, 3))
        m[m < 0.3] = 0.0
        m[0, :] = rng.uniform(0.2, 1.0, 3)  # keep every agent positive somewhere
        vs = ValueSequence(m)
        assert extremity(normalize_values(vs)) == pytest.approx(extremity(vs), rel=1e-12)


def test_values_are_immutable():
    vs = ValueSequence([[1.0, 2.0]])
    with pytest.raises(ValueError):
        vs.matrix[0, 0] = 5.0
