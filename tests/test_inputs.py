"""Generators: determinism, model semantics, adversarial constructions."""

import dataclasses
import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import tv_delta_oracle
from tracing import traced_peak

from fairpace.cli import main
from fairpace.dynamics import _CHUNK, Constrained, Proportional, Unconstrained, run
from fairpace.harness import model_from_dict
from fairpace.inputs import (
    Block,
    Corrupted,
    Ergodic,
    FiniteDistribution,
    IID,
    InputModelSpec,
    Periodic,
    _round_uniforms,
    adv_constrained_failure,
    adv_cr_killer,
    adv_envy_worstcase,
    empirical_tv_delta,
    gen,
)
from fairpace.model import AgentWeights, InstanceError, extremity, validate_instance

W2 = AgentWeights.equal(2)


def _dist(support, probs=None):
    support = np.asarray(support, dtype=np.float64)
    if probs is None:
        return FiniteDistribution.uniform(support)
    return FiniteDistribution(support, np.asarray(probs, dtype=np.float64))


def test_gen_is_bit_identical_across_calls():
    d1 = _dist([[1.0, 0.2], [0.3, 1.0], [0.5, 0.5]])
    d2 = _dist([[0.9, 0.1], [0.1, 0.9]], [0.3, 0.7])
    states = np.array([[1.0, 0.1], [0.1, 1.0]])
    chain = Ergodic(states, np.array([[0.4, 0.6], [0.5, 0.5]]), start=0)
    models = [
        IID(d1),
        Periodic((d1.support, d2.support)),
        Block(lengths=(300, 200), dists=(d1, d2)),
        chain,
        Corrupted(d1, {5: d2}),
    ]
    for model in models:
        spec = InputModelSpec(model, t=500, seed=99)
        a = gen(spec)
        b = gen(spec)
        assert np.array_equal(a.matrix, b.matrix), model.name
        c = gen(spec, repetition=1)
        assert not np.array_equal(a.matrix, c.matrix), model.name


_A = {"support": [[1.0, 0.2], [0.3, 1.0], [0.5, 0.5]], "probs": [0.2, 0.5, 0.3]}
_B = {"support": [[0.9, 0.1], [0.1, 0.9]]}
_POOLS = [[[1.0, 0.1], [0.5, 0.1]], [[0.1, 1.0]], [[0.4, 0.4], [0.2, 0.9], [0.7, 0.3]]]
_STATES = [[1.0, 0.1], [0.1, 1.0], [0.6, 0.6]]
_TRANSITIONS = [[0.5, 0.3, 0.2], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4]]

# each model's config form, and the same model from its constructor
_CONFIG_AND_MODEL = {
    "iid": ({"type": "iid", **_A}, lambda: IID(_dist(**_A))),
    "periodic": ({"type": "periodic", "pools": _POOLS}, lambda: Periodic(tuple(np.array(p) for p in _POOLS))),
    "block": (
        {"type": "block", "lengths": [100, 57, 100], "dists": [_A, _B, _A], "max_delta": 0.9},
        lambda: Block(lengths=(100, 57, 100), dists=(_dist(**_A), _dist(**_B), _dist(**_A)), max_delta=0.9),
    ),
    "ergodic": (
        {"type": "ergodic", "states": _STATES, "transitions": _TRANSITIONS, "start": 2},
        lambda: Ergodic(np.array(_STATES), np.array(_TRANSITIONS), start=2),
    ),
    "corrupted": (
        {"type": "corrupted", "base": _A, "corruptions": {3: _B, 200: _B, 999: _A}, "max_delta": 0.5},
        lambda: Corrupted(_dist(**_A), {3: _dist(**_B), 200: _dist(**_B), 999: _dist(**_A)}, max_delta=0.5),
    ),
}

# SHA-256 of the little-endian float64 bytes of gen(spec, repetition) at
# t=257, seed=2024; generation must not change across runs or releases
_GEN_SHA256 = {
    ("iid", 0): "8f3d5567ff88fb9d1487fdabee9adcd690660fe700bb929bdac580d77632fa13",
    ("iid", 5): "dbec17d8f5e41e3a3435a5a970f5dbc6b4cff5f013ec5a415fd1acca7549e486",
    ("periodic", 0): "6f4062f84e4f336d9106ce7a79036195c1dd5649b91065b44b23a630154faac9",
    ("periodic", 5): "aadfb9cd15608f73428411e6ada18475b1a6e65091b41fca5ac39b9db92e1805",
    ("block", 0): "d1c37b9859910c21685c2c092feba5d2c49c5994b005af4d4fbd6078fca0f7e8",
    ("block", 5): "657d981da9fd67374e0d55c79bc21abd1327d2317bd951338d2fb58e230b1c2c",
    ("ergodic", 0): "3dc05521b8ec823e983e3ea19e377d9663bcae10bc8596deb2727dc237d6083f",
    ("ergodic", 5): "425779403af13b478b38941f13918bda66b7555b357bb32ecb051a79bcc8fb52",
    ("corrupted", 0): "afd5ff350a993621b6d3576646bdcef8592472c3498c2e4519dfeb70a8d201f8",
    ("corrupted", 5): "15730f0e04e885fe1169e89cec4ba317158be4de5923e3fc418cce4f15731936",
}


@pytest.mark.parametrize("kind", sorted(_CONFIG_AND_MODEL))
def test_model_config_and_constructor_generate_the_same_rows(kind):
    config, build = _CONFIG_AND_MODEL[kind]
    from_config = model_from_dict({**config, "t": 257, "seed": 2024})
    from_constructor = InputModelSpec(build(), t=257, seed=2024)
    for rep in (0, 5):
        assert np.array_equal(gen(from_config, rep).matrix, gen(from_constructor, rep).matrix)


@pytest.mark.parametrize("kind", sorted(_CONFIG_AND_MODEL))
def test_gen_output_is_pinned(kind):
    spec = InputModelSpec(_CONFIG_AND_MODEL[kind][1](), t=257, seed=2024)
    for rep in (0, 5):
        matrix = np.ascontiguousarray(gen(spec, rep).matrix, dtype="<f8")
        assert hashlib.sha256(matrix.tobytes()).hexdigest() == _GEN_SHA256[kind, rep]


_KEY_WORD = st.one_of(st.sampled_from([0, 1, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1))


@settings(max_examples=60, deadline=None)
@given(
    seed=_KEY_WORD,
    repetition=_KEY_WORD,
    count=st.one_of(st.integers(0, 20), st.integers(4 * _CHUNK - 6, 4 * _CHUNK + 6)),
)
@example(seed=2**64 - 1, repetition=2**63, count=100_003)
def test_round_uniforms_are_numpy_philox_bit_for_bit(seed, repetition, count):
    expected = np.random.Generator(np.random.Philox(key=(seed << 64) + repetition)).random(count)
    assert _round_uniforms(seed, repetition, count).tobytes() == expected.tobytes()


def test_seeds_and_repetitions_outside_the_key_word_are_refused():
    # a seed or a repetition is one 64-bit key word: masked, -1 would draw
    # the instance of 2**64 - 1, and 2**64 that of 0
    model = IID(FiniteDistribution.uniform([[1.0, 0.0], [0.0, 1.0]]))
    assert InputModelSpec(model, t=3, seed=2**64 - 1).seed == 2**64 - 1
    for seed in (-1, 2**64, 2**70, 10**400):
        with pytest.raises(InstanceError, match=rf"^seed must lie in \[0, 2\*\*64\), not {seed}$"):
            InputModelSpec(model, t=3, seed=seed)
    spec = InputModelSpec(model, t=3, seed=0)
    assert gen(spec, 2**64 - 1).t == 3
    for rep in (-1, 2**64):
        with pytest.raises(InstanceError, match=rf"^repetition must lie in \[0, 2\*\*64\), not {rep}$"):
            gen(spec, rep)


def test_round_uniforms_memory_is_about_the_output():
    # the stream is computed _CHUNK counters at a time into the output
    peak = traced_peak(_round_uniforms, 7, 3, 10**6)
    # 1.08 when set; 5.5 with the whole stream in one block
    assert peak <= 1.25 * 8 * 10**6, peak / (8 * 10**6)


_ONE_DIST = "{support: [[1.0, 0.2], [0.3, 1.0], [0.5, 0.5]], probs: [0.2, 0.5, 0.3]}"
_TWO_DIST = "{support: [[0.9, 0.1], [0.1, 0.9]]}"
# one gen --spec per model type, over 4 * _CHUNK + 3 rounds so that the
# stream crosses a block of counters, and the SHA-256 of its CSV
_CLI_SPECS = {
    "iid": (
        "type: iid\nsupport: [[1.0, 0.2], [0.3, 1.0], [0.5, 0.5]]\nprobs: [0.2, 0.5, 0.3]\n",
        "622b737270e3973b6d4eb0d6d137f74469a477d4f7484f2e55f7b6ed00dd5d5f",
    ),
    "periodic": (
        "type: periodic\npools: [[[1.0, 0.1], [0.5, 0.1]], [[0.1, 1.0]], [[0.4, 0.4], [0.2, 0.9], [0.7, 0.3]]]\n",
        "5f05b7a99297c9166c59b93cf0a0957a21881be445d62127889b8e867822d3bc",
    ),
    "block": (
        f"type: block\nlengths: [8000, 387, 8000]\ndists: [{_ONE_DIST}, {_TWO_DIST}, {_ONE_DIST}]\nmax_delta: 0.9\n",
        "2d5981e4db49983b2ecfedee3975be44fa90d496e00d0b04009d7c080bf7b526",
    ),
    "ergodic": (
        "type: ergodic\nstates: [[1.0, 0.1], [0.1, 1.0], [0.6, 0.6]]\n"
        "transitions: [[0.5, 0.3, 0.2], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4]]\nstart: 2\n",
        "c54b87b41ab39b732d16f7f0f1ba1fcf02c841e59682266379b9182dac27c010",
    ),
    "corrupted": (
        f"type: corrupted\nbase: {_ONE_DIST}\ncorruptions: {{3: {_TWO_DIST}, 16385: {_TWO_DIST}}}\nmax_delta: 0.5\n",
        "4c9f0233a1f2669110cb3480d841dc9bf52062410387f87f3724952848471e68",
    ),
}


@pytest.mark.parametrize("kind", sorted(_CLI_SPECS))
def test_gen_cli_output_is_pinned(tmp_path, kind):
    body, digest = _CLI_SPECS[kind]
    (tmp_path / "s.yaml").write_text(body + f"t: {4 * _CHUNK + 3}\nseed: 2024\n")
    assert main(["gen", "--spec", str(tmp_path / "s.yaml"), "--out", str(tmp_path / "x.csv")]) == 0
    assert hashlib.sha256((tmp_path / "x.csv").read_bytes()).hexdigest() == digest


# runs each CLI command line given as a JSON list in one process, and
# prints whether numpy's random package was loaded before and after each
_LOADS_NUMPY_RANDOM = """
import json, sys
import numpy
from fairpace.cli import main
loaded = ["numpy.random" in sys.modules]
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    loaded.append("numpy.random" in sys.modules)
print(json.dumps(loaded))
"""


def test_generated_runs_do_not_load_numpy_random(tmp_path):
    (tmp_path / "s.yaml").write_text(_CLI_SPECS["periodic"][0] + "t: 5000\nseed: 3\n")
    (tmp_path / "c.yaml").write_text(
        "instance:\n  model: {type: iid, support: [[1, 0.2], [0.3, 1]]}\n  t: 5000\n  seed: 1\n"
        "weights: {equal: 2}\nvariants: [pace, proportional]\nrepetitions: 2\n"
    )
    commands = [["gen", "--spec", "s.yaml", "--out", "x.csv"], ["run", "c.yaml", "--out", "out"]]
    r = subprocess.run(
        [sys.executable, "-c", _LOADS_NUMPY_RANDOM, json.dumps(commands)],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert r.returncode == 0, r.stderr
    loaded = json.loads(r.stdout.strip().splitlines()[-1])
    if loaded[0]:
        pytest.skip("this numpy loads its random package on import")
    assert loaded == [False, False, False]


def test_model_names_are_class_constants():
    for cls in (IID, Periodic, Block, Ergodic, Corrupted):
        assert "name" not in {f.name for f in dataclasses.fields(cls)}
    with pytest.raises(TypeError):
        IID(_dist([[1.0, 1.0]]), name="x")


def test_iid_single_point_is_constant():
    spec = InputModelSpec(IID(_dist([[0.4, 0.6]])), t=20, seed=1)
    vs = gen(spec)
    assert np.all(vs.matrix == [0.4, 0.6])


def test_iid_column_means_within_three_sigma():
    # equal point masses on (1,0) and (0,1): binomial concentration
    t = 10_000
    spec = InputModelSpec(IID(_dist([[1.0, 0.0], [0.0, 1.0]])), t=t, seed=5)
    vs = gen(spec)
    sigma = 0.5 / math.sqrt(t)
    assert abs(vs.matrix[:, 0].mean() - 0.5) <= 3 * sigma
    assert abs(vs.matrix[:, 1].mean() - 0.5) <= 3 * sigma


def test_periodic_alternating_pools():
    spec = InputModelSpec(
        Periodic((np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))), t=6, seed=0
    )
    vs = gen(spec)
    assert np.array_equal(vs.matrix, [[1, 0], [0, 1]] * 3)


@pytest.mark.parametrize(
    "pools", [([1.0, 0.0],), (np.array([[1.0, 0.0]]), [0.0, 1.0]), (5.0,), ([[1.0, 0.0]], [[1.0]])]
)
def test_periodic_refuses_a_pool_that_is_not_a_matrix_of_the_agents(pools):
    with pytest.raises(InstanceError, match="^pools must be nonempty and share the agent count$"):
        Periodic(pools)


def test_periodic_positions_sample_their_own_pool():
    pools = (
        np.array([[1.0, 0.1], [0.5, 0.1]]),
        np.array([[0.1, 1.0], [0.1, 0.7]]),
    )
    spec = InputModelSpec(Periodic(pools), t=40, seed=11)
    vs = gen(spec)
    for tau in range(40):
        pool = pools[tau % 2]
        assert any(np.array_equal(vs.matrix[tau], row) for row in pool)


def test_block_emits_exact_multisets():
    d1 = _dist([[1.0, 0.0], [0.0, 1.0]], [0.25, 0.75])
    d2 = _dist([[0.5, 0.5]])
    spec = InputModelSpec(Block(lengths=(8, 4), dists=(d1, d2)), t=12, seed=3)
    vs = gen(spec)
    first = vs.matrix[:8]
    assert int((first == [1.0, 0.0]).all(axis=1).sum()) == 2  # 8 * 0.25
    assert int((first == [0.0, 1.0]).all(axis=1).sum()) == 6
    assert np.all(vs.matrix[8:] == [0.5, 0.5])


def test_block_lengths_must_cover_horizon():
    d = _dist([[1.0, 1.0]])
    spec = InputModelSpec(Block(lengths=(3, 3), dists=(d, d)), t=7, seed=0)
    with pytest.raises(InstanceError, match="block lengths"):
        gen(spec)


def test_ergodic_walk_visits_states_deterministically():
    states = np.array([[1.0, 0.0], [0.0, 1.0]])
    trans = np.array([[0.0, 1.0], [1.0, 0.0]])  # deterministic alternation
    spec = InputModelSpec(Ergodic(states, trans, start=0), t=5, seed=8)
    vs = gen(spec)
    assert np.array_equal(vs.matrix, [[1, 0], [0, 1], [1, 0], [0, 1], [1, 0]])


def test_corrupted_rounds_replaced():
    base = _dist([[1.0, 1.0]])
    burst = _dist([[0.01, 5.0]])
    spec = InputModelSpec(Corrupted(base, {3: burst}), t=5, seed=2)
    vs = gen(spec)
    assert np.array_equal(vs.matrix[2], [0.01, 5.0])
    mask = np.ones(5, dtype=bool)
    mask[2] = False
    assert np.all(vs.matrix[mask] == [1.0, 1.0])


def test_distribution_requires_positive_expected_values():
    with pytest.raises(InstanceError, match="zero expected value"):
        _dist([[0.0, 5.0]])


# each integer field is read by the constructor, as the config reads it
@pytest.mark.parametrize(
    "build",
    [
        lambda d: Block(lengths=(2.5,), dists=(d,)),
        lambda d: Ergodic(np.eye(2), np.full((2, 2), 0.5), start=1.5),
        lambda d: InputModelSpec(IID(d), t=2.5, seed=0),
        lambda d: InputModelSpec(IID(d), t=3, seed=2.5),
        lambda d: Corrupted(d, {1.5: d}),
    ],
    ids=["block-length", "ergodic-start", "spec-t", "spec-seed", "corrupted-round"],
)
def test_constructors_refuse_a_fractional_integer(build):
    with pytest.raises(InstanceError, match=r"\d\.5 is not an integer"):
        build(_dist([[1.0, 1.0]]))


def test_constructors_read_distributions_from_mappings():
    d = {"support": [[1.0, 0.0], [0.0, 1.0]], "probs": [0.25, 0.75]}
    assert Block(lengths=(4,), dists=(d,)).dists[0].probs.tolist() == [0.25, 0.75]
    assert Corrupted(d, {2: d}).corruptions[2].support.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(InstanceError, match="corruptions must map rounds to distributions"):
        Corrupted(d, [(2, d)])


def test_generated_instances_validate():
    specs = [
        InputModelSpec(IID(_dist([[1.0, 0.1], [0.1, 1.0]])), t=50, seed=4),
        InputModelSpec(Periodic((np.array([[1.0, 0.2]]), np.array([[0.2, 1.0]]))), t=33, seed=4),
        InputModelSpec(
            Block(lengths=(10, 10), dists=(_dist([[1.0, 0.5]]), _dist([[0.5, 1.0]]))),
            t=20,
            seed=4,
        ),
    ]
    for spec in specs:
        vs = gen(spec)
        n = vs.n
        assert validate_instance(vs, AgentWeights.equal(n)).ok


# ------------------------------------------------------------ tv delta


def test_tv_delta_identical_blocks_is_zero():
    d = _dist([[1.0, 0.0], [0.0, 1.0]])
    spec = InputModelSpec(Block(lengths=(5, 5), dists=(d, d)), t=10, seed=0)
    assert empirical_tv_delta(spec) == 0.0


def test_tv_delta_disjoint_point_blocks():
    # two equal blocks with disjoint supports: each is TV 1/2 from the mixture
    d1 = _dist([[1.0, 0.1]])
    d2 = _dist([[0.1, 1.0]])
    spec = InputModelSpec(Block(lengths=(6, 6), dists=(d1, d2)), t=12, seed=0)
    assert empirical_tv_delta(spec) == pytest.approx(0.5)


def test_tv_delta_corrupted_fraction():
    # fraction f of rounds replaced by a disjoint point mass: each clean
    # round is f away from the mixture, each corrupted round 1-f, so the
    # average distance is exactly 2 f (1 - f)
    base = _dist([[1.0, 1.0]])
    burst = _dist([[5.0, 0.1]])
    corruptions = {r: burst for r in range(1, 11)}  # 10 of 100 rounds
    spec = InputModelSpec(Corrupted(base, corruptions), t=100, seed=0)
    delta = empirical_tv_delta(spec)
    assert delta == pytest.approx(2 * 0.1 * 0.9, rel=1e-12)
    assert delta <= 2 * 0.1


def test_tv_delta_budget_enforced_at_generation():
    base = _dist([[1.0, 1.0]])
    burst = _dist([[5.0, 0.1]])
    model = Corrupted(base, {1: burst, 2: burst}, max_delta=1e-6)
    with pytest.raises(InstanceError, match="exceeds budget"):
        gen(InputModelSpec(model, t=10, seed=0))


@st.composite
def _twin_heavy_dist(draw, n):
    """A distribution whose support repeats a few points, some with the
    sign of every zero flipped, so repeats and ``-0.0``/``0.0`` twins merge."""
    pool = draw(st.lists(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=n, max_size=n),
                         min_size=1, max_size=3))
    picks = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.booleans()), min_size=1, max_size=6))
    support = np.array([[-x if flip and x == 0 else x for x in pool[j]] for j, flip in picks])
    assume(np.all(support.max(axis=0) > 0))
    weights = np.array(draw(st.lists(st.integers(1, 7), min_size=len(picks), max_size=len(picks))), dtype=float)
    return FiniteDistribution(support, weights / weights.sum())


@st.composite
def _nonstationary_spec(draw):
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        lengths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
        dists = [draw(_twin_heavy_dist(n)) for _ in lengths]
        return InputModelSpec(Block(lengths, dists), t=sum(lengths), seed=0)
    t = draw(st.integers(1, 12))
    rounds = draw(st.sets(st.integers(1, t + 2), max_size=5))  # a round past t is ignored
    model = Corrupted(draw(_twin_heavy_dist(n)), {r: draw(_twin_heavy_dist(n)) for r in rounds})
    return InputModelSpec(model, t=t, seed=0)


@settings(max_examples=150, deadline=None)
@given(_nonstationary_spec())
def test_tv_delta_matches_the_tuple_keyed_oracle(spec):
    expected = tv_delta_oracle(spec.model.segments(spec.t), spec.t)
    assert abs(empirical_tv_delta(spec) - expected) <= 1e-15


def test_tv_delta_undefined_for_iid():
    spec = InputModelSpec(IID(_dist([[1.0, 1.0]])), t=5, seed=0)
    with pytest.raises(InstanceError):
        empirical_tv_delta(spec)


# ------------------------------------------------------------ adversarial


def test_envy_worstcase_trivial_extremity_one():
    res = adv_envy_worstcase(1.0, 1.001, 10)
    assert res.levels == 0
    assert res.values.t == 20
    assert res.predicted_envy == pytest.approx(1.0)


@pytest.mark.parametrize("eps, base_length", [(1e-310, 3), (1e-300, 10**12)], ids=["subnormal-eps", "long-base"])
def test_envy_worstcase_refuses_a_phase_length_no_float_can_count(eps, base_length):
    # 1 / eps, or the climb's phase length, overflows to inf
    with pytest.raises(InstanceError, match=f"^extremity {eps!r} needs more items than a float can count$"):
        adv_envy_worstcase(eps, 1.001, base_length)


def test_envy_worstcase_extremity_is_exact():
    res = adv_envy_worstcase(0.1, 1.05, 50)
    assert extremity(res.values) == 0.1


def test_envy_worstcase_prediction_tracks_limit():
    res = adv_envy_worstcase(0.1, 1.001, 100_000)
    limit = 1 + 2 * math.log(10)
    assert res.predicted_envy == pytest.approx(limit, rel=0.01)


def test_envy_worstcase_small_run_allocates_tail_to_agent_one():
    res = adv_envy_worstcase(0.5, 1.02, 400)
    trace = run(res.values, W2, Unconstrained())
    after = trace.winners[400:]
    # ceil-rounded phase lengths flip a handful of boundary items; the
    # tail belongs to agent 1 apart from those
    assert (after == 1).mean() <= 0.01
    assert np.all(trace.winners[:400] == 1)


def test_cr_killer_single_agent():
    res = adv_cr_killer(1, [100], Unconstrained())
    assert res.bound == pytest.approx(1.0)
    assert res.kill_order == (0,)


def test_cr_killer_two_agent_formula():
    res = adv_cr_killer(2, [100, 10_000], Unconstrained())
    assert res.bound == pytest.approx(math.sqrt(2 * 1.0 * 9900 / 10_000))
    assert res.bound == pytest.approx(1.4071, abs=2e-4)
    assert res.witness_utilities == (100.0, 9900.0)
    # the witness hands phase k to the agent killed at its end: feasible
    m = res.values.matrix
    t1, t2 = res.phase_ends
    i1, i2 = res.kill_order
    assert np.all(m[:t1, i1] == 1.0)
    assert np.all(m[t1:t2, i2] == 1.0)


def test_cr_killer_bound_approaches_factorial_root():
    res = adv_cr_killer(3, [10, 10_000, 10_000_000], Proportional())
    assert res.bound == pytest.approx(6 ** (1 / 3), rel=5e-3)


def test_cr_killer_validates_phases():
    with pytest.raises(InstanceError):
        adv_cr_killer(3, [10, 5, 100], Unconstrained())
    with pytest.raises(InstanceError):
        adv_cr_killer(3, [10, 20], Unconstrained())


def test_constrained_failure_trivial_instance():
    vs = adv_constrained_failure(1.0, 1.0, 5)
    assert np.all(vs.matrix == 1.0)
    assert vs.n == 2


def test_constrained_failure_contrast():
    t = 60
    vs = adv_constrained_failure(2.0, 1.0, t)
    c = vs.matrix[0, 0]
    constrained = run(vs, W2, Constrained(lower=(0.0, 0.0), upper=(4.0, 2.0)))
    assert constrained.final_utilities[1] == 0.0
    unconstrained = run(vs, W2, Unconstrained())
    u = unconstrained.final_utilities
    assert abs(u[0] - u[1]) <= vs.matrix.max()
    assert u.sum() == pytest.approx(t * c)
