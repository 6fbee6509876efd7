"""Acceptance suite: one test per acceptance criterion.

Each test prints a single ``[criterion N] PASS/FAIL`` line (visible with
``pytest -s`` or on failure) and asserts the criterion at its stated
tolerance.  Heavy corpora are built once in session fixtures and shared.
"""

import itertools
import math
import time

import numpy as np
import pytest

from oracles import check_equilibrium, eg_grid_oracle, restrict_instance, utility_ratio_enum

from fairpace.dynamics import (
    Constrained,
    SetAside,
    Seeded,
    Unconstrained,
    run,
)
from fairpace.eg import hindsight_prefix, solve_eg, solve_underlying
from fairpace.harness import parse_checkpoints
from fairpace.inputs import (
    FiniteDistribution,
    IID,
    InputModelSpec,
    Periodic,
    adv_constrained_failure,
    adv_cr_killer,
    adv_envy_worstcase,
    gen,
)
from fairpace.metrics import (
    competitive_ratio,
    multiplicative_envy,
    relative_regret_trajectory,
    seeded_utility_ratio,
    utility_ratio,
)
from fairpace.model import AgentWeights, ValueSequence


def _criterion(num, ok, desc, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"[criterion {num:2d}] {status} - {desc}{tail}")
    assert ok, f"criterion {num}: {desc}{tail}"


# ------------------------------------------------------------------ fixtures


@pytest.fixture(scope="session")
def extreme_corpus():
    """200 non-extreme instances with their pacing runs (criteria 5, 6)."""
    rng = np.random.default_rng(np.random.Philox(key=501))
    out = []
    for k in range(200):
        n = (2, 3, 4)[k % 3]
        eps = (0.5, 0.1)[k % 2]
        t = int(round(10 ** rng.uniform(math.log10(200), 4.0)))
        m = rng.uniform(eps, 1.0, (t, n))
        m[rng.random((t, n)) < 0.25] = 0.0
        m[0] = rng.uniform(eps, 1.0, n)
        vs = ValueSequence(m)
        w = AgentWeights.equal(n)
        trace = run(vs, w, Unconstrained())
        assert np.all(trace.final_utilities > 0)
        envy = multiplicative_envy(vs, trace, w)
        out.append((vs, w, eps, trace, envy))
    return out


@pytest.fixture(scope="session")
def seeded_corpus():
    """100 random positive-value instances (criteria 7, 8); weights sum to 1."""
    rng = np.random.default_rng(np.random.Philox(key=701))
    out = []
    for k in range(100):
        n = (2, 3, 4)[k % 3]
        t = 10_000 if k < 3 else int(round(10 ** rng.uniform(math.log10(150), math.log10(3000))))
        m = 1.0 - rng.random((t, n))  # values in (0, 1]
        out.append((ValueSequence(m), AgentWeights(np.full(n, 1.0 / n))))
    return out


_IID_TS = (1_000, 10_000, 100_000, 200_000)
_T_FULL = 200_000
_N_SEEDS = 10


@pytest.fixture(scope="session")
def iid_support():
    rng = np.random.default_rng(np.random.Philox(key=301))
    return 0.05 + 0.95 * rng.random((8, 4))


@pytest.fixture(scope="session")
def iid_results(iid_support):
    """Criterion 3 runs: squared distance to the underlying optimum per
    horizon, plus relative regret against the full-horizon benchmark."""
    dist = FiniteDistribution.uniform(iid_support)
    w = AgentWeights.equal(4)
    underlying = solve_underlying(dist.support, dist.probs, w, 1e-10)
    spec = InputModelSpec(IID(dist), t=_T_FULL, seed=31)
    sq_err = np.zeros(len(_IID_TS))
    max_rel, mean_rel = [], []
    for seed in range(_N_SEEDS):
        vs = gen(spec, repetition=seed)
        trace = run(vs, w, Unconstrained(), checkpoints=_IID_TS)
        for j, tau in enumerate(_IID_TS):
            ubar = trace.checkpoint_utilities[j] / tau
            sq_err[j] += float(((ubar - underlying.utilities) ** 2).sum()) / _N_SEEDS
        [full] = hindsight_prefix(vs, w, [_T_FULL], 1e-7)
        rel = np.maximum(full.avg_utilities - trace.final_avg_utilities, 0.0) / full.avg_utilities
        max_rel.append(float(rel.max()))
        mean_rel.append(float(rel.mean()))
    return {
        "sq_err": sq_err,
        "max_rel": float(np.mean(max_rel)),
        "mean_rel": float(np.mean(mean_rel)),
    }


# ------------------------------------------------------------------ criteria


def test_criterion_01_hand_trace():
    vs = ValueSequence(np.ones((3, 2)))
    w = AgentWeights.equal(2)
    run(vs, w, Unconstrained())  # warm the code paths
    elapsed = math.inf
    for _ in range(5):  # best of five keeps scheduler noise out
        t0 = time.perf_counter()
        trace = run(vs, w, Unconstrained())
        elapsed = min(elapsed, time.perf_counter() - t0)
    ok = (
        trace.winners.tolist() == [0, 1, 0]
        and trace.final_utilities.tolist() == [2.0, 1.0]
        and elapsed < 1e-3
    )
    _criterion(1, ok, "three-round hand trace: winners (1,2,1), U=(2,1)",
               f"{elapsed * 1e6:.0f} us")


def test_criterion_02_solver_certification():
    rng = np.random.default_rng(np.random.Philox(key=201))
    worst_gap_ratio = 0.0
    violations = []
    for _ in range(20):
        n = int(rng.integers(2, 5))
        t = int(rng.integers(2, 7))
        vs = ValueSequence(rng.random((t, n)))
        if (vs.matrix.max(axis=0) == 0).any():
            vs = ValueSequence(vs.matrix + 1e-3)
        w = AgentWeights(rng.uniform(0.5, 2.0, n))
        eq = solve_eg(vs, w, 1e-9)
        worst_gap_ratio = max(worst_gap_ratio, eq.gap / w.total)
        if not (0.0 <= eq.gap <= 1e-9 * w.total):
            violations.append(f"gap {eq.gap:.2e}")
        report = check_equilibrium(eq, vs, w, 1e-6)
        if not report.ok:
            violations.append(str(report.failures))

    # exhaustive two-agent lattice corpus against the grid-search oracle
    vals = (0.0, 0.5, 1.0)
    w2 = AgentWeights.equal(2)
    seen = set()
    checked = 0
    worst_err = 0.0
    for t in (1, 2, 3):
        for combo in itertools.product(itertools.product(vals, repeat=2), repeat=t):
            m = np.array(combo)
            if (m.max(axis=0) == 0).any():
                continue  # all-zero agents are rejected at validation
            key = tuple(sorted(map(tuple, combo)))
            if key in seen:
                continue  # utilities are invariant to item order
            seen.add(key)
            eq = solve_eg(ValueSequence(m), w2, 1e-7)
            grid = eg_grid_oracle(m, w2.array)
            worst_err = max(worst_err, float(np.abs(eq.utilities - grid).max()))
            checked += 1
    ok = worst_err <= 1e-3 and not violations
    _criterion(
        2, ok,
        "certified gaps <= 1e-9*||B||_1, all equilibrium checks, grid-oracle match",
        f"20 random + {checked} lattice instances, worst gap ratio {worst_gap_ratio:.1e}, "
        f"worst oracle error {worst_err:.2e}"
        + (f", violations: {violations[:2]}" if violations else ""),
    )


def test_criterion_03_iid_convergence_trend(iid_results):
    sq = iid_results["sq_err"]
    decreasing = all(sq[j + 1] < sq[j] for j in range(len(sq) - 1))
    ok = decreasing and iid_results["max_rel"] <= 0.02
    _criterion(
        3, ok,
        "iid mean-square error strictly decreasing; max relative regret <= 2%",
        f"errors {[f'{v:.2e}' for v in sq]}, max rel regret {iid_results['max_rel']:.4%}",
    )


def test_criterion_04_envy_worst_case():
    res = adv_envy_worstcase(extremity=0.1, growth=1.001, base_length=100_000)
    limit = 1 + 2 * math.log(10)
    w = AgentWeights.equal(2)
    trace = run(res.values, w, Unconstrained())
    envy = multiplicative_envy(res.values, trace, w)[1]
    pred_ok = abs(res.predicted_envy - limit) <= 0.01 * limit
    realized_ok = abs(envy - res.predicted_envy) <= 0.02 * res.predicted_envy
    tail = trace.winners[res.phase_lengths[0]:]
    boundary_flips = float((tail == 1).mean())
    ok = pred_ok and realized_ok and boundary_flips <= 1e-4
    _criterion(
        4, ok,
        "worst-case envy within 2% of realized-length prediction (itself within 1% of limit)",
        f"envy {envy:.4f}, predicted {res.predicted_envy:.4f}, limit {limit:.4f}, "
        f"boundary flips {boundary_flips:.1e}",
    )


def test_criterion_05_envy_upper_bound(extreme_corpus):
    worst_slack = math.inf
    for vs, w, eps, trace, envy in extreme_corpus:
        u = trace.final_utilities
        bound = 1 + 2 * math.log(1 / eps) + (eps + eps**-3) / u + 1 / (eps**2 * u**2)
        worst_slack = min(worst_slack, float((bound - envy).min()))
    _criterion(
        5, worst_slack >= 0.0,
        "multiplicative envy within the explicit non-extremity bound on 200 instances",
        f"smallest slack {worst_slack:.3f}",
    )


def test_criterion_06_utility_ratio_upper_bound(extreme_corpus):
    worst_slack = math.inf
    for vs, w, eps, trace, envy in extreme_corpus:
        n = vs.n
        r = utility_ratio(vs, trace.final_utilities, w)
        bound = float(np.max(1 + (n - 1) * envy))  # equal weights
        worst_slack = min(worst_slack, bound - r)
    _criterion(
        6, worst_slack >= -1e-9,
        "utility ratio within the envy-derived bound on the same corpus",
        f"smallest slack {worst_slack:.3f}",
    )


def test_criterion_07_seeded_bound(seeded_corpus):
    worst_slack = math.inf
    for xi in (0.1, 1.0):
        for vs, w in seeded_corpus:
            trace = run(vs, w, Seeded(xi))
            r = seeded_utility_ratio(vs, trace.final_utilities, w, xi)
            vmax = float(vs.matrix.max())
            bound = 3 + 4 * vmax / xi + 2 * math.log(1 + vmax / xi) + 2 * math.log(vs.t)
            worst_slack = min(worst_slack, bound - r)
    _criterion(
        7, worst_slack >= 0.0,
        "seeded utility ratio within its logarithmic bound for seeds 0.1 and 1",
        f"smallest slack {worst_slack:.3f}",
    )


def test_criterion_08_setaside_bound(seeded_corpus):
    worst_slack = math.inf
    for vs, w in seeded_corpus:
        n = vs.n
        trace = run(vs, w, SetAside())
        eq = solve_eg(vs, w, 1e-6)
        cr = competitive_ratio(trace.final_utilities, eq.utilities, w)
        vmax = float(vs.matrix.max())
        wmin = float(vs.monopolistic_utilities().min())
        bound = (
            6
            + 16 * n * vmax / wmin
            + 4 * math.log(1 + 2 * n * vmax / wmin)
            + 4 * math.log(vs.t)
        )
        worst_slack = min(worst_slack, bound - cr)
    _criterion(
        8, worst_slack >= 0.0,
        "set-aside competitive ratio within its displayed bound (exact monopoly utilities)",
        f"smallest slack {worst_slack:.3f}",
    )


def test_criterion_09_cr_killer_certified():
    res = adv_cr_killer(3, [100, 10_000, 1_000_000], Unconstrained())
    expected = (math.factorial(3) * (100 / 100) * (9900 / 10_000) * (990_000 / 1_000_000)) ** (1 / 3)
    w = AgentWeights.equal(3)
    eq = solve_eg(res.values, w, 1e-9)
    measured = competitive_ratio(res.policy_utilities, eq.utilities, w)
    ok = (
        abs(res.bound - expected) <= 1e-12
        and res.witness_utilities == (100.0, 9900.0, 990_000.0)
        and measured >= res.bound
    )
    _criterion(
        9, ok,
        "adaptive kill construction certifies CR lower bound; measured CR meets it",
        f"bound {res.bound:.4f}, measured {measured:.4f}",
    )


def test_criterion_10_constrained_failure_contrast():
    t = 1_000
    vs = adv_constrained_failure(upper_bound_2=2.0, value_cap=1.0, t=t)
    w = AgentWeights.equal(2)
    projected = run(vs, w, Constrained(lower=(0.0, 0.0), upper=(4.0, 2.0)))
    unconstrained = run(vs, w, Unconstrained())
    gap = abs(unconstrained.final_utilities[0] - unconstrained.final_utilities[1])
    ok = projected.final_utilities[1] == 0.0 and gap <= float(vs.matrix.max())
    _criterion(
        10, ok,
        "interval projection starves agent 2 exactly; plain pacing stays balanced",
        f"projected U2 {projected.final_utilities[1]}, |U1-U2| {gap:.3f}",
    )


def test_criterion_11_recursive_structure():
    rng = np.random.default_rng(np.random.Philox(key=1101))
    checked = 0
    mismatches = 0
    while checked < 50:
        n = int(rng.integers(2, 6))
        t = int(rng.integers(10, 201))
        m = rng.random((t, n))
        m[rng.random((t, n)) < 0.3] = 0.0
        m[0] = rng.uniform(0.1, 1.0, n)
        vs = ValueSequence(m)
        w = AgentWeights(rng.uniform(0.5, 2.0, n))
        trace = run(vs, w, Unconstrained())
        size = int(rng.integers(1, n + 1))
        subset = sorted(rng.choice(n, size=size, replace=False).tolist())
        if not np.isin(trace.winners, subset).any():
            continue  # nothing won: the restriction would hold no items
        sub = restrict_instance(vs, trace, subset)
        sub_trace = run(sub, AgentWeights(w.array[subset]), Unconstrained())
        if not np.array_equal(sub_trace.final_utilities, trace.final_utilities[subset]):
            mismatches += 1
        checked += 1
    _criterion(11, mismatches == 0,
               "restriction reproduces kept agents' utilities bit-exactly",
               f"{checked} instances, {mismatches} mismatches")


def test_criterion_12_periodic_sanity(iid_results, iid_support):
    # eight sliding-window pools over the same eight support vectors:
    # per-position marginals oscillate with period 8 while the
    # time-averaged distribution (and so the underlying market) matches
    # the iid baseline, making the regret comparison like for like
    pools = tuple(iid_support[np.arange(j, j + 4) % 8] for j in range(8))
    spec = InputModelSpec(Periodic(pools), t=_T_FULL, seed=121)
    w = AgentWeights.equal(4)
    cps = parse_checkpoints("pow2", _T_FULL)
    mean_curves = []
    final_means = []
    for seed in range(_N_SEEDS):
        vs = gen(spec, repetition=seed)
        prefixes = hindsight_prefix(vs, w, cps, 1e-7)
        trace = run(vs, w, Unconstrained(), checkpoints=cps)
        points = relative_regret_trajectory(trace, prefixes)
        mean_curves.append([p.mean_value for p in points])
        final_means.append(points[-1].mean_value)
    curve = np.nanmean(np.array(mean_curves), axis=0)
    taus = np.array(cps)
    first_decade = curve[taus < 10].mean()
    last_decade = curve[taus > _T_FULL / 10].mean()
    periodic_final = float(np.mean(final_means))
    iid_final = iid_results["mean_rel"]
    ok = periodic_final <= 3 * iid_final and last_decade < first_decade
    _criterion(
        12, ok,
        "periodic regret comparable to iid (<= 3x) and decaying across decades",
        f"periodic {periodic_final:.4%} vs iid {iid_final:.4%}; "
        f"first decade {first_decade:.3f}, last {last_decade:.5f}",
    )


def test_criterion_13_utility_ratio_enumeration():
    rng = np.random.default_rng(np.random.Philox(key=1301))
    shapes = [(2, t) for t in range(1, 13)] + [(4, t) for t in range(1, 7)] + [(8, 4), (16, 3)]
    worst = 0.0
    for n, t in shapes:
        assert n**t <= 4096
        m = 1.0 - rng.random((t, n))
        u = rng.uniform(0.2, 3.0, n)
        w = AgentWeights(rng.uniform(0.5, 2.0, n))
        closed = utility_ratio(ValueSequence(m), u, w)
        brute = utility_ratio_enum(m, u, w.array)
        worst = max(worst, abs(closed - brute) / max(1.0, abs(brute)))
    _criterion(
        13, worst <= 1e-12,
        "closed-form utility ratio equals exhaustive enumeration (n^t <= 4096)",
        f"{len(shapes)} shapes, worst relative diff {worst:.1e}",
    )
