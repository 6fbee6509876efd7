"""Independent oracles used by the test suite.

Each oracle derives expected values by a different route than the code
under test: exhaustive grid search / enumeration, closed-form one-item
splits, or direct objective evaluation.  They are deliberately slow and
simple.  The checks and measures that only the tests read live here
too: the equilibrium verifier, the primal and dual objectives, the
instance restriction and the expenditure deviation; and the pruned
loop's sort-based window bookkeeping, the reference for its counting.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import yaml

from fairpace.dynamics import RunTrace, Unconstrained
from fairpace.eg import MarketEquilibrium, _dual_value, _prices
from fairpace.model import AgentWeights, InstanceError, ValueSequence, record


def eg_grid_oracle(matrix: np.ndarray, weights: np.ndarray, grid: int = 1000) -> np.ndarray:
    """Two-agent welfare maximum over per-item splits on a 1/grid lattice.

    Exhaustive over all ``(grid+1)^t`` split vectors.  For t <= 2 the
    enumeration is materialized directly; for t = 3 it runs as an exact
    dynamic program over the reachable utility lattice (requires the
    values to be integer multiples of a common quantum), pruned to the
    Pareto frontier — the objective is increasing in both utilities, so
    the frontier maximum equals the full-grid maximum.
    """
    m = np.asarray(matrix, dtype=np.float64)
    t, n = m.shape
    assert n == 2, "grid oracle is two-agent"
    b1, b2 = float(weights[0]), float(weights[1])

    def objective(u1, u2):
        with np.errstate(divide="ignore"):
            return b1 * np.log(u1) + b2 * np.log(u2)

    if t <= 2:
        a = np.arange(grid + 1) / grid
        if t == 1:
            u1 = a * m[0, 0]
            u2 = (1 - a) * m[0, 1]
            vals = objective(u1, u2)
            k = int(np.nanargmax(vals))
            return np.array([u1[k], u2[k]])
        a1 = a[:, None]
        a2 = a[None, :]
        u1 = a1 * m[0, 0] + a2 * m[1, 0]
        u2 = (1 - a1) * m[0, 1] + (1 - a2) * m[1, 1]
        vals = objective(u1, u2)
        k = int(np.nanargmax(vals))
        i, j = divmod(k, grid + 1)
        return np.array([u1[i, j], u2[i, j]])

    # t == 3: integer-lattice dynamic program
    quantum = None
    for q in (1.0, 0.5, 0.25, 0.125, 0.1, 0.05, 0.01):
        scaled = m / q
        if np.allclose(scaled, np.round(scaled), atol=1e-12):
            quantum = q
            break
    assert quantum is not None, "values are not on a supported lattice"
    V = np.round(m / quantum).astype(np.int64)  # (t, 2) integer units
    max_u1 = int(grid * V[:, 0].sum())
    NEG = -1
    u2max = np.full(max_u1 + 1, NEG, dtype=np.int64)
    u2max[0] = 0
    for tau in range(t):
        v1, v2 = int(V[tau, 0]), int(V[tau, 1])
        new = np.full_like(u2max, NEG)
        reachable = np.nonzero(u2max >= 0)[0]
        base_u2 = u2max[reachable]
        for a in range(grid + 1):
            g1 = a * v1
            g2 = (grid - a) * v2
            idx = reachable + g1
            cur = new[idx]
            upd = base_u2 + g2
            new[idx] = np.where(upd > cur, upd, cur)
        u2max = new
    unit = quantum / grid
    reachable = np.nonzero(u2max >= 0)[0]
    u1 = reachable * unit
    u2 = u2max[reachable] * unit
    vals = objective(u1, u2)
    k = int(np.nanargmax(vals))
    return np.array([u1[k], u2[k]])


def eg_split_oracle(matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Exact two-agent welfare maximum by ownership-pattern enumeration.

    For two agents an optimal allocation exists with at most one
    fractionally split item: enumerate every assignment of items to the
    agents and every choice of split item, solving the one-dimensional
    split fraction in closed form.
    """
    m = np.asarray(matrix, dtype=np.float64)
    t, n = m.shape
    assert n == 2
    b1, b2 = float(weights[0]), float(weights[1])
    best = (-math.inf, None)
    for owner in itertools.product((0, 1), repeat=t):
        c1 = sum(m[i, 0] for i in range(t) if owner[i] == 0)
        c2 = sum(m[i, 1] for i in range(t) if owner[i] == 1)
        for split in (None, *range(t)):
            if split is None:
                u1, u2 = c1, c2
            else:
                v1, v2 = m[split, 0], m[split, 1]
                base1 = c1 - (v1 if owner[split] == 0 else 0.0)
                base2 = c2 - (v2 if owner[split] == 1 else 0.0)
                # maximize b1 log(base1 + f v1) + b2 log(base2 + (1-f) v2)
                cands = [0.0, 1.0]
                if v1 > 0 and v2 > 0:
                    f = (b1 * (base2 + v2) * v1 - b2 * base1 * v2) / ((b1 + b2) * v1 * v2)
                    if 0.0 < f < 1.0:
                        cands.append(f)
                u1 = u2 = None
                sub_best = -math.inf
                for f in cands:
                    x1 = base1 + f * v1
                    x2 = base2 + (1 - f) * v2
                    val = (
                        (b1 * math.log(x1) if x1 > 0 else -math.inf)
                        + (b2 * math.log(x2) if x2 > 0 else -math.inf)
                    )
                    if u1 is None or val > sub_best:
                        sub_best, u1, u2 = val, x1, x2
            val = (
                (b1 * math.log(u1) if u1 > 0 else -math.inf)
                + (b2 * math.log(u2) if u2 > 0 else -math.inf)
            )
            if val > best[0]:
                best = (val, (u1, u2))
    return np.array(best[1])


def eg_threshold_oracle(matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Exact two-agent equilibrium utilities from a threshold on v1/v2.

    With items ordered by v1/v2, highest first, agent 1 holds a prefix of
    the order and agent 2 the rest; at most one group of items with one
    ratio is split.  Walk the groups, giving each to agent 1 while its
    weighted marginal gain is at least agent 2's; the first group where
    it is not is split at the fraction that solves the first-order
    condition of ``B1 log u1 + B2 log u2`` in closed form.  Linear in the
    number of items, so it reaches sizes enumeration cannot.
    """
    m = np.asarray(matrix, dtype=np.float64)
    m = m[(m > 0).any(axis=1)]
    b1, b2 = float(weights[0]), float(weights[1])
    with np.errstate(divide="ignore"):
        ratio = m[:, 0] / m[:, 1]
    keys, group = np.unique(-ratio, return_inverse=True)
    a1 = np.bincount(group, weights=m[:, 0], minlength=keys.size)
    a2 = np.bincount(group, weights=m[:, 1], minlength=keys.size)
    u1, rest2 = 0.0, float(a2.sum())
    for k in range(keys.size):
        rest2 -= a2[k]  # agent 2's value for the groups after k
        if rest2 > 0 and b1 * a1[k] / (u1 + a1[k]) >= b2 * a2[k] / rest2:
            u1 += a1[k]
            continue
        f = (b1 * a1[k] * (rest2 + a2[k]) - b2 * a2[k] * u1) / (a1[k] * a2[k] * (b1 + b2)) if a1[k] > 0 else 0.0
        f = min(max(f, 0.0), 1.0)
        return np.array([u1 + f * a1[k], rest2 + (1.0 - f) * a2[k]])
    return np.array([u1, 0.0])


def nnls_enum(a: np.ndarray, d: np.ndarray) -> float:
    """Least residual ``|a f - d|`` over ``f >= 0``, by enumerating supports.

    Some optimum is the unconstrained least-squares solution on a set of
    columns that comes out nonnegative there, so the least residual over
    every such set is the optimum.  Exponential in the column count.
    """
    k = a.shape[1]
    best = float(np.linalg.norm(d))
    for size in range(1, k + 1):
        for cols in itertools.combinations(range(k), size):
            f = np.linalg.lstsq(a[:, cols], d, rcond=None)[0]
            if np.all(f >= 0):
                best = min(best, float(np.linalg.norm(a[:, cols] @ f - d)))
    return best


def cross_utilities_by_column_sums(values, trace) -> np.ndarray:
    """``metrics.cross_utilities`` of a run trace as it was first written:
    each winner's items summed by ``ValueSequence.column_sums`` of a mask."""
    n = values.n
    kernel = trace.variant.kernel(trace.weights)
    won = np.zeros((n, n))
    for k in range(n):
        mask = trace.winners == k
        if mask.any():
            won[:, k] = values.column_sums(mask)
    return (np.outer(values.monopolistic_utilities(), kernel.base) + kernel.top * won) / values.t


def utility_ratio_enum(matrix: np.ndarray, utilities: np.ndarray, weights: np.ndarray) -> float:
    """Best weighted utility-ratio sum over every integral allocation."""
    m = np.asarray(matrix, dtype=np.float64)
    t, n = m.shape
    b = np.asarray(weights, dtype=np.float64)
    total = b.sum()
    best = -math.inf
    for assign in itertools.product(range(n), repeat=t):
        alt = np.zeros(n)
        for tau, i in enumerate(assign):
            alt[i] += m[tau, i]
        best = max(best, float((b / total * alt / utilities).sum()))
    return best


def greedy_reference_winners(matrix: np.ndarray, weights: np.ndarray) -> List[int]:
    """Winner sequence of the exact one-step log-welfare greedy rule.

    The winner maximizes the objective increment
    ``B_i * [log(U_i + v_i) - log U_i]``, with an infinite increment when
    ``U_i = 0 < v_i`` and zero when ``v_i = 0``; ties go to the smallest
    index.  The increment is evaluated as ``log1p(v_i / U_i)``, which rounds
    once: the difference of two logarithms rounds twice, so equal
    increments such as ``log 6 - log 3`` and ``log 0.5 - log 0.25`` compared
    unequal, and a value far below ``U_i`` counted as zero.  Where
    ``v_i / U_i`` overflows, the increment is ``log v_i - log U_i``: large,
    but finite.
    """
    m = np.asarray(matrix, dtype=np.float64)
    t, n = m.shape
    b = [float(x) for x in weights]
    u = [0.0] * n
    winners = []
    for tau in range(t):
        best_i, best_val = 0, -math.inf
        for i in range(n):
            v = float(m[tau, i])
            if v <= 0:
                inc = 0.0
            elif u[i] == 0:
                inc = math.inf
            elif math.isinf(v / u[i]):
                inc = b[i] * (math.log(v) - math.log(u[i]))
            else:
                inc = b[i] * math.log1p(v / u[i])
            if inc > best_val:
                best_val, best_i = inc, i
        winners.append(best_i)
        u[best_i] += float(m[tau, best_i])
    return winners


def pace_reference_trace(
    matrix: np.ndarray,
    weights: np.ndarray,
    seed: float = 0.0,
    interval: Optional[Tuple[Sequence[float], Sequence[float]]] = None,
) -> Tuple[List[int], np.ndarray]:
    """Plain transcription of the pacing dynamics: plain, seeded and projected.

    Kept separate from the package implementation: winners maximize
    multiplier times value with smallest-index ties, and the multiplier
    is weight over the time-averaged utility plus ``seed``.  Without an
    ``interval`` it has an explicit infinite state for zero averages, and
    with no seed every agent starts in it (unserved), which is what makes
    the instance-restriction recursion exact; a positive seed starts from
    unit multipliers.  With an ``interval`` (lower and upper bounds per
    agent) the multipliers start at one, then each is projected to its
    interval, a zero average going to the upper end.
    """
    m = np.asarray(matrix, dtype=np.float64)
    t, n = m.shape
    b = np.asarray(weights, dtype=np.float64)
    u = np.zeros(n)
    beta = np.full(n, math.inf if seed == 0.0 and interval is None else 1.0)
    winners: List[int] = []
    for tau in range(1, t + 1):
        bids = []
        for i in range(n):
            v = m[tau - 1, i]
            if math.isinf(beta[i]):
                bids.append(math.inf if v > 0 else 0.0)
            else:
                bids.append(beta[i] * v)
        w = 0
        for i in range(1, n):
            if bids[i] > bids[w]:
                w = i
        winners.append(w)
        u[w] += m[tau - 1, w]
        for i in range(n):
            avg = (u[i] + seed) / tau
            if interval is None:
                beta[i] = b[i] / avg if avg > 0 else math.inf
            else:
                lower, upper = interval[0][i], interval[1][i]
                beta[i] = min(max(b[i] / avg, lower), upper) if avg > 0 else upper
    return winners, u


def window_arrivals_by_sorting(ids: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Where the distinct points of a window arrive, found by a stable sort
    of its point ids (the pruned loop's bookkeeping before it counted): the
    row of each point's first and of its last arrival, points in ascending
    id order, and each row's place among the points; None when no point
    repeats."""
    order = ids.argsort(kind="stable")
    s = ids[order]
    starts = np.flatnonzero(np.append(True, s[1:] != s[:-1]))  # each point's first place in id order
    if len(starts) == len(ids):
        return None
    return order[starts], order[np.append(starts[1:], len(ids)) - 1], s[starts].searchsorted(ids)


def primal_objective(utilities: np.ndarray, weights: AgentWeights) -> float:
    """Weighted log welfare; -inf if some agent has zero utility."""
    u = np.asarray(utilities, dtype=np.float64)
    if np.any(u <= 0):
        return -math.inf
    return float(np.dot(weights.array, np.log(u)))


def dual_objective(beta, values: ValueSequence, weights: AgentWeights) -> float:
    """Dual program value at ``beta`` (constants included).

    With the ``sum_i (B_i log B_i - B_i)`` constant the value
    upper-bounds the primal log welfare for every positive ``beta``.
    """
    arr = np.asarray(beta, dtype=np.float64).reshape(-1)
    if arr.size != values.n:
        raise InstanceError("beta length does not match agent count")
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise InstanceError("beta entries must be positive and finite")
    return _dual_value(arr, values.per_round(_prices(values.points, arr)), weights)


@record
class EquilibriumReport:
    """Named verification checks for a solved equilibrium."""

    envy_free: bool
    proportional: bool
    market_clearing: bool
    budget_exhausted: bool
    multiplier_consistent: bool
    failures: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return (
            self.envy_free
            and self.proportional
            and self.market_clearing
            and self.budget_exhausted
            and self.multiplier_consistent
        )


def check_equilibrium(
    eq: MarketEquilibrium,
    values: ValueSequence,
    weights: AgentWeights,
    tol: float = 1e-6,
) -> EquilibriumReport:
    """Verify the competitive-equilibrium properties of a solution.

    Checks weight-adjusted envy-freeness, proportionality against the
    weight share of the whole sequence, market clearing wherever the
    price is positive, budget exhaustion, and multiplier-utility
    consistency (beta_i u_i = B_i), all at absolute tolerance ``tol``.
    """
    if eq.allocation is None:
        raise InstanceError("equilibrium check needs the allocation matrix")
    failures: List[str] = []
    m, x, b = values.matrix, eq.allocation, weights.array
    n = values.n
    bundle_value = m.T @ x  # bundle_value[i, j] = <v_i, x_j>
    own = np.diag(bundle_value)

    envy_free = True
    for i in range(n):
        best = (bundle_value[i] / b).max()
        if own[i] / b[i] < best - tol:
            envy_free = False
            failures.append(f"agent {i + 1} envies another bundle")
            break

    share = b / weights.total
    fair_share = share * m.sum(axis=0)
    proportional = bool(np.all(own >= fair_share - tol))
    if not proportional:
        failures.append("proportionality violated")

    row_sums = x.sum(axis=1)
    priced = eq.prices > 0
    market_clearing = bool(
        np.all(np.abs(row_sums[priced] - 1.0) <= tol) and np.all(row_sums <= 1.0 + tol)
    )
    if not market_clearing:
        failures.append("market clearing violated")

    spend = x.T @ eq.prices
    budget_exhausted = bool(np.all(np.abs(spend - b) <= tol))
    if not budget_exhausted:
        failures.append("budget exhaustion violated")

    multiplier_consistent = bool(np.all(np.abs(eq.beta * eq.utilities - b) <= tol))
    if not multiplier_consistent:
        failures.append("beta * u != B")

    return EquilibriumReport(
        envy_free=envy_free,
        proportional=proportional,
        market_clearing=market_clearing,
        budget_exhausted=budget_exhausted,
        multiplier_consistent=multiplier_consistent,
        failures=tuple(failures),
    )


def restrict_instance(
    values: ValueSequence, trace: RunTrace, subset: Sequence[int]
) -> ValueSequence:
    """Drop agents outside ``subset`` and the items they won.

    ``trace`` must come from the unconstrained pacing dynamic on
    ``values``; re-running on the restriction reproduces the kept
    agents' utilities exactly.
    """
    if not isinstance(trace.variant, Unconstrained):
        raise InstanceError("instance restriction is defined for the unconstrained dynamic")
    agents = sorted({int(i) for i in subset})
    if not agents:
        raise InstanceError("agent subset must be nonempty")
    if agents[0] < 0 or agents[-1] >= values.n:
        raise InstanceError("agent subset out of range")
    keep_rows = np.isin(trace.winners, agents)
    if not keep_rows.any():
        raise InstanceError("restriction removed every item")
    names = tuple(values.agents[i] for i in agents)
    if values.index is None:
        return ValueSequence(values.points[keep_rows][:, agents], names)
    return ValueSequence(values.points[:, agents], names, values.index[keep_rows])


@record
class ExpenditureDeviation:
    """Squared distance of post-warm-up average spend from the weights.

    ``flagged`` marks traces where an infinite (unserved-state) spend
    falls after the warm-up window; the finite-part value is still
    reported for inspection.
    """

    value: float
    flagged: bool
    infinite_rounds_after_warmup: Tuple[int, ...] = ()


def expenditure_deviation(trace: RunTrace, weights: AgentWeights, warmup: int) -> ExpenditureDeviation:
    """``|| (1/t) sum_{tau > warmup} spend^tau - B ||^2`` for pacing runs.

    ``warmup`` must be 0 or one of the trace's checkpoints so the
    cumulative spend at the cut is known exactly.
    """
    if not trace.variant.kernel(trace.weights).pays:
        raise InstanceError("expenditure deviation is defined for pacing variants")
    if not (0 <= warmup < trace.t):
        raise InstanceError("warmup must lie in [0, t)")
    if warmup == 0:
        spend_at_warmup = np.zeros(trace.n)
    elif warmup in trace.checkpoints:
        spend_at_warmup = trace.checkpoint_spend[trace.checkpoints.index(warmup)]
    else:
        raise InstanceError("warmup must be 0 or one of the trace checkpoints")
    late = [r for r in trace.infinite_spend_rounds if r > warmup]
    avg = (trace.final_spend - spend_at_warmup) / trace.t
    value = float(((avg - weights.array) ** 2).sum())
    return ExpenditureDeviation(value=value, flagged=bool(late), infinite_rounds_after_warmup=tuple(late))


def _as_pmf(support, probs) -> Dict[tuple, float]:
    """A distribution as a dict from value tuples to probabilities; repeated
    points add up, and ``-0.0`` and ``0.0`` are one key."""
    pmf: Dict[tuple, float] = {}
    for vec, pr in zip(support, probs):
        key = tuple(float(x) for x in vec)
        pmf[key] = pmf.get(key, 0.0) + float(pr)
    return pmf


def _tv(p: Dict[tuple, float], q: Dict[tuple, float]) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def tv_delta_oracle(segments: Sequence[Tuple[int, object]], t: int) -> float:
    """Average TV distance of ``(rounds, distribution)`` segments from their
    round-weighted mixture, over pmfs keyed by value tuples."""
    parts = [(rounds, _as_pmf(d.support, d.probs)) for rounds, d in segments]
    mixture: Dict[tuple, float] = {}
    for rounds, pmf in parts:
        wgt = rounds / t
        for k, v in pmf.items():
            mixture[k] = mixture.get(k, 0.0) + wgt * v
    return sum(rounds * _tv(pmf, mixture) for rounds, pmf in parts) / t


class YamlLoader(yaml.SafeLoader):
    """PyYAML's safe loader, which reads YAML 1.1, where ``1e-9`` is a
    string.  YAML 1.2's core-schema float pattern is tried after PyYAML's
    own resolvers, so integers, dotted floats and booleans resolve as
    before, and only the forms 1.1 leaves as strings (``1e-9``, ``1.0e5``,
    ``-.5``) become floats.  It read fairpace's configs before
    ``fairpace.yamlread``, and is that reader's reference."""


YamlLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float", re.compile(r"^[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)([eE][-+]?[0-9]+)?$"), list("-+.0123456789")
)

# YAML 1.2.2, section 10.3.2: how the core schema resolves a plain scalar
_CORE_SCHEMA = [
    ("null|Null|NULL|~|", lambda s: None),
    ("true|True|TRUE", lambda s: True),
    ("false|False|FALSE", lambda s: False),
    ("[-+]?[0-9]+", int),
    ("0o[0-7]+", lambda s: int(s[2:], 8)),
    ("0x[0-9a-fA-F]+", lambda s: int(s[2:], 16)),
    (r"[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)([eE][-+]?[0-9]+)?", float),
    (r"[-+]?\.(inf|Inf|INF)", lambda s: -math.inf if s[0] == "-" else math.inf),
    (r"\.nan|\.NaN|\.NAN", lambda s: math.nan),
]


def same_yaml(a, b) -> bool:
    """``a == b`` with equal types all the way down and NaN equal to NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_yaml, a, b))
    if isinstance(a, dict):
        return len(a) == len(b) and all(same_yaml(x, y) and same_yaml(a[x], b[y]) for x, y in zip(a, b))
    return a == b


def plain_scalar_differs(text: str) -> bool:
    """Whether :class:`YamlLoader` reads the plain scalar ``text`` otherwise
    than YAML 1.2's core schema does (a value 1.1 cannot construct counts)."""
    core = next((read(text) for pattern, read in _CORE_SCHEMA if re.fullmatch(pattern, text)), text)
    loader = YamlLoader("")
    try:
        node = yaml.ScalarNode(loader.resolve(yaml.ScalarNode, text, (True, False)), text)
        return not same_yaml(loader.construct_object(node), core)
    except (yaml.YAMLError, ValueError):
        return True
    finally:
        loader.dispose()


class _DuplicateKey(Exception):
    pass


class _StrictLoader(YamlLoader):
    def construct_mapping(self, node, deep=False):
        keys = [self.construct_object(key, deep=deep) for key, _ in node.value]
        if any(key in keys[:i] for i, key in enumerate(keys)):
            raise _DuplicateKey
        return super().construct_mapping(node, deep)


def yaml_refusal(text: str) -> Optional[str]:
    """Why ``fairpace.yamlread`` must refuse ``text``, a document that
    :class:`YamlLoader` reads: a line break other than ``\\n``, an anchor,
    alias, tag, block scalar, complex key, scalar that spans lines or
    document marker after the first, a plain
    scalar that YAML 1.1 and 1.2 read differently, or a mapping that gives a
    key twice; None when it must return what :class:`YamlLoader` returns."""
    if re.search("[\r\x85\u2028\u2029]", text):
        return "a line break other than \\n"
    markers = 0
    for token in yaml.scan(text, Loader=YamlLoader):
        if isinstance(token, (yaml.AnchorToken, yaml.AliasToken, yaml.TagToken)):
            return type(token).__name__
        if isinstance(token, yaml.KeyToken) and text[token.start_mark.index] == "?":
            return "complex key"
        markers += isinstance(token, (yaml.DocumentStartToken, yaml.DocumentEndToken))
        if markers > 1 or isinstance(token, yaml.DocumentEndToken):
            return "document marker"
        if isinstance(token, yaml.ScalarToken):
            if token.style in ("|", ">") or token.start_mark.line != token.end_mark.line:
                return "block or multi-line scalar"
            if token.plain and plain_scalar_differs(token.value):
                return f"plain scalar {token.value!r}"
    try:
        yaml.load(text, Loader=_StrictLoader)
    except _DuplicateKey:
        return "duplicate key"
    return None
