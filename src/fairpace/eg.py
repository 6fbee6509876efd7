"""Hindsight market-equilibrium benchmark.

Solves the weighted log-utility allocation program

    maximize  sum_i B_i log u_i   subject to  u_i <= <v_i, x_i>,
    sum_i x_i^tau <= 1 per item,

whose optimum is the competitive equilibrium of the linear Fisher market
with budgets B.  Every returned solution carries a certified duality gap,
evaluated against the dual program

    minimize  sum_tau max_i beta_i v_i^tau - sum_i B_i log beta_i
              + sum_i (B_i log B_i - B_i),

whose value upper-bounds the primal objective for any positive beta.

The solver works on that dual, which has one unknown per agent, in
``y = log beta``.  It smooths each item's price ``max_i beta_i v_i^tau``
into the l_q norm of ``(beta_i v_i^tau)_i``, which splits the item among
the agents in shares ``(beta_i v_i^tau / p_tau)^q``, and runs damped
Newton on the smoothed dual (an n-by-n system per step) while q grows
fourfold per stage.  After each stage the smoothed split is certified:
utilities from the split, ``beta = B / u``, and the dual value minus the
primal log welfare.  Smoothing alone cannot reach tight gaps where items
are tied between agents, so when that certificate fails the solver also
recovers an exact split of the tied items (``_tie_split``) and certifies
that.  The gap is always measured by the same unsmoothed certificate.
A solution's ``iterations`` counts evaluations of the smoothed dual: one
per Newton trial point, backtracking included, and one at the start of
each stage; ``_MAX_ITERS`` bounds that count.

Items with identical value vectors are merged internally (supplies add
up); the expanded allocation splits each duplicate identically, which
preserves utilities, prices, and the gap exactly.  The prefix benchmarks
merge once per sequence and read each prefix's supplies off the merge.
An instance in point form is merged, and priced, per point, so neither
the benchmark nor ``solve_eg`` gathers its matrix.

The value layer is ``model``, the only package module this one imports:
instances and underlying supports are checked there (``ValueSequence``,
``FiniteDistribution``), and identical rows are merged there
(``_compress``), so the benchmark does not depend on the generators or
the online dynamics.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .model import (AgentWeights, FiniteDistribution, InstanceError, ValueSequence, _compress,
                    _normalize_checkpoints, record)

__all__ = [
    "MarketEquilibrium",
    "UnderlyingMarket",
    "PrefixSolution",
    "ConvergenceError",
    "solve_eg",
    "solve_underlying",
    "check_tolerance",
    "hindsight_prefix",
]


# smoothed-dual evaluations per solve
_MAX_ITERS = 10_000
# the smoothing starts at q = 4 and grows fourfold per stage; past 1e12,
# q times the rounding of log(beta_i v_i^tau) is no longer small, so
# finer stages cannot help
_Q_START = 4.0
_Q_MAX = 1e12
# backtracking halvings before a Newton stage stops
_MAX_HALVINGS = 40
_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)


class ConvergenceError(RuntimeError):
    """No certificate within the step budget; carries the last gap and the count."""

    def __init__(self, message: str, gap: float, iterations: int):
        super().__init__(message)
        self.gap = gap
        self.iterations = iterations


@record
class MarketEquilibrium:
    """Benchmark solution with a certified optimality gap.

    ``utilities[i] = <v_i, x_i>``, ``beta = B / utilities``, and
    ``prices[tau] = max_i beta_i v_i^tau`` (zero for items nobody
    values).  ``gap`` is dual value minus primal value at this point,
    always nonnegative.
    """

    allocation: Optional[np.ndarray]
    utilities: np.ndarray
    beta: np.ndarray
    prices: np.ndarray
    gap: float
    iterations: int

    def to_json_dict(self) -> dict:
        """The solution's numbers; ``allocation`` only when it was kept."""
        d = {
            "utilities": [float(v) for v in self.utilities],
            "beta": [float(v) for v in self.beta],
            "prices": [float(v) for v in self.prices],
            "gap": float(self.gap),
            "iterations": int(self.iterations),
        }
        if self.allocation is not None:
            d["allocation"] = [[float(v) for v in row] for row in self.allocation]
        return d


@record
class UnderlyingMarket:
    """Equilibrium of the market whose item supplies are probabilities."""

    support: np.ndarray
    probs: np.ndarray
    utilities: np.ndarray
    beta: np.ndarray
    gap: float


def _prices(matrix: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """``max_i beta_i v_i`` for each row ``v`` of ``matrix``, the maximum
    taken column by column, without the ``t x n`` temporary of
    ``(matrix * beta).max(axis=1)``.  A maximum is exact, so a positive
    price is that reduction's bit for bit.  A zero price is ``+0.0``, as
    the row merge counts ``-0.0`` as ``0.0``; the sign the reduction gives
    a row of mixed zeros depends on its order."""
    prices = matrix[:, 0] * beta[0]
    for i in range(1, matrix.shape[1]):
        np.maximum(prices, matrix[:, i] * beta[i], out=prices)
    prices += 0.0
    return prices


def _dual_value(beta: np.ndarray, prices: np.ndarray, weights: AgentWeights) -> float:
    b = weights.array
    const = float(np.dot(b, np.log(b)) - b.sum())
    return float(prices.sum() - np.dot(b, np.log(beta)) + const)


def check_tolerance(tol: float) -> float:
    """``tol`` as a float; a solver tolerance must be positive and finite."""
    if not 0 < tol < math.inf:
        raise InstanceError(f"tolerance must be positive and finite, not {tol!r}")
    return float(tol)


def _smoothed(logv_t: np.ndarray, c: np.ndarray, b: np.ndarray, y: np.ndarray, q: float):
    """The l_q-smoothed dual at ``y = log beta``: (value, c * p, split).

    ``logv_t`` holds ``log v`` agent by agent (n by m), so the reductions
    over agents run along whole rows.  ``p[tau]`` is the l_q norm of
    ``(beta_i v_i^tau)_i``, taken in log space; the split ``s[i, tau] =
    (beta_i v_i^tau / p[tau])^q``, also n by m, sums to one over agents.
    """
    z = logv_t + y[:, None]  # becomes the split in place: one n-by-m array per call
    top = z.max(axis=0)
    z -= top
    z *= q
    np.exp(z, out=z)
    total = z.sum(axis=0)
    z /= total
    w = c * np.exp(top + np.log(total) / q)
    return float(w.sum() - b @ y), w, z


def _newton_stage(
    logv_t: np.ndarray, c: np.ndarray, b: np.ndarray, y: np.ndarray, q: float, stop: float, budget: int
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Damped Newton on the smoothed dual at one ``q``; returns (y, split, steps).

    Stops when the spend residual ``|sum_tau c p s - B|_1`` is at most
    ``stop``, when no step makes progress, or after ``budget`` steps;
    every evaluation of the smoothed dual is a step.
    """
    f, w, s = _smoothed(logv_t, c, b, y, q)
    g = s @ w - b
    steps = 1
    ridge = 1e-9 * b  # an agent whose split is all zero leaves h singular
    while steps < budget and np.abs(g).sum() > stop:
        h = (s * w) @ s.T * (1.0 - q)
        h.flat[:: b.size + 1] += q * (g + b) + ridge
        scale = 1.0 / np.sqrt(np.diag(h))
        d = -scale * np.linalg.solve(h * scale[:, None] * scale, scale * g)
        d /= max(1.0, np.abs(d).max())  # beta moves by at most a factor e
        slope = float(g @ d)
        if not slope < 0:
            break
        # near the optimum f no longer resolves progress: a step must
        # lower it by more than rounding, or leave it within rounding
        # and cut the residual by a tenth
        noise = 8 * _EPS * (w.sum() + abs(b @ y))
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            if steps >= budget:
                return y, s, steps
            y_t = y + t * d
            f_t, w_t, s_t = _smoothed(logv_t, c, b, y_t, q)
            g_t = s_t @ w_t - b
            steps += 1
            if f_t <= min(f + 1e-4 * t * slope, f - noise) or (
                f_t <= f + noise and np.abs(g_t).sum() <= 0.9 * np.abs(g).sum()
            ):
                break
            t *= 0.5
        else:
            break
        y, f, w, s, g = y_t, f_t, w_t, s_t, g_t
    return y, s, steps


def _solve_normal(ata: np.ndarray, atd: np.ndarray) -> np.ndarray:
    """``ata z = atd`` by LU; by least squares where rounding let in a dependent column."""
    try:
        z = np.linalg.solve(ata, atd)
        if np.all(np.isfinite(z)):
            return z
    except np.linalg.LinAlgError:
        pass
    return np.linalg.lstsq(ata, atd, rcond=None)[0]


def _nnls(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Lawson-Hanson nonnegative least squares: argmin ``|a f - d|`` over ``f >= 0``.

    The passive columns stay linearly independent in exact arithmetic, so
    each subproblem is solved on the normal equations.
    """
    k = a.shape[1]
    ata, atd = a.T @ a, a.T @ d
    f = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    tol = 10 * _EPS * max(a.shape) * np.abs(d).max()
    for _ in range(3 * k):
        w = atd - ata @ f
        if passive.all() or w[~passive].max() <= tol:
            break
        passive[np.argmax(np.where(passive, -np.inf, w))] = True
        for _ in range(k):  # each pass drops at least one passive column
            p = np.nonzero(passive)[0]
            z = np.zeros(k)
            z[p] = _solve_normal(ata[np.ix_(p, p)], atd[p])
            if z[p].min() > 0:
                f = z
                break
            neg = passive & (z <= 0)
            f += np.min(f[neg] / np.maximum(f[neg] - z[neg], _TINY)) * (z - f)
            passive &= f > tol
            if not passive.any():
                break
        else:
            break  # rounding stalled the step back; f is still feasible
    return f


def _tie_split(
    beta: np.ndarray, v: np.ndarray, c: np.ndarray, b: np.ndarray, ratio: np.ndarray, support: np.ndarray
) -> Optional[np.ndarray]:
    """An exact split of the items among the agents tied on them, or None.

    ``ratio[tau, i]`` is ``beta_i v_i^tau`` over the item's highest such
    value, and ``support`` marks the tied edges; an item with one tied
    edge goes whole to its agent.  Along a spanning forest of the
    support, tightest edges first, ``beta`` and the prices are propagated
    so that each forest edge is tied exactly, with one scale per
    component so that its prices add up to its budgets.  Spends then
    follow from the item clearing and budget equations: leaf by leaf on
    the forest, or by nonnegative least squares where exactly tied edges
    close cycles and the forest alone would spend a negative amount.
    Returns each item's fractions, or None when some agent has nothing
    to spend on.
    """
    m, n = v.shape
    owner = np.argmax(ratio, axis=1)
    shared = np.nonzero(support.sum(axis=1) > 1)[0]
    tied, agent = np.nonzero(support[shared])
    order = np.argsort(-ratio[shared[tied], agent], kind="stable")
    tied, agent = tied[order], agent[order]
    vs = v[shared]
    # nodes: agents 0..n-1 and shared items n..n+len(shared)-1
    nodes = n + shared.size
    root = list(range(nodes))

    def find(a):
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    adj: List[List[int]] = [[] for _ in range(nodes)]  # forest edge ids
    for e, (k, i) in enumerate(zip(tied.tolist(), agent.tolist())):
        ra, rb = find(i), find(n + k)
        if ra != rb:
            root[ra] = rb
            adj[i].append(e)
            adj[n + k].append(e)
    # each component in breadth-first order from its lowest agent
    comp = np.full(nodes, -1)
    up = [-1] * nodes  # the forest edge towards the component's root
    visit: List[int] = []
    for r in range(n):
        if comp[r] >= 0:
            continue
        comp[r] = r
        head = len(visit)
        visit.append(r)
        while head < len(visit):
            a = visit[head]
            head += 1
            for e in adj[a]:
                o = int(agent[e]) if a >= n else n + int(tied[e])
                if comp[o] < 0:
                    comp[o] = r
                    up[o] = e
                    visit.append(o)
    beta = beta.copy()
    price = np.empty(shared.size)
    sole = np.ones(m, dtype=bool)
    sole[shared] = False
    sole_owner = owner[sole]

    def propagate():
        for a in visit:
            e = up[a]
            if e >= 0:
                k, i = tied[e], agent[e]
                if a >= n:
                    price[k] = beta[i] * vs[k, i]
                else:
                    beta[i] = price[k] / vs[k, i]
        return c[sole] * beta[sole_owner] * v[sole, sole_owner]

    roots = np.nonzero(comp[:n] == np.arange(n))[0]
    sole_spend = propagate()
    total = np.bincount(comp[sole_owner], sole_spend, n) + np.bincount(comp[n:], c[shared] * price, n)
    if not np.all(total[roots] > 0):
        return None
    beta[roots] *= np.bincount(comp[:n], b, n)[roots] / total[roots]
    sole_spend = propagate()
    demand = np.concatenate([b - np.bincount(sole_owner, sole_spend, n), c[shared] * price])
    need = demand.copy()
    flow = np.zeros(tied.size)
    for a in reversed(visit):
        e = up[a]
        if e >= 0:
            flow[e] = need[a]
            need[int(agent[e]) if a >= n else n + int(tied[e])] -= need[a]
    in_forest = np.zeros(tied.size, dtype=bool)
    in_forest[[e for e in up if e >= 0]] = True
    # a tie off the forest is exact up to the rounding of its path
    exact = in_forest | (np.abs(beta[agent] * vs[tied, agent] - price[tied]) <= 64 * _EPS * price[tied])
    for r in np.nonzero(np.bincount(comp[agent[flow < 0]], minlength=n))[0]:
        edges = np.nonzero((comp[agent] == r) & exact)[0]
        if edges.size > np.count_nonzero(in_forest[edges]):
            at = np.nonzero(comp == r)[0]
            incidence = (at[:, None] == agent[edges]) | (at[:, None] == n + tied[edges])
            flow[edges] = _nnls(incidence.astype(np.float64), demand[at])
    x = np.zeros((m, n))
    x[sole, sole_owner] = 1.0
    x[shared[tied], agent] = np.maximum(flow, 0.0) / demand[n + tied]
    return x / np.maximum(x.sum(axis=1), 1.0)[:, None]


# overflow near the float64 limit shows as a NaN gap, refused below
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _solve_dual(
    matrix: np.ndarray,
    supplies: np.ndarray,
    weights: AgentWeights,
    tol_abs: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float, int]:
    """Solve the program on items scaled by their supplies.

    Damped Newton on the smoothed dual in ``y = log beta``, from ``beta =
    B / (each agent's total value)`` at ``q = 4``, with ``q`` four times
    larger at each stage.  After each stage the smoothed split is
    certified; when that fails, the exact tie split is certified too.
    Returns (allocation, utilities, beta, gap, steps); allocation rows
    are fractions of each (supply-scaled) item.
    """
    b = weights.array
    n = b.size
    active = matrix.max(axis=1) > 0
    v = matrix[active]
    c = supplies[active]
    if v.shape[0] == 0:
        raise InstanceError("no item has a positive value")
    scaled = v * c[:, None]
    agent_totals = scaled.sum(axis=0)
    if np.any(agent_totals <= 0):
        i = int(np.argmax(agent_totals <= 0))
        raise InstanceError(f"agent {i + 1} has all-zero values")

    def certify(x):
        u = (scaled * x).sum(axis=0)
        if np.any(u <= 0):
            return u, math.inf
        beta = b / u
        return u, max(_dual_value(beta, _prices(scaled, beta), weights) - float(b @ np.log(u)), 0.0)

    logv_t = np.ascontiguousarray(np.log(v).T)
    y = np.log(b / agent_totals)
    q = _Q_START
    steps = 0
    y_prev = None
    while True:
        stop = max(1e-3 / q * weights.total, 0.1 * tol_abs)
        # along the path y(q) ~ y* + a / q the next stage's optimum is near
        # y + (y - y_prev) / 4
        start = y if y_prev is None else y + 0.25 * (y - y_prev)
        y_prev = y
        y, s, k = _newton_stage(logv_t, c, b, start, q, stop, _MAX_ITERS - steps)
        x = s.T
        steps += k
        utilities, gap = certify(x)
        if not gap > tol_abs:  # a NaN gap ends the solve too
            break
        floor = 1.0 - 10.0 * math.log(n) / q
        if floor > 0:  # below a positive floor every valued edge would count as tied
            beta = np.exp(y)
            bv = v * beta
            ratio = bv / bv.max(axis=1)[:, None]
            split = _tie_split(beta, v, c, b, ratio, (ratio >= floor) & (ratio > 0))
            if split is not None:
                u_split, gap_split = certify(split)
                if gap_split < gap:
                    x, utilities, gap = split, u_split, gap_split
        if gap <= tol_abs or steps >= _MAX_ITERS or q >= _Q_MAX:
            break
        q *= 4.0
    if not gap <= tol_abs:  # and is never a certificate
        raise ConvergenceError(
            f"no certificate after {steps} iterations (gap {gap:.3e} > {tol_abs:.3e})",
            gap,
            steps,
        )
    allocation = np.zeros((matrix.shape[0], n))
    allocation[active] = x
    return allocation, utilities, b / utilities, gap, steps


def solve_eg(
    values: ValueSequence,
    weights: AgentWeights,
    tol: float = 1e-9,
    *,
    include_allocation: bool = True,
) -> MarketEquilibrium:
    """Solve the hindsight program to certified gap ``tol * ||B||_1``.

    Raises :class:`ConvergenceError` (carrying the last gap and the
    step count) if the step budget runs out, or the smoothing reaches
    its finest level, before a certificate holds.
    """
    tol = check_tolerance(tol)
    if weights.n != values.n:
        raise InstanceError("weights length does not match agent count")
    uniq, counts, inverse = _compress(values.points, values.index)
    x_u, utilities, beta, gap, iters = _solve_dual(uniq, counts, weights, tol * weights.total)
    allocation = x_u[inverse] if include_allocation else None
    prices = values.per_round(_prices(values.points, beta))
    return MarketEquilibrium(
        allocation=allocation,
        utilities=utilities,
        beta=beta,
        prices=prices,
        gap=gap,
        iterations=iters,
    )


def solve_underlying(
    support,
    probs,
    weights: AgentWeights,
    tol: float = 1e-9,
) -> UnderlyingMarket:
    """Equilibrium with item supplies equal to their probabilities.

    Utilities come out in time-averaged units: a point with probability
    p contributes at most p times its value vector.  Repeated support
    points are merged, their probabilities added.
    """
    dist = FiniteDistribution(support, probs)
    tol = check_tolerance(tol)
    if weights.n != dist.n:
        raise InstanceError("weights length does not match agent count")
    uniq, _, inverse = _compress(dist.support)
    supplies = np.bincount(inverse, weights=dist.probs)
    _, utilities, beta, gap, _ = _solve_dual(uniq, supplies, weights, tol * weights.total)
    return UnderlyingMarket(support=dist.support, probs=dist.probs, utilities=utilities, beta=beta, gap=gap)


@record
class PrefixSolution:
    """Hindsight solution for the first ``tau`` items.

    ``avg_utilities`` are time-averaged over ``tau``.  Agents with no
    positive value in the prefix are reported with zero utility and
    listed in ``flagged``.  ``iterations`` and ``gap`` are the solver's
    count and certified duality gap for this checkpoint.
    """

    tau: int
    avg_utilities: np.ndarray
    flagged: Tuple[int, ...]
    iterations: int
    gap: float


def hindsight_prefix(
    values: ValueSequence,
    weights: AgentWeights,
    checkpoints: Sequence[int],
    tol: float = 1e-6,
) -> List[PrefixSolution]:
    """Solve the benchmark on the first ``tau`` items for each checkpoint.

    Identical items are merged once over the whole sequence.  Each
    checkpoint is solved cold and on its own, in no required order, and
    equals a cold :func:`solve_eg` of its prefix (restricted to the
    agents present in it) bit for bit.  A prefix in which no agent values
    any item has zero utilities with every agent flagged, ``iterations=0``
    and ``gap=0.0``.
    """
    tol = check_tolerance(tol)
    if weights.n != values.n:
        raise InstanceError("weights length does not match agent count")
    cps = _normalize_checkpoints(checkpoints, values.t)
    if not cps:
        return []
    uniq, _, inverse = _compress(values.points, values.index)
    out: List[PrefixSolution] = []
    for tau in cps:
        counts = np.bincount(inverse[:tau], minlength=uniq.shape[0])
        keep = counts > 0
        rows = uniq[keep]
        # dropped columns are zero on every kept row: order and merge hold
        present = (rows > 0).any(axis=0)
        idx = np.nonzero(present)[0]
        u = np.zeros(values.n)
        gap, iters = 0.0, 0
        if idx.size:
            sub_w = AgentWeights(weights.array[idx])
            _, utilities, _, gap, iters = _solve_dual(
                rows[:, idx], counts[keep].astype(np.float64), sub_w, tol * sub_w.total
            )
            u[idx] = utilities / tau
        flagged = tuple(int(i) for i in np.nonzero(~present)[0])
        out.append(PrefixSolution(tau=tau, avg_utilities=u, flagged=flagged, iterations=iters, gap=gap))
    return out
