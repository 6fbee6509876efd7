"""Hindsight market-equilibrium benchmark.

Solves the weighted log-utility allocation program

    maximize  sum_i B_i log u_i   subject to  u_i <= <v_i, x_i>,
    sum_i x_i^tau <= 1 per item,

whose optimum is the competitive equilibrium of the linear Fisher market
with budgets B.  The solver is a deterministic proportional-response
fixed point: agents split budgets over items in proportion to the
utility each item currently contributes; prices are the per-item bid
totals.  Every returned solution carries a certified duality gap,
evaluated against the dual program

    minimize  sum_tau max_i beta_i v_i^tau - sum_i B_i log beta_i
              + sum_i (B_i log B_i - B_i),

whose value upper-bounds the primal objective for any positive beta.

Items with identical value vectors are merged internally (supplies add
up); the expanded allocation splits each duplicate identically, which
preserves utilities, prices, and the gap exactly.  The prefix benchmarks
merge once per sequence and read each prefix's supplies off the merge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .inputs import FiniteDistribution
from .model import AgentWeights, InstanceError, ValueSequence

__all__ = [
    "MarketEquilibrium",
    "UnderlyingMarket",
    "EquilibriumReport",
    "PrefixSolution",
    "ConvergenceError",
    "solve_eg",
    "dual_objective",
    "primal_objective",
    "solve_underlying",
    "check_equilibrium",
    "hindsight_prefix",
]


_MAX_ITERS = 400_000
# proportional-response iterations between certificate checks
_CHECK_EVERY = 8


class ConvergenceError(RuntimeError):
    """Solver ran out of iterations; carries the last gap and the count."""

    def __init__(self, message: str, gap: float, iterations: int):
        super().__init__(message)
        self.gap = gap
        self.iterations = iterations


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class UnderlyingMarket:
    """Equilibrium of the market whose item supplies are probabilities."""

    support: np.ndarray
    probs: np.ndarray
    utilities: np.ndarray
    beta: np.ndarray
    gap: float


def primal_objective(utilities: np.ndarray, weights: AgentWeights) -> float:
    """Weighted log welfare; -inf if some agent has zero utility."""
    u = np.asarray(utilities, dtype=np.float64)
    if np.any(u <= 0):
        return -math.inf
    return float(np.dot(weights.array, np.log(u)))


def _dual_value(beta: np.ndarray, matrix: np.ndarray, weights: AgentWeights) -> float:
    b = weights.array
    prices = (matrix * beta).max(axis=1)
    const = float(np.dot(b, np.log(b)) - b.sum())
    return float(prices.sum() - np.dot(b, np.log(beta)) + const)


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
    return _dual_value(arr, values.matrix, weights)


def _compress(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge identical items; returns (unique rows, counts, inverse map).

    Row-wise ``np.unique`` results, order included, from a stable lexsort.
    """
    order = np.lexsort(matrix.T[::-1])
    s = matrix[order]
    first = np.concatenate(([True], np.any(s[1:] != s[:-1], axis=1)))
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(first) - 1
    return s[first], np.bincount(inverse).astype(np.float64), inverse


# overflow near the float64 limit shows as a NaN gap, refused below
@np.errstate(over="ignore", invalid="ignore")
def _pr_fixed_point(
    matrix: np.ndarray,
    supplies: np.ndarray,
    weights: AgentWeights,
    tol_abs: float,
    max_iters: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float, int]:
    """Proportional response on items scaled by their supplies.

    Returns (allocation, utilities, beta, gap, iterations); allocation
    rows are fractions of each (supply-scaled) item.
    """
    b = weights.array
    n = b.size
    scaled = matrix * supplies[:, None]
    active = scaled.max(axis=1) > 0
    va = scaled[active]
    if va.shape[0] == 0:
        raise InstanceError("no item has a positive value")
    agent_totals = va.sum(axis=0)
    if np.any(agent_totals <= 0):
        i = int(np.argmax(agent_totals <= 0))
        raise InstanceError(f"agent {i + 1} has all-zero values")

    bids = va * (b / agent_totals)
    gap = math.inf
    utilities = np.zeros(n)
    x = np.zeros_like(va)
    last_iter = 0
    for it in range(1, max_iters + 1):
        prices = bids.sum(axis=1)
        # active rows keep positive prices at a fixed point; guard anyway
        dead = prices <= 0
        if dead.any():
            bids[dead] = va[dead] * (b / agent_totals)
            prices = bids.sum(axis=1)
        x = bids / prices[:, None]
        util_parts = va * x
        utilities = util_parts.sum(axis=0)
        bids = util_parts * (b / utilities)
        last_iter = it
        if it % _CHECK_EVERY == 0 or it == max_iters:
            beta = b / utilities
            gap = _dual_value(beta, va, weights) - float(np.dot(b, np.log(utilities)))
            gap = max(gap, 0.0)
            if not gap > tol_abs:  # a NaN gap stops the loop too
                break
    if not gap <= tol_abs:  # and is never a certificate
        raise ConvergenceError(
            f"no certificate after {last_iter} iterations (gap {gap:.3e} > {tol_abs:.3e})",
            gap,
            last_iter,
        )
    allocation = np.zeros((matrix.shape[0], n))
    allocation[active] = x
    beta = b / utilities
    return allocation, utilities, beta, gap, last_iter


def solve_eg(
    values: ValueSequence,
    weights: AgentWeights,
    tol: float = 1e-9,
    *,
    max_iters: int = _MAX_ITERS,
    include_allocation: bool = True,
) -> MarketEquilibrium:
    """Solve the hindsight program to certified gap ``tol * ||B||_1``.

    Raises :class:`ConvergenceError` (carrying the last gap and the
    iteration count) if the iteration budget runs out first.
    """
    if not (tol > 0):
        raise InstanceError("tol must be positive")
    if weights.n != values.n:
        raise InstanceError("weights length does not match agent count")
    matrix = values.matrix
    uniq, counts, inverse = _compress(matrix)
    x_u, utilities, beta, gap, iters = _pr_fixed_point(
        uniq, counts, weights, tol * weights.total, max_iters
    )
    allocation = x_u[inverse] if include_allocation else None
    prices = (matrix * beta).max(axis=1)
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
    *,
    max_iters: int = _MAX_ITERS,
) -> UnderlyingMarket:
    """Equilibrium with item supplies equal to their probabilities.

    Utilities come out in time-averaged units: a point with probability
    p contributes at most p times its value vector.
    """
    dist = FiniteDistribution(support, probs)
    if not (tol > 0):
        raise InstanceError("tol must be positive")
    tol_abs = tol * weights.total
    _, utilities, beta, gap, _ = _pr_fixed_point(dist.support, dist.probs, weights, tol_abs, max_iters)
    return UnderlyingMarket(support=dist.support, probs=dist.probs, utilities=utilities, beta=beta, gap=gap)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    agents present in it) bit for bit.
    """
    if not (tol > 0):
        raise InstanceError("tol must be positive")
    if weights.n != values.n:
        raise InstanceError("weights length does not match agent count")
    cps = sorted({int(c) for c in checkpoints})
    if not cps:
        return []
    if cps[0] < 1 or cps[-1] > values.t:
        raise InstanceError(f"checkpoints must lie in [1, {values.t}]")
    uniq, _, inverse = _compress(values.matrix)
    out: List[PrefixSolution] = []
    for tau in cps:
        counts = np.bincount(inverse[:tau], minlength=uniq.shape[0])
        keep = counts > 0
        rows = uniq[keep]
        # dropped columns are zero on every kept row: order and merge hold
        present = (rows > 0).any(axis=0)
        idx = np.nonzero(present)[0]
        if idx.size == 0:
            raise InstanceError(f"no item among the first {tau} has a positive value")
        sub_w = AgentWeights(weights.array[idx])
        _, utilities, _, gap, iters = _pr_fixed_point(
            rows[:, idx], counts[keep].astype(np.float64), sub_w, tol * sub_w.total, _MAX_ITERS
        )
        u = np.zeros(values.n)
        u[idx] = utilities / tau
        flagged = tuple(int(i) for i in np.nonzero(~present)[0])
        out.append(PrefixSolution(tau=tau, avg_utilities=u, flagged=flagged, iterations=iters, gap=gap))
    return out
