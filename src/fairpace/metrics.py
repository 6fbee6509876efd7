"""Performance metrics for runs of the allocation dynamics.

All metrics are exact functions of a run (or an explicit allocation
matrix) plus a benchmark.  A utility is zero only when it is exactly
zero, so the metrics hold in any units: scaling an agent's values by a
power of two scales its utilities exactly and leaves the envy ratios,
the utility ratio and the flags as they were.  Multiplicative metrics
on agents with zero utility return ``inf`` rather than raising, so
adversarial experiments still produce comparable reports; the report
records which agents were flagged.  A ratio past the float range is
``inf`` too, without a warning.
"""

from __future__ import annotations

import json
import math
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .dynamics import RunTrace, Seeded
from .eg import PrefixSolution, _prices
from .model import AgentWeights, InstanceError, ValueSequence, record

AllocationLike = Union[np.ndarray, RunTrace]


def regret(avg_utilities, hindsight_avg_utilities) -> np.ndarray:
    """Per-agent shortfall against the hindsight utilities, clipped at zero."""
    a = np.asarray(avg_utilities, dtype=np.float64)
    h = np.asarray(hindsight_avg_utilities, dtype=np.float64)
    if a.shape != h.shape:
        raise InstanceError("utility vectors differ in length")
    return np.maximum(h - a, 0.0)


def cross_utilities(values: ValueSequence, allocation: AllocationLike) -> np.ndarray:
    """Time-averaged swap utilities: entry (i, k) is agent i's average
    utility if handed agent k's allocation.  A trace's sums are taken one
    agent's values at a time, by ``np.bincount`` over the winners, so a
    generated instance's matrix is not built; an allocation matrix is
    multiplied by the value matrix."""
    t, n = values.t, values.n
    if isinstance(allocation, RunTrace):
        trace = allocation
        if trace.t != t or trace.n != n:
            raise InstanceError("trace shape does not match the instance")
        kernel = trace.variant.kernel(trace.weights)
        won = np.zeros((n, n))  # won[i, k] = sum of v_i over items won by k
        if n == 1 and kernel.top:  # agent 0 wins every item, and one column is summed pairwise
            won[0, 0] = values.monopolistic_utilities()[0]
        elif kernel.top:  # in round order, as the column sums of the items k won add them
            winners = trace.winners.astype(np.intp)  # bincount would convert the int32 winners at every call
            for i in range(n):
                won[i] = np.bincount(winners, values.per_round(values.points[:, i]), n)
        # every agent holds its base share of every item, the winner ``top`` more
        return (np.outer(values.monopolistic_utilities(), kernel.base) + kernel.top * won) / t
    x = np.asarray(allocation, dtype=np.float64)
    if x.shape != (t, n):
        raise InstanceError("allocation shape does not match the instance")
    return (values.matrix.T @ x) / t


def additive_envy(values: ValueSequence, allocation: AllocationLike, weights: AgentWeights) -> np.ndarray:
    """Per-agent envy ``max_k u_ik/B_k - u_ii/B_i`` (k ranges over all
    agents, so the result is nonnegative)."""
    return _additive_envy(cross_utilities(values, allocation), weights.array)


def _additive_envy(cu: np.ndarray, b: np.ndarray) -> np.ndarray:
    own = np.diag(cu) / b
    return (cu / b).max(axis=1) - own


def multiplicative_envy(
    values: ValueSequence, allocation: AllocationLike, weights: AgentWeights
) -> np.ndarray:
    """Per-agent ``max_{k != i} (B_i/B_k) * (u_ik / u_ii)``.

    Agents with zero own utility get ``inf`` unless they value nobody's
    bundle, and a single agent gets 0 (no rival).
    """
    return _multiplicative_envy(cross_utilities(values, allocation), weights.array)


def _multiplicative_envy(cu: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = b.size
    out = np.zeros(n)
    with np.errstate(over="ignore"):  # a ratio past the float range is inf
        for i in range(n):
            top = max(((b[i] / b[k]) * cu[i, k] for k in range(n) if k != i), default=0.0)
            out[i] = top / cu[i, i] if cu[i, i] > 0 else (math.inf if top > 0 else 0.0)
    return out


def nash_welfare(utilities, weights: AgentWeights) -> float:
    """Weight-share geometric mean of utilities (0 if any utility is 0)."""
    u = np.asarray(utilities, dtype=np.float64)
    share = weights.array / weights.total
    if np.any(u <= 0):
        return 0.0
    return float(np.exp(np.dot(share, np.log(u))))


def competitive_ratio(utilities_alg, utilities_hindsight, weights: AgentWeights) -> float:
    """Hindsight-over-algorithm Nash welfare ratio (inf if an agent got 0,
    0 if a hindsight utility is 0).  A ratio that underflows to zero is
    taken as the difference of the two logarithms."""
    ua = np.asarray(utilities_alg, dtype=np.float64)
    uh = np.asarray(utilities_hindsight, dtype=np.float64)
    share = weights.array / weights.total
    if np.any(ua <= 0):
        return math.inf
    if np.any(uh == 0):
        return 0.0
    with np.errstate(over="ignore"):  # a ratio past the float range is inf
        ratio = uh / ua
    under = ratio == 0
    logs = np.log(np.where(under, 1.0, ratio))
    logs[under] = np.log(uh[under]) - np.log(ua[under])
    return float(np.exp(np.dot(share, logs)))


def utility_ratio(values: ValueSequence, utilities_alg, weights: AgentWeights) -> float:
    """Best weighted sum of utility ratios over all feasible allocations.

    The objective is linear in the allocation, so the supremum hands each
    item wholly to the agent maximizing ``B_i v_i^tau / U_i``; the value is
    computed in closed form as ``sum_tau max_i (B_i / ||B||_1) v_i^tau / U_i``,
    each agent's share scaled by its utility first, so no product of a
    weight and a utility overflows.  A zero utility, or a scaled share past
    the float range, gives ``inf``.
    """
    u = np.asarray(utilities_alg, dtype=np.float64)
    if np.any(u <= 0):
        return math.inf
    with np.errstate(over="ignore"):  # a ratio past the float range is inf
        share = weights.array / weights.total / u
        if np.any(share == math.inf):  # inf times a zero value would be NaN
            return math.inf
        return float(values.per_round(_prices(values.points, share)).sum())


def seeded_utility_ratio(
    values: ValueSequence, utilities_alg, weights: AgentWeights, seed_utility: float
) -> float:
    """Seeded variant of the utility ratio, with unnormalized weights:
    ``sum_i B_i xi/(U_i+xi) + sum_tau max_i B_i v_i^tau/(U_i+xi)``."""
    if not (0 < seed_utility < math.inf):
        raise InstanceError("seed_utility must be positive and finite")
    u = np.asarray(utilities_alg, dtype=np.float64)
    b = weights.array
    denom = u + seed_utility
    prices = values.per_round(_prices(values.points, b / denom))
    return float(np.dot(b, seed_utility / denom)) + float(prices.sum())


@record
class TrajectoryPoint:
    """Relative time-averaged regret at one checkpoint.

    ``per_agent[i]`` is ``max(u*_i - ubar_i, 0)/u*_i`` against the prefix
    benchmark; agents whose benchmark utility is zero (those the
    benchmark flags: no value seen yet) are NaN and excluded from
    ``max``/``mean``, with their count recorded.
    """

    tau: int
    per_agent: np.ndarray
    max_value: float
    mean_value: float
    excluded: int


def relative_regret_trajectory(
    trace: RunTrace, prefix_solutions: Sequence[PrefixSolution]
) -> List[TrajectoryPoint]:
    """Relative regret of a run against prefix benchmarks at matching taus."""
    cps = dict(zip(trace.checkpoints, trace.checkpoint_utilities))
    out: List[TrajectoryPoint] = []
    for sol in prefix_solutions:
        if sol.tau == trace.t:
            cum = trace.final_utilities
        elif sol.tau in cps:
            cum = cps[sol.tau]
        else:
            raise InstanceError(f"trace has no checkpoint at tau={sol.tau}")
        star, ubar = sol.avg_utilities, cum / sol.tau
        ok = star != 0
        per = np.full(trace.n, np.nan)
        per[ok] = np.maximum(star[ok] - ubar[ok], 0.0) / star[ok]
        vals = per[ok]
        out.append(
            TrajectoryPoint(
                tau=sol.tau,
                per_agent=per,
                max_value=float(vals.max()) if vals.size else math.nan,
                mean_value=float(vals.mean()) if vals.size else math.nan,
                excluded=int((~ok).sum()),
            )
        )
    return out


@record
class MetricsReport:
    """Final metrics of one run against a hindsight benchmark."""

    variant: str
    regret: np.ndarray
    additive_envy: np.ndarray
    multiplicative_envy: np.ndarray
    nash_welfare_alg: float
    nash_welfare_hindsight: float
    competitive_ratio: float
    utility_ratio: float
    seeded_ratio: Optional[float] = None
    flagged_agents: Tuple[int, ...] = ()

    def to_json_dict(self) -> dict:
        def _num(v):
            return None if (isinstance(v, float) and math.isinf(v)) else float(v)

        return {
            "variant": self.variant,
            "regret": [float(v) for v in self.regret],
            "additive_envy": [float(v) for v in self.additive_envy],
            "multiplicative_envy": [_num(v) for v in self.multiplicative_envy],
            "nash_welfare_alg": _num(self.nash_welfare_alg),
            "nash_welfare_hindsight": _num(self.nash_welfare_hindsight),
            "competitive_ratio": _num(self.competitive_ratio),
            "utility_ratio": _num(self.utility_ratio),
            "seeded_ratio": None if self.seeded_ratio is None else _num(self.seeded_ratio),
            "flagged_agents": list(self.flagged_agents),
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, **kw)


def build_report(
    trace: RunTrace,
    values: ValueSequence,
    weights: AgentWeights,
    hindsight_utilities,
) -> MetricsReport:
    """Assemble the standard final report for one run.

    ``hindsight_utilities`` are cumulative benchmark utilities over the
    full horizon (e.g. ``solve_eg(...).utilities``).
    """
    uh = np.asarray(hindsight_utilities, dtype=np.float64)
    ua = trace.final_utilities
    cu = cross_utilities(values, trace)  # both envies read it
    seeded = None
    if isinstance(trace.variant, Seeded):
        seeded = seeded_utility_ratio(values, ua, weights, trace.variant.seed_utility)
    return MetricsReport(
        variant=trace.variant.label,
        regret=regret(trace.final_avg_utilities, uh / trace.t),
        additive_envy=_additive_envy(cu, weights.array),
        multiplicative_envy=_multiplicative_envy(cu, weights.array),
        nash_welfare_alg=nash_welfare(ua, weights),
        nash_welfare_hindsight=nash_welfare(uh, weights),
        competitive_ratio=competitive_ratio(ua, uh, weights),
        utility_ratio=utility_ratio(values, ua, weights),
        seeded_ratio=seeded,
        flagged_agents=tuple(int(i) for i in np.nonzero(ua == 0)[0]),
    )
