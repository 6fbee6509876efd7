"""Output checks computed apart from the program.

Every function takes plain numpy arrays and returns a list of failure
messages; an empty list means the check passed.  Nothing here imports
``fairpace``: the checks rebuild what they need from the values, the
weights and the program's recorded winners, utilities and solutions.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

EPS = np.finfo(np.float64).eps


def replay_pace(values: np.ndarray, weights: np.ndarray, winners: np.ndarray) -> Tuple[List[str], np.ndarray]:
    """Rebuild the plain pacing winner sequence from the recorded winners.

    Cumulative utilities come from a column-wise running sum of each
    winner's value, which adds in the same order as the dynamic does.
    Bids before round ``tau`` are ``(B_i / (U_i / tau)) * v_i``, infinite
    for an unserved agent that values the item, and the winner is the
    first maximum (smallest index on ties).  Returns the failures and
    the rebuilt final utilities.
    """
    t, n = values.shape
    w = np.asarray(winners)
    if w.shape != (t,) or w.min() < 0 or w.max() >= n:
        return [f"pace winners are not {t} agent indices"], np.zeros(n)
    rows = np.arange(t)
    gained = np.zeros_like(values)
    gained[rows, w] = values[rows, w]
    cum = np.cumsum(gained, axis=0)
    before = np.vstack([np.zeros((1, n)), cum[:-1]])
    tau0 = rows[:, None].astype(np.float64)
    served = before > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        paced = (weights / (before / tau0)) * values
    bids = np.where(served, paced, np.where(values > 0.0, math.inf, 0.0))
    rebuilt = np.argmax(bids, axis=1)
    bad = np.nonzero(rebuilt != w)[0]
    failures = []
    if bad.size:
        k = int(bad[0])
        failures.append(
            f"pace replay: {bad.size} winners differ, first at round {k + 1} "
            f"(recorded {int(w[k])}, replayed {int(rebuilt[k])})"
        )
    return failures, cum[-1]


def allocation_matrix(variant_type: str, winners: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The allocation a variant's winners imply: integral, half split or shares."""
    t, n = winners.size, weights.size
    rows = np.arange(t)
    if variant_type == "proportional":
        return np.tile(weights / weights.sum(), (t, 1))
    x = np.zeros((t, n))
    if variant_type == "setaside":
        x[:] = 1.0 / (2.0 * n)
        x[rows, winners] += 0.5
    else:
        x[rows, winners] = 1.0
    return x


def check_allocation_utilities(
    variant_type: str,
    values: np.ndarray,
    weights: np.ndarray,
    winners: np.ndarray,
    utilities: np.ndarray,
    rtol: float = 1e-9,
) -> List[str]:
    """Final utilities equal what the variant's allocation gives.

    The sums run in another order than the dynamic's, so equality is up
    to ``rtol`` relative to each agent's total value.
    """
    t, n = values.shape
    w = np.asarray(winners)
    if variant_type == "proportional":
        if np.any(w != -1):
            return ["proportional run records auction winners"]
    elif w.shape != (t,) or w.min() < 0 or w.max() >= n:
        return [f"{variant_type} winners are not {t} agent indices"]
    x = allocation_matrix(variant_type, w, weights)
    if np.any(x < 0) or np.any(x.sum(axis=1) > 1.0 + 1e-12):
        return [f"{variant_type} allocation is not feasible"]
    expected = (x * values).sum(axis=0)
    scale = values.sum(axis=0)
    diff = np.abs(np.asarray(utilities) - expected)
    if np.any(diff > rtol * scale):
        i = int(np.argmax(diff - rtol * scale))
        return [
            f"{variant_type} utility of agent {i + 1} is {float(utilities[i])!r}, "
            f"its allocation gives {float(expected[i])!r}"
        ]
    return []


def dual_value(beta: np.ndarray, values: np.ndarray, weights: np.ndarray) -> float:
    """Eisenberg-Gale dual at ``beta``, constants included."""
    prices = (values * beta).max(axis=1)
    b = weights
    return (
        math.fsum(prices.tolist())
        - math.fsum((b * np.log(beta)).tolist())
        + math.fsum((b * np.log(b) - b).tolist())
    )


def check_hindsight_solution(
    values: np.ndarray,
    weights: np.ndarray,
    allocation: np.ndarray,
    utilities: np.ndarray,
    tol: float,
) -> List[str]:
    """Feasibility, utilities and certified gap of a full-horizon solution.

    The gap uses this module's own dual value at ``beta = B / u``.  The
    allowance beyond ``tol * ||B||_1`` is rounding only: a few units in
    the last place of the summed terms.
    """
    failures = []
    x = np.asarray(allocation)
    if x.shape != values.shape:
        return [f"allocation shape {x.shape} differs from values {values.shape}"]
    if np.any(x < 0):
        failures.append("hindsight allocation has a negative entry")
    if np.any(x.sum(axis=1) > 1.0 + 1e-9):
        failures.append("hindsight allocation gives out more than one unit of an item")
    u = np.asarray(utilities)
    own = (x * values).sum(axis=0)
    if np.any(np.abs(own - u) > 1e-9 * np.maximum(values.sum(axis=0), 1.0)):
        failures.append("hindsight utilities differ from <v_i, x_i>")
    if np.any(u <= 0):
        return failures + ["hindsight utilities are not all positive"]
    beta = weights / u
    dual = dual_value(beta, values, weights)
    primal = math.fsum((weights * np.log(u)).tolist())
    limit = tol * float(weights.sum())
    rounding = 16 * EPS * (abs(dual) + abs(primal) + float((values * beta).max(axis=1).sum()))
    if dual - primal > limit + rounding:
        failures.append(f"hindsight gap {dual - primal:.3e} exceeds {limit:.3e}")
    return failures


def check_prefix_certificate(
    values: np.ndarray,
    weights: np.ndarray,
    tau: int,
    benchmark_utilities: np.ndarray,
    tol: float,
) -> List[str]:
    """A prefix benchmark is certified by this module's own dual.

    With ``beta = B / u`` over the agents that value something in the
    first ``tau`` items, dual minus primal must lie in ``[0, tol *
    ||B||_1]``: above the limit the solution is not optimal enough,
    below zero its utilities are more than any allocation gives.
    """
    present = (values[:tau] > 0).any(axis=0)
    b = weights[present]
    u = np.asarray(benchmark_utilities)[present]
    if np.any(u <= 0):
        return [f"tau={tau}: benchmark gives a present agent zero utility"]
    beta = b / u
    v = values[:tau][:, present]
    dual = dual_value(beta, v, b)
    primal = math.fsum((b * np.log(u)).tolist())
    gap = dual - primal
    limit = tol * float(b.sum())
    rounding = 16 * EPS * (abs(dual) + abs(primal) + float((v * beta).max(axis=1).sum()))
    if gap > limit + rounding or gap < -rounding:
        return [f"tau={tau}: prefix benchmark gap {gap:.3e} outside [0, {limit:.3e}]"]
    return []


def check_prefix_welfare(
    values: np.ndarray,
    weights: np.ndarray,
    tau: int,
    benchmark_utilities: np.ndarray,
    flagged: Sequence[int],
    variant_utilities: np.ndarray,
    tol: float,
    label: str,
) -> List[str]:
    """No online allocation beats the prefix benchmark's log welfare.

    ``benchmark_utilities`` and ``variant_utilities`` are cumulative over
    the first ``tau`` items.  Agents that value nothing in the prefix
    must be the flagged ones, and are left out of both sums.
    """
    present = (values[:tau] > 0).any(axis=0)
    absent = tuple(int(i) for i in np.nonzero(~present)[0])
    if tuple(sorted(int(i) for i in flagged)) != absent:
        return [f"tau={tau}: flagged agents {tuple(flagged)} differ from {absent}"]
    b = weights[present]
    star = np.asarray(benchmark_utilities)[present]
    mine = np.asarray(variant_utilities)[present]
    if np.any(star <= 0):
        return [f"tau={tau}: benchmark gives a present agent zero utility"]
    if np.any(mine <= 0):
        return []  # log welfare is -inf
    w_star = math.fsum((b * np.log(star)).tolist())
    w_mine = math.fsum((b * np.log(mine)).tolist())
    limit = tol * float(b.sum())
    rounding = 16 * EPS * (abs(w_star) + abs(w_mine))
    if w_mine > w_star + limit + rounding:
        return [f"tau={tau}: {label} log welfare {w_mine!r} beats the benchmark {w_star!r}"]
    return []


def exact_n2_equilibrium(values: np.ndarray, weights: np.ndarray) -> Tuple[np.ndarray, float, float]:
    """Exact equilibrium utilities for two agents.

    Items are ordered by v1/v2, highest first.  Agent 1 takes a prefix
    of that order, agent 2 the rest, and at most one group of items with
    equal ratio is split; the split fraction solves the first-order
    condition of ``B1 log u1 + B2 log u2`` on that group in closed form.
    Returns (utilities, threshold ratio, fraction of the split group
    that goes to agent 1).
    """
    v = values[(values > 0).any(axis=1)]
    with np.errstate(divide="ignore"):
        ratio = v[:, 0] / v[:, 1]
    keys, inverse = np.unique(-ratio, return_inverse=True)
    a1 = np.bincount(inverse, weights=v[:, 0], minlength=keys.size)
    a2 = np.bincount(inverse, weights=v[:, 1], minlength=keys.size)
    b1, b2 = float(weights[0]), float(weights[1])
    p1 = 0.0
    s2 = float(a2.sum())
    for k in range(keys.size):
        s2 -= a2[k]  # agent 2's value for the groups after k
        u1_all, u2_none = p1 + a1[k], s2
        g1 = b1 * a1[k] / u1_all - (b2 * a2[k] / u2_none if u2_none > 0 else math.inf)
        if g1 >= 0:
            p1 = u1_all
            continue
        f = (b1 * a1[k] * (s2 + a2[k]) - b2 * a2[k] * p1) / (a1[k] * a2[k] * (b1 + b2)) if a1[k] > 0 else 0.0
        f = min(max(f, 0.0), 1.0)
        u = np.array([p1 + f * a1[k], s2 + (1.0 - f) * a2[k]])
        return u, float(-keys[k]), f
    return np.array([p1, 0.0]), 0.0, 1.0


def check_exact_n2(
    values: np.ndarray,
    weights: np.ndarray,
    program_utilities: np.ndarray,
    tol: float,
) -> List[str]:
    """The program's n=2 benchmark agrees with the exact equilibrium.

    Checks that the exact solution is an equilibrium split at one
    threshold (with ``beta = B / u``, agent 1 holds only items with
    v1/v2 at least ``beta2/beta1`` and agent 2 only items at most that),
    and that the program's log welfare is within ``tol * ||B||_1`` of the
    exact optimum and does not exceed it.
    """
    u, threshold, f = exact_n2_equilibrium(values, weights)
    if np.any(u <= 0):
        return ["exact n=2 equilibrium gives an agent zero utility"]
    beta = weights / u
    price_ratio = beta[1] / beta[0]
    v = values[(values > 0).any(axis=1)]
    with np.errstate(divide="ignore"):
        ratio = v[:, 0] / v[:, 1]
    held_1 = (ratio > threshold) | ((ratio == threshold) & (f > 0.0))
    held_2 = (ratio < threshold) | ((ratio == threshold) & (f < 1.0))
    failures = []
    if np.any(ratio[held_1] < price_ratio * (1 - 1e-12)) or np.any(
        ratio[held_2] > price_ratio * (1 + 1e-12)
    ):
        failures.append("exact n=2 allocation is not split at one threshold on v1/v2")
    w_exact = math.fsum((weights * np.log(u)).tolist())
    pu = np.asarray(program_utilities)
    if np.any(pu <= 0):
        return failures + ["program n=2 benchmark gives an agent zero utility"]
    w_prog = math.fsum((weights * np.log(pu)).tolist())
    limit = tol * float(weights.sum())
    rounding = 16 * EPS * (abs(w_exact) + abs(w_prog))
    if w_prog > w_exact + rounding:
        failures.append(f"program log welfare {w_prog!r} beats the exact optimum {w_exact!r}")
    if w_exact - w_prog > limit + rounding:
        failures.append(f"program log welfare is {w_exact - w_prog:.3e} below the exact optimum")
    return failures


def duplicate_share(values: np.ndarray) -> float:
    """Share of items whose value vector equals an earlier item's."""
    return 1.0 - np.unique(values, axis=0).shape[0] / values.shape[0]


def check_report_inventory(summary: dict, rep_files: Sequence[str], reps: int, variants: int) -> List[str]:
    """One summary entry and one rep CSV per (repetition, variant)."""
    failures = []
    entries = summary.get("variants", {})
    if len(entries) != variants:
        failures.append(f"summary.json holds {len(entries)} variants, the config {variants}")
    for label, d in entries.items():
        if len(d.get("per_repetition", [])) != reps:
            failures.append(f"summary.json holds {len(d['per_repetition'])} repetitions of {label}")
    if len(rep_files) != reps * variants:
        failures.append(f"reps/ holds {len(rep_files)} tables, expected {reps * variants}")
    return failures
