"""Seeded input generators and adversarial instance constructions.

Randomness comes from a counter-based Philox4x64-10 stream (Salmon et
al., *Parallel Random Numbers: As Easy as 1, 2, 3*, SC 2011) with the key
``(seed << 64) + repetition``, and every model consumes exactly one
uniform draw per round.  Generation is therefore a pure function of
(spec, repetition): bit-identical across runs and platforms, and
parallel repetitions are independent of scheduling.  The stream and its
conversion to uniforms are computed here, in numpy ``uint64`` arrays,
and equal numpy's ``Generator(Philox(key)).random`` bit for bit.  They
are not left to numpy's ``random`` package for two reasons: NEP 19 keeps
a bit generator's raw stream stable but lets ``Generator`` methods change
between numpy releases, so the promise above would rest on code fairpace
does not own; and loading that package adds about 6 MB of resident
memory and 11-18 ms to every generated run.

Stochastic models
-----------------
``IID``        rows drawn independently from one finite distribution.
``Periodic``   position ``tau`` in a period of length q samples uniformly
               from pool ``tau mod q``; positions are independent.
``Block``      a partition of the horizon with one distribution per
               block; each block emits a fixed multiset (expected counts,
               largest-remainder rounding) in a shuffled order, which
               correlates rows within the block while keeping the block's
               empirical composition pinned.
``Ergodic``    a finite Markov chain over value vectors.
``Corrupted``  independent rounds from a base distribution, except listed
               rounds whose distribution is replaced outright.

Each model is defined once, on its class: a ``model.record`` whose
fields are its config keys, read by the shared ``model.Spec`` reader
(``IID`` reads its distribution's keys) and converted and checked by its
own ``__post_init__``, so the constructor and the config refuse the same
values.  A distribution field takes a ``FiniteDistribution`` or its
``{support, probs}`` mapping.  ``draw`` turns the per-round uniforms
into the instance's point form: the value vectors the model can emit
(the support, the stacked pools or supports, the chain's states) and
the id of the one that arrives in each round, so ``gen`` never builds
the ``t x n`` matrix (see ``model.ValueSequence``).  The two
nonstationary models, ``Block`` and ``Corrupted``, list their
``segments`` (rounds and distribution) for the declared budget.
``MODELS`` maps each config ``type`` to its class.

The value vectors themselves belong to ``model``: ``FiniteDistribution``
is defined there (and importable from here), every support, pool and
chain state goes through ``model.value_matrix``, the check an instance
gets, and the declared budget merges repeated support points with the
solver's row merge ``model._compress``.

Adversarial constructions
-------------------------
``adv_envy_worstcase``      a two-agent phased instance driving the
                            pacing dynamic to its worst multiplicative
                            envy for a given extremity.
``adv_cr_killer``           an adaptive construction that zeroes the
                            lowest-utility agent's values at each phase
                            end, certifying a lower bound on the
                            competitive ratio of the attacked policy.
``adv_constrained_failure`` the constant instance that starves agent 2
                            under interval-projected pacing.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import field
from typing import ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .dynamics import _CHUNK, Variant
from .model import (AgentWeights, FiniteDistribution, InstanceError, Spec, ValueSequence, _compress, _frozen_array,
                    integral, real, reals, record, value_matrix)


# --------------------------------------------------------------------------
# model specs


@record
class IID(Spec):
    dist: FiniteDistribution
    name: ClassVar[str] = "iid"

    @classmethod
    def from_dict(cls, d: Mapping) -> "IID":
        """The distribution's own keys, ``{support, probs}``."""
        return cls(FiniteDistribution.from_dict(d))

    def draw(self, u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return self.dist.support, self.dist.draw(u)


@record
class Periodic(Spec):
    """One pool of vectors per position within the period; uniform draws."""

    pools: Tuple[np.ndarray, ...]
    name: ClassVar[str] = "periodic"

    def __post_init__(self):
        pools = tuple(reals(p) for p in self.pools)
        if not pools:
            raise InstanceError("need at least one pool")
        for p in pools:  # the first pool's rank is checked before its width is read
            if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] != pools[0].shape[1]:
                raise InstanceError("pools must be nonempty and share the agent count")
        object.__setattr__(self, "pools", tuple(value_matrix(p) for p in pools))

    @property
    def period(self) -> int:
        return len(self.pools)

    def draw(self, u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The stacked pools, and for round ``tau`` a uniform pick from pool
        ``tau mod period``."""
        idx = np.empty(u.size, dtype=np.intp)
        offset = 0
        for j, pool in enumerate(self.pools):
            size = pool.shape[0]
            idx[j :: self.period] = offset + np.minimum((u[j :: self.period] * size).astype(np.intp), size - 1)
            offset += size
        return np.concatenate(self.pools), idx


@record
class Block(Spec):
    """Partition of the horizon with a distribution per block.

    ``max_delta``, when given, asserts a budget on the declared
    nonstationarity: generation fails if the exact average TV distance
    of the block distributions from their mixture exceeds it.
    """

    lengths: Tuple[int, ...]
    dists: Tuple[FiniteDistribution, ...]
    max_delta: Optional[float] = None
    name: ClassVar[str] = "block"

    def __post_init__(self):
        lengths = tuple(integral(x) for x in self.lengths)
        dists = tuple(FiniteDistribution.of(d) for d in self.dists)
        if len(lengths) != len(dists) or not lengths:
            raise InstanceError("need one distribution per block")
        if any(x < 1 for x in lengths):
            raise InstanceError("block lengths must be positive")
        if any(d.n != dists[0].n for d in dists):
            raise InstanceError("block distributions must share the agent count")
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "dists", dists)
        object.__setattr__(self, "max_delta", None if self.max_delta is None else real(self.max_delta, "max_delta"))

    def segments(self, t: int) -> List[Tuple[int, FiniteDistribution]]:
        if sum(self.lengths) != t:
            raise InstanceError(f"block lengths sum to {sum(self.lengths)}, not t={t}")
        return list(zip(self.lengths, self.dists))

    def draw(self, u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The stacked supports, and per block its multiset in the order of
        the block's uniforms."""
        idx = np.empty(u.size, dtype=np.intp)
        start = offset = 0
        for length, dist in self.segments(u.size):
            counts = _largest_remainder_counts(length, dist.probs)
            multiset = np.repeat(np.arange(offset, offset + dist.probs.size), counts)
            idx[start : start + length] = multiset[np.argsort(u[start : start + length], kind="stable")]
            start += length
            offset += dist.probs.size
        return np.concatenate([d.support for d in self.dists]), idx


@record
class Ergodic(Spec):
    """Finite Markov chain over value vectors; row one is the start state."""

    states: np.ndarray  # (m, n)
    transitions: np.ndarray  # (m, m), rows sum to one
    start: int = 0
    name: ClassVar[str] = "ergodic"

    def __post_init__(self):
        st, tr = reals(self.states), reals(self.transitions)
        if st.ndim != 2 or tr.shape != (st.shape[0], st.shape[0]):
            raise InstanceError("states and transition matrix shapes do not match")
        st = value_matrix(st)
        # as for probs: an entry above 1 + 1e-12 is refused before a row sum it could overflow
        if not (np.all((tr >= 0) & (tr <= 1 + 1e-12)) and np.all(np.abs(tr.sum(axis=1) - 1.0) <= 1e-12)):
            raise InstanceError("transition rows must be distributions")
        start = integral(self.start)
        if not (0 <= start < st.shape[0]):
            raise InstanceError("start state out of range")
        object.__setattr__(self, "states", st)
        object.__setattr__(self, "transitions", _frozen_array(tr))
        object.__setattr__(self, "start", start)

    def draw(self, u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The states, and the chain's state in each round: the next state is
        where the round's uniform falls in the current state's cumulative
        transition row, searched in Python lists ``_CHUNK`` rounds at a time."""
        cum = np.cumsum(self.transitions, axis=1).tolist()
        last = self.states.shape[0] - 1
        idx = np.empty(u.size, dtype=np.intp)
        s = self.start
        for start in range(0, u.size, _CHUNK):
            block = []
            for x in u[start : start + _CHUNK].tolist():
                block.append(s)
                s = min(bisect_right(cum[s], x), last)
            idx[start : start + len(block)] = block
        return self.states, idx


@record
class Corrupted(Spec):
    """IID base distribution with listed rounds replaced outright.

    ``corruptions`` maps 1-based round numbers to replacement
    distributions; all rounds stay independent.
    """

    base: FiniteDistribution
    corruptions: Mapping[int, FiniteDistribution] = field(default_factory=dict)
    max_delta: Optional[float] = None
    name: ClassVar[str] = "corrupted"

    def __post_init__(self):
        base = FiniteDistribution.of(self.base)
        if not isinstance(self.corruptions, Mapping):
            raise InstanceError("corruptions must map rounds to distributions")
        corr = {integral(r): FiniteDistribution.of(d) for r, d in self.corruptions.items()}
        for r, d in corr.items():
            if r < 1:
                raise InstanceError("corruption rounds are 1-based")
            if d.n != base.n:
                raise InstanceError("corruption distributions must share the agent count")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "corruptions", corr)
        object.__setattr__(self, "max_delta", None if self.max_delta is None else real(self.max_delta, "max_delta"))

    def segments(self, t: int) -> List[Tuple[int, FiniteDistribution]]:
        hits = [(1, d) for r, d in self.corruptions.items() if r <= t]
        return [(t - len(hits), self.base)] + hits

    def draw(self, u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The base support stacked with the corrupted rounds' supports, and
        per round a draw from its own distribution."""
        idx = self.base.draw(u)
        supports = [self.base.support]
        offset = self.base.probs.size
        for r, dist in sorted(self.corruptions.items()):
            if r <= u.size:
                idx[r - 1] = offset + dist.draw(u[r - 1 : r])[0]
                supports.append(dist.support)
                offset += dist.probs.size
        return np.concatenate(supports), idx


ModelVariant = Union[IID, Periodic, Block, Ergodic, Corrupted]

MODELS: Dict[str, type] = {m.name: m for m in (IID, Periodic, Block, Ergodic, Corrupted)}


@record
class InputModelSpec:
    """A generator description plus horizon and 64-bit seed."""

    model: ModelVariant
    t: int
    seed: int

    def __post_init__(self):
        t = integral(self.t)
        if t < 1:
            raise InstanceError("t must be positive")
        object.__setattr__(self, "t", t)
        seed = integral(self.seed)
        if not 0 <= seed <= _U64:  # a seed is one key word of the stream
            raise InstanceError(f"seed must lie in [0, 2**64), not {seed}")
        object.__setattr__(self, "seed", seed)


# --------------------------------------------------------------------------
# generation


_U64 = 0xFFFFFFFFFFFFFFFF
# Philox4x64's round multipliers and key increments, as in numpy's philox.h
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
# every operand is a uint64 array or scalar, shift counts included, so
# that no value-based casting (numpy 1.x) promotes a step to float64
_LOW32, _BITS32, _BITS11 = np.uint64(0xFFFFFFFF), np.uint64(32), np.uint64(11)


def _mulhilo(a: int, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products ``a * x``; the
    high word is assembled from 32-bit halves, whose products fit."""
    a_lo, a_hi = np.uint64(a & 0xFFFFFFFF), np.uint64(a >> 32)
    x_lo, x_hi = x & _LOW32, x >> _BITS32
    cross_hi, cross_lo = x_hi * a_lo, x_lo * a_hi
    mid = ((x_lo * a_lo) >> _BITS32) + (cross_hi & _LOW32) + (cross_lo & _LOW32)
    hi = x_hi * a_hi + (cross_hi >> _BITS32) + (cross_lo >> _BITS32) + (mid >> _BITS32)
    return hi, x * np.uint64(a)


def _round_uniforms(seed: int, repetition: int, count: int) -> np.ndarray:
    """One float64 uniform per round from the (seed, repetition) substream.

    The Philox4x64-10 block of counter ``(c, 0, 0, 0)``, ``c = 1, 2, ...``
    under the key words ``(repetition, seed)`` gives four 64-bit words,
    which become draws ``4(c - 1)`` to ``4c - 1`` as ``(x >> 11) * 2**-53``.
    That is numpy's ``Generator(Philox(key=(seed << 64) + repetition))
    .random(count)``, bit for bit: numpy advances the counter before its
    first block.  Counter words 1 to 3 stay zero, since a carry into them
    needs ``2**64`` blocks.  Blocks are computed ``_CHUNK`` counters at a
    time into the one output array.
    """
    # the ten rounds' keys, in Python ints so that no numpy scalar overflows
    k0, k1 = int(repetition), int(seed)
    keys = [(np.uint64((k0 + r * _PHILOX_W0) & _U64), np.uint64((k1 + r * _PHILOX_W1) & _U64)) for r in range(10)]
    out = np.empty(count)
    for start in range(0, count, 4 * _CHUNK):
        stop = min(start + 4 * _CHUNK, count)
        c0 = np.arange(start // 4 + 1, (stop + 3) // 4 + 1, dtype=np.uint64)
        c1 = c2 = c3 = np.zeros_like(c0)
        for key0, key1 in keys:
            hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
            hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ key0, lo1, hi0 ^ c3 ^ key1, lo0
        words = np.stack((c0, c1, c2, c3), axis=1).reshape(-1)[: stop - start]
        out[start:stop] = (words >> _BITS11) * 2.0**-53
    return out


def _largest_remainder_counts(length: int, probs: np.ndarray) -> np.ndarray:
    """Integer counts summing to ``length`` with quotas ``length * probs``."""
    quota = length * probs
    counts = np.floor(quota).astype(np.int64)
    short = length - int(counts.sum())
    if short > 0:
        order = np.argsort(-(quota - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


def gen(spec: InputModelSpec, repetition: int = 0) -> ValueSequence:
    """Generate the value sequence for one repetition of a spec."""
    if not 0 <= repetition <= _U64:  # the other key word of the stream
        raise InstanceError(f"repetition must lie in [0, 2**64), not {repetition}")
    u = _round_uniforms(spec.seed, repetition, spec.t)
    budget = getattr(spec.model, "max_delta", None)
    if budget is not None:
        delta = empirical_tv_delta(spec)
        if delta > budget + 1e-12:
            raise InstanceError(
                f"declared {spec.model.name} nonstationarity {delta:.6g} exceeds budget {budget:.6g}"
            )
    points, index = spec.model.draw(u)
    return ValueSequence(points, index=index)


# --------------------------------------------------------------------------
# declared nonstationarity


def empirical_tv_delta(spec: InputModelSpec) -> float:
    """Exact average TV distance of per-round/per-block distributions
    from their mixture, computed from the declared spec (not samples).

    Defined for the models that list their ``segments``: ``Block``
    (length-weighted over blocks) and ``Corrupted`` (uniform over rounds).
    """
    if not hasattr(spec.model, "segments"):
        raise InstanceError("nonstationarity budget is defined for block and corrupted models")
    t = spec.t
    segments = spec.model.segments(t)
    merged, _, point = _compress(np.concatenate([d.support for _, d in segments]))
    ends = np.cumsum([d.probs.size for _, d in segments])

    def pmfs():
        """Each segment's rounds and its pmf over the merged support points."""
        for (rounds, d), end in zip(segments, ends):
            yield rounds, np.bincount(point[end - d.probs.size : end], weights=d.probs, minlength=len(merged))

    mixture = sum(rounds / t * pmf for rounds, pmf in pmfs())
    return float(sum(rounds * (0.5 * np.abs(pmf - mixture).sum()) for rounds, pmf in pmfs()) / t)


def ergodic_deviation(model: Ergodic, iota: int, t: int) -> float:
    """Conservative mixing deviation of the chain at lag ``iota``:
    the largest TV distance between any state's ``iota``-step transition
    law and the horizon-averaged marginal distribution."""
    if iota < 1:
        raise InstanceError("iota must be at least 1")
    m = model.states.shape[0]
    mu = np.zeros(m)
    mu[model.start] = 1.0
    acc = np.zeros(m)
    for _ in range(t):
        acc += mu
        mu = mu @ model.transitions
    marg = acc / t
    piota = np.linalg.matrix_power(model.transitions, iota)
    return float(0.5 * np.abs(piota - marg).sum(axis=1).max())


# --------------------------------------------------------------------------
# adversarial constructions


@record
class EnvyWorstCase:
    """Phased two-agent instance plus its envy prediction.

    ``predicted_envy`` is implied by the realized integer phase lengths
    (not the limiting formula): total forgone value of agent 2 divided
    by its phase-one utility.  ``growth`` is the realized per-phase value
    ratio after adjusting the requested one so the level count is an
    integer.
    """

    values: ValueSequence
    predicted_envy: float
    growth: float
    levels: int
    phase_lengths: Tuple[int, ...]


def adv_envy_worstcase(extremity: float, growth: float, base_length: int) -> EnvyWorstCase:
    """Worst-case envy instance for the pacing dynamic.

    Agent 2 values every item; agent 1's values climb a geometric ladder
    from ``extremity`` to one so that each phase ends with the auction
    decision exactly at its boundary.  The requested ``growth`` ratio is
    adjusted to the nearest value making the ladder land exactly on one.
    """
    if not (0 < extremity <= 1):
        raise InstanceError("extremity must lie in (0, 1]")
    if base_length < 1:
        raise InstanceError("base_length must be positive")
    r = int(base_length)
    if extremity != 1.0 and not (growth > 1):
        raise InstanceError("growth must exceed 1")
    try:
        k = 0 if extremity == 1.0 else max(1, round(math.log(1 / extremity) / math.log(growth)))
        a = (1 / extremity) ** (1 / k) if k else growth
        len_b = math.ceil((1 - 1 / a) * r) if k else 0
        len_c = math.ceil((1 - 1 / a) * r / extremity) if k else 0
    except OverflowError:  # 1 / extremity or a phase length is infinite
        raise InstanceError(f"extremity {extremity!r} needs more items than a float can count") from None
    total = 2 * r + k * (len_b + len_c)
    try:
        matrix = np.empty((total, 2))
    except (ValueError, MemoryError):
        raise InstanceError(f"cannot allocate the instance's {total} items") from None
    # phase one (agent 1 values nothing), phase two (agent 1 at extremity),
    # then k climbing levels at length len_b and k at length len_c
    matrix[:r] = (0.0, 1.0)
    matrix[r : 2 * r] = (extremity, 1.0)
    levels = [extremity * a**j for j in range(1, k + 1)]
    if k:
        levels[-1] = 1.0  # exact top keeps the extremity of the instance exact
    start = 2 * r
    for length, v2 in ((len_b, 1.0), (len_c, extremity)):
        for v1 in levels:
            matrix[start : start + length] = (v1, v2)
            start += length
    lengths = [r, r] + [len_b] * k + [len_c] * k
    w2 = float(matrix[:, 1].sum())
    predicted = (w2 - r) / r
    return EnvyWorstCase(
        values=ValueSequence(matrix),
        predicted_envy=predicted,
        growth=a,
        levels=k,
        phase_lengths=tuple(lengths),
    )


@record
class KillerResult:
    """Adaptive competitive-ratio attack against one policy.

    ``bound`` certifies that any online policy's competitive ratio on
    ``values`` is at least ``(n! * prod_k (t_k - t_{k-1}) / t_k)^(1/n)``;
    the witness allocation concentrating phase k on ``kill_order[k]``
    achieves ``witness_utilities`` exactly.
    """

    values: ValueSequence
    bound: float
    kill_order: Tuple[int, ...]
    witness_utilities: Tuple[float, ...]
    policy_utilities: np.ndarray
    phase_ends: Tuple[int, ...]


def adv_cr_killer(
    num_agents: int, phase_ends: Sequence[int], variant: Variant
) -> KillerResult:
    """Build the phase-kill instance adaptively against a policy.

    Phase 1 is all-ones; at each phase end the surviving agent with the
    lowest cumulative utility under the attacked policy (smallest index
    on ties) has its value zeroed for the rest of the horizon.  Agents
    carry equal weights — the certified bound is derived for that case.
    """
    ends = [int(x) for x in phase_ends]
    n = int(num_agents)
    if n < 1:
        raise InstanceError("need at least one agent")
    if len(ends) < n:
        raise InstanceError(f"{n} agents need {n} phases, got {len(ends)}")
    if len(ends) > n:
        raise InstanceError("one phase per agent")
    if ends[0] < 1 or any(a <= b for b, a in zip(ends, ends[1:])):
        raise InstanceError("phase ends must be strictly increasing and positive")

    weights = AgentWeights.equal(n)
    kernel = variant.kernel(weights)
    alive = [True] * n
    kill_order: List[int] = []
    blocks: List[np.ndarray] = []
    prev = 0
    for k, end in enumerate(ends):
        row = [1.0 if alive[i] else 0.0 for i in range(n)]
        length = end - prev
        blocks.append(np.tile(row, (length, 1)))
        for start in range(0, length, _CHUNK):
            kernel.advance(blocks[-1][start : start + _CHUNK])
        prev = end
        if k < n - 1:
            candidates = [i for i in range(n) if alive[i]]
            victim = min(candidates, key=lambda i: (kernel.u[i], i))
            alive[victim] = False
            kill_order.append(victim)
    kill_order.append(next(i for i in range(n) if alive[i]))

    matrix = np.concatenate(blocks, axis=0)
    spans = [ends[0]] + [b - a for a, b in zip(ends, ends[1:])]
    bound = (math.factorial(n) * math.prod(s / e for s, e in zip(spans, ends))) ** (1.0 / n)
    return KillerResult(
        values=ValueSequence(matrix),
        bound=float(bound),
        kill_order=tuple(kill_order),
        witness_utilities=tuple(float(s) for s in spans),
        policy_utilities=np.array(kernel.u),
        phase_ends=tuple(ends),
    )


def adv_constrained_failure(upper_bound_2: float, value_cap: float, t: int) -> ValueSequence:
    """Constant two-agent instance that starves agent 2 under projected
    pacing with upper bounds ``r_1 >= r_2 = upper_bound_2``: both agents
    value every item at ``min(1/r_2, value_cap)``."""
    if not (0 < upper_bound_2 < math.inf) or not (value_cap > 0):
        raise InstanceError("bounds must be positive and the upper bound finite")
    if t < 1:
        raise InstanceError("t must be positive")
    c = min(1.0 / upper_bound_2, value_cap)
    return ValueSequence(np.full((int(t), 2), c))
