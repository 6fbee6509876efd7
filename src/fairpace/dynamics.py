"""Online allocation dynamics.

Each dynamic processes the item stream one row at a time and is a pure,
deterministic function of (instance, weights, variant): re-running
produces bit-identical traces.  The pacing variants simulate a
first-price auction each round — an agent bids its pacing multiplier
times its value, the whole item goes to the highest bidder, smallest
index winning ties — and then reset the multiplier to weight divided by
the tracked average utility.

Variants
--------
``Unconstrained``   plain pacing; an agent whose tracked average is zero
                    (no win yet, or an average that underflows) holds a
                    distinguished unserved state and bids infinite on
                    any item it values.
``Constrained``     pacing with the multiplier projected to a fixed
                    per-agent interval after every update.
``Seeded``          pacing where every agent is granted a fictitious
                    initial utility, added once before any item arrives;
                    the unserved state occurs only if an average
                    underflows.
``SetAside``        half of every item is reserved and split equally
                    (1/(2n) to each agent); the other half is auctioned
                    with seeded pacing on values normalized by each
                    agent's monopolistic utility (seed 1/(2n)).
``OneStepGreedy``   gives the item to the agent with the largest exact
                    increment of weighted log welfare.
``Proportional``    splits every item in proportion to the weights; no
                    auction takes place.

Each variant is defined once.  Its class is a ``model.record`` whose
fields are its config keys, read by the shared ``model.Spec`` reader
(``Constrained`` adds its slack form) and checked by its own
``__post_init__``; it writes them back (``to_dict``) and gives its
``label``, and ``VARIANTS`` maps each ``type`` to its class.  Its rule
(its first-round state, bids, update after a won round, multipliers,
tracked averages and item split) is written in the kernel that ``variant.kernel(weights)`` builds, which
``run``, the single-step API, ``PaceState``, ``RunTrace`` and the
metrics all read.  The kernel is also the running dynamic: it holds one
run's state and advances it; a ``PaceState`` is that state as arrays,
and ``_resume`` builds a kernel from one.  An auction kernel's round is
one loop (``_rounds``), with no call per row, and the five auctions
share it: it takes a block in windows of ``_WINDOW`` rows and scores in
each row only its candidates, by the kernel's ``_scan``.  Two ``_bids``
passes per window bound every agent's score on each distinct point of
the window, once however often the point arrives (a matrix's row is its
own point; a point's first and last rows are found by counting over the
block's point ids, made dense where they reach the block's length):
from above at the window's starting state, the rounds advanced to the
point's last arrival, and from below with the agent credited every row
of the window before that arrival, the rounds at the point's first.  An
agent whose upper bound is below the point's largest lower bound cannot
win a row where the point arrives.  Rounding is monotonic and every
score is nonincreasing in the accumulator and nondecreasing in the
rounds, so for pacing the bounds hold bit for bit at every arrival and
pruning changes no winner; greedy's bounds are widened by its
``_margin`` (below).  The rows of a point share one list
of its candidates' ``(agent, value)`` pairs; where no point of a window
repeats, each row takes its pairs in turn from one window-wide ``zip``.
Pace, constrained, seeded and set-aside share one ``_scan`` too: plain
pacing is seeded pacing at seed zero whose round one is the unserved
state rather than unit multipliers, and whose multipliers are projected
to ``[0, inf]`` where constrained's are projected to its intervals.
Only constrained's intervals can bind a served multiplier, so only its
kernel (``_projects``) clamps one in the loop.  The loop computes each
multiplier from the utilities as it bids, so it stores no multipliers.
An average that underflows to zero, or a multiplier that overflows to
``inf``, is the unserved state.

Every auction block is speculated first: a kernel guesses a window of
winners from the multipliers at the window's start, builds the state before
every row from the guesses by one ``np.cumsum``, scores all rows at once
with ``_bids`` and keeps the rows up to the first guess that was wrong,
whose argmax is exact because the state before it is.  A window of more
rows than the instance has points guesses each point once, and its rows
take their point's guess and credit by their point ids.  The kept rows'
spend is added per winner: one ``np.bincount`` adds each agent's wins,
in round order, to its spend before the window, as the loop does.  The
loop takes the rest of the block after a wrong guess, so speculation
changes no winner and no bit of the state; it only pays when the winners
repeat, as they do once stationary input has settled the multipliers.  A kernel's
``_margin`` says how far, relative to a score, its ``_bids`` may round
from its ``_scan``.  For pace, constrained, seeded and set-aside it is
zero: ``_bids`` computes the loop's scores by the same IEEE operations
(one method serves all four, as every multiplier lies in ``[0, inf]``),
so a window keeps at least one row: round one is always scored by
``_bids`` and their loops never start before it.  Greedy's ``_bids``
takes ``np.log1p`` where its loop takes ``math.log1p``, and the two can
differ by an ulp; its margin is ``2**-40``.  So greedy keeps a
speculated row only where the top score leads by more than the margin
(or is the one infinite score, or every score is zero), and the loop
takes the first row it does not and the rest of the block; and
``_candidates`` lowers each row's largest lower bound by twice the
margin, so the loop's winner stays a candidate.  ``pace_step`` resumes a
kernel from its state, advances it by one row and reads the scores of
that vector pass; ``pace_bid`` returns them.  Greedy's single step scans
every agent of its row in its ``_scan``, so it reports the
``math.log1p`` scores.  Proportional's running sum does not
speculate.

``run`` streams the value matrix in blocks of at most ``_CHUNK`` rows,
cut also at every checkpoint and at every power of two below ``_CHUNK``
(so a guess that misses early hands the loop only a short block), and
only one block at a time is held as Python floats, so a run needs memory
on the order of its input.  A generated instance reaches a kernel as its
points and the block's point ids, and the kernel gathers the block's
rows, so its matrix is never built; a matrix reaches it as the block's
rows.  A kernel advances a whole block: the auctions step it row by row;
proportional, whose update ignores the state, adds the block's weight
shares to the utilities in one sum over the rows, which numpy adds one
after another (``_total``), as the row-by-row sums would, and set-aside
adds its utilities the same way once its auction has picked the block's
winners.  Set-aside divides a run's points by its monopoly utilities
once.  The single-step API advances a one-row block.
"""

from __future__ import annotations

import math
from dataclasses import asdict, replace
from itertools import islice, repeat
from typing import ClassVar, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union, get_args

import numpy as np

from .model import (AgentWeights, InstanceError, Spec, ValueSequence, _normalize_checkpoints, known_keys, real,
                    reals, record, spec_from_dict, validate_instance)

INF = math.inf

# rows converted to Python floats at once; bounds a run's memory, not its result
_CHUNK = 4096
# rows whose candidates one pair of ``_bids`` calls bounds; changes no result
_WINDOW = 512


def _rows(points: np.ndarray, ids: Optional[np.ndarray]) -> np.ndarray:
    """The rows ``points[ids]``; ``points`` itself when ``ids`` is None."""
    return points if ids is None else points[ids]


def _total(steps: np.ndarray) -> np.ndarray:
    """``np.cumsum(steps, axis=0)[-1]`` bit for bit: numpy adds the rows of a
    C-contiguous matrix of two or more columns one after another, as
    ``np.add.reduce``, but sums a single column pairwise."""
    return np.add.reduce(steps, axis=0) if steps.shape[1] > 1 else np.cumsum(steps, axis=0)[-1]


def _arrivals(ids: np.ndarray, k: int) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Where the distinct points of a window arrive, from its rows' point ids
    ``ids`` (each below ``k``): the row of each point's first and of its last
    arrival, points in ascending id order, and each row's place among the
    points; None when no point repeats.  Found by counting: ``np.minimum.at``
    and ``np.maximum.at`` give each id its first and last row, and the count
    of ids below an id that arrive gives its place."""
    rows = np.arange(len(ids))
    last = np.full(k, -1)
    np.maximum.at(last, ids, rows)
    arrived = last >= 0
    place = np.cumsum(arrived) - 1
    if place[-1] + 1 == len(ids):  # as many points as rows
        return None
    first = np.full(k, len(ids))
    np.minimum.at(first, ids, rows)
    return first[arrived], last[arrived], place[ids]


class _PaceKernel:
    """Pacing's rule bound to the agent weights, and one run's state: each
    multiplier is the agent's weight over its tracked average
    ``(acc + xi)/tau``.  Plain pacing is seeded pacing at seed ``xi = 0``
    whose round one is the unserved state (``beta0``) rather than unit
    multipliers; each other kernel overrides what its rule changes.

    The state is the utilities ``u``, set-aside's ``aux``, the rounds
    ``tau``, the finite ``spend`` and each agent's ``infinite_spend_round``,
    as lists; ``acc`` names the accumulators the averages track, and
    ``floor`` and ``cap`` the interval each multiplier is projected to
    (``[0, inf]`` unless constrained).  :meth:`state` reads it as a
    :class:`PaceState`, and :func:`_resume` builds a kernel from one.
    Every item is split as ``base[i]`` to each agent plus ``top`` to the
    winner; ``pays`` says whether the winning score is money spent.

    ``_rounds`` is the rule: one loop over a block's rows that scores
    each row's candidates (the agents that ``_candidates`` finds can hold
    the largest score of a row of the point that arrives), picks the smallest index holding the
    largest score (a strict ``>`` scan, as ``max`` then ``index`` picks)
    and credits the winner ``top`` times its value in ``acc``.  ``_bids``
    scores many rows at once by the same operations, for ``_speculate``
    and ``_candidates``; ``_speculate`` takes at least a block's first
    row where ``_margin`` is zero: so the pacing loop never starts at
    ``tau == 0``, and round one is scored by ``_bids`` alone.
    """

    top = 1.0
    pays = True
    _margin = 0.0  # how far ``_bids`` may round from ``_scan``, relative to a score; zero where exact
    xi = 0.0  # the seed utility in every tracked average
    beta0 = INF  # the multipliers before round one
    _projects = False  # whether ``[floor, cap]`` can bind a served multiplier; ``[0, inf]`` cannot

    def __init__(self, variant: Variant, weights: AgentWeights):
        self.variant = variant
        self.weights = weights
        self.b = [float(x) for x in weights.array]
        self.b_vec = np.array(self.b)
        self.n = n = len(self.b)
        self.base = [0.0] * n
        self.floor, self.cap = [0.0] * n, [INF] * n  # each multiplier's interval
        self.u = [0.0] * n
        self.aux: Optional[List[float]] = None
        self.tau = 0
        self.spend = [0.0] * n
        self.infinite_spend_round = [0] * n
        self.kept = 0  # rows the last speculated window kept

    @property
    def acc(self) -> List[float]:
        """The accumulators the tracked averages read: the utilities."""
        return self.u

    def state(self) -> PaceState:
        return PaceState(
            tau=self.tau,
            utilities=np.array(self.u),
            variant=self.variant,
            weights=self.weights,
            aux=None if self.aux is None else np.array(self.aux),
        )

    def advance(self, points: np.ndarray, ids: Optional[np.ndarray] = None,
                out: Optional[List[float]] = None) -> Sequence[int]:
        """Advance over the rows ``points[ids]`` in order, or over the rows of
        ``points`` when ``ids`` is None (a matrix is its own points); returns
        the winners (-1 for none).  A list passed as ``out`` collects the
        scores of a one-row block.  Speculation takes the leading rows, the
        loop the rest."""
        block = _rows(points, ids)
        head = self._speculate(block, points, ids, out)
        if (k := len(head)) == len(block):
            return head
        return np.concatenate((head, self._rounds(block[k:], None if ids is None else ids[k:])))

    def _rounds(self, block: np.ndarray, ids: Optional[np.ndarray]) -> np.ndarray:
        """The rule's loop over ``block`` (whose point ids are ``ids``, or
        None), one window of ``_WINDOW`` rows at a time, each row scanning only
        the candidates that :meth:`_candidates` finds for its point.  Ids that
        reach the block's length are first made dense, in their order, so no
        window's bookkeeping grows with the instance's points."""
        winners, k = [], 0
        if ids is not None:
            k = int(ids.max()) + 1  # the ids lie below ``k``
            if k > len(ids):
                uniq, ids = np.unique(ids, return_inverse=True)
                k = len(uniq)
        # the scan is a short method of its own, and the lists are made here:
        # under tracemalloc an object costs time in proportion to how far
        # into its function it is made
        for start in range(0, len(block), _WINDOW):
            window = slice(start, start + _WINDOW)
            agents, values, counts, point = self._candidates(block[window], None if ids is None else ids[window], k)
            pairs = zip(agents.tolist(), values.tolist())
            if point is None:  # each row its own point: the rows take their pairs in turn
                winners += self._scan(map(islice, repeat(pairs), counts.tolist()))
            else:  # the rows of a point share its list
                lists = [list(islice(pairs, c)) for c in counts.tolist()]
                winners += self._scan(map(lists.__getitem__, point.tolist()))
        return np.fromiter(winners, np.intp, len(winners))  # a dtype given: ``np.array`` inspects every entry

    def _scan(self, rows: Iterable[Iterable[Tuple[int, float]]]) -> List[int]:
        """Pacing hands the whole item over at the winning bid, the
        multiplier projected to ``[floor, cap]``; an unserved agent (a zero
        average, or a multiplier that overflows) bids ``cap`` times any
        value it has (``inf`` unless constrained), and an infinite winning
        bid is flagged, not spent.  Each row gives its candidates as
        ``(agent, value)`` pairs in index order; a strict ``>`` scan keeps
        the smallest index holding the largest score.

        Only a kernel whose interval can bind (``_projects``) projects: a
        served ``m = b/a`` lies in ``[0, inf)``, so at ``[0, inf]`` the
        score ``m * x`` is the projected one bit for bit.  ``tau`` is
        carried as a float, exact below ``2**53``."""
        b, xi, top, floor, cap, acc, spend = self.b, self.xi, self.top, self.floor, self.cap, self.acc, self.spend
        free = not self._projects
        tau, winners = float(self.tau), []
        for row in rows:
            best = -1.0
            for i, x in row:
                if (a := (acc[i] + xi) / tau) > 0.0 and (m := b[i] / a) < INF:
                    s = m * x if free else (floor[i] if m < floor[i] else (cap[i] if m > cap[i] else m)) * x
                else:
                    s = cap[i] * x if x > 0.0 else 0.0
                if s > best:
                    best, w, won = s, i, x
            tau += 1.0
            acc[w] += top * won
            if best == INF:
                self.infinite_spend_round[w] = int(tau)
            else:
                spend[w] += best
            winners.append(w)
        self.tau = int(tau)
        return winners

    def _candidates(self, v: np.ndarray, ids: Optional[np.ndarray], k: int) -> Tuple[np.ndarray, ...]:
        """The agents of each point of the window ``v`` (rows whose point ids
        are ``ids``, each below ``k``; each row its own point when None)
        that can hold the largest score of a row where the point arrives:
        their indices and values, point after point in index order, each
        point's count, and each row's point, or None when no point repeats
        and the points are the rows.

        A point arrives first at row ``f`` of ``v`` and last at row ``l``
        (:func:`_arrivals` counts them).  ``_bids`` gives every agent's
        score on it at the state before ``v`` with ``tau`` advanced to row
        ``l`` (``hi``), and as if the agent had been credited every row of
        ``v`` before row ``l``, from the sequential ``np.cumsum`` of those
        credits, with ``tau`` at row ``f`` (``lo``).  IEEE rounding is
        monotonic, and a score is nonincreasing in ``acc`` and
        nondecreasing in ``tau``, so ``lo <= score <= hi`` bit for bit at
        every arrival of the point, and only agents with ``hi >= max(lo)``
        can reach the row's maximum; ties stay in.  ``max(lo)`` is first
        lowered by twice ``_margin``."""
        first = last = slice(0, len(v))
        pv, point = v, None
        if ids is not None and (arrivals := _arrivals(ids, k)) is not None:  # some point repeats
            first, last, point = arrivals
            pv = v[first]
        tau = np.arange(self.tau, self.tau + len(v), dtype=np.float64)[:, None]
        steps = np.empty((len(v) + 1, self.n))
        steps[0] = self.acc
        np.multiply(self.top, v, out=steps[1:])
        m = self._margin
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            lo = self._bids(np.cumsum(steps, axis=0, out=steps)[last], tau[first], pv)
            # bit for bit ``lo`` at ``m = 0``; an infinite ``lo`` stays infinite, and
            # only the unserved, whose numpy and ``math`` scores are both ``inf``, can win there;
            # a transposed copy gives each point's maximum faster than ``max(axis=1)``
            lo = lo.T.copy().max(axis=0)[:, None] * (1 - 2 * m) - m * 2**-1000
            keep = self._bids(np.array([self.acc]), tau[last], pv) >= lo
        rows, cols = np.nonzero(keep)
        return cols, pv[rows, cols], np.bincount(rows, minlength=len(pv)), point

    def _bids(self, acc: np.ndarray, tau: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The scores ``_rounds`` computes on the rows ``v``, given the
        accumulators before each row (``acc``: one row per row of ``v``, or
        one row for all) and the rounds before each (``tau``: a column, one
        entry per row or one for all).  Every multiplier lies in
        ``[0, inf]``: a zero or underflowed average gives ``b/0 = inf``, the
        unserved state, and before round one (``self.tau == 0``, where only
        the first row is round one) the first row's ``0/0`` is replaced by
        ``beta0``; so ``m * v`` is the
        loop's score wherever ``v > 0``, and ``0.0`` where ``v == 0``.
        Called inside ``np.errstate``."""
        m = self._multipliers(acc, tau)
        if not self.tau:
            m[0] = self.beta0
        return np.where(v > 0.0, m * v, 0.0)

    def _speculate(self, block: np.ndarray, points: np.ndarray, ids: Optional[np.ndarray],
                   out: Optional[List[float]]) -> np.ndarray:
        """Advance over the leading rows of ``block`` whose winners a
        window's guess gets right, plus the first row it gets wrong; returns
        their winners, and ``out`` collects their scores.

        ``block`` is the rows ``points[ids]``, or ``points`` itself when
        ``ids`` is None.  A window's winners are guessed from the
        multipliers at its start, one vector for every row: a guess only
        decides how many rows are kept, never a winner.  A window of more
        rows than there are points scores each point once and gathers its
        guess and guessed credit by the rows' ids, by the operations a
        per-row guess makes on the same values; set-aside's normalized
        points may hold ``inf`` where a point never arrives, which no row
        gathers.  The state before every row then comes from one
        ``np.cumsum`` over the guessed credits, and ``_bids`` scores all
        rows.  Every row up to the first whose argmax is not the guess is
        kept, that row too: the state before it is exact, so its argmax is.
        A kernel with a ``_margin`` keeps no row from the first whose top
        score leads by no more than it.  The spend is one ``np.bincount``
        over each agent's spend and then the kept rows' winning scores (an
        infinite one weighing ``0.0``): it adds in input order from ``0.0``,
        so each agent's spend is the loop's sum in round order, bit for bit.
        A window is twice the rows the last one kept, within the block;
        after a wrong guess or an uncertain row the loop takes the rest of
        the block.
        """
        n, top, acc, spend, flagged, m = self.n, self.top, self.acc, self.spend, self.infinite_spend_round, self._margin
        winners, done = [], 0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            while done < len(block):
                size = min(len(block) - done, max(1, 2 * self.kept))
                v = block[done : done + size]
                tau = np.arange(self.tau, self.tau + size, dtype=np.float64)[:, None]
                rows = np.arange(size)
                # a window of more rows than points guesses each point once, gathered by the ids
                src, at = (v, slice(None)) if ids is None or len(points) >= size else (points, ids[done : done + size])
                pick = self._bids(np.array([acc]), tau[:1], src).argmax(axis=1)
                guess, credit = pick[at], (top * src[np.arange(len(src)), pick])[at]
                steps = np.zeros((size + 1, n))
                steps[0] = acc
                steps[rows + 1, guess] = credit
                before = np.cumsum(steps, axis=0, out=steps)[:-1]
                scores = self._bids(before, tau, v)
                won = scores.argmax(axis=1)
                wrong = np.flatnonzero(won != guess)
                kept = int(wrong[0]) + 1 if wrong.size else size
                if m:  # keep no row from the first uncertain one, argmin's first False: certain
                    # is a runner-up below ``1 - m`` of the top by more than a subnormal's error,
                    # an infinite top counting as ``2**1000``, far from overflow; or every score zero
                    first, second = np.sort(scores[:kept], axis=1)[:, :-3:-1].T if n > 1 else (scores[:kept, 0], -1.0)
                    certain = (second < np.minimum(first, 2.0**1000) * (1 - m) - 2**-1000) | (first == 0.0)
                    kept = int(np.argmin(np.append(certain, False)))
                won, rows = won[:kept], rows[:kept]
                if out is not None:
                    out.extend(scores[:kept].ravel().tolist())
                if self.pays:  # each agent's spend, then its wins in round order
                    best = scores[rows, won]
                    paid = np.where(best < INF, best, 0.0)  # a win from the unserved state adds zero
                    spend[:] = np.bincount(np.append(np.arange(n), won), np.append(spend, paid)).tolist()
                    for k in np.flatnonzero(best == INF).tolist():
                        flagged[won[k]] = self.tau + k + 1
                if kept:  # the last kept row is credited to its argmax, which a wrong guess is not
                    w = int(won[-1])
                    acc[:] = before[kept - 1].tolist()
                    acc[w] += top * float(v[kept - 1, w])
                self.tau += kept
                self.kept = kept
                winners.append(won)
                done += kept
                if kept < size or wrong.size:
                    break
        return np.concatenate(winners or [np.empty(0, dtype=np.intp)])

    def beta(self) -> np.ndarray:
        """Multipliers after ``tau`` rounds (``B/((acc + xi)/tau)``, ``inf``
        for the unserved); ``beta0`` before round one."""
        if self.tau == 0:
            return np.full(self.n, self.beta0)
        with np.errstate(divide="ignore", over="ignore"):
            return self._multipliers(np.array(self.acc), self.tau)

    def _multipliers(self, acc: np.ndarray, tau: Union[int, np.ndarray]) -> np.ndarray:
        """The multipliers after ``tau >= 1`` rounds, from the accumulators
        ``acc``; ``tau`` is a count or a column of counts."""
        return self.b_vec / ((acc + self.xi) / tau)

    def averages(self) -> np.ndarray:
        """Tracked average utilities after ``tau >= 1`` rounds."""
        return (np.array(self.acc) + self.xi) / self.tau


class _ConstrainedKernel(_PaceKernel):
    """Each multiplier is ``B/ubar`` projected to the agent's interval
    ``[floor, cap]``, a zero average (no win yet, or underflow) projecting
    to ``cap``; round one bids at unit multipliers.  Nothing but the
    utilities is stored: the loop projects each multiplier as it bids."""

    beta0 = 1.0
    _projects = True

    def __init__(self, variant: Constrained, weights: AgentWeights):
        super().__init__(variant, weights)
        if len(variant.lower) != self.n:
            raise InstanceError("projection intervals length does not match agent count")
        self.floor, self.cap = list(variant.lower), list(variant.upper)

    def _multipliers(self, acc, tau):
        # a zero average's ``B/0 = inf`` projects to ``cap``
        return np.clip(super()._multipliers(acc, tau), self.floor, self.cap)


class _SeededKernel(_PaceKernel):
    """Pacing with a positive seed; round one bids at unit multipliers."""

    beta0 = 1.0

    def __init__(self, variant: Seeded, weights: AgentWeights):
        super().__init__(variant, weights)
        self.xi = variant.seed_utility


class _SetAsideKernel(_SeededKernel):
    """Seeded pacing (seed ``1/(2n)``) on the auctioned half; ``aux`` holds
    its cumulative utilities, in values normalized by monopolistic utility."""

    top = 0.5

    def __init__(self, variant: SetAside, weights: AgentWeights):
        _PaceKernel.__init__(self, variant, weights)
        self.xi = 1.0 / (2.0 * self.n)
        mono = variant.monopoly_utilities
        if mono is None:
            raise InstanceError("set-aside needs resolved monopoly utilities")
        if len(mono) != self.n:
            raise InstanceError("monopoly utilities length does not match agent count")
        self.mono = mono
        self.base = [self.xi] * self.n
        self.aux = [0.0] * self.n
        self._points = self._normalized = None

    @property
    def acc(self):
        return self.aux

    def advance(self, points, ids=None, out=None):
        """The auction is seeded pacing on the normalized values and ``aux``:
        a run's points are divided by the monopoly utilities once, a
        matrix's rows block by block.  The utilities then add, round by
        round, each agent's ``base`` share and the winner's ``top`` half,
        summed over the block as ``np.cumsum`` would."""
        if points is not self._points:
            # the monopoly utilities sum the values that arrive, so only a point
            # that never does (or a caller's lower prediction) overflows to ``inf``
            with np.errstate(over="ignore"):
                self._points, self._normalized = points, np.divide(points, self.mono)
        winners = super().advance(self._normalized, ids, out)
        block = _rows(points, ids)
        rows = np.arange(len(block))
        steps = np.zeros((2 * len(block) + 1, self.n))
        steps[0] = self.u
        steps[1::2] = np.multiply(self.base, block)
        steps[2::2][rows, winners] = self.top * block[rows, winners]
        self.u = _total(steps).tolist()
        return winners

    def averages(self):
        return np.asarray(self.mono) * super().averages()


class _GreedyKernel(_PaceKernel):
    """Scores are exact log-welfare increments, not money: nothing is spent.
    ``_bids``' ``np.log1p`` and the loop's ``math.log1p`` can differ by an
    ulp, which ``_margin`` covers; a single step reports the loop's scores."""

    pays = False
    _margin = 2.0**-40

    def _speculate(self, block, points, ids, out):
        # a single step is not speculated: it scores every agent of its one row in the loop
        if out is None:
            return super()._speculate(block, points, ids, out)
        return self._scan([zip(range(self.n), block[0].tolist())], out)

    def _scan(self, rows, out=None):
        """The increment ``B log(1 + v/U)`` is infinite only for ``U == 0``:
        where ``v/U`` overflows, ``log(v) - log(U)`` is that logarithm."""
        b, u, log, log1p = self.b, self.u, math.log, math.log1p
        winners = []
        for row in rows:
            best = -1.0
            for i, v in row:
                if v <= 0.0:
                    s = 0.0
                elif (ui := u[i]) == 0.0:
                    s = INF
                elif (x := v / ui) < INF:
                    s = b[i] * log1p(x)
                else:
                    s = b[i] * (log(v) - log(ui))
                if out is not None:  # a single step's scores
                    out.append(s)
                if s > best:
                    best, w, won = s, i, v
            u[w] += won
            winners.append(w)
        self.tau += len(winners)
        return winners

    def _bids(self, acc, tau, v):
        """The loop's increments in numpy: ``U == 0 < v`` gives ``v/U = inf``
        and ``log1p(inf) = inf``, ``0/0`` is the zero of ``v == 0``, and the
        logarithms are taken only where ``v/U`` overflows from ``U > 0``."""
        x = v / acc
        s = np.log1p(x)
        if (over := x == INF).any():
            over &= acc > 0.0
            s[over] = np.log(v[over]) - np.log(np.broadcast_to(acc, v.shape)[over])
        return np.where(v > 0.0, self.b_vec * s, 0.0)


class _ProportionalKernel(_PaceKernel):
    """No auction: every agent gets its weight share of every item."""

    top = 0.0
    pays = False
    beta0 = 1.0

    def __init__(self, variant: Proportional, weights: AgentWeights):
        super().__init__(variant, weights)
        total = sum(self.b)
        self.base = [x / total for x in self.b]

    def advance(self, points, ids=None, out=None):
        # u + base*row_1 + ... + base*row_k, added in round order: the IEEE
        # operations of ``u[i] += s * row[i]``
        block = _rows(points, ids)
        self.u = _total(np.vstack((self.u, np.multiply(self.base, block)))).tolist()
        self.tau += len(block)
        if out is not None:
            out.extend([0.0] * block.size)  # nobody bids
        return np.full(len(block), -1)


class _Variant(Spec):
    """A variant's spec (read by :class:`Spec`, written by ``to_dict``, and its
    ``label``) and kernel; the six variants are records whose
    fields are their config keys."""

    name: ClassVar[str]
    _kernel: ClassVar[type]

    @property
    def label(self) -> str:
        """Short human/CLI label; results are keyed by it."""
        return self.name

    def kernel(self, weights: AgentWeights) -> _PaceKernel:
        return self._kernel(self, weights)

    def to_dict(self) -> dict:
        """JSON-friendly structured form, inverse of :func:`variant_from_dict`."""
        items = asdict(self).items()
        return {"type": self.name, **{k: list(v) if isinstance(v, tuple) else v for k, v in items}}


@record
class Unconstrained(_Variant):
    name: ClassVar[str] = "pace"
    _kernel = _PaceKernel


@record
class Constrained(_Variant):
    """Pacing with multipliers projected to ``[lower_i, upper_i]``."""

    lower: Tuple[float, ...]
    upper: Tuple[float, ...]
    name: ClassVar[str] = "constrained"
    _kernel = _ConstrainedKernel

    def __post_init__(self):
        lows, highs = tuple(reals(self.lower).tolist()), tuple(reals(self.upper).tolist())
        if len(lows) != len(highs):
            raise InstanceError("interval bounds differ in length")
        for i, (lo, hi) in enumerate(zip(lows, highs)):
            if not (0 <= lo < hi < INF):
                raise InstanceError(f"need 0 <= lower < upper < inf at agent {i + 1}")
        object.__setattr__(self, "lower", lows)
        object.__setattr__(self, "upper", highs)

    @classmethod
    def from_slack(cls, weights: AgentWeights, slack: float) -> "Constrained":
        """Default intervals ``[B_i/(1+slack), B_i*(1+slack)]``."""
        if slack <= 0:
            raise InstanceError("slack must be positive")
        b = weights.array
        return cls(tuple(b / (1.0 + slack)), tuple(b * (1.0 + slack)))

    @classmethod
    def from_dict(cls, d: Mapping, weights: Optional[AgentWeights] = None) -> "Constrained":
        """Explicit ``lower`` and ``upper`` bounds, or a ``slack`` that derives them from ``weights``."""
        if "slack" not in d:
            if "lower" not in d or "upper" not in d:
                raise InstanceError("needs lower/upper bounds or a slack")
            return super().from_dict(d)
        if "lower" in d or "upper" in d:
            raise InstanceError("give lower/upper bounds or a slack, not both")
        if weights is None:
            raise InstanceError("the slack form needs agent weights")
        return cls.from_slack(weights, real(known_keys(d, "slack")["slack"]))


@record
class Seeded(_Variant):
    """Pacing with a positive fictitious starting utility per agent."""

    seed_utility: float
    name: ClassVar[str] = "seeded"
    _kernel = _SeededKernel

    def __post_init__(self):
        xi = real(self.seed_utility)
        if not (xi > 0 and math.isfinite(xi)):
            raise InstanceError("seed_utility must be positive and finite")
        object.__setattr__(self, "seed_utility", xi)

    @property
    def label(self) -> str:
        return f"seeded(seed_utility={self.seed_utility:g})"


@record
class SetAside(_Variant):
    """Half-proportional, half-auctioned pacing.

    ``monopoly_utilities`` are each agent's total value over the whole
    sequence (or a caller-supplied prediction of it); when ``None`` the
    executor fills in the exact column sums.
    """

    monopoly_utilities: Optional[Tuple[float, ...]] = None
    name: ClassVar[str] = "setaside"
    _kernel = _SetAsideKernel

    def __post_init__(self):
        w = self.monopoly_utilities
        if w is not None:
            w = tuple(reals(w).tolist())
            if any(not (x > 0 and math.isfinite(x)) for x in w):
                raise InstanceError("monopoly utilities must be positive and finite")
            object.__setattr__(self, "monopoly_utilities", w)


@record
class OneStepGreedy(_Variant):
    name: ClassVar[str] = "greedy"
    _kernel = _GreedyKernel


@record
class Proportional(_Variant):
    name: ClassVar[str] = "proportional"
    _kernel = _ProportionalKernel


Variant = Union[Unconstrained, Constrained, Seeded, SetAside, OneStepGreedy, Proportional]

VARIANTS: Dict[str, type] = {v.name: v for v in get_args(Variant)}


def resolve_variant(variant: Variant, values: ValueSequence) -> Variant:
    """Fill in set-aside's monopolistic utilities from the instance."""
    if isinstance(variant, SetAside) and variant.monopoly_utilities is None:
        return replace(
            variant,
            monopoly_utilities=tuple(float(x) for x in values.monopolistic_utilities()),
        )
    return variant


@record
class PaceState:
    """One dynamic's per-agent state after ``tau`` completed rounds.

    ``utilities`` are cumulative realized utilities.  ``aux`` holds the
    cumulative normalized auction utilities for ``SetAside`` and is
    ``None`` otherwise.
    """

    tau: int
    utilities: np.ndarray
    variant: Variant
    weights: AgentWeights
    aux: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return int(self.utilities.size)

    @property
    def beta(self) -> np.ndarray:
        """Pacing multipliers; ``inf`` marks the unserved state.

        An unserved agent bids ``inf`` on any item it values and zero on
        the others.  Under the unconstrained (and greedy) rule every agent
        starts unserved; the seeded, projected, set-aside and proportional
        variants start with unit multipliers instead.
        """
        return _resume(self).beta()

    @property
    def averages(self) -> Optional[np.ndarray]:
        """The variant's tracked average utilities (None before round 1).

        For ``Seeded`` this includes the seed: (U + seed)/tau.  For
        ``SetAside`` it is in raw utility units, so that multiplier times
        average equals weight times monopolistic utility.
        """
        if self.tau == 0:
            return None
        return _resume(self).averages()


def new_state(variant: Variant, weights: AgentWeights) -> PaceState:
    """Fresh state before any item has arrived."""
    return variant.kernel(weights).state()


def _resume(state: PaceState) -> _PaceKernel:
    """The kernel of ``state``'s dynamic, resumed from it (spend restarts at zero)."""
    k = state.variant.kernel(state.weights)
    k.u = [float(x) for x in state.utilities]
    k.tau = state.tau
    if state.aux is not None:
        k.aux = [float(x) for x in state.aux]
    return k


@record
class StepOutcome:
    """Everything one round produced.

    ``bids`` are the decision scores actually compared: multiplier times
    value for the pacing variants (times weight-normalized value for
    ``SetAside``), log-welfare increments for the greedy rule, zeros for
    the proportional baseline.  ``expenditure`` is zero except at the
    winner, where it equals the winning bid; ``inf`` flags a win from the
    unserved state.
    """

    winner: Optional[int]
    allocation: np.ndarray
    bids: np.ndarray
    expenditure: np.ndarray
    utilities: np.ndarray


def pace_bid(state: PaceState, value_row: Sequence[float]) -> np.ndarray:
    """Decision scores the next auction would compare (``inf`` possible).

    An unserved agent bids infinite on any item it values and zero
    otherwise; under the unconstrained rule that covers every agent in
    round one.  The seeded, projected, and set-aside variants start from
    unit multipliers instead, so their first-round bids are the raw
    (for set-aside: weight-normalized) values.  Greedy scores are the
    exact log-welfare increments; the proportional baseline bids zero.
    """
    return pace_step(state, value_row)[1].bids


def pace_step(state: PaceState, value_row: Sequence[float]) -> Tuple[PaceState, StepOutcome]:
    """Run one auction round; returns the advanced state and its outcome.
    The row is refused as a one-item :class:`ValueSequence` is, or for a
    length other than the state's agent count."""
    block = ValueSequence([value_row]).matrix
    if block.shape[1] != state.n:
        raise InstanceError(f"value row length {block.shape[1]} does not match agent count {state.n}")
    k = _resume(state)
    scores: List[float] = []  # the scores the round compares
    (w,) = k.advance(block, out=scores)
    alloc = np.array(k.base)
    util = alloc * block[0]
    exp = np.zeros(k.n)
    if w >= 0:
        alloc[w] += k.top
        util[w] += k.top * block[0, w]
        if k.pays:
            exp[w] = scores[w]  # inf when won from the unserved state
    return k.state(), StepOutcome(None if w < 0 else w, alloc, np.array(scores), exp, util)


@record
class RunTrace:
    """Full record of one dynamic's run.

    ``winners`` holds the winning agent per round (-1 for the
    proportional baseline).  Checkpoint arrays snapshot cumulative
    utilities, multipliers, and cumulative finite expenditure after the
    listed rounds.  ``infinite_spend_rounds[i]`` is the round at which
    agent ``i`` won from the unserved state (0 if it never did); those
    infinite expenditures are excluded from the cumulative sums and
    flagged instead.
    """

    variant: Variant
    weights: AgentWeights
    t: int
    n: int
    winners: np.ndarray
    checkpoints: Tuple[int, ...]
    checkpoint_utilities: np.ndarray
    checkpoint_beta: np.ndarray
    checkpoint_spend: np.ndarray
    final_utilities: np.ndarray
    final_beta: np.ndarray
    final_spend: np.ndarray
    infinite_spend_rounds: Tuple[int, ...]

    @property
    def final_avg_utilities(self) -> np.ndarray:
        """Realized time-averaged utilities U/t."""
        return self.final_utilities / self.t

    def allocation_matrix(self) -> np.ndarray:
        """Dense t x n allocation; rows sum to at most one."""
        k = self.variant.kernel(self.weights)
        x = np.empty((self.t, self.n))
        x[:] = k.base
        if k.top:
            x[np.arange(self.t), self.winners] += k.top
        return x

    def to_csv(self, path) -> None:
        """Checkpoint table: tau, then per-agent avg utility, beta, spend."""
        import csv as _csv

        with open(path, "w", newline="") as fh:
            wr = _csv.writer(fh, lineterminator="\n")
            wr.writerow(["tau"] + [f"{col}_a{i + 1}" for col in ("u_avg", "beta", "spend") for i in range(self.n)])
            for k, tau in enumerate(self.checkpoints):
                cols = (self.checkpoint_utilities[k] / tau, self.checkpoint_beta[k], self.checkpoint_spend[k])
                wr.writerow([tau] + [repr(float(v)) for col in cols for v in col])

    def to_json_dict(self) -> dict:
        def _vals(a):
            return [float(v) for v in a]

        def _beta(a):
            return [None if math.isinf(v) else float(v) for v in a]

        return {
            "variant": self.variant.label,
            "variant_spec": self.variant.to_dict(),
            "weights": _vals(self.weights.array),
            "t": self.t,
            "n": self.n,
            "final_utilities": _vals(self.final_utilities),
            "final_avg_utilities": _vals(self.final_avg_utilities),
            "final_beta": _beta(self.final_beta),
            "final_spend": _vals(self.final_spend),
            "infinite_spend_rounds": list(self.infinite_spend_rounds),
            "checkpoints": list(self.checkpoints),
            "checkpoint_utilities": [_vals(r) for r in self.checkpoint_utilities],
            "checkpoint_beta": [_beta(r) for r in self.checkpoint_beta],
            "checkpoint_spend": [_vals(r) for r in self.checkpoint_spend],
            "winners": [int(w) for w in self.winners],
        }

    @classmethod
    def from_json_dict(cls, d: dict, values: ValueSequence) -> "RunTrace":
        """Re-run a trace saved by :meth:`to_json_dict` on ``values``; refused
        unless the re-run picks the trace's winners, one per round of ``values``."""
        if not isinstance(d, dict):
            raise InstanceError("trace JSON must hold a mapping")
        try:
            variant = variant_from_dict(d["variant_spec"])
            weights, checkpoints, winners = d["weights"], d["checkpoints"], d["winners"]
        except KeyError as exc:
            raise InstanceError(f"trace JSON is missing the {exc.args[0]!r} field") from None
        try:
            weights = AgentWeights(weights)
        except (TypeError, ValueError, OverflowError) as exc:  # InstanceError included
            raise InstanceError(f"trace JSON 'weights': {exc}") from None
        if not isinstance(winners, list):
            raise InstanceError(f"trace JSON 'winners' must be a list, not {winners!r}")
        if len(winners) != values.t:
            raise InstanceError(f"trace has {len(winners)} winners for an instance of {values.t} rounds")
        trace = run(values, weights, variant, checkpoints)
        for tau, (saved, rerun) in enumerate(zip(winners, trace.winners.tolist()), 1):
            if saved != rerun:
                raise InstanceError(f"trace winner {saved!r} in round {tau} differs from the re-run's {rerun}")
        return trace


def variant_from_dict(d: Mapping, weights: Optional[AgentWeights] = None) -> Variant:
    """Build a variant from its structured form, read by its class in
    :data:`VARIANTS`; ``weights`` serve ``constrained``'s slack form."""
    return spec_from_dict(VARIANTS, d, "variant", weights)


def run(
    values: ValueSequence,
    weights: AgentWeights,
    variant: Variant,
    checkpoints: Optional[Sequence[int]] = None,
) -> RunTrace:
    """Execute a dynamic over the whole sequence.

    ``checkpoints`` (sorted round numbers) select where cumulative
    utilities, multipliers, and expenditures are snapshotted; the final
    round is always captured in the ``final_*`` fields.  The rows are
    read (gathered, in point form) in segments that end at every
    checkpoint, at every power of two below ``_CHUNK``, at every multiple
    of ``_CHUNK`` and at the horizon.  Each segment is speculated afresh,
    so a guess that misses while the multipliers settle hands the loop
    only the rest of a short segment.
    """
    report = validate_instance(values, weights)
    if not report.ok:
        raise InstanceError(report.first_failure())
    variant = resolve_variant(variant, values)
    t, n = values.t, values.n
    cps = _normalize_checkpoints(checkpoints, t)

    kernel = variant.kernel(weights)
    winners = np.empty(t, dtype=np.int32)
    cp = np.zeros((3, len(cps), n))  # utilities, multipliers and spend at each checkpoint

    points, index = values.points, values.index
    start = cp_iter = 0
    pow2 = (1 << k for k in range(_CHUNK.bit_length() - 1))
    for end in sorted(set(cps).union((p for p in pow2 if p < t), range(_CHUNK, t, _CHUNK), (t,))):
        block = (points[start:end],) if index is None else (points, index[start:end])
        winners[start:end] = kernel.advance(*block)
        if cp_iter < len(cps) and cps[cp_iter] == end:
            cp[:, cp_iter] = kernel.u, kernel.beta(), kernel.spend
            cp_iter += 1
        start = end

    return RunTrace(
        variant=variant,
        weights=weights,
        t=t,
        n=n,
        winners=winners,
        checkpoints=cps,
        checkpoint_utilities=cp[0],
        checkpoint_beta=cp[1],
        checkpoint_spend=cp[2],
        final_utilities=np.array(kernel.u),
        final_beta=kernel.beta(),
        final_spend=np.array(kernel.spend),
        infinite_spend_rounds=tuple(kernel.infinite_spend_round),
    )
