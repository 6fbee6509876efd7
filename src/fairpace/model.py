"""Core domain types for online fair-allocation instances.

An instance is a sequence of item values (one row per item, in arrival
order, one column per agent) together with a vector of positive agent
weights.  Everything downstream — the allocation dynamics, the
equilibrium benchmark, the metrics — consumes these two objects.

A value sequence is held in point form: a matrix of value vectors (its
points) and, per round, the id of the point that arrived.  A generated
instance draws every item from a finite set of points, so its ``t x n``
matrix is never built: the dynamics gather one block of rows at a time,
the row merge and the prices work per point, and column sums are taken
block by block in round order.  A CSV, or any matrix given directly,
is its own points with no index, and is stored as it was given.

This module is the one value layer and imports no other package module:
what a number is (:func:`real` and :func:`integral` for a field,
:func:`reals` for an array, each refusing a boolean or a string), what a
valid value vector is (:func:`value_matrix`, which instances,
distribution supports, periodic pools and chain states all go through)
and when two vectors are the same point (the row merge ``_compress``)
are decided here, and :class:`FiniteDistribution` lives here.  So does
:func:`record`, which every record type of the package is declared with.

All values are stored as float64.  Types are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import csv
import inspect
import math
import reprlib
# _FIELD_INITVAR marks an InitVar, and _HAS_DEFAULT_FACTORY is the default a signature shows for a factory
from dataclasses import _FIELD_INITVAR, _HAS_DEFAULT_FACTORY, MISSING, FrozenInstanceError, dataclass, fields
from functools import cached_property
from typing import List, Mapping, Optional, Tuple

import numpy as np


# rows held at a time by load_csv (as Python floats), by _compress (as
# sorted neighbours) and by the point form's column sums and save_csv (as
# gathered rows), so none makes a copy of the whole matrix
_ROW_BLOCK = 1024


class InstanceError(ValueError):
    """Raised for malformed instance files or ill-formed instance data."""


def known_keys(d: Mapping, *keys: str) -> Mapping:
    """``d``, refused if it is not a mapping or holds a key outside ``keys``."""
    if not isinstance(d, Mapping):
        raise InstanceError(f"expected a mapping, not {d!r}")
    for key in d:
        if key not in keys:
            raise InstanceError(f"unknown key {key!r}")
    return d


def _scalar(x, name: Optional[str], integer: bool):
    """``x`` read as :func:`integral` or :func:`real` reads it."""
    try:
        if isinstance(x, (bool, np.bool_, str)) or integer and not (isinstance(x, int) or float(x).is_integer()):
            raise InstanceError(f"{x!r} is not {'an integer' if integer else 'a number'}")
        return int(x) if integer else float(x)
    except (TypeError, ValueError, OverflowError):
        if name is None:
            raise
        raise InstanceError(f"{name} must be a number{' with an integer value' if integer else ''}, not {x!r}") from None


def integral(x, name: Optional[str] = None) -> int:
    """``x`` as an int; only a number with an integer value such as ``3.0`` is
    read, and a boolean or a string is refused.  A Python int is read
    exactly, however large.  With a ``name``, any refusal is one
    :class:`InstanceError` that names the field."""
    return _scalar(x, name, True)


def real(x, name: Optional[str] = None) -> float:
    """``x`` as a float; a boolean or a string is refused, not read.  With a
    ``name``, any refusal is one :class:`InstanceError` that names the field."""
    return _scalar(x, name, False)


def reals(x) -> np.ndarray:
    """Nested numbers ``x`` as a float64 array, each entry read as
    :func:`real` reads a scalar, so a boolean or a string at any depth is
    refused.  A float or integer array is not read entry by entry, and a
    float64 one is returned as it is, without a copy."""
    _entries(x)
    return np.asarray(x, dtype=np.float64)


def _entries(x) -> None:
    """Read every entry of nested lists, tuples and arrays ``x`` as
    :func:`real` does; a float or integer array is read whole."""
    if isinstance(x, np.ndarray):
        if x.dtype.kind not in "fiu":
            _entries(x.tolist())
    elif isinstance(x, (list, tuple)):
        for e in x:
            _entries(e)
    else:
        real(x)


def record(cls: type) -> type:
    """``cls`` as ``dataclass(frozen=True)`` makes it, without the code that
    compiles: :func:`dataclasses.dataclass` reads its fields (so ``fields``,
    ``replace``, ``asdict`` and ``is_dataclass`` work), and every record
    shares one ``__init__``, ``__repr__``, ``__eq__``, ``__hash__``,
    ``__setattr__`` and ``__delattr__``.  They do what the generated ones
    do, except that ``==`` compares arrays, also inside tuples, by
    ``np.array_equal`` instead of raising.  A field option they do not
    implement (``init``, ``repr``, ``compare``, ``hash``, ``kw_only``,
    ``InitVar``) is refused.  An ``__eq__`` the class defines is kept, as
    ``dataclass`` keeps it."""
    doc = cls.__doc__
    cls.__doc__ = cls.__name__  # so dataclass() does not call inspect.signature, which compiles tokenize's pattern
    cls = dataclass(init=False, repr=False, eq=False)(cls)
    fs = fields(cls)
    if any(f._field_type is _FIELD_INITVAR or f in fs and not (f.init and f.repr and f.compare and f.hash is None
           and not f.kw_only) for f in cls.__dataclass_fields__.values()):
        raise TypeError(f"{cls.__qualname__}: a record's fields take only a default or a default_factory")
    cls._record = {f.name: (f.default, f.default_factory) for f in fs}, hasattr(cls, "__post_init__")
    cls.__signature__ = inspect.Signature([inspect.Parameter(
        f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD, annotation=f.type, default=_HAS_DEFAULT_FACTORY
        if f.default_factory is not MISSING else inspect.Parameter.empty if f.default is MISSING else f.default)
        for f in fs], return_annotation=None)
    cls.__doc__ = doc or cls.__name__ + str(cls.__signature__).replace(" -> None", "")  # as dataclass writes one
    cls.__init__, cls.__repr__, cls.__hash__ = _init, _repr, _hash
    cls.__eq__ = vars(cls).get("__eq__", _eq)  # a class's own, as dataclass keeps it
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls


def _init(self, *args, **kwargs):
    spec, post_init = type(self)._record
    given = type(self).__signature__.bind(*args, **kwargs).arguments  # a TypeError as a call would raise
    self.__dict__.update({k: given[k] if k in given else d if f is MISSING else f() for k, (d, f) in spec.items()})
    if post_init:
        self.__post_init__()


@reprlib.recursive_repr()
def _repr(self) -> str:
    return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._record[0])})"


def _eq(self, other):
    same = other.__class__ is self.__class__
    return all(_same(getattr(self, name), getattr(other, name)) for name in self._record[0]) if same else NotImplemented


def _same(a, b) -> bool:
    """``a == b`` as a tuple's ``==`` compares its entries, arrays compared whole."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return a is b or np.array_equal(a, b)
    if type(a) is tuple and type(b) is tuple:
        return len(a) == len(b) and all(map(_same, a, b))
    return a is b or bool(a == b)


def _hash(self) -> int:
    return hash(tuple(getattr(self, name) for name in self._record[0]))


def _frozen(self, name, *value):
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


class Spec:
    """A :func:`record` read from its config mapping: its fields are its
    keys, and its own ``__post_init__`` converts and checks them, so the
    Python API and the config reach one reader."""

    @classmethod
    def from_dict(cls, d: Mapping, *context) -> "Spec":
        """Read the fields by name; a key that is not a field, or a missing
        field without a default, is refused."""
        known_keys(d, *(f.name for f in fields(cls)))
        for f in fields(cls):
            if f.name not in d and f.default is MISSING and f.default_factory is MISSING:
                raise InstanceError(f"missing the {f.name!r} field")
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})


def spec_from_dict(registry: Mapping[str, type], d, what: str, *context) -> Spec:
    """Build the spec that ``d['type']`` names in ``registry`` from the rest
    of ``d``; ``context`` goes to its ``from_dict``.  Any failure is one
    :class:`InstanceError` that names the type."""
    if not isinstance(d, Mapping):
        raise InstanceError(f"{what} spec must be a mapping, not {d!r}")
    kind = d.get("type")
    cls = registry.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise InstanceError(f"unknown {what} type {kind!r}")
    try:
        return cls.from_dict({k: v for k, v in d.items() if k != "type"}, *context)
    except (TypeError, ValueError, IndexError, OverflowError) as exc:  # InstanceError included
        raise InstanceError(f"{kind} {what}: {exc}") from None


def _normalize_checkpoints(checkpoints, t: int) -> Tuple[int, ...]:
    """The distinct rounds of ``checkpoints`` in order (none for None),
    refused unless each is an integer in ``[1, t]``."""
    if checkpoints is None:
        return ()
    try:
        cps = sorted({integral(c) for c in checkpoints})
    except (TypeError, ValueError):
        raise InstanceError(f"checkpoints must be a list of rounds, not {checkpoints!r}") from None
    if cps and (cps[0] < 1 or cps[-1] > t):
        raise InstanceError(f"checkpoints must lie in [1, {t}]")
    return tuple(cps)


def _frozen_array(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=np.float64)
    out.setflags(write=False)
    return out


def value_matrix(a) -> np.ndarray:
    """``a`` as a read-only C-contiguous float64 matrix of item values.

    Refused unless it is 2-D with at least one item (row) and one agent
    (column); the first non-finite, then the first negative entry
    (row-major) is refused naming its item and agent.  A C-contiguous
    float64 array is kept as is, without a copy, and marked read-only;
    any other input is read by :func:`reals`, which refuses a boolean or a
    string, into one such array.  Instances, supports, pools and chain
    states all go through this one check.
    """
    m = reals(a)
    if m.ndim != 2:
        raise InstanceError(f"value matrix must be 2-D, got {m.ndim}-D")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise InstanceError("value matrix needs at least one item and one agent")
    lo, hi = m.min(), m.max()  # NaN propagates to both; no temporary of the matrix size
    if not (np.isfinite(lo) and np.isfinite(hi)):
        tau, i = np.argwhere(~np.isfinite(m))[0]
        raise InstanceError(f"non-finite value at item {tau + 1}, agent {i + 1}")
    if lo < 0:
        tau, i = np.argwhere(m < 0)[0]
        raise InstanceError(f"negative value at item {tau + 1}, agent {i + 1}")
    return _frozen_array(m)


def _compress(
    matrix: np.ndarray, index: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge identical rows; returns (unique rows, counts, inverse map).

    Row-wise ``np.unique`` results, order included, from a stable lexsort:
    each unique row is its group's first arrival, and ``-0.0`` merges
    with ``0.0``.  Neighbouring sorted rows are compared ``_ROW_BLOCK`` at
    a time, so no sorted copy of the matrix is made.

    With an ``index``, the rows are ``matrix[index]`` (``matrix`` holds
    the points and ``index`` the point of each round), and the result is
    that of the gathered rows bit for bit without gathering them: the
    points that arrive are merged in the order of their first arrival,
    so each group keeps its first arrival's zero signs.
    """
    if index is not None:
        arrival = np.full(matrix.shape[0], index.size)  # each point's first round
        np.minimum.at(arrival, index, np.arange(index.size))
        seen = np.argsort(arrival, kind="stable")[: np.count_nonzero(arrival < index.size)]
        uniq, _, merged = _compress(matrix[seen])
        group = np.empty(matrix.shape[0], dtype=merged.dtype)
        group[seen] = merged
        inverse = group[index]
        return uniq, np.bincount(inverse, minlength=uniq.shape[0]).astype(np.float64), inverse
    order = np.lexsort(matrix.T[::-1])
    first = np.empty(order.size, dtype=bool)
    first[0] = True
    for a in range(1, order.size, _ROW_BLOCK):
        s = matrix[order[a - 1 : a + _ROW_BLOCK]]
        np.any(s[1:] != s[:-1], axis=1, out=first[a : a + _ROW_BLOCK])
    uniq = matrix[order[first]]
    group = np.cumsum(first, dtype=order.dtype)
    group -= 1
    inverse = np.empty_like(order)
    inverse[order] = group
    return uniq, np.bincount(inverse).astype(np.float64), inverse


@record
class AgentWeights:
    """Positive, finite agent weights (budgets in the market reading) with a
    finite total."""

    array: np.ndarray

    def __post_init__(self):
        arr = reals(self.array).reshape(-1)
        if arr.size < 1:
            raise InstanceError("need at least one agent weight")
        with np.errstate(over="ignore"):  # a total past the largest float is refused below
            total = arr.sum()
        if not np.isfinite(total):
            raise InstanceError("agent weights and their total must be finite")
        if np.any(arr <= 0):
            i = int(np.argmax(arr <= 0))
            raise InstanceError(f"nonpositive weight at agent {i + 1}")
        object.__setattr__(self, "array", _frozen_array(arr))

    @classmethod
    def equal(cls, n: int) -> "AgentWeights":
        """Unit weight for each of ``n`` agents; refused unless ``n`` is positive."""
        return cls(np.ones(max(n, 0)))

    @property
    def n(self) -> int:
        return int(self.array.size)

    @property
    def total(self) -> float:
        """L1 norm of the weights."""
        return float(self.array.sum())


def _default_agent_names(n: int) -> Tuple[str, ...]:
    return tuple(f"a{i + 1}" for i in range(n))


@record
class ValueSequence:
    """A sequence of ``t`` items' finite, nonnegative values, ``n`` agents each.

    The values are held in point form: ``points`` is a ``q x n`` matrix of
    value vectors and ``index`` gives, for each round, the id of the point
    that arrived (``t`` ids, stored as ``np.intp``).  With no ``index``,
    row ``tau`` of ``points`` is the item of round ``tau``: a CSV, or any
    matrix given directly, is its own points.  ``matrix`` is the ``t x n``
    matrix of the rounds' values (rows are 0-indexed in code, 1-based in
    messages); ``agents`` carries the column names from the CSV header,
    if any.  The points are checked by :func:`value_matrix`, which
    refuses the first non-finite, then the first negative entry, naming
    its row and agent; all-zero columns are kept.  An index must be a
    nonempty vector of integer ids of points.

    A C-contiguous float64 array is kept as is, without a copy, and is
    marked read-only: ``ValueSequence(m).matrix is m`` and
    ``m.flags.writeable`` becomes False.  Any other input is copied into
    one such array.  So an instance given as a matrix costs one matrix,
    not two.  With an index, ``matrix`` gathers the points into a new
    array each time it is read; the run path reads only the point form
    (:meth:`rows`, :meth:`per_round`, :meth:`column_sums`), so a
    generated instance costs its points and its index.
    """

    points: np.ndarray
    agents: Tuple[str, ...] = ()
    index: Optional[np.ndarray] = None

    def __post_init__(self):
        m = value_matrix(self.points)
        object.__setattr__(self, "points", m)
        if self.index is not None:
            idx = np.asarray(self.index)
            if idx.ndim != 1 or idx.size < 1 or idx.dtype.kind not in "iu":
                raise InstanceError("index must be a nonempty vector of point ids")
            if idx.min() < 0 or idx.max() >= m.shape[0]:
                raise InstanceError(f"point ids must lie in [0, {m.shape[0]})")
            idx = np.ascontiguousarray(idx, dtype=np.intp)
            idx.setflags(write=False)
            object.__setattr__(self, "index", idx)
        names = tuple(self.agents) or _default_agent_names(m.shape[1])
        if len(names) != m.shape[1]:
            raise InstanceError(
                f"{len(names)} agent names for {m.shape[1]} value columns"
            )
        object.__setattr__(self, "agents", names)

    def __eq__(self, other):
        """Equal rounds: the same ``t``, ``n``, agent names and rows, whatever
        the point forms; the rows are gathered ``_ROW_BLOCK`` at a time."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.t, self.n, self.agents) == (other.t, other.n, other.agents) and all(
            np.array_equal(self.rows(a, a + _ROW_BLOCK), other.rows(a, a + _ROW_BLOCK)) for a in range(0, self.t, _ROW_BLOCK))

    @property
    def t(self) -> int:
        return int(self.points.shape[0] if self.index is None else self.index.size)

    @property
    def n(self) -> int:
        return int(self.points.shape[1])

    @property
    def matrix(self) -> np.ndarray:
        """The ``t x n`` matrix of item values in arrival order."""
        return self.per_round(self.points)

    def per_round(self, per_point: np.ndarray) -> np.ndarray:
        """``per_point`` (one entry per point, along its first axis) as one
        entry per round."""
        return per_point if self.index is None else per_point[self.index]

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Rows ``start`` to ``stop`` of :attr:`matrix`, gathered for those rounds alone."""
        return self.points[start:stop] if self.index is None else self.points[self.index[start:stop]]

    def column_sums(self, rounds=None) -> np.ndarray:
        """``matrix[rounds].sum(axis=0)`` bit for bit; every round when
        ``rounds`` (a mask or ids of rounds) is None.

        numpy adds the rows of a matrix of two or more columns one after
        another, so in point form the rows are gathered ``_ROW_BLOCK`` at a
        time and each block is summed after the sum of the blocks before
        it.  A single column is summed pairwise, so it is gathered whole.
        """
        if self.index is None:
            return (self.points if rounds is None else self.points[rounds]).sum(axis=0)
        index = self.index if rounds is None else self.index[rounds]
        if self.n == 1:
            return self.points[index].sum(axis=0)
        total = self.points[index[:_ROW_BLOCK]].sum(axis=0)
        for a in range(_ROW_BLOCK, index.size, _ROW_BLOCK):
            total = np.vstack((total, self.points[index[a : a + _ROW_BLOCK]])).sum(axis=0)
        return total

    def monopolistic_utilities(self) -> np.ndarray:
        """Per-agent total value of the whole sequence (column sums)."""
        return self._totals.copy()

    @cached_property
    def _totals(self) -> np.ndarray:
        """The column sums, read once per sequence: set-aside's resolution and
        every report on the sequence read them."""
        return self.column_sums()

    @cached_property
    def zero_agents(self) -> Tuple[int, ...]:
        """The agents whose values are all zero; read once per sequence, so
        every run on it checks them without a pass over the matrix."""
        return tuple(np.flatnonzero(self._arrived().max(axis=0) == 0).tolist())  # values are nonnegative

    def _arrived(self) -> np.ndarray:
        """The points that arrive in some round: a point that never arrives
        is not a value of the sequence."""
        if self.index is None:
            return self.points
        return self.points[np.bincount(self.index, minlength=len(self.points)) > 0]


@record
class FiniteDistribution(Spec):
    """Probability distribution over finitely many value vectors; uniform
    over the support when ``probs`` is None.  The support is checked by
    :func:`value_matrix`, as an instance's values are."""

    support: np.ndarray  # (m, n) nonnegative
    probs: Optional[np.ndarray] = None  # (m,) summing to one

    def __post_init__(self):
        sup = reals(self.support)
        if sup.ndim != 2 or sup.shape[0] < 1:
            raise InstanceError("support must be a nonempty matrix of value vectors")
        sup = value_matrix(sup)
        if self.probs is None:
            pr = np.full(sup.shape[0], 1.0 / sup.shape[0])
        else:
            pr = reals(self.probs).reshape(-1)
        if sup.shape[0] != pr.size:
            raise InstanceError("support and probs shapes do not match")
        # an entry above 1 + 1e-12 cannot sum to one, and is refused before a sum it could overflow
        if not (np.all((pr >= 0) & (pr <= 1 + 1e-12)) and abs(pr.sum() - 1.0) <= 1e-12):
            raise InstanceError("probs must be nonnegative and sum to one")
        if np.any(pr @ sup <= 0):
            i = int(np.argmax(pr @ sup <= 0))
            raise InstanceError(f"agent {i + 1} has zero expected value")
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "probs", _frozen_array(pr))

    @classmethod
    def uniform(cls, support) -> "FiniteDistribution":
        return cls(support)

    @classmethod
    def of(cls, d) -> "FiniteDistribution":
        """``d`` itself if it is a distribution, else read from its mapping."""
        return d if isinstance(d, cls) else cls.from_dict(d)

    @property
    def n(self) -> int:
        return int(self.support.shape[1])

    def draw(self, uniforms: np.ndarray) -> np.ndarray:
        """The ids of the support vectors that inverse-CDF sampling picks for ``uniforms``."""
        idx = np.searchsorted(np.cumsum(self.probs), uniforms, side="right")
        np.minimum(idx, self.probs.size - 1, out=idx)
        return idx


@record
class ValidationReport:
    """Outcome of :func:`validate_instance`; carries every failure found."""

    ok: bool
    failures: Tuple[str, ...] = ()

    def first_failure(self) -> Optional[str]:
        return self.failures[0] if self.failures else None


def validate_instance(values: ValueSequence, weights: AgentWeights) -> ValidationReport:
    """Check that an instance can be run, without raising.

    Each part is well formed on its own (see :class:`ValueSequence` and
    :class:`AgentWeights`).  Reported failures: dimension mismatch, and
    agents whose values are all zero (these make the multiplicative
    metrics undefined, so they are rejected here rather than carried).
    """
    failures: List[str] = []
    if weights.n != values.n:
        failures.append(f"dimension mismatch: {weights.n} weights for {values.n} agents")
    for i in values.zero_agents:
        failures.append(f"agent {i + 1} has all-zero values")
    return ValidationReport(ok=not failures, failures=tuple(failures))


def load_csv(path) -> ValueSequence:
    """Parse an instance CSV: header row of agent names, one item per row.

    Raises :class:`InstanceError` naming the offending line for ragged
    rows, malformed numbers, or an empty data section.  At most
    ``_ROW_BLOCK`` rows are held as Python floats at a time: each block
    becomes a float64 array, and the arrays are joined once.
    """
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InstanceError("empty file") from None
        names = tuple(name.strip() for name in header)
        if not names or any(not s for s in names):
            raise InstanceError("line 1: empty agent name in header")
        blocks: List[np.ndarray] = []
        rows: List[List[float]] = []
        for lineno, rec in enumerate(reader, start=2):
            if not rec or (len(rec) == 1 and not rec[0].strip()):
                continue  # ignore blank lines
            if len(rec) != len(names):
                raise InstanceError(
                    f"line {lineno}: ragged row ({len(rec)} fields, expected {len(names)})"
                )
            try:
                rows.append([float(s) for s in rec])
            except ValueError:
                raise InstanceError(f"line {lineno}: malformed number") from None
            if len(rows) == _ROW_BLOCK:
                blocks.append(np.array(rows, dtype=np.float64))
                rows = []
        if rows:
            blocks.append(np.array(rows, dtype=np.float64))
        if not blocks:
            raise InstanceError("no items")
    return ValueSequence(np.concatenate(blocks), names)


def save_csv(path, values: ValueSequence) -> None:
    """Write an instance CSV that :func:`load_csv` reads back bit-exactly.

    Floats are rendered with ``repr``, which emits the shortest decimal
    string that round-trips the exact float64.  The rows are written
    ``_ROW_BLOCK`` at a time, gathered from the point form, so the matrix
    is never built.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(values.agents)
        for a in range(0, values.t, _ROW_BLOCK):
            writer.writerows([repr(x) for x in row] for row in values.rows(a, a + _ROW_BLOCK).tolist())


def normalize_values(values: ValueSequence) -> ValueSequence:
    """Rescale each agent's column so its values average to one per item.

    Column ``i`` is multiplied by ``t / sum_tau v[tau][i]``; afterwards each
    column sums to ``t``.  Errors on agents whose values are all zero.  In
    point form the points that arrive are rescaled, so the result keeps the
    point form; a point that never arrives is kept as it is, since scaling
    it could overflow (an item's value cannot: it is at most its column's
    sum).
    """
    sums = values.column_sums()
    for i in np.nonzero(sums <= 0)[0]:
        raise InstanceError(f"agent {i + 1} has all-zero values, cannot normalize")
    scale = values.t / sums
    if values.index is None:
        return ValueSequence(values.matrix * scale, values.agents)
    arrived = np.bincount(values.index, minlength=len(values.points)) > 0
    points = np.multiply(values.points, scale, out=values.points.copy(), where=arrived[:, None])
    return ValueSequence(points, values.agents, values.index)


def extremity(values: ValueSequence) -> float:
    """Smallest ratio, over agents, of minimum nonzero value to maximum value.

    The result lies in (0, 1]; instances score 1 when each agent's nonzero
    values are all equal.  Errors on agents with no positive value.  Only
    the points that arrive are read: a minimum and a maximum are exact.
    """
    m = values._arrived()
    eps = math.inf
    for i in range(values.n):
        col = m[:, i]
        pos = col[col > 0]
        if pos.size == 0:
            raise InstanceError(f"agent {i + 1} has all-zero values")
        eps = min(eps, float(pos.min() / col.max()))
    return eps
