"""Finite domains, extended-real fields on them, and set utilities.

A domain is a finite index set {0, ..., J-1}: with the discrete metric
d(i, j) = 1 for i != j by default, or with Euclidean distance on optional
point coordinates.  Fields attach a vector of extended reals (+-inf
allowed, NaN rejected) to a domain.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .csvio import read_table, write_csv
from .errors import DomainMismatchError, ParameterError


@dataclass(frozen=True, eq=False)
class Domain:
    """Finite domain of J points.

    ``coords`` is an optional finite (J, d) array of point coordinates with
    Euclidean distance; ``None`` means the discrete metric.  A grid of
    ``shape`` is ``coords=np.indices(shape).reshape(len(shape), -1).T``.
    """

    size: int
    _: KW_ONLY
    coords: np.ndarray | None = None

    def __post_init__(self):
        if self.size < 1:
            raise ParameterError(f"domain size must be >= 1, got {self.size}")
        if self.coords is not None:
            c = np.array(self.coords, dtype=float)
            if c.ndim != 2 or c.shape[0] != self.size or c.size == 0 or not np.isfinite(c).all():
                raise ParameterError(f"coords {c.shape} must be a finite ({self.size}, d) array")
            c.flags.writeable = False
            object.__setattr__(self, "coords", c)


def line_domain(size: int) -> Domain:
    """Domain with the integer line metric d(i, j) = |i - j|."""
    return Domain(size, coords=np.arange(size, dtype=float)[:, None])


@dataclass(frozen=True, eq=False)
class Field:
    """Extended-real-valued function on a finite domain."""

    domain: Domain
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.domain.size,):
            raise DomainMismatchError(
                f"field length {v.shape} does not match domain size {self.domain.size}"
            )
        if np.isnan(v).any():
            raise ParameterError("field values must not be NaN")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, domain: Domain, value: float) -> "Field":
        return cls(domain, np.full(domain.size, float(value)))

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.values)))


def _gap(a, b) -> np.ndarray:
    """a - b over extended reals, with equal values (equal infinities too) at gap 0."""
    differ = np.not_equal(a, b)  # subtracting only there never forms inf - inf
    return np.subtract(a, b, out=np.zeros(differ.shape), where=differ)


def same_domain(*fields: Field) -> Domain:
    """The shared domain: equal sizes, and equal coordinates or none on each side.

    Anything else raises ``DomainMismatchError``.
    """
    dom = fields[0].domain
    for f in fields[1:]:
        other = f.domain
        if other is dom:
            continue
        if other.size != dom.size:
            raise DomainMismatchError(
                f"fields live on domains of size {dom.size} and {other.size}"
            )
        if not (other.coords is dom.coords or np.array_equal(other.coords, dom.coords)):
            raise DomainMismatchError("fields live on domains with different coordinates")
    return dom


class IndexSet:
    """Sorted, duplicate-free set of indices into a finite domain."""

    __slots__ = ("members",)

    def __init__(self, members=()):
        if not isinstance(members, np.ndarray):
            members = list(members)
        arr = np.unique(np.asarray(members, dtype=np.int64))
        if arr.size and arr[0] < 0:
            raise ParameterError("indices must be nonnegative")
        arr.flags.writeable = False
        self.members = arr

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "IndexSet":
        s = cls.__new__(cls)
        s.members = m = mask.ravel().nonzero()[0]  # already sorted, unique and nonnegative
        m.setflags(write=False)
        return s

    @classmethod
    def full(cls, size: int) -> "IndexSet":
        return cls(np.arange(size))

    def mask(self, size: int) -> np.ndarray:
        m = np.zeros(size, dtype=bool)
        m[self.members] = True
        return m

    def union(self, other: "IndexSet") -> "IndexSet":
        return IndexSet(np.union1d(self.members, other.members))

    def intersection(self, other: "IndexSet") -> "IndexSet":
        return IndexSet(np.intersect1d(self.members, other.members))

    def complement(self, size: int) -> "IndexSet":
        return IndexSet(np.setdiff1d(np.arange(size), self.members))

    def issubset(self, other: "IndexSet") -> bool:
        return bool(np.isin(self.members, other.members).all())

    def __len__(self) -> int:
        return int(self.members.size)

    def __contains__(self, idx) -> bool:
        return bool(np.isin(idx, self.members))

    def __eq__(self, other) -> bool:
        return isinstance(other, IndexSet) and np.array_equal(self.members, other.members)

    def __hash__(self):
        return hash(self.members.tobytes())

    def __iter__(self):
        return iter(self.members.tolist())

    def __repr__(self):
        return f"IndexSet({self.members.tolist()})"


def _check_in_range(s: IndexSet, dom: Domain, name: str) -> None:
    if len(s) and s.members[-1] >= dom.size:
        raise DomainMismatchError(
            f"{name} contains index {int(s.members[-1])} outside domain of size {dom.size}"
        )


def hausdorff_distance(a: IndexSet, b: IndexSet, dom: Domain) -> float:
    """Hausdorff distance between two index sets under the domain metric.

    Both sets empty gives 0; exactly one empty gives +inf (the infimum over
    an empty set is +inf, so the directed distance to an empty set diverges).
    Discrete metric: 0 for equal sets, else 1.  Coordinates: one KD-tree
    query per direction, in O(|a| + |b|) memory.
    """
    _check_in_range(a, dom, "a")
    _check_in_range(b, dom, "b")
    if len(a) == 0 and len(b) == 0:
        return 0.0
    if len(a) == 0 or len(b) == 0:
        return float("inf")
    if dom.coords is None:
        return 0.0 if a == b else 1.0
    pa, pb = dom.coords[a.members], dom.coords[b.members]
    return float(max(cKDTree(pb).query(pa)[0].max(), cKDTree(pa).query(pb)[0].max()))


def save_field(f: Field, path) -> None:
    """Write a field as CSV rows ``index,value`` with inf/-inf literals."""
    write_csv(path, ["index", "value"], ((i, format(v, ".17g")) for i, v in enumerate(f.values)))


def load_field(path, domain: Domain | None = None) -> Field:
    """Read a field written by :func:`save_field`.

    A malformed file raises ``ParameterError`` naming the file.  The index
    column must hold 0..n-1 once each, with n the domain size if a domain is
    given.
    """
    header, body = read_table(path)
    if [h.strip().lower() for h in header] != ["index", "value"]:
        raise ParameterError(f"expected header 'index,value' in {path}")
    order = np.argsort(body[:, 0], kind="stable")
    n = len(order)
    if not np.array_equal(body[order, 0], np.arange(n)):
        raise ParameterError(f"{path}: the index column must hold 0..{n - 1} once each")
    if domain is not None and domain.size != n:
        raise ParameterError(f"{path}: {n} rows for a domain of {domain.size} points")
    if np.isnan(body[:, 1]).any():
        raise ParameterError(f"{path}: field values must not be NaN")
    return Field(domain or Domain(n), body[order, 1])
