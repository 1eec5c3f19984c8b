"""Finite metric domains, extended-real fields on them, and set utilities.

A domain is a finite index set {0, ..., J-1} with an optional metric; the
default is the discrete metric d(i, j) = 1 for i != j.  Fields attach a
vector of extended reals (+-inf allowed, NaN rejected) to a domain.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainMismatchError, ParameterError


@dataclass(frozen=True, eq=False)
class Domain:
    """Finite metric space with J points.

    ``metric`` is an optional symmetric J x J matrix with zero diagonal and
    nonnegative entries; ``None`` means the discrete metric.
    """

    size: int
    metric: np.ndarray | None = None

    def __post_init__(self):
        if self.size < 1:
            raise ParameterError(f"domain size must be >= 1, got {self.size}")
        if self.metric is not None:
            m = np.asarray(self.metric, dtype=float)
            if m.shape != (self.size, self.size):
                raise ParameterError(
                    f"metric shape {m.shape} does not match size {self.size}"
                )
            if np.any(np.diag(m) != 0.0):
                raise ParameterError("metric diagonal must be zero")
            if np.any(m < 0.0):
                raise ParameterError("metric entries must be nonnegative")
            if not np.array_equal(m, m.T):
                raise ParameterError("metric must be symmetric")
            m.flags.writeable = False
            object.__setattr__(self, "metric", m)

    def distances(self) -> np.ndarray:
        """Full J x J distance matrix (discrete metric if none was given)."""
        if self.metric is not None:
            return self.metric
        d = 1.0 - np.eye(self.size)
        return d

    def triangle_inequality_holds(self) -> bool:
        """Exhaustive check of d(i,k) <= d(i,j) + d(j,k); O(J^3)."""
        d = self.distances()
        through = d[:, :, None] + d[None, :, :]  # (i, j, k)
        return bool(np.all(d <= through.min(axis=1) + 1e-12))


def line_domain(size: int) -> Domain:
    """Domain with the integer line metric d(i, j) = |i - j|."""
    idx = np.arange(size, dtype=float)
    return Domain(size, np.abs(idx[:, None] - idx[None, :]))


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
        if np.any(np.isnan(v)):
            raise ParameterError("field values must not be NaN")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, domain: Domain, value: float) -> "Field":
        return cls(domain, np.full(domain.size, float(value)))

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.values)))


def _gap(a, b) -> np.ndarray:
    """a - b over extended reals, with equal values (equal infinities too) at gap 0."""
    with np.errstate(invalid="ignore"):  # inf - inf is NaN before np.where replaces it
        return np.where(a == b, 0.0, np.subtract(a, b))


def same_domain(*fields: Field) -> Domain:
    """Return the shared domain or raise ``DomainMismatchError``."""
    dom = fields[0].domain
    for f in fields[1:]:
        if f.domain.size != dom.size:
            raise DomainMismatchError(
                f"fields live on domains of size {dom.size} and {f.domain.size}"
            )
    return dom


class IndexSet:
    """Sorted, duplicate-free set of indices into a finite domain."""

    __slots__ = ("members",)

    def __init__(self, members=()):
        arr = np.unique(np.asarray(list(members), dtype=np.int64))
        if arr.size and arr[0] < 0:
            raise ParameterError("indices must be nonnegative")
        arr.flags.writeable = False
        self.members = arr

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "IndexSet":
        return cls(np.flatnonzero(mask))

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
    """
    _check_in_range(a, dom, "a")
    _check_in_range(b, dom, "b")
    if len(a) == 0 and len(b) == 0:
        return 0.0
    if len(a) == 0 or len(b) == 0:
        return float("inf")
    d = dom.distances()[np.ix_(a.members, b.members)]
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def save_field(f: Field, path) -> None:
    """Write a field as CSV rows ``index,value`` with inf/-inf literals."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "value"])
        for i, v in enumerate(f.values):
            if np.isposinf(v):
                txt = "inf"
            elif np.isneginf(v):
                txt = "-inf"
            else:
                txt = format(v, ".17g")
            w.writerow([i, txt])


def load_field(path, domain: Domain | None = None) -> Field:
    """Read a field written by :func:`save_field`.

    A malformed file raises ``ParameterError`` naming the file and the line.
    """
    rows = []
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, [])
        if [h.strip().lower() for h in header[:2]] != ["index", "value"]:
            raise ParameterError(f"expected header 'index,value' in {path}")
        for lineno, line in enumerate(r, start=2):
            if not line:
                continue
            try:
                index, value = int(line[0]), float(line[1])
            except (ValueError, IndexError) as exc:
                raise ParameterError(f"{path} line {lineno}: expected index,value: {exc}") from exc
            if math.isnan(value):
                raise ParameterError(f"{path} line {lineno}: field values must not be NaN")
            rows.append((index, value))
    rows.sort()
    values = np.array([v for _, v in rows])
    if domain is None:
        domain = Domain(len(values))
    return Field(domain, values)
