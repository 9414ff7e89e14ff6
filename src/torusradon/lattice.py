"""Integer-lattice engine: primitive directions, rational subspaces in
Hermite normal form, orthogonality sets and direction covers.

All arithmetic here is exact (Python integers). A subspace has one
canonical form, the HNF basis of its saturated lattice; two values
compare equal iff they are the same rational subspace. One check,
`_is_canonical`, decides whether a basis is that form, and
`canonicalize_subspace` computes it from any spanning rows as the kernel
of the kernel. Subspaces are built by one of two constructors:
`RationalSubspace(n, d, basis)` makes the check, and the trusted
`_subspace(n, d, basis)`, for builders whose basis is canonical by
construction, checks only the dimension.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence

from .errors import RankMismatch, ZeroVector

IntVec = tuple[int, ...]


def _as_intvec(v: Sequence[int]) -> IntVec:
    """Ints and numpy integers pass; a float (even 2.0) or a string is a TypeError."""
    return tuple(map(operator.index, v))


def _canonical_sign(v: IntVec) -> IntVec:
    for x in v:
        if x != 0:
            return v if x > 0 else tuple(-y for y in v)
    return v


@dataclass(frozen=True, order=True)
class PrimitiveDirection:
    """Nonzero integer vector with coprime entries and positive first
    nonzero entry; the canonical representative of a rational line."""

    v: IntVec

    def __post_init__(self):
        if not any(self.v):
            raise ZeroVector("primitive direction must be nonzero")
        if gcd(*self.v) != 1:
            raise ValueError(f"entries not coprime: {self.v}")
        if self.v != _canonical_sign(self.v):
            raise ValueError(f"sign not canonical: {self.v}")
        object.__setattr__(self, "_hash", hash(self.v))

    def __hash__(self) -> int:
        return self._hash

    @property
    def n(self) -> int:
        return len(self.v)

    def dot(self, k: Sequence[int]) -> int:
        return sum(a * b for a, b in zip(self.v, _as_intvec(k)))

    def serialize(self) -> str:
        return ",".join(str(x) for x in self.v)

    @staticmethod
    def parse(text: str) -> "PrimitiveDirection":
        return PrimitiveDirection(_as_intvec(int(t) for t in text.split(",")))


def primitive_reduce(v: Sequence[int]) -> PrimitiveDirection:
    """Divide out the gcd and canonicalize the sign; spans the same line."""
    vec = _as_intvec(v)
    if not any(vec):
        raise ZeroVector("cannot reduce the zero vector")
    g = gcd(*vec)
    return PrimitiveDirection(_canonical_sign(tuple(x // g for x in vec)))


def orthogonal_primitive(k: Sequence[int]) -> PrimitiveDirection:
    """The canonical direction orthogonal to a nonzero planar frequency."""
    kk = _as_intvec(k)
    if len(kk) != 2:
        raise ValueError("orthogonal_primitive is a planar (n=2) operation")
    if not any(kk):
        raise ZeroVector("frequency must be nonzero")
    return primitive_reduce((-kk[1], kk[0]))


def enumerate_directions(n: int, H: int) -> list[PrimitiveDirection]:
    """All canonical primitive vectors with sup-norm at most H, sorted
    lexicographically (the order itertools.product yields them in)."""
    if H < 1:
        raise ValueError("H must be >= 1")
    # v > 0 lexicographically iff its first nonzero entry is positive
    return [PrimitiveDirection(v) for v in itertools.product(range(-H, H + 1), repeat=n)
            if v > (0,) * n and gcd(*v) == 1]


# --- exact row operations -------------------------------------------------

def row_hnf(rows: Iterable[Sequence[int]], n: int) -> list[IntVec]:
    """Row-style Hermite normal form: echelon with positive pivots and
    above-pivot entries reduced into [0, pivot)."""
    work = [list(map(int, r)) for r in rows]
    work = [r for r in work if any(r)]
    pivots: list[tuple[int, list[int]]] = []
    col = 0
    while work and col < n:
        live = [r for r in work if r[col] != 0]
        if not live:
            col += 1
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            piv = live[0]
            for r in live[1:]:
                q = r[col] // piv[col]
                if q:
                    for j in range(col, n):
                        r[j] -= q * piv[j]
            live = [r for r in live if r[col] != 0]
        piv = live[0]
        work = [r for r in work if any(r) and r is not piv]
        if piv[col] < 0:
            piv = [-x for x in piv]
        pivots.append((col, piv))
        col += 1
    out = [r for _, r in pivots]
    cols = [c for c, _ in pivots]
    for i in range(len(out)):
        c, p = cols[i], out[i][cols[i]]
        for m in range(i):
            q = out[m][c] // p
            if q:
                out[m] = [a - q * b for a, b in zip(out[m], out[i])]
    return [tuple(r) for r in out]


def integer_kernel(rows: Sequence[Sequence[int]], n: int) -> list[IntVec]:
    """HNF basis of the saturated lattice {x in Z^n : rows @ x = 0}."""
    mats = [list(map(int, r)) for r in rows]
    m = len(mats)
    if m == 0:
        return row_hnf([[1 if j == i else 0 for j in range(n)] for i in range(n)], n)
    aug = [[mats[r][i] for r in range(m)] + [int(j == i) for j in range(n)] for i in range(n)]
    h = row_hnf(aug, m + n)
    ker = [r[m:] for r in h if not any(r[:m])]
    return row_hnf(ker, n)


def _is_canonical(basis: tuple[IntVec, ...], n: int, d: int) -> bool:
    """Whether d rows are the HNF basis of their saturated lattice: they are
    their own row HNF, and their columns generate Z^d (which holds iff the
    gcd of the maximal minors is 1). Two HNFs, O(n d^2); no minor is walked."""
    return (tuple(row_hnf(basis, n)) == basis
            and row_hnf(zip(*basis), d) == [tuple(int(i == j) for j in range(d)) for i in range(d)])


@dataclass(frozen=True, order=True)
class RationalSubspace:
    """A d-dimensional rational subspace of Q^n, stored as the HNF basis
    of its saturated integer lattice. Value equality is subspace equality."""

    n: int
    d: int
    basis: tuple[IntVec, ...]

    def __post_init__(self):
        if not (1 <= self.d <= self.n - 1):
            raise ValueError(f"need 1 <= d <= n-1, got d={self.d}, n={self.n}")
        if len(self.basis) != self.d or any(len(r) != self.n for r in self.basis):
            raise ValueError("basis shape does not match (d, n)")
        if not _is_canonical(self.basis, self.n, self.d):
            raise ValueError("basis is not the HNF basis of a saturated lattice")
        object.__setattr__(self, "_hash", hash((self.n, self.d, self.basis)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def height(self) -> int:
        """Max absolute basis entry; the enumeration truncation measure."""
        return max(abs(x) for row in self.basis for x in row)

    def contains_frequency(self, k: Sequence[int]) -> bool:
        """Whether k is orthogonal to every basis row (exact)."""
        kk = _as_intvec(k)
        return all(sum(a * b for a, b in zip(row, kk)) == 0 for row in self.basis)

    def serialize(self) -> str:
        rows = "; ".join(" ".join(str(x) for x in r) for r in self.basis)
        return f"{self.d} {self.n}; {rows}"

    @staticmethod
    def parse(text: str) -> "RationalSubspace":
        head, *rows = [part.strip() for part in text.split(";")]
        d, n = (int(t) for t in head.split())
        basis = tuple(_as_intvec(int(t) for t in r.split()) for r in rows)
        # a line's canonical basis is its primitive direction: the interned
        # line is the value when it spells the same basis, and anything
        # else takes the checked constructor (and its ValueError) below
        if d == 1 and len(basis) == 1 and len(basis[0]) == n and any(basis[0]):
            A = line(basis[0])
            if A.basis == basis:
                return A
        return RationalSubspace(n=n, d=d, basis=basis)


def _subspace(n: int, d: int, basis: tuple[IntVec, ...]) -> RationalSubspace:
    """The trusted constructor: for a basis that is canonical by
    construction. Checks the dimension only and stores the fields as the
    dataclass does."""
    if not (1 <= d <= n - 1):
        raise ValueError(f"need 1 <= d <= n-1, got d={d}, n={n}")
    A = object.__new__(RationalSubspace)
    object.__setattr__(A, "n", n)
    object.__setattr__(A, "d", d)
    object.__setattr__(A, "basis", basis)
    object.__setattr__(A, "_hash", hash((n, d, basis)))
    return A


def line(v: PrimitiveDirection | Sequence[int]) -> RationalSubspace:
    """The rational line spanned by a direction (its HNF basis is the
    canonical primitive vector itself); one shared value per direction."""
    return _line(v if isinstance(v, PrimitiveDirection) else primitive_reduce(v))


@lru_cache(maxsize=1 << 16)  # room for a whole family: direction_cover(64) has 5,040 lines
def _line(v: PrimitiveDirection) -> RationalSubspace:
    # v's own checks are those of a one-row HNF basis of a saturated lattice
    return _subspace(v.n, 1, (v.v,))


def direction_of(A: RationalSubspace) -> PrimitiveDirection:
    if A.d != 1:
        raise ValueError("direction_of needs a one-dimensional subspace")
    return PrimitiveDirection(A.basis[0])


def canonicalize_subspace(rows: Sequence[Sequence[int]], d: int) -> RationalSubspace:
    """Canonical representative of the Q-span of the given integer rows.

    Saturates the lattice and reduces to HNF, so the output depends only
    on the span. Raises RankMismatch if the span is not d-dimensional.
    """
    mats = [_as_intvec(r) for r in rows]
    if not mats:
        raise RankMismatch("no generators given")
    n = len(mats[0])
    sat = tuple(integer_kernel(integer_kernel(mats, n), n))  # span_Q(rows) meet Z^n
    if len(sat) != d:
        raise RankMismatch(f"rank {len(sat)} != requested d={d}")
    return _subspace(n, d, sat)


def orthogonal_complement(k: Sequence[int]) -> RationalSubspace:
    """The hyperplane of all vectors orthogonal to a nonzero frequency."""
    kk = _as_intvec(k)
    if not any(kk):
        raise ZeroVector("frequency must be nonzero")
    n = len(kk)
    return _subspace(n, n - 1, tuple(integer_kernel([kk], n)))  # a kernel is saturated


def enumerate_grassmannian(d: int, n: int, H: int) -> list[RationalSubspace]:
    """All rational subspaces whose HNF basis has entries bounded by H.

    Generates every valid HNF matrix shape directly (pivot columns, positive
    pivots <= H, reduced above-pivot entries, free entries in [-H, H]) and
    keeps the saturated ones; HNF uniqueness makes deduplication unnecessary.
    """
    return list(_enumerate_grassmannian_cached(d, n, H))


@lru_cache(maxsize=64)
def _enumerate_grassmannian_cached(d: int, n: int, H: int) -> tuple[RationalSubspace, ...]:
    if H < 1:
        raise ValueError("H must be >= 1")
    if d == 1:
        return tuple(line(v) for v in enumerate_directions(n, H))
    out = []
    for pivcols in itertools.combinations(range(n), d):
        for pivots in itertools.product(range(1, H + 1), repeat=d):
            # entry (i, c): row i's pivot, zero left of it, reduced into [0, p)
            # above a later row's pivot p, free in [-H, H] elsewhere
            ranges = [(pivots[i],) if c == pivcols[i] else (0,) if c < pivcols[i]
                      else range(pivots[pivcols.index(c)]) if c in pivcols else range(-H, H + 1)
                      for i in range(d) for c in range(n)]
            for flat in itertools.product(*ranges):
                basis = tuple(flat[i * n:(i + 1) * n] for i in range(d))
                if _is_canonical(basis, n, d):
                    out.append(_subspace(n, d, basis))
    out.sort()
    return tuple(out)


def omega_k(k: Sequence[int], d: int, n: int, H: int) -> list[RationalSubspace]:
    """Truncated orthogonality set: subspaces of height <= H with every
    basis row orthogonal to k. For k = 0 this is the whole truncated
    Grassmannian; for d = n-1 and k != 0 it is at most the one hyperplane."""
    kk = _as_intvec(k)
    if len(kk) != n:
        raise ValueError("frequency length does not match n")
    if not any(kk):
        return enumerate_grassmannian(d, n, H)
    if d == n - 1:
        A = orthogonal_complement(kk)
        return [A] if A.height <= H else []
    return [A for A in enumerate_grassmannian(d, n, H) if A.contains_frequency(kk)]


def frequency_band(n: int, K: int, punctured: bool = False) -> list[IntVec]:
    """Integer frequencies with sup-norm at most K, lexicographic order."""
    return [k for k in itertools.product(range(-K, K + 1), repeat=n) if any(k) or not punctured]


def direction_cover(R: int) -> list[PrimitiveDirection]:
    """Greedy direction set covering every planar frequency 0 < |k|_inf <= R.

    Each candidate direction covers exactly the integer multiples of its
    orthogonal line, so residual coverage counts are disjoint per line; the
    greedy order is by that count, largest first, lexicographic tie-break.
    """
    if R < 0:
        raise ValueError("R must be >= 0")
    if R == 0:
        return [PrimitiveDirection((1, 0))]
    # a direction covers its orthogonal line; that line's primitive vector
    # is the direction turned a quarter, with the same sup-norm, so the
    # directions score as themselves
    return sorted(enumerate_directions(2, R), key=lambda v: (-(R // max(map(abs, v.v))), v.v))


def hyperplane_cover(K: int, n: int) -> list[RationalSubspace]:
    """All hyperplanes k-perp for 0 < |k|_inf <= K, sorted; distinct
    primitive normals give distinct hyperplanes, so none repeats.
    The minimal family on which the full-band hyperplane sum inverts."""
    return sorted(orthogonal_complement(v.v) for v in enumerate_directions(n, K))


def orthogonal_line(k: Sequence[int]) -> RationalSubspace:
    """Some canonical line orthogonal to a nonzero frequency: rotate the
    first two nonzero components, or take a free axis if only one exists."""
    kk = _as_intvec(k)
    if not any(kk):
        raise ZeroVector("frequency must be nonzero")
    n = len(kk)
    support = [i for i, x in enumerate(kk) if x != 0]
    w = [0] * n
    if len(support) == 1:
        w[(support[0] + 1) % n] = 1
    else:
        i, j = support[0], support[1]
        w[i], w[j] = -kk[j], kk[i]
    return line(w)


def line_cover(K: int, n: int) -> list[RationalSubspace]:
    """A line family with at least one member orthogonal to every band
    frequency 0 < |k|_inf <= K. For n = 2 this is the direction cover."""
    if n == 2:
        return [line(v) for v in direction_cover(K)]
    return sorted({orthogonal_line(k) for k in frequency_band(n, K, punctured=True)})
