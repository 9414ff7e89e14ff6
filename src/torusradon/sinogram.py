"""Transform-side data objects: sinograms on T^n x Gr(d,n) and the weight
rules that define the data-space norms.

The transform along a subspace A keeps exactly the coefficients with k
orthogonal to A, so a slice lives on the lattice A^perp in the band. A
sinogram is its members (which fix n and d), K, one shared average owning
every k = 0 slot, and one flat complex array `values` on `layout(members,
K)`: the members' uncached `support(A, K)` indices concatenated in sorted
member order, the only index of slice data. The constructor takes exactly
these and checks them, so data off A^perp cannot be represented; arithmetic
builds through it too, and `from_slices` gathers dense slice fields into
it. Forward maps gather into `values`, every adjoint-type operator scatters
out of it in one bincount (`scatter`). Member A's vector is
`values[blocks[A]]`, which is also all its slice file holds on disk;
`slices` is the one dense view, built on request.

A weight rule lives on an explicit finite subspace family (the working
truncation of the Grassmannian) and is built once, its constants c_w and
C_w computed on the band by exhaustive summation. Each kind gives a member
one weight off k = 0, so a rule is total on its family and band: its squared
weights are one flat array of positive values on layout(family, K) plus one
w(0, A)^2 per member, and W(k) sums them over the members orthogonal to k
(Railo's orthogonality set Omega_k). It is read only on data whose members
are its family, at its band, so every operator on transform data is one
numpy expression on the rule's own arrays.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch
from .fields import (TorusField, band_frequencies, bessel_norm, bracket_sq, frozen,
                     grid_lp_norm, orthogonality_mask, weigh_parts)
from .lattice import PrimitiveDirection, RationalSubspace, enumerate_grassmannian, line

CANONICAL = "canonical-singleton"
HEIGHT_DECAY = "height-decay"


def as_subspace(member: RationalSubspace | PrimitiveDirection | Sequence[int]) -> RationalSubspace:
    return member if isinstance(member, RationalSubspace) else line(member)


class _Family(tuple):
    """A canonical family, hashed once when built: the caches keyed by it
    (layout, the weight rules) then cost O(1) per lookup."""

    def __hash__(self) -> int:
        return self._hash


# id(family) -> (tuple(family), its canonical family), for the last few
# families of hashable members: see canonical_family
_HELD: dict[int, tuple[tuple, _Family]] = {}
_HELD_SIZE = 16


def canonical_family(family) -> tuple[RationalSubspace, ...]:
    """The sorted, distinct subspaces of a family of subspaces, directions
    or integer vectors, built once per family and then shared.
    DimensionMismatch if the members differ in (n, d).

    A family object seen in one of the last few calls is recognized without
    hashing its members: the call's tuple(family) is compared with the one
    taken then, which compares by identity first. A member appended, removed
    or replaced by an unequal one since, or an id reused by another object,
    fails that comparison and takes the cache. Unhashable members (lists of ints,
    which can change inside the snapshot) skip both."""
    if type(family) is _Family:
        return family
    members = tuple(family)
    held = _HELD.get(id(family))
    try:
        if held is not None and held[0] == members:
            return held[1]
    except ValueError:  # members that compare elementwise (numpy vectors) are no hit
        pass
    try:
        fam = _canonical_family(members)
    except TypeError:  # unhashable members (lists of ints) skip the cache
        return _canonical_family.__wrapped__(members)
    if len(_HELD) >= _HELD_SIZE and id(family) not in _HELD:
        del _HELD[next(iter(_HELD))]
    _HELD[id(family)] = (members, fam)
    return fam


@lru_cache(maxsize=64)
def _canonical_family(members: tuple) -> tuple[RationalSubspace, ...]:
    fam = _Family(sorted({as_subspace(A) for A in members}))
    if fam and (fam[0].n, fam[0].d) != (fam[-1].n, fam[-1].d):  # sorted by (n, d) first
        raise DimensionMismatch("family members differ in (n, d)")
    fam._hash = tuple.__hash__(fam)
    return fam


def support(A: RationalSubspace, K: int) -> np.ndarray:
    """Read-only flat indices into the (2K+1)^n band of the frequencies
    k != 0 orthogonal to A, ascending; not cached. The band is symmetric and
    k -> -k reverses flat order, so entry i of a vector on this index pairs
    with entry -1-i: v[::-1] is the k -> -k partner of v."""
    idx = np.flatnonzero(orthogonality_mask(A, K))
    return frozen(idx[idx != (2 * K + 1) ** A.n // 2])


@lru_cache(maxsize=64)
def layout(members: tuple, K: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (index, offsets, mirror) of the flat layout of a sorted
    member tuple. index concatenates the members' support(A, K); member i
    owns entries offsets[i]:offsets[i+1]; entry mirror[j] holds the k -> -k
    partner of entry j (each member's block reversed)."""
    blocks = [support(A, K) for A in members]
    offsets = np.concatenate([[0], np.cumsum([b.size for b in blocks], dtype=np.int64)])
    index = np.concatenate([np.zeros(0, np.int64), *blocks])
    ends = np.repeat(offsets[:-1] + offsets[1:] - 1, np.diff(offsets))
    return frozen(index), frozen(offsets), frozen(ends - np.arange(index.size))


def scatter(K: int, members, values: np.ndarray, center: complex = 0.0) -> np.ndarray:
    """Dense band array whose entry k sums the entries of the flat values on
    layout(members, K) that sit at k; the k = 0 entry is `center`. Real
    values give a real array. The members (nonempty) fix n."""
    size = (2 * K + 1) ** members[0].n
    idx = layout(members, K)[0]
    out = np.bincount(idx, values.real, size).astype(np.float64, copy=False)  # int64 if idx is empty
    if np.iscomplexobj(values) or np.iscomplexobj(center):
        out = out.astype(np.complex128)
        out.imag = np.bincount(idx, values.imag, size)
    out[size // 2] = center
    return out.reshape((2 * K + 1,) * members[0].n)


def _dense(n: int, K: int, index: np.ndarray, values, center: complex = 0j) -> np.ndarray:
    """The band array with the flat values at `index` and `center` at k = 0."""
    out = np.zeros((2 * K + 1) ** n, dtype=np.complex128)
    out[index] = values
    out[out.size // 2] = center
    return out.reshape((2 * K + 1,) * n)


class _DenseSlices(Mapping):
    """A sinogram's slices as dense TorusFields, each built when accessed."""

    def __init__(self, g: "TorusSinogram"):
        self._g = g

    def __getitem__(self, A):
        g = self._g
        block = g.blocks[as_subspace(A)]
        return TorusField(g.n, g.K, _dense(g.n, g.K, layout(g.members, g.K)[0][block], g.values[block]))

    def __iter__(self):
        return iter(self._g.members)

    def __len__(self):
        return len(self._g.members)


class TorusSinogram:
    """Transform data: one read-only complex array `values` on
    layout(members, K), which holds each member's coefficient vector on
    support(A, K), plus the one shared average. The members fix n and d.

    The constructor is the checked way in: members must be a nonempty,
    sorted and distinct family and values must fit its layout; values are
    copied and frozen. `from_slices` gathers dense slice fields onto the
    layout. Member A's vector is `values[blocks[A]]`, its dense slice
    field `slices[A]`."""

    def __init__(self, members: tuple[RationalSubspace, ...], K: int, mean: complex, values):
        fam = canonical_family(members)
        if not fam or (fam is not members and fam != tuple(members)):
            raise DimensionMismatch("members must be a nonempty, sorted and distinct family")
        if np.shape(values) != layout(fam, K)[0].shape:
            raise DimensionMismatch(f"{np.shape(values)} values do not fit the layout at K={K}")
        self.n, self.d, self.K, self.members = fam[0].n, fam[0].d, K, fam
        self.mean, self.values = complex(mean), frozen(np.array(values, np.complex128))

    @classmethod
    def from_slices(cls, mean: complex, slices: Mapping[RationalSubspace, TorusField]) -> "TorusSinogram":
        """Gather dense slice fields sharing one band onto the layout in one
        step; ValueError on a nonzero coefficient off A^perp or at k = 0."""
        members = canonical_family(slices)
        fields = [slices[A] for A in members]
        if not fields or any((f.n, f.K) != (members[0].n, fields[0].K) for f in fields):
            raise DimensionMismatch("slices must share one band on their subspaces' torus")
        K = fields[0].K
        dense = np.array([f.coeffs.ravel() for f in fields], np.complex128)
        index, offsets, _ = layout(members, K)
        owner = np.repeat(np.arange(len(members)), np.diff(offsets))
        values = dense[owner, index]
        dense[owner, index] = 0  # what is left sits at k = 0 or off A^perp
        if dense.any():
            A = members[int(dense.any(axis=1).argmax())]
            raise ValueError(f"slice for {A.serialize()!r} has coefficients at k = 0 or off A^perp")
        return cls(members, K, mean, values)

    @cached_property
    def blocks(self) -> dict[RationalSubspace, slice]:
        """Member -> slice(lo, hi), its block of `values` and of the
        layout's index; built once per sinogram."""
        off = layout(self.members, self.K)[1].tolist()
        return {A: slice(a, b) for A, a, b in zip(self.members, off, off[1:])}

    @property
    def slices(self) -> Mapping[RationalSubspace, TorusField]:
        """Read-only mapping subspace -> dense slice field, densified on
        access and not cached."""
        return _DenseSlices(self)

    def _check_compatible(self, other: "TorusSinogram") -> None:
        if (self.K, self.members) != (other.K, other.members):
            raise DimensionMismatch("sinograms live on different bands or subspace families")

    def _new(self, mean: complex, values: np.ndarray) -> "TorusSinogram":
        return TorusSinogram(self.members, self.K, mean, values)

    def __add__(self, other: "TorusSinogram") -> "TorusSinogram":
        self._check_compatible(other)
        return self._new(self.mean + other.mean, self.values + other.values)

    def __sub__(self, other: "TorusSinogram") -> "TorusSinogram":
        self._check_compatible(other)
        return self._new(self.mean - other.mean, self.values - other.values)

    def __mul__(self, scalar: complex) -> "TorusSinogram":
        c = complex(scalar)
        return self._new(self.mean * c, self.values * c)

    __rmul__ = __mul__

    def without_mean(self) -> "TorusSinogram":
        return self._new(0j, self.values)


# --- weight rules -------------------------------------------------------------


@dataclass(frozen=True)
class WeightRule:
    """A positive weight w(k, A) on band frequencies and a finite subspace
    family, with its normal-multiplier constants. Plain read-only data
    built once by `weight_on_family`: w(k, A)^2 on layout(family, K)
    (`w2`) and w(0, A)^2 per member (`w2_zero`), the multiplier W
    (`normal_array`), c_w = sqrt(min W) and C_w = sqrt(max W); c_w = 0
    when the family misses part of the band.

    kind 'canonical-singleton' (d = n-1): w = 1 off the mean and
    1/sqrt(|family|) at k = 0, so the data norm is the unweighted one.
    kind 'height-decay': w = base^-height(A), any d.
    """

    kind: str
    d: int
    n: int
    K: int
    family: tuple[RationalSubspace, ...]
    params: tuple
    w2: np.ndarray = field(compare=False, repr=False)
    w2_zero: np.ndarray = field(compare=False, repr=False)
    normal_array: np.ndarray = field(compare=False, repr=False)
    c_w: float = field(compare=False)
    C_w: float = field(compare=False)


def weight_on_family(kind: str, family, K: int, params: tuple = ()) -> WeightRule:
    """The weight rule on an explicit subspace family, built once per (kind,
    family, K, params) and shared. The canonical rule takes no parameters
    and height-decay at most a finite positive base (2 by default);
    ValueError otherwise, and also for a base whose squared weights are 0 or
    inf in floats or sum to inf at some k (the first such k is named). A
    family that misses part of the band still has its rule, with c_w = 0;
    the inversions refuse it."""
    fam = canonical_family(family)
    if not fam:
        raise ValueError("family must be nonempty")
    if kind == CANONICAL and fam[0].d != fam[0].n - 1:
        raise ValueError("canonical-singleton weights are a d = n-1 construction")
    if kind not in (CANONICAL, HEIGHT_DECAY):
        raise ValueError(f"unknown weight kind {kind!r}")
    if len(params) > (kind == HEIGHT_DECAY):
        raise ValueError(f"too many parameters for {kind!r} weights: {params!r}")
    if not all(isinstance(v, numbers.Real) and math.isfinite(v) and v > 0 for v in params):
        raise ValueError("weights must be finite and positive")
    return _weight_rule(kind, fam, K, tuple(params))


@lru_cache(maxsize=64)
def _weight_rule(kind: str, fam: tuple[RationalSubspace, ...], K: int, params: tuple) -> WeightRule:
    base = np.float64(params[0] if params else 2.0)
    with np.errstate(over="ignore"):  # an inf weight, square or sum, or a 0 square, is refused below
        per_member = [1.0 if kind == CANONICAL else base ** -A.height for A in fam]
        zero = [1.0 / math.sqrt(len(fam))] * len(fam) if kind == CANONICAL else per_member
        w2 = np.repeat(np.asarray(per_member, np.float64), np.diff(layout(fam, K)[1])) ** 2
        w2_zero = np.asarray(zero, np.float64) ** 2
        zero_sum = w2_zero.sum()
    if not all(np.all((a > 0) & (a < np.inf)) for a in (w2, w2_zero)):
        raise ValueError("weights must be finite and positive")
    W = scatter(K, fam, w2, zero_sum)
    if float(W.max()) == math.inf:  # np.bincount's per-k sums overflow without a warning
        k = tuple(band_frequencies(fam[0].n, K)[:, np.flatnonzero(W == np.inf)[0]].tolist())
        raise ValueError(f"weights must be finite and positive; their squares sum to inf at k={k}")
    return WeightRule(kind=kind, d=fam[0].d, n=fam[0].n, K=K, family=fam, params=params,
                      w2=frozen(w2), w2_zero=frozen(w2_zero), normal_array=frozen(W),
                      c_w=math.sqrt(float(W.min())), C_w=math.sqrt(float(W.max())))


def weight_build(kind: str, params: tuple, d: int, n: int, H: int, K: int) -> WeightRule:
    """Weight rule on the height-H truncated Grassmannian Gr_H(d, n)."""
    return weight_on_family(kind, enumerate_grassmannian(d, n, H), K, params=params)


def canonical_weight(family, K: int) -> WeightRule:
    """The unweighted data-space rule (w = 1 off the mean), shared by every
    caller with the same members and K."""
    return weight_on_family(CANONICAL, family, K)


def _data_weight(g: TorusSinogram) -> WeightRule:
    """The data rule of g's family: canonical for hyperplane data, height-decay
    otherwise. Its normal_array is 0 exactly where no member of g is
    orthogonal to k, which is what the inversions check."""
    kind = CANONICAL if g.d == g.n - 1 else HEIGHT_DECAY
    return weight_on_family(kind, g.members, g.K)


# --- norms --------------------------------------------------------------------


def _check_rule(g: TorusSinogram, w: WeightRule) -> None:
    """DimensionMismatch unless w is a rule on g's own band and family."""
    if w.K != g.K:
        raise DimensionMismatch(f"weight rule at K={w.K} read on data at K={g.K}")
    if w.family is not g.members and w.family != g.members:
        raise DimensionMismatch("the data's members are not the weight rule's family")


def sinogram_norm(g: TorusSinogram, s: float, w: WeightRule | None = None,
                  p=2, l=2, N: int | None = None) -> float:
    """Weighted data-space norm: per-slice Bessel norms with the weight
    folded into the multiplier, aggregated in l over the family.

    For p = l = 2 this is |mean|^2 W_0 + sum over k != 0 and orthogonal A of
    <k>^(2s) w(k,A)^2 |coeff|^2, which is the spec formula (the mean enters
    once because every slice shares it and the canonical rule normalizes
    W_0 to one); it is generated by sinogram_inner. With no rule given, w
    is the data rule of g's family (`_data_weight`). Where that sum passes
    the float range, the per-slice path below, which scales its sums, gives
    the same norm."""
    if p == 2 and l == 2:
        square = sinogram_inner(g, g, s, w).real
        if square < np.inf:
            return math.sqrt(square)
    w = w or _data_weight(g)
    _check_rule(g, w)
    wk, w0 = np.sqrt(w.w2), np.sqrt(w.w2_zero)
    index, offsets, _ = layout(g.members, g.K)
    with np.errstate(over="ignore"):
        vals = weigh_parts(wk * bracket_sq(g.n, g.K).ravel()[index] ** (float(s) / 2.0), g.values)
    dense = (_dense(g.n, g.K, index[lo:hi], vals[lo:hi], c * g.mean)
             for lo, hi, c in zip(offsets, offsets[1:], w0))
    a = np.array([bessel_norm(TorusField(g.n, g.K, arr), 0.0, p, N) for arr in dense])
    # the l-sum over the members: a.size times grid_lp_norm's mean, which
    # stays finite where the l-th powers pass the float range
    return float(grid_lp_norm(a, l) * a.size ** (1.0 / float(l)))


def sinogram_inner(g: TorusSinogram, h: TorusSinogram, s: float,
                   w: WeightRule | None = None) -> complex:
    """The p = l = 2 weighted inner product, default rule as in sinogram_norm."""
    g._check_compatible(h)
    w = w or _data_weight(g)
    _check_rule(g, w)
    with np.errstate(over="ignore", invalid="ignore"):
        wk = bracket_sq(g.n, g.K).ravel()[layout(g.members, g.K)[0]] ** float(s) * w.w2
        terms = wk * g.values * np.conj(h.values)
    # a term past the float range weighs the parts of g conj(h) one by one, so
    # a zero part takes no weight, as a zero term does in sobolev_norm
    out = ~np.isfinite(terms)
    if out.any():
        with np.errstate(over="ignore"):
            terms[out] = weigh_parts(wk[out], g.values[out] * np.conj(h.values[out]))
    return complex(w.w2_zero.sum() * g.mean * np.conj(h.mean) + np.sum(terms))
