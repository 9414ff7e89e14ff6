"""Transform-side data objects: sinograms on T^n x Gr(d,n) and the weight
rules that define the data-space norms.

The transform along a subspace A keeps exactly the coefficients with k
orthogonal to A, so a slice lives on the lattice A^perp in the band. A
sinogram stores all its slices as one flat complex array `values`, laid out
by `layout(members, K)`: the members' `support(A, K)` indices concatenated
in sorted member order, each member starting at its offset. The single
shared average owns every k = 0 slot; data off A^perp cannot be
represented. Forward maps gather into `values` and every adjoint-type
operator scatters out of it in one bincount (`scatter`), so this module
alone decides where slice data lives. `vectors[A]` are views of `values`;
dense slices are built on request (`slice`, `slices`); on disk each slice
stays one dense field file (io).

A weight rule lives on an explicit finite subspace family (the working
truncation of the Grassmannian) and certifies its constants on the band by
exhaustive summation. On any layout its squared weights are one flat array
plus one w(0, A)^2 per member (`WeightRule.squared`), so every operator on
transform data is a single numpy expression over the family.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import DegenerateWeight, DimensionMismatch, WeightUndefined
from .fields import TorusField, bessel_norm, bracket_sq, frozen, orthogonality_mask
from .lattice import (
    PrimitiveDirection,
    RationalSubspace,
    enumerate_grassmannian,
    line,
)

CANONICAL = "canonical-singleton"
HEIGHT_DECAY = "height-decay"
CUSTOM = "custom-table"


def as_subspace(member: RationalSubspace | PrimitiveDirection | Sequence[int]) -> RationalSubspace:
    if isinstance(member, RationalSubspace):
        return member
    if isinstance(member, PrimitiveDirection):
        return line(member)
    return line(tuple(int(x) for x in member))


# Room for a whole family (direction_cover(64) has 5,040 lines): a family
# larger than the cache would rebuild every index on every pass.
@lru_cache(maxsize=1 << 16)
def support(A: RationalSubspace, K: int) -> np.ndarray:
    """Read-only flat indices into the (2K+1)^n band of the frequencies
    k != 0 orthogonal to A, ascending. The band is symmetric and k -> -k
    reverses flat order, so entry i of a vector on this index pairs with
    entry -1-i: v[::-1] is the k -> -k partner of v."""
    idx = np.flatnonzero(orthogonality_mask(A, K))
    return frozen(idx[idx != (2 * K + 1) ** A.n // 2])


@lru_cache(maxsize=64)
def layout(members: tuple, K: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (index, offsets, mirror) of the flat layout of a sorted
    member tuple. index concatenates the members' support(A, K); member i
    owns entries offsets[i]:offsets[i+1]; entry mirror[j] holds the k -> -k
    partner of entry j (each member's block reversed)."""
    sizes = [support(A, K).size for A in members]
    offsets = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
    index = np.concatenate([np.zeros(0, np.int64), *(support(A, K) for A in members)])
    ends = np.repeat(offsets[:-1] + offsets[1:] - 1, sizes)
    return frozen(index), frozen(offsets), frozen(ends - np.arange(index.size))


def gather(A: RationalSubspace, f: TorusField) -> np.ndarray:
    """The coefficients of f on support(A, f.K). Raises ValueError if f has
    a nonzero coefficient off A^perp; the k = 0 coefficient is dropped."""
    if f.n != A.n:
        raise DimensionMismatch(f"field on T^{f.n}, subspace in Q^{A.n}")
    flat = f.coeffs.ravel()
    v = flat[support(A, f.K)]
    if np.count_nonzero(flat) - (flat[flat.size // 2] != 0) != np.count_nonzero(v):
        raise ValueError(f"slice for {A.serialize()!r} has coefficients off A^perp, "
                         "which no transform data can carry")
    return v


def scatter(n: int, K: int, members, values: np.ndarray, center: complex = 0.0) -> np.ndarray:
    """Dense band array whose entry k sums the entries of the flat values on
    layout(members, K) that sit at k; the k = 0 entry is `center`. Real
    values give a real array."""
    size = (2 * K + 1) ** n
    idx = layout(members, K)[0]
    out = np.bincount(idx, values.real, size)
    if np.iscomplexobj(values) or np.iscomplexobj(center):
        out = out.astype(np.complex128)
        out.imag = np.bincount(idx, values.imag, size)
    out[size // 2] = center
    return out.reshape((2 * K + 1,) * n)


def _dense(n: int, K: int, A: RationalSubspace, values, center: complex = 0j) -> TorusField:
    out = np.zeros((2 * K + 1) ** n, dtype=np.complex128)
    out[support(A, K)] = values
    out[out.size // 2] = center
    return TorusField(n, K, out.reshape((2 * K + 1,) * n))


def _flatten(n: int, d: int, K: int, vectors: Mapping[RationalSubspace, np.ndarray]):
    """(sorted members, their vectors concatenated in that order)."""
    for A, v in vectors.items():
        if (A.n, A.d) != (n, d) or np.shape(v) != support(A, K).shape:
            raise DimensionMismatch(f"slice for {A} does not fit (n={n}, d={d}, K={K})")
    members = tuple(sorted(vectors))
    return members, np.concatenate([np.zeros(0, np.complex128), *(vectors[A] for A in members)])


class _DenseSlices(Mapping):
    """A sinogram's slices as dense TorusFields, each built when accessed."""

    def __init__(self, g: "TorusSinogram"):
        self._g = g

    def __getitem__(self, A):
        return self._g.slice(A)

    def __iter__(self):
        return iter(self._g.members)

    def __len__(self):
        return len(self._g.members)


class TorusSinogram:
    """Transform data: one read-only complex array `values` on
    layout(members, K), which holds each member's coefficient vector on
    support(A, K), plus the one shared average.

    The constructor takes dense slice fields and gathers them; it raises
    ValueError on a nonzero coefficient off A^perp or at k = 0.
    `from_vectors` takes the per-member vectors, `from_values` the flat
    array itself."""

    def __init__(self, n: int, d: int, K: int, mean: complex,
                 slices: Mapping[RationalSubspace, TorusField]):
        vectors = {}
        for A, f in slices.items():
            if (f.n, f.K) != (n, K):
                raise DimensionMismatch(f"slice field for {A} does not match (n={n}, K={K})")
            if f.mean() != 0:
                raise ValueError("slice fields must not carry a k=0 coefficient; the mean is shared")
            vectors[A] = gather(A, f)
        self._set(n, d, K, mean, *_flatten(n, d, K, vectors))

    @classmethod
    def from_vectors(cls, n: int, d: int, K: int, mean: complex,
                     vectors: Mapping[RationalSubspace, np.ndarray]) -> "TorusSinogram":
        return cls.__new__(cls)._set(n, d, K, mean, *_flatten(n, d, K, vectors))

    @classmethod
    def from_values(cls, n: int, d: int, K: int, mean: complex,
                    members: tuple[RationalSubspace, ...], values) -> "TorusSinogram":
        """The sinogram whose flat array on layout(members, K) is a copy of
        values; members must be sorted and distinct."""
        members = tuple(members)
        if any((A.n, A.d) != (n, d) for A in members) or any(
                a >= b for a, b in zip(members, members[1:])):
            raise DimensionMismatch(f"members must be distinct, sorted and fit (n={n}, d={d})")
        if np.shape(values) != layout(members, K)[0].shape:
            raise DimensionMismatch(f"{np.shape(values)} values do not fit the layout at K={K}")
        return cls.__new__(cls)._set(n, d, K, mean, members, np.array(values, np.complex128))

    def _set(self, n, d, K, mean, members, values) -> "TorusSinogram":
        """Store the layout and values (read-only from here on, not copied)."""
        self.n, self.d, self.K, self.members = n, d, K, members
        self.mean, self.values = complex(mean), frozen(values)
        return self

    @cached_property
    def vectors(self) -> dict[RationalSubspace, np.ndarray]:
        """Member -> its coefficient vector, a read-only view of `values`;
        built once per sinogram."""
        off = layout(self.members, self.K)[1].tolist()
        return {A: self.values[a:b] for A, a, b in zip(self.members, off, off[1:])}

    @property
    def subspaces(self) -> list[RationalSubspace]:
        return list(self.members)

    def slice(self, member) -> TorusField:
        """Dense slice field of one member (zero at k = 0)."""
        A = as_subspace(member)
        return _dense(self.n, self.K, A, self.vectors[A])

    @property
    def slices(self) -> Mapping[RationalSubspace, TorusField]:
        """Read-only mapping subspace -> dense slice field, densified on
        access and not cached."""
        return _DenseSlices(self)

    def _check_compatible(self, other: "TorusSinogram") -> None:
        if (self.n, self.d, self.K) != (other.n, other.d, other.K):
            raise DimensionMismatch("sinograms have different (n, d, K)")
        if self.members != other.members:
            raise DimensionMismatch("sinograms live on different subspace families")

    def _new(self, mean: complex, values: np.ndarray) -> "TorusSinogram":
        return TorusSinogram.__new__(TorusSinogram)._set(self.n, self.d, self.K, mean,
                                                         self.members, values)

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

    def with_mean(self, mean: complex) -> "TorusSinogram":
        return self._new(mean, self.values)


def zero_sinogram(n: int, d: int, K: int, family) -> TorusSinogram:
    members = tuple(sorted({as_subspace(A) for A in family}))
    return TorusSinogram.from_values(n, d, K, 0j, members, np.zeros(layout(members, K)[0].size))


# --- weight rules -------------------------------------------------------------


@dataclass(frozen=True)
class WeightRule:
    """A positive weight w(k, A) on band frequencies and a finite subspace
    family, with its certified normal-multiplier constants.

    kind 'canonical-singleton' (d = n-1): w = 1 off the mean and
    1/sqrt(|family|) at k = 0, so the data norm is the unweighted one.
    kind 'height-decay': w = base^-height(A), any d.
    kind 'custom-table': explicit values per (k, A); missing pairs are
    undefined and raise when data actually sits there.
    """

    kind: str
    d: int
    n: int
    K: int
    family: tuple[RationalSubspace, ...]
    params: tuple = ()
    c_w: float = field(default=0.0, compare=False)
    C_w: float = field(default=0.0, compare=False)

    @cached_property
    def _custom(self) -> dict:
        return dict(self.params) if self.kind == CUSTOM else {}

    def _lookup(self, k: tuple, A: RationalSubspace) -> float:
        """w(k, A), NaN where a custom table has no value."""
        if self.kind == CANONICAL:
            return 1.0 / math.sqrt(len(self.family)) if not any(k) else 1.0
        if self.kind == HEIGHT_DECAY:
            base = self.params[0] if self.params else 2.0
            return float(base) ** (-A.height)
        return self._custom.get((k, A), math.nan)

    @lru_cache(maxsize=64)
    def squared(self, members: tuple[RationalSubspace, ...]) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (w(k, A)^2 as one flat array on layout(members, K),
        w(0, A)^2 per member), NaN where undefined; cached per (rule, members)."""
        index, offsets, _ = layout(members, self.K)
        zero = np.array([self._lookup((0,) * self.n, A) for A in members]) ** 2
        if self.kind != CUSTOM:  # the built-in kinds are constant off k = 0
            k1 = (1,) + (0,) * (self.n - 1)
            w = np.repeat([self._lookup(k1, A) for A in members], np.diff(offsets))
        else:
            ks = np.column_stack(np.unravel_index(index, (2 * self.K + 1,) * self.n)) - self.K
            owners = [A for A, m in zip(members, np.diff(offsets).tolist()) for _ in range(m)]
            w = np.array([self._lookup(tuple(k), A) for k, A in zip(ks.tolist(), owners)])
        return frozen(np.asarray(w, np.float64) ** 2), frozen(zero)

    def weight(self, k: Sequence[int], A: RationalSubspace) -> float:
        kk = tuple(int(x) for x in k)
        w = self._lookup(kk, A)
        if math.isnan(w):
            raise WeightUndefined(f"no weight value for k={kk}, A={A.serialize()!r}")
        return w

    @cached_property
    def normal_array(self) -> np.ndarray:
        """W(k) = sum over the family's orthogonal members of w(k, A)^2."""
        return frozen(weighted_scatter(self.family, self))

    def normal_value(self, k: Sequence[int]) -> float:
        return float(self.normal_array[tuple(int(x) + self.K for x in k)])

    @property
    def W0(self) -> float:
        return self.normal_value((0,) * self.n)

    def decay_certificate(self, A: RationalSubspace) -> tuple[float, float]:
        """(c_A, m_A) with w(k, A) >= c_A <k>^-m_A on the stored band;
        the implemented families are k-independent, so m_A = 0."""
        wa = np.sqrt(np.concatenate(self.squared((A,))))
        defined = wa[~np.isnan(wa)]
        if defined.size == 0:
            raise WeightUndefined(f"no weight values stored for {A.serialize()!r}")
        return float(defined.min()), 0.0


def weighted_scatter(members: tuple, w: WeightRule, values=None, mean: complex = 1.0) -> np.ndarray:
    """Sum over the members of w(k, A)^2 times the flat values on
    layout(members, K) (ones when values is None), with mean times the
    summed w(0, A)^2 at k = 0; undefined weights count as zero. With data
    values this is the adjoint, without them the normal multiplier W."""
    w2, w0 = w.squared(members)
    w2 = np.nan_to_num(w2)
    return scatter(w.n, w.K, members, w2 if values is None else w2 * values,
                   np.nan_to_num(w0).sum() * mean)


def _certify(rule: WeightRule) -> WeightRule:
    W = rule.normal_array
    c = math.sqrt(float(W.min()))
    C = math.sqrt(float(W.max()))
    if c == 0.0:
        raise DegenerateWeight(
            "normal multiplier vanishes somewhere on the band; the family does not cover it"
        )
    object.__setattr__(rule, "c_w", c)
    object.__setattr__(rule, "C_w", C)
    return rule


def weight_on_family(kind: str, family, K: int, params: tuple = (),
                     d: int | None = None, n: int | None = None,
                     certify: bool = True) -> WeightRule:
    """Build a weight rule on an explicit subspace family; certification
    scans the band for the constants and rejects vanishing ones. Custom
    tables meant only for pairings need not generate a norm, so they may
    skip it."""
    fam = tuple(sorted(as_subspace(A) for A in family))
    if not fam:
        raise ValueError("family must be nonempty")
    n = fam[0].n if n is None else n
    d = fam[0].d if d is None else d
    if kind == CANONICAL and d != n - 1:
        raise ValueError("canonical-singleton weights are a d = n-1 construction")
    if kind not in (CANONICAL, HEIGHT_DECAY, CUSTOM):
        raise ValueError(f"unknown weight kind {kind!r}")
    if kind == CUSTOM and any(v <= 0 for _, v in params):
        raise ValueError("weights must be positive wherever defined")
    rule = WeightRule(kind=kind, d=d, n=n, K=K, family=fam, params=params)
    return _certify(rule) if certify else rule


def weight_build(kind: str, params: tuple, d: int, n: int, H: int, K: int) -> WeightRule:
    """Weight rule on the height-H truncated Grassmannian Gr_H(d, n)."""
    fam = enumerate_grassmannian(d, n, H)
    return weight_on_family(kind, fam, K, params=params, d=d, n=n)


def canonical_weight(family, K: int) -> WeightRule:
    """The unweighted data-space rule (w = 1 off the mean)."""
    return weight_on_family(CANONICAL, family, K)


# --- norms and the moment constraint ------------------------------------------


def _check_weight_defined(g: TorusSinogram, w: WeightRule) -> None:
    """Raise WeightUndefined at the first member, and within it k = 0 first
    and then ascending k, where g holds data and w has no value."""
    if w.kind != CUSTOM:
        return
    w2, w0 = w.squared(g.members)
    index, offsets, _ = layout(g.members, g.K)
    bad = np.flatnonzero(np.isnan(w2) & (g.values != 0))
    at = int(np.searchsorted(offsets, bad[0], "right")) - 1 if bad.size else len(g.members)
    zero = np.flatnonzero(np.isnan(w0)) if g.mean != 0 else []
    if len(zero) and zero[0] <= at:
        raise WeightUndefined(f"no weight value for k=0, A={g.members[zero[0]].serialize()!r}")
    if bad.size:
        k = tuple(int(i) - g.K for i in np.unravel_index(index[bad[0]], (2 * g.K + 1,) * g.n))
        raise WeightUndefined(f"no weight value for k={k}, A={g.members[at].serialize()!r}")


def sinogram_norm(g: TorusSinogram, s: float, w: WeightRule | None = None,
                  p=2, l=2, N: int | None = None) -> float:
    """Weighted data-space norm: per-slice Bessel norms with the weight
    folded into the multiplier, aggregated in l over the family.

    For p = l = 2 this is |mean|^2 W_0 + sum over k != 0 and orthogonal A of
    <k>^(2s) w(k,A)^2 |coeff|^2, which is the spec formula (the mean enters
    once because every slice shares it and the canonical rule normalizes
    W_0 to one); it is generated by sinogram_inner.
    """
    if p == 2 and l == 2:
        return math.sqrt(sinogram_inner(g, g, s, w).real)
    if w is None:
        w = canonical_weight(g.subspaces, g.K)
    _check_weight_defined(g, w)
    wk, w0 = (np.sqrt(np.nan_to_num(a)) for a in w.squared(g.members))
    index, offsets, _ = layout(g.members, g.K)
    vals = wk * bracket_sq(g.n, g.K).ravel()[index] ** (float(s) / 2.0) * g.values
    a = np.array([bessel_norm(_dense(g.n, g.K, A, vals[lo:hi], c * g.mean), 0.0, p, N)
                  for A, lo, hi, c in zip(g.members, offsets, offsets[1:], w0)])
    if l == np.inf or l == "inf":
        return float(a.max()) if a.size else 0.0
    l = float(l)
    return float((a**l).sum() ** (1.0 / l))


def sinogram_inner(g: TorusSinogram, h: TorusSinogram, s: float,
                   w: WeightRule | None = None) -> complex:
    """The p = l = 2 weighted inner product; generates sinogram_norm."""
    g._check_compatible(h)
    if w is None:
        w = canonical_weight(g.subspaces, g.K)
    _check_weight_defined(g, w)
    _check_weight_defined(h, w)
    w2, w0 = w.squared(g.members)
    bs = bracket_sq(g.n, g.K).ravel()[layout(g.members, g.K)[0]] ** float(s)
    return complex(np.nan_to_num(w0).sum() * g.mean * np.conj(h.mean)
                   + np.sum(bs * np.nan_to_num(w2) * g.values * np.conj(h.values)))


def enforce_moment_constraint(raw: Mapping[RationalSubspace, TorusField],
                              w: WeightRule | None = None,
                              d: int | None = None) -> TorusSinogram:
    """Project raw per-slice data onto the shared-average constraint.

    The shared mean is the w(0,.)^2-weighted average of the per-slice means,
    which is the norm-minimizing projection under the p = l = 2 norm."""
    store = {as_subspace(A): f for A, f in raw.items()}
    if not store:
        raise ValueError("no slices given")
    members = sorted(store)
    zero = (0,) * members[0].n
    wA = np.array([1.0 if w is None else w.weight(zero, A) ** 2 for A in members])
    mean = np.dot(wA, [store[A].coeff(zero) for A in members]) / wA.sum()
    return TorusSinogram.from_vectors(members[0].n, members[0].d if d is None else d,
                                      store[members[0]].K, mean,
                                      {A: gather(A, f) for A, f in store.items()})


def plain_magnitude(g: TorusSinogram) -> float:
    """Unweighted coefficient magnitude sqrt(|mean|^2 + sum |coeff|^2);
    a weight-free scale for tolerances, valid for any (n, d)."""
    return math.sqrt(abs(g.mean) ** 2 + float(np.vdot(g.values, g.values).real))
