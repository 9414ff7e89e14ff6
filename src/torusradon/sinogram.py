"""Transform-side data objects: sinograms on T^n x Gr(d,n) and the weight
rules that define the data-space norms.

The transform along a subspace A keeps exactly the coefficients with k
orthogonal to A, so a slice lives on the lattice A^perp in the band. A
sinogram stores one coefficient vector per subspace on `support(A, K)`,
plus the single shared average that owns every k = 0 slot; data off A^perp
cannot be represented. Forward maps gather into the vectors and every
adjoint-type operator scatters out of them (`scatter`), so this module
alone decides where slice data lives. Dense slices are built on request
(`slice`, `slices`); on disk each slice stays one dense field file (io).

A weight rule lives on an explicit finite subspace family (the working
truncation of the Grassmannian) and certifies its constants on the band by
exhaustive summation.
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


def scatter(n: int, K: int, members, vectors, center: complex = 0.0) -> np.ndarray:
    """Dense band array whose entry k sums, over the members in the order
    given, each member's vector entry at k; the k = 0 entry is `center`.
    Real vectors give a real array."""
    size = (2 * K + 1) ** n
    idx = np.concatenate([np.zeros(0, np.int64), *(support(A, K) for A in members)])
    vals = np.concatenate([np.zeros(0), *vectors])
    out = np.bincount(idx, vals.real, size)
    if np.iscomplexobj(vals) or np.iscomplexobj(center):
        out = out.astype(np.complex128)
        out.imag = np.bincount(idx, vals.imag, size)
    out[size // 2] = center
    return out.reshape((2 * K + 1,) * n)


def _dense(n: int, K: int, A: RationalSubspace, values, center: complex = 0j) -> TorusField:
    out = np.zeros((2 * K + 1) ** n, dtype=np.complex128)
    out[support(A, K)] = values
    out[out.size // 2] = center
    return TorusField(n, K, out.reshape((2 * K + 1,) * n))


class _DenseSlices(Mapping):
    """A sinogram's slices as dense TorusFields, each built when accessed."""

    def __init__(self, g: "TorusSinogram"):
        self._g = g

    def __getitem__(self, A):
        return self._g.slice(A)

    def __iter__(self):
        return iter(self._g.vectors)

    def __len__(self):
        return len(self._g.vectors)


class TorusSinogram:
    """Transform data: for each subspace A of the family, the coefficient
    vector on support(A, K), plus the one shared average.

    The constructor takes dense slice fields and gathers them; it raises
    ValueError on a nonzero coefficient off A^perp or at k = 0.
    `from_vectors` takes the vectors themselves."""

    def __init__(self, n: int, d: int, K: int, mean: complex,
                 slices: Mapping[RationalSubspace, TorusField]):
        vectors = {}
        for A, f in slices.items():
            if (f.n, f.K) != (n, K):
                raise DimensionMismatch(f"slice field for {A} does not match (n={n}, K={K})")
            if f.mean() != 0:
                raise ValueError("slice fields must not carry a k=0 coefficient; the mean is shared")
            vectors[A] = gather(A, f)
        self._set(n, d, K, mean, vectors)

    @classmethod
    def from_vectors(cls, n: int, d: int, K: int, mean: complex,
                     vectors: Mapping[RationalSubspace, np.ndarray]) -> "TorusSinogram":
        g = cls.__new__(cls)
        g._set(n, d, K, mean, vectors)
        return g

    def _set(self, n, d, K, mean, vectors) -> None:
        for A, v in vectors.items():
            if (A.n, A.d) != (n, d) or np.shape(v) != support(A, K).shape:
                raise DimensionMismatch(f"slice for {A} does not fit (n={n}, d={d}, K={K})")
        self.n, self.d, self.K = n, d, K
        self.mean = complex(mean)
        self.vectors = {A: vectors[A] for A in sorted(vectors)}

    @property
    def subspaces(self) -> list[RationalSubspace]:
        return list(self.vectors)

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
        if self.vectors.keys() != other.vectors.keys():
            raise DimensionMismatch("sinograms live on different subspace families")

    def _new(self, mean: complex, vectors) -> "TorusSinogram":
        return TorusSinogram.from_vectors(self.n, self.d, self.K, mean, vectors)

    def __add__(self, other: "TorusSinogram") -> "TorusSinogram":
        self._check_compatible(other)
        return self._new(self.mean + other.mean,
                         {A: v + other.vectors[A] for A, v in self.vectors.items()})

    def __sub__(self, other: "TorusSinogram") -> "TorusSinogram":
        self._check_compatible(other)
        return self._new(self.mean - other.mean,
                         {A: v - other.vectors[A] for A, v in self.vectors.items()})

    def __mul__(self, scalar: complex) -> "TorusSinogram":
        c = complex(scalar)
        return self._new(self.mean * c, {A: v * c for A, v in self.vectors.items()})

    __rmul__ = __mul__

    def without_mean(self) -> "TorusSinogram":
        return self._new(0j, self.vectors)

    def with_mean(self, mean: complex) -> "TorusSinogram":
        return self._new(mean, self.vectors)


def zero_sinogram(n: int, d: int, K: int, family) -> TorusSinogram:
    members = [as_subspace(A) for A in family]
    return TorusSinogram.from_vectors(
        n, d, K, 0j, {A: np.zeros(support(A, K).size, np.complex128) for A in members})


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

    def weights(self, A: RationalSubspace) -> np.ndarray:
        """w(., A) on support(A, K), NaN where undefined."""
        idx = support(A, self.K)
        if self.kind != CUSTOM:  # the built-in kinds are constant off k = 0
            return np.full(idx.size, self._lookup((1,) + (0,) * (self.n - 1), A))
        ks = np.stack(np.unravel_index(idx, (2 * self.K + 1,) * self.n), axis=1) - self.K
        return np.array([self._lookup(tuple(int(x) for x in k), A) for k in ks])

    def zero_weight(self, A: RationalSubspace) -> float:
        """w(0, A), NaN where undefined."""
        return self._lookup((0,) * self.n, A)

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
        wa = np.append(self.weights(A), self.zero_weight(A))
        defined = wa[~np.isnan(wa)]
        if defined.size == 0:
            raise WeightUndefined(f"no weight values stored for {A.serialize()!r}")
        return float(defined.min()), 0.0


def weighted_scatter(members, w: WeightRule, vectors=None, mean: complex = 1.0) -> np.ndarray:
    """Sum over the members of w(k, A)^2 times each member's vector (ones
    when vectors is None), with mean times the summed w(0, A)^2 at k = 0;
    undefined weights count as zero. With data vectors this is the adjoint,
    without them the normal multiplier W."""
    w2 = [np.nan_to_num(w.weights(A)) ** 2 for A in members]
    if vectors is not None:
        w2 = [a * v for a, v in zip(w2, vectors)]
    w0 = sum(np.nan_to_num(w.zero_weight(A)) ** 2 for A in members)
    return scatter(w.n, w.K, members, w2, w0 * mean)


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
    if w.kind != CUSTOM:
        return
    for A, v in g.vectors.items():
        if g.mean != 0 and math.isnan(w.zero_weight(A)):
            raise WeightUndefined(f"no weight value for k=0, A={A.serialize()!r}")
        bad = np.flatnonzero(np.isnan(w.weights(A)) & (v != 0))
        if bad.size:
            flat = support(A, g.K)[bad[0]]
            k = tuple(int(i) - g.K for i in np.unravel_index(flat, (2 * g.K + 1,) * g.n))
            raise WeightUndefined(f"no weight value for k={k}, A={A.serialize()!r}")


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
    bs = bracket_sq(g.n, g.K).ravel()
    per_slice = []
    for A, v in g.vectors.items():
        vals = np.nan_to_num(w.weights(A)) * bs[support(A, g.K)] ** (float(s) / 2.0) * v
        center = np.nan_to_num(w.zero_weight(A)) * g.mean
        per_slice.append(bessel_norm(_dense(g.n, g.K, A, vals, center), 0.0, p, N))
    a = np.array(per_slice)
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
    bs = bracket_sq(g.n, g.K).ravel()
    acc = 0j
    for A, a in g.vectors.items():
        w2 = np.nan_to_num(w.weights(A)) ** 2
        acc += np.nan_to_num(w.zero_weight(A)) ** 2 * g.mean * np.conj(h.mean)
        acc += complex(np.sum(bs[support(A, g.K)] ** float(s) * w2 * a * np.conj(h.vectors[A])))
    return acc


def enforce_moment_constraint(raw: Mapping[RationalSubspace, TorusField],
                              w: WeightRule | None = None,
                              d: int | None = None) -> TorusSinogram:
    """Project raw per-slice data onto the shared-average constraint.

    The shared mean is the w(0,.)^2-weighted average of the per-slice means,
    which is the norm-minimizing projection under the p = l = 2 norm."""
    store = {as_subspace(A): f for A, f in raw.items()}
    if not store:
        raise ValueError("no slices given")
    some = next(iter(store))
    n, K = some.n, store[some].K
    d = some.d if d is None else d
    zero = (0,) * n
    num = 0j
    den = 0.0
    for A in sorted(store):
        wA = 1.0 if w is None else w.weight(zero, A) ** 2
        num += wA * store[A].coeff(zero)
        den += wA
    return TorusSinogram.from_vectors(n, d, K, num / den,
                                      {A: gather(A, f) for A, f in store.items()})


def plain_magnitude(g: TorusSinogram) -> float:
    """Unweighted coefficient magnitude sqrt(|mean|^2 + sum |coeff|^2);
    a weight-free scale for tolerances, valid for any (n, d)."""
    total = abs(g.mean) ** 2
    for v in g.vectors.values():
        total += float(np.sum(np.abs(v) ** 2))
    return math.sqrt(total)
