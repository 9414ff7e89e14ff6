"""Band-limited periodic fields on T^n and their norms.

A field is a truncated Fourier series: complex coefficients on the sup-norm
band |k|_inf <= K, stored densely in C order: k sits at flat index
`band_index(n, K, k)` (None off the band; k = 0 at the centre, size // 2),
and `band_frequencies` decodes an index. On the band every
spectral statement is exact; grids only enter through the DFT bridge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .errors import BandTooLarge, DimensionMismatch
from .lattice import IntVec, RationalSubspace, _as_intvec

HERMITIAN_TOL = 1e-10


def frozen(arr: np.ndarray) -> np.ndarray:
    """Mark an array read-only; cached arrays are shared by every caller."""
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=32)
def band_frequencies(n: int, K: int) -> np.ndarray:
    """Read-only n x (2K+1)^n int64 table whose column i is the frequency k
    at flat band index i (C order): the one decoder of flat band indices."""
    return frozen(np.indices((2 * K + 1,) * n).reshape(n, -1) - K)


def band_index(n: int, K: int, k: Sequence[int]) -> int | None:
    """The encoder: C-order flat index of frequency k in the (2K+1)^n band,
    None off it; DimensionMismatch unless k has n entries."""
    kk = _as_intvec(k)
    if len(kk) != n:
        raise DimensionMismatch(f"frequency {kk} has {len(kk)} entries, need n={n}")
    i = 0
    for x in kk:
        if not -K <= x <= K:
            return None
        i = i * (2 * K + 1) + x + K
    return i


@lru_cache(maxsize=128)
def bracket_sq(n: int, K: int) -> np.ndarray:
    """<k>^2 = 1 + |k|^2 over the band, float64."""
    norm_sq = (band_frequencies(n, K) ** 2).sum(axis=0).reshape((2 * K + 1,) * n)
    return frozen(1.0 + norm_sq.astype(np.float64))


def orthogonality_mask(A: RationalSubspace, K: int) -> np.ndarray:
    """Boolean band mask of the frequencies orthogonal to every basis row of A."""
    ks = band_frequencies(A.n, K)
    mask = np.ones(ks.shape[1], dtype=bool)
    for row in A.basis:
        mask &= sum(c * k for c, k in zip(row, ks) if c) == 0
    return mask.reshape((2 * K + 1,) * A.n)


def is_hermitian(coeffs: np.ndarray) -> bool:
    """coeff(-k) == conj(coeff(k)) up to HERMITIAN_TOL x max(1, max |coeff|);
    on a flat band array too, since k -> -k reverses flat order (a slice
    block included; an empty one is Hermitian). A coefficient that is not
    finite must equal its mirror exactly and is then left out of the rest."""
    flipped = coeffs[(slice(None, None, -1),) * coeffs.ndim]
    top = float(np.max(np.abs(coeffs), initial=0.0))
    if not top < np.inf:
        finite = np.isfinite(coeffs)
        return bool(np.all(coeffs[~finite] == np.conj(flipped[~finite]))) and is_hermitian(
            np.where(finite, coeffs, 0))
    gap = float(np.max(np.abs(coeffs - np.conj(flipped)), initial=0.0))
    return gap <= HERMITIAN_TOL * max(1.0, top)


@dataclass(frozen=True)
class TorusField:
    """Truncated Fourier representation of a function on T^n.

    coeffs[k + K] holds the coefficient of exp(2 pi i k.x); a field flagged
    real satisfies coeff(-k) == conj(coeff(k)) on the whole band.
    """

    n: int
    K: int
    coeffs: np.ndarray
    real: bool = False

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.shape != (2 * self.K + 1,) * self.n:
            raise ValueError(f"coefficient array shape {arr.shape} does not match band K={self.K}")
        object.__setattr__(self, "coeffs", arr)
        if self.real and not is_hermitian(arr):
            raise ValueError("field flagged real but coefficients are not Hermitian")

    def coeff(self, k: Sequence[int]) -> complex:
        i = band_index(self.n, self.K, k)
        return 0j if i is None else self.coeffs.item(i)

    def items(self) -> Iterator[tuple[IntVec, complex]]:
        """Nonzero coefficients in lexicographic frequency order."""
        flat = self.coeffs.ravel()
        nz = np.flatnonzero(flat)
        return zip(map(tuple, band_frequencies(self.n, self.K)[:, nz].T.tolist()), flat[nz].tolist())

    def _check_compatible(self, other: "TorusField") -> None:
        if self.n != other.n or self.K != other.K:
            raise DimensionMismatch(
                f"fields on (n={self.n}, K={self.K}) and (n={other.n}, K={other.K})"
            )

    def __add__(self, other: "TorusField") -> "TorusField":
        self._check_compatible(other)
        return TorusField(self.n, self.K, self.coeffs + other.coeffs, self.real and other.real)

    def __sub__(self, other: "TorusField") -> "TorusField":
        self._check_compatible(other)
        return TorusField(self.n, self.K, self.coeffs - other.coeffs, self.real and other.real)

    def __mul__(self, scalar: complex) -> "TorusField":
        c = complex(scalar)
        return TorusField(self.n, self.K, self.coeffs * c, self.real and c.imag == 0.0)

    __rmul__ = __mul__

    def scaled_by(self, multiplier: np.ndarray) -> "TorusField":
        """Apply a (conjugation-symmetric) real Fourier multiplier, to the
        real and imaginary parts separately (`weigh_parts`)."""
        return TorusField(self.n, self.K, weigh_parts(multiplier, self.coeffs), self.real)

    def mean(self) -> complex:
        return self.coeff((0,) * self.n)


def weigh_parts(weight: np.ndarray, z: np.ndarray) -> np.ndarray:
    """A real weight times complex z, applied to the real and imaginary parts
    separately: a zero part takes no weight, as a zero term does in
    sobolev_norm, so an infinite weight gives +-inf or 0 in each part, never
    the NaN of (inf + 0j) z. Equal to weight * z wherever that is finite."""
    out = np.zeros(np.broadcast_shapes(np.shape(weight), z.shape), np.complex128)
    with np.errstate(over="ignore"):
        np.multiply(weight, z.real, out=out.real, where=z.real != 0)
        np.multiply(weight, z.imag, out=out.imag, where=z.imag != 0)
    return out


def field_from_coeffs(n: int, K: int, entries: dict, real: bool = False) -> TorusField:
    arr = np.zeros((2 * K + 1) ** n, dtype=np.complex128)
    for k, val in entries.items():
        i = band_index(n, K, k)
        if i is None:
            raise DimensionMismatch(f"frequency {k} outside band K={K}")
        arr[i] = val
    return TorusField(n, K, arr.reshape((2 * K + 1,) * n), real)


def unit_harmonic(n: int, K: int, k: Sequence[int]) -> TorusField:
    """The single complex harmonic exp(2 pi i k.x)."""
    return field_from_coeffs(n, K, {tuple(k): 1.0})


def random_field(n: int, K: int, rng: np.random.Generator, real: bool = False,
                 decay: float = 0.0) -> TorusField:
    """Gaussian coefficients, optionally Hermitian-symmetrized and damped
    by <k>^-decay so Sobolev norms of any order stay finite-ish."""
    shape = (2 * K + 1,) * n
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if decay:
        arr = arr * bracket_sq(n, K) ** (-decay / 2.0)
    if real:
        flipped = arr[(slice(None, None, -1),) * n]
        arr = (arr + np.conj(flipped)) / 2.0
    return TorusField(n, K, arr, real)


# --- discrete Fourier bridge ------------------------------------------------

def _require_grid(N: int, K: int) -> None:
    if N < 2 * K + 2:
        raise BandTooLarge(f"grid N={N} too coarse for band K={K} (need N >= 2K+2)")


def _band_ix(n: int, K: int, N: int):
    return np.ix_(*[np.arange(-K, K + 1) % N for _ in range(n)])


def to_coefficients(samples: np.ndarray, K: int) -> TorusField:
    """Band-restricted DFT of a uniform N^n sample grid.

    coeff(k) = N^-n sum_j samples[j] exp(-2 pi i k.j / N); exact for
    band-limited input when N >= 2K+2.
    """
    samples = np.asarray(samples)
    n = samples.ndim
    N = samples.shape[0]
    if samples.shape != (N,) * n:
        raise ValueError("sample grid must be square")
    _require_grid(N, K)
    spec = np.fft.fftn(samples) / float(N) ** n
    band = spec[_band_ix(n, K, N)]
    return TorusField(n, K, band, real=bool(np.isrealobj(samples)))


def to_samples(f: TorusField, N: int) -> np.ndarray:
    """Evaluate the truncated series on the uniform grid x_j = j/N."""
    _require_grid(N, f.K)
    spec = np.zeros((N,) * f.n, dtype=np.complex128)
    spec[_band_ix(f.n, f.K, N)] = f.coeffs
    return np.fft.ifftn(spec) * float(N) ** f.n


def evaluate_at(f: TorusField, points: np.ndarray) -> np.ndarray:
    """Direct series evaluation at arbitrary points, shape (m, n)."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    flat = f.coeffs.ravel()
    nz = np.flatnonzero(flat)
    phases = np.exp(2j * np.pi * (pts @ band_frequencies(f.n, f.K)[:, nz]))
    return phases @ flat[nz]


# --- norms -------------------------------------------------------------------

def sobolev_norm(f: TorusField, s: float) -> float:
    """H^s norm: sqrt of sum of <k>^(2s) |coeff(k)|^2 over the band; a weight
    past the float range adds 0 where |coeff|^2 is 0, so never a NaN. Only
    where that sum passes the float range is the norm taken from the terms
    <k>^s |coeff(k)| divided by the largest, so a finite norm reads finite."""
    a = np.abs(f.coeffs)
    with np.errstate(over="ignore"):
        w, a2 = bracket_sq(f.n, f.K) ** float(s), a**2
        total = np.sum(np.multiply(w, a2, out=np.zeros_like(a2), where=a2 != 0))
        if total < np.inf:
            return float(np.sqrt(total))
        t = np.multiply(bracket_sq(f.n, f.K) ** (float(s) / 2.0), a, out=np.zeros_like(a), where=a != 0)
    return float(grid_lp_norm(t, 2) * np.sqrt(t.size))


def bessel_multiplier(f: TorusField, s: float) -> TorusField:
    """Apply the Fourier multiplier <k>^s; a zero part of a coefficient takes
    no weight, so an overflowing weight gives no NaN, as in sobolev_norm."""
    with np.errstate(over="ignore"):
        return f.scaled_by(bracket_sq(f.n, f.K) ** (s / 2.0))


def grid_lp_norm(values: np.ndarray, p) -> float:
    """Discrete L^p norm on the unit torus: Riemann sum for finite p,
    max for p = inf. The sum is taken on |values| / max |values|, so a norm
    whose p-th power passes the float range stays finite."""
    a = np.abs(values)
    m = np.max(a)
    if p == np.inf or p == "inf" or not 0 < m < np.inf:
        return float(m)
    p = float(p)
    return float(m * np.mean((a / m) ** p) ** (1.0 / p))


def bessel_norm(f: TorusField, s: float, p, N: int | None = None) -> float:
    """L^p_s norm via the <k>^s multiplier and grid quadrature.

    p = 2 is evaluated spectrally (Parseval makes it the H^s norm)."""
    if p == 2:
        return sobolev_norm(f, s)
    if N is None:
        N = 2 * f.K + 2
    _require_grid(N, f.K)
    g = bessel_multiplier(f, s)
    # ||f||_p >= |f^(k)| for p >= 1, and the grid of an inf coefficient is NaN
    if float(p) >= 1 and not np.isfinite(g.coeffs).all():
        return np.inf
    return grid_lp_norm(to_samples(g, N), p)
