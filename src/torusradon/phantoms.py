"""Test objects realized as band-limited fields.

Harmonic phantoms are exact on the band; disk and bump phantoms are grid
sampled and band-truncated, with the truncation residual reported so tests
can separate discretization error from method error. The residual is the
relative RMS that the band drops from the N x N samples, taken by Parseval
on the grid spectrum; no inverse transform is made. Each bump is the
product of two periodized 1-D Gaussians, so the bumps' spectrum comes from
1-D FFTs. A centre is taken mod 1 before any distance, and a bump width
whose 2 width^2 is not a normal float (it underflows or overflows) is
refused.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, DimensionMismatch
from .fields import TorusField, _band_ix, band_index

# The harmonic phantom of a sweep config without a `phantom`, and of
# `torusradon phantom --kind harmonic` without --params.
DEFAULT_HARMONIC = {"frequencies": [[1, 2]], "amplitudes": [1.0]}


@dataclass(frozen=True)
class Phantom:
    """A realized phantom: the band-limited field plus bookkeeping used by
    acceptance checks (analytic mean of the disk, band-truncation error)."""

    kind: str
    params: dict
    field: TorusField
    analytic_mean: float | None = None
    truncation_residual: float | None = None


def _require_finite(**values) -> None:
    """BadParams naming the first parameter that holds a number not finite."""
    for name, v in values.items():
        if not np.isfinite(v).all():
            raise BadParams(f"phantom {name} must be finite, got {v!r}")


def _harmonic(params, K, N):
    freqs = params.get("frequencies")
    amps = params.get("amplitudes")
    if not freqs or amps is None or len(freqs) != len(amps):
        raise BadParams("harmonic phantom needs matching frequencies and amplitudes")
    _require_finite(amplitudes=amps)
    arr = np.zeros((2 * K + 1) ** 2, dtype=np.complex128)
    for k, a in zip(freqs, amps):
        i = band_index(2, K, k)
        if i is None or i == arr.size // 2:
            raise BadParams(f"harmonic frequency {tuple(k)} must be nonzero and inside the band")
        arr[i] += a
        arr[arr.size - 1 - i] += np.conj(a)  # -k reverses flat order
    f = TorusField(2, K, arr.reshape(2 * K + 1, 2 * K + 1), real=True)
    return Phantom("harmonic", dict(params), f)


def _center(center) -> tuple[float, float]:
    """A phantom centre taken mod 1, which is exact, so a large one loses
    none of the bits of the grid points j/N it is compared with."""
    c = np.asarray(center, dtype=float)
    if c.shape != (2,):
        raise DimensionMismatch(f"phantom center {center} needs 2 entries")
    return tuple((c % 1.0).tolist())


def _offsets(N, center) -> np.ndarray:
    """Signed offsets, shape (2, N), from the grid points j/N to the nearest
    image of center along each axis."""
    return (np.arange(N) / N - np.array(_center(center))[:, None] + 0.5) % 1.0 - 0.5


def _band_limited(spec, K) -> tuple[TorusField, float]:
    """The band-K field of an N x N grid spectrum (fft2 / N^2), and the
    relative RMS of the samples its truncation drops (0 for a zero spectrum).

    By Parseval on the grid that is the norm of the spectrum off the band
    over the norm of the whole. Both are taken on the spectrum divided by
    its largest real or imaginary part: sums of squares no larger than
    2 N^2, so the ratio neither overflows nor cancels and lies in [0, 1]."""
    N = spec.shape[0]
    band = spec[_band_ix(2, K, N)]
    f = TorusField(2, K, band, real=True)
    x = spec.view(np.float64).reshape(N, N, 2)  # (re, im) of each entry
    peak = max(x.max(), -x.min())
    if peak == 0:
        return f, 0.0
    x = x / peak
    off = slice(K + 1, N - K)  # the frequencies off the band on one axis
    dropped = sum(np.vdot(a, a) for a in (x[off], x[:K + 1, off], x[N - K:, off]))
    kept = band.view(np.float64) / peak
    return f, float(np.sqrt(dropped / (dropped + np.vdot(kept, kept))))


def _disk(params, K, N):
    radius = float(params.get("radius", 0.2))
    center = tuple(params.get("center", (0.5, 0.5)))
    if not (0 < radius < 0.5):
        raise BadParams("disk radius must lie in (0, 1/2)")
    _require_finite(center=center)
    dx, dy = _offsets(N, center)
    samples = (dx[:, None] ** 2 + dy[None, :] ** 2 <= radius**2).astype(float)
    f, rel = _band_limited(np.fft.fft2(samples) / N**2, K)
    return Phantom("disk", {"radius": radius, "center": center}, f,
                   analytic_mean=math.pi * radius**2, truncation_residual=rel)


def _multi_bump(params, K, N):
    bumps = params.get("bumps", [])
    amps = {}  # (centre mod 1, 2 width^2) -> the summed amplitude of its bumps
    for b in bumps:
        center = tuple(b.get("center", (0.5, 0.5)))
        width = float(b.get("width", 0.1))
        amp = float(b.get("amplitude", 1.0))
        _require_finite(center=center, width=width, amplitude=amp)
        two_w2 = 2 * width * width
        if not (width > 0 and sys.float_info.min <= two_w2 < math.inf):
            raise BadParams(f"bump width must be positive with 2 width^2 a normal float, "
                            f"got {width!r}")
        key = (_center(center), two_w2)
        amps[key] = amps.get(key, 0.0) + amp
    # The periodized Gaussian (nearest image per axis) is gx (x) gy, so the
    # spectrum of the sum is the rank-B product of the 1-D spectra, each
    # scaled by 1/N first so that no intermediate exceeds the result. Bumps
    # of one centre and width share one factor: amplitudes that cancel there
    # leave an exact zero, not the rounding noise of the product.
    factors = [np.exp(-_offsets(N, c) ** 2 / two_w2) for c, two_w2 in amps]
    fx, fy = np.moveaxis(np.fft.fft(np.reshape(factors, (-1, 2, N))) / N, 1, 0)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf sum is refused below
        spec = fx.T @ (np.reshape(list(amps.values()), (-1, 1)) * fy)
    if not np.isfinite(spec).all():
        raise BadParams("phantom amplitude must be finite in sum: the bumps' spectrum overflows")
    f, rel = _band_limited(spec, K)
    return Phantom("multi-bump", {"bumps": list(bumps)}, f, truncation_residual=rel)


_KINDS = {"harmonic": _harmonic, "disk": _disk, "multi-bump": _multi_bump}


def phantom(kind: str, params: dict, K: int, N: int) -> Phantom:
    """Build a real band-limited phantom at band K from an N x N grid;
    malformed parameters (wrong types or shapes) raise BadParams."""
    if kind not in _KINDS:
        raise BadParams(f"unknown phantom kind {kind!r}; choose from {sorted(_KINDS)}")
    if N < 2 * K + 2:
        raise BadParams(f"grid N={N} too coarse for band K={K}")
    try:
        return _KINDS[kind](params, K, N)
    except (TypeError, ValueError, KeyError, IndexError, AttributeError, OverflowError,
            DimensionMismatch) as e:
        raise BadParams(f"malformed {kind} phantom parameters: {e!r}") from e
