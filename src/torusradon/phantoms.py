"""Test objects realized as band-limited fields.

Harmonic phantoms are exact on the band; disk and bump phantoms are grid
sampled and band-truncated, with the truncation residual reported so tests
can separate discretization error from method error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, DimensionMismatch
from .fields import TorusField, band_index, to_coefficients, to_samples

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


def _dist2(N, center):
    """Squared distance from grid point (i, j)/N to the nearest image of center."""
    x = (np.arange(N) + 0.0) / N
    dx, dy = ((x - c + 0.5) % 1.0 - 0.5 for c in center)
    return dx[:, None] ** 2 + dy[None, :] ** 2


def _band_limited(samples, K, N) -> tuple[TorusField, float]:
    """The band-K field of N x N grid samples, and the relative RMS residual
    of its truncation (0 for all-zero samples)."""
    f = to_coefficients(samples, K)
    resid = np.sqrt(np.mean(np.abs(samples - to_samples(f, N)) ** 2))
    scale = np.sqrt(np.mean(samples**2))
    return f, float(resid / scale) if scale > 0 else 0.0


def _disk(params, K, N):
    radius = float(params.get("radius", 0.2))
    center = tuple(params.get("center", (0.5, 0.5)))
    if not (0 < radius < 0.5):
        raise BadParams("disk radius must lie in (0, 1/2)")
    _require_finite(center=center)
    f, rel = _band_limited((_dist2(N, center) <= radius**2).astype(float), K, N)
    return Phantom("disk", {"radius": radius, "center": center}, f,
                   analytic_mean=math.pi * radius**2, truncation_residual=rel)


def _multi_bump(params, K, N):
    bumps = params.get("bumps", [])
    samples = np.zeros((N, N))
    for b in bumps:
        center = tuple(b.get("center", (0.5, 0.5)))
        width = float(b.get("width", 0.1))
        amp = float(b.get("amplitude", 1.0))
        _require_finite(center=center, width=width, amplitude=amp)
        if width <= 0:
            raise BadParams("bump width must be positive")
        # periodized Gaussian: sum over the nearest image in each direction
        samples += amp * np.exp(-_dist2(N, center) / (2 * width**2))
    f, rel = _band_limited(samples, K, N)
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
