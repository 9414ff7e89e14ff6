"""Test objects realized as band-limited fields.

Harmonic phantoms are exact on the band; disk and bump phantoms are grid
sampled and band-truncated, with the truncation residual reported so tests
can separate discretization error from method error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParams
from .fields import TorusField, to_coefficients, to_samples


@dataclass(frozen=True)
class Phantom:
    """A realized phantom: the band-limited field plus bookkeeping used by
    acceptance checks (analytic mean of the disk, band-truncation error)."""

    kind: str
    params: dict
    field: TorusField
    analytic_mean: float | None = None
    truncation_residual: float | None = None


def _harmonic(params, K, N):
    freqs = params.get("frequencies")
    amps = params.get("amplitudes")
    if not freqs or amps is None or len(freqs) != len(amps):
        raise BadParams("harmonic phantom needs matching frequencies and amplitudes")
    arr = np.zeros((2 * K + 1,) * 2, dtype=np.complex128)
    for k, a in zip(freqs, amps):
        k = tuple(int(x) for x in k)
        if max(abs(x) for x in k) > K or not any(k):
            raise BadParams(f"harmonic frequency {k} must be nonzero and inside the band")
        arr[k[0] + K, k[1] + K] += a
        arr[-k[0] + K, -k[1] + K] += np.conj(a)
    f = TorusField(2, K, arr, real=True)
    return Phantom("harmonic", dict(params), f)


def _grid(N):
    x = (np.arange(N) + 0.0) / N
    return np.meshgrid(x, x, indexing="ij")


def _disk(params, K, N):
    radius = float(params.get("radius", 0.2))
    center = tuple(params.get("center", (0.5, 0.5)))
    if not (0 < radius < 0.5):
        raise BadParams("disk radius must lie in (0, 1/2)")
    X, Y = _grid(N)
    samples = (((X - center[0]) ** 2 + (Y - center[1]) ** 2) <= radius**2).astype(float)
    f = to_coefficients(samples, K)
    resid = np.sqrt(np.mean(np.abs(samples - to_samples(f, N)) ** 2))
    rel = float(resid / max(np.sqrt(np.mean(samples**2)), 1e-300))
    return Phantom("disk", {"radius": radius, "center": center}, f,
                   analytic_mean=math.pi * radius**2, truncation_residual=rel)


def _multi_bump(params, K, N):
    bumps = params.get("bumps", [])
    X, Y = _grid(N)
    samples = np.zeros((N, N))
    for b in bumps:
        cx, cy = b.get("center", (0.5, 0.5))
        width = float(b.get("width", 0.1))
        amp = float(b.get("amplitude", 1.0))
        if width <= 0:
            raise BadParams("bump width must be positive")
        # periodized Gaussian: sum over the nearest image in each direction
        dx = (X - cx + 0.5) % 1.0 - 0.5
        dy = (Y - cy + 0.5) % 1.0 - 0.5
        samples += amp * np.exp(-(dx**2 + dy**2) / (2 * width**2))
    f = to_coefficients(samples, K)
    resid = np.sqrt(np.mean(np.abs(samples - to_samples(f, N)) ** 2))
    scale = np.sqrt(np.mean(samples**2))
    rel = float(resid / scale) if scale > 0 else 0.0
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
    except (TypeError, ValueError, KeyError, IndexError, AttributeError) as e:
        raise BadParams(f"malformed {kind} phantom parameters: {e!r}") from e
