"""Forward transforms over closed geodesics and rational d-planes.

Period-1 parametrization throughout: the closed geodesic of integer
direction v is t -> x + t v, t in [0, 1]. On band-limited fields the
transform is the exact Fourier multiplier that keeps the coefficients
orthogonal to the direction/subspace; the spatial midpoint quadrature is
kept as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, QuadratureTooCoarse
from .fields import TorusField, evaluate_at
from .lattice import PrimitiveDirection, RationalSubspace
from .sinogram import TorusSinogram, _dense, as_subspace, canonical_family, layout, support


@dataclass(frozen=True)
class GeodesicSpec:
    """A base point and a direction (closed geodesic) or an integer-basis
    subspace (periodic d-plane)."""

    x: tuple[float, ...]
    direction: PrimitiveDirection | RationalSubspace

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        if not all(0.0 <= t < 1.0 for t in self.x):
            raise ValueError("base point components must lie in [0, 1)")

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        if isinstance(self.direction, PrimitiveDirection):
            return (self.direction.v,)
        return self.direction.basis


def forward_subspace(f: TorusField,
                     member: RationalSubspace | PrimitiveDirection | Sequence[int]) -> TorusField:
    """d-plane transform along a subspace, or X-ray transform along a
    direction: keeps exactly the coefficients orthogonal to every basis row."""
    A = as_subspace(member)
    if A.n != f.n:
        raise DimensionMismatch(f"subspace in Q^{A.n}, field on T^{f.n}")
    flat, kept = f.coeffs.ravel(), support(A, f.K)
    return TorusField(f.n, f.K, _dense(f.n, f.K, kept, flat[kept], flat[flat.size // 2]), f.real)


forward_direction = forward_subspace


def _midpoint_nodes(threshold: int, N_q: int | None) -> np.ndarray:
    """Nodes (j + 1/2)/N_q of the periodic midpoint rule on [0, 1), exact
    for trigonometric polynomials of degree at most `threshold` once N_q
    exceeds it; N_q defaults to threshold + 1, and QuadratureTooCoarse is
    raised at or below the threshold."""
    if N_q is None:
        N_q = threshold + 1
    if N_q <= threshold:
        raise QuadratureTooCoarse(f"N_q={N_q} <= exactness threshold {threshold}")
    return (np.arange(N_q) + 0.5) / N_q


def quadrature_line_integral(f: TorusField, spec: GeodesicSpec, N_q: int | None = None) -> complex:
    """Midpoint-rule value of the parameter integral over [0,1]^d.

    Exact on the band once N_q exceeds the threshold; serves as the
    independent oracle for the Fourier-multiplier path.
    """
    rows = spec.rows
    if len(spec.x) != f.n or any(len(r) != f.n for r in rows):
        raise DimensionMismatch("geodesic spec does not match the field dimension")
    # the line-restricted frequencies satisfy |k.v| <= K |v|_1, and nodes
    # above twice that bound are exact for band-limited integrands
    t = _midpoint_nodes(2 * f.K * max(sum(map(abs, row)) for row in rows), N_q)
    d = len(rows)
    grids = np.meshgrid(*[t] * d, indexing="ij")
    pts = np.array(spec.x)[None, :] + sum(
        g.reshape(-1, 1) * np.array(row, dtype=float)[None, :]
        for g, row in zip(grids, rows)
    )
    vals = evaluate_at(f, pts % 1.0)
    return complex(vals.mean())


def forward_sinogram(f: TorusField, family) -> TorusSinogram:
    """Batched forward map into the data space: one gather on the family's
    layout, the shared average stored once. DimensionMismatch if the family
    mixes subspace dimensions or does not match the field."""
    members = canonical_family(family)
    if not members:
        raise ValueError("family must be nonempty")
    if members[0].n != f.n:
        raise DimensionMismatch(f"subspaces in Q^{members[0].n}, field on T^{f.n}")
    return TorusSinogram(members, f.K, f.mean(), f.coeffs.ravel()[layout(members, f.K)[0]])

