"""Inversion paths: axis-integral slice reconstruction (one periodic
midpoint quadrature per stored line), adjoint and normal operators,
filtered and normalized-weight inversion, and the filter-free hyperplane
summation formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    AxisDegenerate,
    DimensionMismatch,
    IncompleteCover,
    NonzeroMean,
    QuadratureTooCoarse,
    SingularFilter,
)
from .fields import TorusField, evaluate_at
from .lattice import IntVec, PrimitiveDirection, RationalSubspace
from .sinogram import (
    TorusSinogram,
    WeightRule,
    _check_weight_defined,
    layout,
    plain_magnitude,
    scatter,
    weighted_scatter,
)
from .transforms import quadrature_threshold

NONZERO_MEAN_RTOL = 1e-12


def _default_axis(k: IntVec, v: PrimitiveDirection) -> int:
    """Integration axis: the one with the larger |k_i| (tie -> axis 2);
    for k = 0 the valid axis is fixed by the direction."""
    if not any(k):
        # integrating over axis j kills the nonzero multiples iff v_j != 0
        return 1 if v.v[0] != 0 else 0
    if abs(k[0]) > abs(k[1]):
        return 0
    return 1


def _quadrature_nodes(K: int, v: PrimitiveDirection, N_q: int | None) -> np.ndarray:
    """Midpoint nodes (j + 1/2)/N_q of the axis quadrature for slices along
    v. The rule is exact on the band above `quadrature_threshold`; the
    default is the smallest such N_q, and at least 2K + 1."""
    threshold = quadrature_threshold(K, [v.v])
    if N_q is None:
        N_q = max(threshold, 2 * K) + 1
    if N_q <= threshold:
        raise QuadratureTooCoarse(f"N_q={N_q} <= exactness threshold {threshold}")
    return (np.arange(N_q) + 0.5) / N_q


def slice_reconstruct_coeff(g_v: TorusField, k: Sequence[int], v: PrimitiveDirection,
                            N_q: int | None = None, axis: int | None = None) -> complex:
    """One Fourier coefficient of f from its transform along v, by a
    one-dimensional periodic midpoint quadrature of the axis integral.

    For k with k_2 != 0 this is the integral of g_v(0, y) e^{-2 pi i k_2 y};
    for k_1 != 0 the x-axis line is used instead, and k = 0 reduces to the
    plain average along the valid axis. Exact on the band."""
    if g_v.n != 2:
        raise DimensionMismatch("slice reconstruction is a planar (n=2) operation")
    kk = tuple(int(x) for x in k)
    if v.dot(kk) != 0:
        raise ValueError(f"direction {v.v} is not orthogonal to k={kk}")
    if axis is None:
        axis = _default_axis(kk, v)
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    if any(kk) and kk[axis] == 0:
        raise AxisDegenerate(f"axis {axis} formula needs k[{axis}] != 0, got k={kk}")
    if not any(kk) and v.v[1 - axis] == 0:
        raise AxisDegenerate(f"k = 0 along axis {axis} needs v[{1 - axis}] != 0, got v={v.v}")
    t = _quadrature_nodes(g_v.K, v, N_q)
    pts = np.zeros((t.size, 2))
    pts[:, axis] = t
    vals = evaluate_at(g_v, pts)
    phase = np.exp(-2j * np.pi * kk[axis] * t)
    return complex(np.mean(vals * phase))


def _line_phases(A: RationalSubspace, idx, K: int, N_q: int | None, zero: bool) -> np.ndarray:
    """Phases e^{2 pi i k_axis t_j} of the frequencies k at the flat band
    indices idx of A's block (columns) at the quadrature nodes t_j for
    slices along A (rows). The axis is the one the rule picks for k = 0 if
    `zero`, else the one for the nonzero k: these are multiples of one
    primitive vector, so the rule picks the same axis for all of them."""
    v = PrimitiveDirection(A.basis[0])
    ks = np.column_stack(np.unravel_index(idx, (2 * K + 1,) * 2)) - K
    axis = _default_axis((0, 0) if zero else tuple(ks[-1]), v)
    return np.exp(2j * np.pi * np.outer(_quadrature_nodes(K, v, N_q), ks[:, axis]))


def reconstruct_slices(g: TorusSinogram, N_q: int | None = None) -> TorusField:
    """Full-field reconstruction through the axis integrals: the quadrature
    of `slice_reconstruct_coeff`, run once per stored line. The slice plus
    the shared mean is sampled on the nodes of one axis, and every
    coefficient on the line is read off those samples; k = 0 is the average
    along the first line's valid axis. Raises IncompleteCover if a band
    frequency has no stored orthogonal line."""
    if g.n != 2 or g.d != 1:
        raise DimensionMismatch("slice reconstruction is the n=2, d=1 path")
    K = g.K
    out = np.zeros((2 * K + 1) ** 2, dtype=np.complex128)
    covered = np.zeros(out.size, dtype=bool)
    covered[out.size // 2] = True
    index = layout(g.members, K)[0]
    for A, block in g.blocks.items():
        idx = index[block]
        if idx.size:
            E = _line_phases(A, idx, K, N_q, zero=False)
            out[idx] = E.conj().T @ (E @ g.values[block] + g.mean) / E.shape[0]
            covered[idx] = True
    if not covered.all():
        k = _first_frequency(~covered.reshape((2 * K + 1,) * 2), K)
        raise IncompleteCover(f"no slice orthogonal to k={k}")
    A, b = g.members[0], g.blocks[g.members[0]]
    out[out.size // 2] = np.mean(_line_phases(A, index[b], K, N_q, zero=True) @ g.values[b] + g.mean)
    return TorusField(2, K, out.reshape((2 * K + 1,) * 2))


def adjoint(g: TorusSinogram, w: WeightRule) -> TorusField:
    """Data-space adjoint: coefficient k collects w(k,A)^2 g^(k,A) over the
    stored subspaces orthogonal to k; the k = 0 slot gets the shared mean
    against the summed squared zero-frequency weights."""
    _check_weight_defined(g, w)
    return TorusField(g.n, g.K, weighted_scatter(g.members, w, g.values, g.mean))


def normal_multiplier(w: WeightRule, k: Sequence[int]) -> float:
    """W(k): the diagonal symbol of the normal operator over the rule's
    family, built bandwide with the rule."""
    return w.normal_value(k)


def _first_frequency(mask: np.ndarray, K: int) -> IntVec:
    return tuple(int(i) - K for i in np.argwhere(mask)[0])


def invert_filtered(g: TorusSinogram, w: WeightRule) -> TorusField:
    """Exact left inverse on range data: adjoint followed by division by the
    normal multiplier over the members stored in g (the rule's certified W
    when g lives on its whole family). Raises SingularFilter if W vanishes
    on the band."""
    W = weighted_scatter(g.members, w)
    if float(W.min()) <= 0.0:
        raise SingularFilter(f"normal multiplier vanishes at k={_first_frequency(W <= 0.0, g.K)}")
    return TorusField(g.n, g.K, adjoint(g, w).coeffs / W)


def adjoint_normalized(g: TorusSinogram, w: WeightRule) -> TorusField:
    """Adjoint computed with the normalized weight w / sqrt(W); composed with
    the forward map it is the identity and preserves every Bessel norm.

    Its coefficient k is sum_A (w(k,A)^2 / W(k)) g^(k,A), the adjoint
    divided by W: on the band it is the filtered inverse."""
    return invert_filtered(g, w)


def invert_sum(g: TorusSinogram) -> TorusField:
    """Filter-free inversion for hyperplane data (d = n-1): a zero-average
    function is the plain sum of its slices.

    The mean must vanish (subtract it first) and every band frequency needs
    its orthogonal hyperplane in the family; missing coverage raises rather
    than returning a silently wrong field."""
    if g.d != g.n - 1:
        raise DimensionMismatch("summation inversion needs hyperplane data (d = n-1)")
    scale = max(1.0, plain_magnitude(g))
    if abs(g.mean) > NONZERO_MEAN_RTOL * scale:
        raise NonzeroMean(f"|mean| = {abs(g.mean):.3e} exceeds {NONZERO_MEAN_RTOL:.0e} x norm")
    covered = scatter(g.K, g.members, np.ones(g.values.size), 1.0)
    if float(covered.min()) == 0.0:
        k = _first_frequency(covered == 0.0, g.K)
        raise IncompleteCover(f"family lacks the hyperplane orthogonal to k={k}")
    return TorusField(g.n, g.K, scatter(g.K, g.members, g.values))


@dataclass
class ReconstructionReport:
    """Per-method error summary for one reconstruction run."""

    method: str
    parameters: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)
    duration_s: float = 0.0

    def __post_init__(self):
        for v in self.errors.values():
            if v < 0:
                raise ValueError("errors must be nonnegative")

    @property
    def payload(self) -> dict:
        """The report as JSON data; the run time stays out of artifacts."""
        return {"method": self.method, "parameters": self.parameters, "errors": self.errors}

    def errors_csv(self) -> str:
        lines = ["method,s,error"]
        for name in sorted(self.errors):
            lines.append(f"{self.method},{name},{self.errors[name]:.17g}")
        return "\n".join(lines) + "\n"
