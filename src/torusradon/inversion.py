"""Inversion paths: axis-integral slice reconstruction (a periodic
midpoint quadrature on 2K + 1 nodes, one product per block of lines), adjoint
and normal operators, filtered and normalized-weight inversion, and the
filter-free hyperplane summation formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import AxisDegenerate, DimensionMismatch, IncompleteCover
from .fields import TorusField, band_frequencies, band_index, evaluate_at
from .lattice import IntVec, PrimitiveDirection, _as_intvec
from .sinogram import TorusSinogram, WeightRule, _check_rule, _data_weight, _dense, layout, scatter
from .transforms import _midpoint_nodes


def _default_axis(k: IntVec, v: PrimitiveDirection) -> int:
    """Integration axis: the one with the larger |k_i| (tie -> axis 2);
    for k = 0 the valid axis is fixed by the direction."""
    if not any(k):
        # integrating over axis j kills the nonzero multiples iff v_j != 0
        return 1 if v.v[0] != 0 else 0
    if abs(k[0]) > abs(k[1]):
        return 0
    return 1


def slice_reconstruct_coeff(g_v: TorusField, k: Sequence[int], v: PrimitiveDirection,
                            N_q: int | None = None, axis: int | None = None) -> complex:
    """One Fourier coefficient of f from its transform along v, by a
    one-dimensional periodic midpoint quadrature of the axis integral.

    For k with k_2 != 0 this is the integral of g_v(0, y) e^{-2 pi i k_2 y};
    for k_1 != 0 the x-axis line is used instead, and k = 0 reduces to the
    plain average along the valid axis. Exact on the band."""
    if g_v.n != 2:
        raise DimensionMismatch("slice reconstruction is a planar (n=2) operation")
    kk = _as_intvec(k)
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
    # on the band the axis integrand has frequencies |k_axis| <= K in both
    # factors, so degree at most 2K: 2K + 1 nodes are exact, the default
    t = _midpoint_nodes(2 * g_v.K, N_q)
    pts = np.zeros((t.size, 2))
    pts[:, axis] = t
    vals = evaluate_at(g_v, pts)
    phase = np.exp(-2j * np.pi * kk[axis] * t)
    return complex(np.mean(vals * phase))


# lines per product of reconstruct_slices: B and its samples are then at
# most (2K + 1) x 1,024, however large the family
_BLOCK_LINES = 1024


def _read_back(P, P_back, rows, cols, width: int, values, mean) -> np.ndarray:
    """One block of reconstruct_slices: B, of `width` lines, holds the
    values at (rows, cols), and they come back from P_back @ (P @ B + mean).
    Its two (2K + 1) x width arrays are freed on return, before the next
    block is built."""
    B = np.zeros((P.shape[1], width), dtype=np.complex128)
    B[rows, cols] = values
    samples = P @ B
    samples += mean
    np.matmul(P_back, samples, out=B)  # B now holds the coefficients read back
    return B[rows, cols]


def reconstruct_slices(g: TorusSinogram) -> TorusField:
    """Full-field reconstruction through the axis integrals: the quadrature
    of `slice_reconstruct_coeff` on its 2K + 1 nodes t, exact on the band,
    as one product per block of `_BLOCK_LINES` lines. Column l of B holds
    line l's coefficients at their axis frequencies; one phase matrix
    P = e^{2 pi i k_axis t_j} samples every slice of the block plus the
    shared mean as P @ B + mean, and every coefficient is read off
    P^H (P @ B + mean) / (2K + 1). k = 0 is the average along the first
    line's valid axis. Raises IncompleteCover if a band frequency has no
    stored orthogonal line."""
    if g.n != 2 or g.d != 1:
        raise DimensionMismatch("slice reconstruction is the n=2, d=1 path")
    K = g.K
    t = _midpoint_nodes(2 * K, None)  # the nodes of slice_reconstruct_coeff
    _check_cover(_data_weight(g).normal_array, K)
    index, offsets, _ = layout(g.members, K)
    ks = band_frequencies(2, K)[:, index]
    # the axis of _default_axis, entry by entry; the entries of a line are
    # multiples of one primitive vector, so it is the same along the line
    k_axis = np.where(np.abs(ks[0]) > np.abs(ks[1]), ks[0], ks[1]) + K
    lines = np.repeat(np.arange(len(g.members)), np.diff(offsets))
    P = np.exp(2j * np.pi * np.outer(t, np.arange(-K, K + 1)))
    P_back = P.conj().T / t.size
    coeffs = np.empty_like(g.values)
    for lo in range(0, len(g.members), _BLOCK_LINES):
        hi = min(lo + _BLOCK_LINES, len(g.members))
        entries = slice(offsets[lo], offsets[hi])
        coeffs[entries] = _read_back(P, P_back, k_axis[entries], lines[entries] - lo,
                                     hi - lo, g.values[entries], g.mean)
    first = slice(offsets[0], offsets[1])
    axis = _default_axis((0, 0), PrimitiveDirection(g.members[0].basis[0]))
    mean = np.mean(P[:, ks[axis, first] + K] @ g.values[first] + g.mean)
    return TorusField(2, K, _dense(2, K, index, coeffs, mean))


def adjoint(g: TorusSinogram, w: WeightRule) -> TorusField:
    """Data-space adjoint: coefficient k collects w(k,A)^2 g^(k,A) over the
    stored subspaces orthogonal to k; the k = 0 slot gets the shared mean
    against the summed squared zero-frequency weights."""
    _check_rule(g, w)
    return TorusField(g.n, g.K, scatter(g.K, g.members, w.w2 * g.values, w.w2_zero.sum() * g.mean))


def normal_multiplier(w: WeightRule, k: Sequence[int]) -> float:
    """W(k): the diagonal symbol of the normal operator over the rule's
    family, read from the rule's bandwide `normal_array`; 0.0 off the band."""
    i = band_index(w.n, w.K, k)
    return 0.0 if i is None else w.normal_array.item(i)


def _check_cover(W: np.ndarray, K: int) -> None:
    """IncompleteCover naming the first band frequency k (in flat order)
    where the normal multiplier W is not positive. Every weight is positive,
    so W(k) = 0 exactly where no stored subspace is orthogonal to k."""
    if float(W.min()) <= 0.0:
        k = tuple(band_frequencies(W.ndim, K)[:, np.flatnonzero(W <= 0.0)[0]].tolist())
        raise IncompleteCover(f"no stored subspace is orthogonal to k={k}")


def invert_filtered(g: TorusSinogram, w: WeightRule) -> TorusField:
    """Exact left inverse on range data: adjoint followed by division by the
    rule's normal multiplier W. Raises IncompleteCover if W vanishes on the
    band, DimensionMismatch if the rule is not on g's family and band."""
    back = adjoint(g, w)
    _check_cover(w.normal_array, g.K)
    return TorusField(g.n, g.K, back.coeffs / w.normal_array)


def adjoint_normalized(g: TorusSinogram, w: WeightRule) -> TorusField:
    """Adjoint computed with the normalized weight w / sqrt(W); composed with
    the forward map it is the identity and preserves every Bessel norm.

    Its coefficient k is sum_A (w(k,A)^2 / W(k)) g^(k,A), the adjoint
    divided by W: on the band it is the filtered inverse."""
    return invert_filtered(g, w)


def invert_sum(g: TorusSinogram) -> TorusField:
    """Filter-free inversion for hyperplane data (d = n-1): the zero-average
    part of f is the plain sum of its slices, and the stored shared mean is
    f's k = 0 coefficient, so one scatter returns the whole field.

    Every band frequency needs its orthogonal hyperplane in the family;
    missing coverage raises rather than returning a silently wrong field."""
    if g.d != g.n - 1:
        raise DimensionMismatch("summation inversion needs hyperplane data (d = n-1)")
    _check_cover(_data_weight(g).normal_array, g.K)
    # 0j + mean writes a -0.0 part of the mean as +0.0, so the field's bytes
    # do not depend on the sign of a zero
    return TorusField(g.n, g.K, scatter(g.K, g.members, g.values, 0j + g.mean))


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
