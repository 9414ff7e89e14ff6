"""Inversion paths: the adjoint and normal operators and the one multiplier
adjoint / (W + alpha <k>^(2 order)) behind the filtered, normalized, sum and
slice inverses (alpha = 0) and Tikhonov (alpha > 0), with one coverage check
and one k = 0 rule at every alpha; and the axis-integral slice coefficient, a
periodic midpoint quadrature on 2K + 1 nodes, exact on the band.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import AxisDegenerate, DimensionMismatch, IncompleteCover
from .fields import TorusField, band_frequencies, band_index, bracket_sq, evaluate_at
from .lattice import IntVec, PrimitiveDirection, _as_intvec
from .sinogram import TorusSinogram, WeightRule, _check_rule, _data_weight, scatter
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


def reconstruct_slices(g: TorusSinogram) -> TorusField:
    """Full-field reconstruction through the axis integrals of
    `slice_reconstruct_coeff`, exact at degree 2K: each stored value and the
    mean, the summation inverse. IncompleteCover if a k has no stored line."""
    if g.n != 2 or g.d != 1:
        raise DimensionMismatch("slice reconstruction is the n=2, d=1 path")
    return invert_sum(g)


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


def _invert(g: TorusSinogram, w: WeightRule, alpha: float = 0.0, order: float = 0.0) -> TorusField:
    """adjoint(g, w) / (W + alpha <k>^(2 order)), W the rule's normal
    multiplier: every method's one rule check, coverage check and division,
    at every alpha. k = 0 holds 0j + mean W(0) / (W(0) + alpha), so W(0) mean
    is never formed: the mean itself at alpha = 0, where W(0) / W(0) is 1.0,
    with a -0.0 part written as +0.0 so no byte hangs on a zero's sign."""
    _check_rule(g, w)
    W = w.normal_array
    _check_cover(W, g.K)
    W0 = W.flat[W.size // 2]
    out = scatter(g.K, g.members, w.w2 * g.values, 0j)
    if alpha != 0:  # no penalty at alpha = 0, where 0 * inf is NaN
        with np.errstate(over="ignore"):  # an inf penalty takes its k to 0, the limit
            W = W + alpha * bracket_sq(g.n, g.K) ** float(order)
    np.divide(out, W, out=out)
    out.flat[out.size // 2] = 0j + g.mean * (W0 / (W0 + alpha))
    return TorusField(g.n, g.K, out)


def invert_filtered(g: TorusSinogram, w: WeightRule) -> TorusField:
    """Exact left inverse on range data: adjoint followed by division by the
    rule's normal multiplier W. Raises IncompleteCover if W vanishes on the
    band, DimensionMismatch if the rule is not on g's family and band."""
    return _invert(g, w)


def adjoint_normalized(g: TorusSinogram, w: WeightRule) -> TorusField:
    """Adjoint computed with the normalized weight w / sqrt(W); composed with
    the forward map it is the identity and preserves every Bessel norm. Its
    coefficient k is sum_A (w(k,A)^2 / W(k)) g^(k,A): the filtered inverse."""
    return _invert(g, w)


def invert_sum(g: TorusSinogram) -> TorusField:
    """Filter-free inversion for hyperplane data (d = n-1): each k != 0 has
    one orthogonal hyperplane, so the data rule's W is 1 off k = 0 and the
    filtered inverse is the plain sum of the slices, plus the stored mean.
    Raises IncompleteCover if a band frequency has no stored hyperplane."""
    if g.d != g.n - 1:
        raise DimensionMismatch("summation inversion needs hyperplane data (d = n-1)")
    return _invert(g, _data_weight(g))


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
