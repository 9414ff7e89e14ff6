"""Tikhonov regularization on the Fourier side: the closed-form minimizer
for d-planes in any T^n (the inversions' multiplier under g's data rule plus
a Bessel penalty), parameter schedules and the convergence bound. On a
planar direction cover, where the canonical rule's W is 1, the minimizer at
r = 0 is the smoothing post-processing filter f^(k) / (1 + alpha <k>^(2s)).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, ParamViolation
from .fields import TorusField, sobolev_norm
from .inversion import _invert
from .sinogram import TorusSinogram, _data_weight, sinogram_norm
from .transforms import forward_sinogram


def _check_minimizer_params(r: float, s: float, alpha: float) -> None:
    if not all(map(math.isfinite, (r, s, alpha))):
        raise ParamViolation(f"need finite r, s and alpha, got r={r}, s={s}, alpha={alpha}")
    if s < r:
        raise ParamViolation(f"need s >= r, got s={s}, r={r}")
    if alpha <= 0:
        raise ParamViolation("alpha must be positive")


def tikhonov_reconstruct(g: TorusSinogram, r: float, s: float, alpha: float) -> TorusField:
    """Closed-form minimizer of `tikhonov_objective` for d-planes in any T^n:
    the functional is diagonal in k, so its minimizer is adjoint / (W +
    alpha <k>^(2(s-r))), W the normal multiplier of g's data rule, with the
    inversions' coverage check and k = 0 rule. Raises IncompleteCover where a
    band frequency has no stored subspace (W = 0)."""
    _check_minimizer_params(r, s, alpha)
    return _invert(g, _data_weight(g), alpha, s - r)


def tikhonov_objective(f: TorusField, g: TorusSinogram, r: float, s: float,
                       alpha: float) -> float:
    """The Tikhonov functional: squared data misfit in the data norm of
    order r (under the data rule of g's family) plus alpha times the
    squared H^s penalty."""
    _check_minimizer_params(r, s, alpha)
    if f.n != g.n:
        raise DimensionMismatch("field and data dimensions differ")
    misfit = sinogram_norm(forward_sinogram(f, g.members) - g, r)
    return misfit**2 + alpha * sobolev_norm(f, s) ** 2


def alpha_schedule(eps: float, delta: float = 0.0, s: float = 1.0,
                   mode: str = "strategy") -> float:
    """Regularization parameter schedules: sqrt(eps) for the plain strategy,
    eps^lambda with lambda = (1 + delta/2s)^-1 for the optimal rate."""
    if eps <= 0:
        raise ParamViolation("eps must be positive")
    if mode == "strategy":
        return float(np.sqrt(eps))
    if mode == "optimal":
        if s <= 0 or delta < 0:
            raise ParamViolation("optimal schedule needs s > 0 and delta >= 0")
        lam = 1.0 / (1.0 + delta / (2.0 * s))
        return float(eps**lam)
    raise ParamViolation(f"unknown schedule mode {mode!r}")


def strategy_constant(x: float) -> float:
    """C(x) = x (x^-1 - 1)^(1-x) on (0, 1); C(1/2) = 1/2 exactly."""
    if not (0.0 < x < 1.0):
        raise ParamViolation("the constant is defined for 0 < x < 1")
    return float(x * (1.0 / x - 1.0) ** (1.0 - x))


def error_bound(alpha: float, eps: float, delta: float, s: float, M_f: float) -> float:
    """Right-hand side of the quantitative convergence estimate:
    alpha^(delta/2s) C(delta/2s) M_f + eps / alpha."""
    if not (0.0 < delta < 2.0 * s):
        raise ParamViolation(f"need 0 < delta < 2s, got delta={delta}, s={s}")
    if not (0.0 < alpha <= 2.0 * s / delta - 1.0):
        raise ParamViolation(f"need 0 < alpha <= 2s/delta - 1, got alpha={alpha}")
    if eps < 0:
        raise ParamViolation("eps must be nonnegative")
    x = delta / (2.0 * s)
    return float(alpha**x * strategy_constant(x) * M_f + eps / alpha)
