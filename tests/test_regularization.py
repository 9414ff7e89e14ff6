import math

import numpy as np
import pytest

from torusradon.errors import DimensionMismatch, IncompleteCover, ParamViolation
from torusradon.fields import (
    TorusField,
    field_from_coeffs,
    orthogonality_mask,
    random_field,
    sobolev_norm,
    unit_harmonic,
)
from torusradon.lattice import direction_cover, hyperplane_cover
from torusradon.regularization import (
    alpha_schedule,
    error_bound,
    post_process,
    strategy_constant,
    tikhonov_objective,
    tikhonov_reconstruct,
    tikhonov_reconstruct_weighted,
)
from torusradon.sinogram import (
    HEIGHT_DECAY,
    TorusSinogram,
    canonical_weight,
    sinogram_norm,
    weight_on_family,
)
from torusradon.transforms import forward_sinogram


def test_post_process_identity_at_zero(rng):
    f = random_field(2, 3, rng)
    out = post_process(f, 2.0, 0.0)
    assert np.all(out.coeffs == f.coeffs)


def test_post_process_point_values():
    f = field_from_coeffs(2, 2, {(0, 0): 1.0, (1, 0): 1.0})
    out = post_process(f, 1.0, 1.0)
    assert out.coeff((0, 0)) == pytest.approx(0.5)
    assert out.coeff((1, 0)) == pytest.approx(1.0 / 3.0)


@pytest.mark.parametrize("s, alpha", [(1.0, math.nan), (1.0, math.inf), (math.nan, 0.5)])
def test_post_process_refuses_nonfinite_parameters(s, alpha):
    with pytest.raises(ParamViolation, match="finite"):
        post_process(random_field(2, 2, np.random.default_rng(0)), s, alpha)


@pytest.mark.parametrize("r, s, alpha", [(0.0, 1.0, math.nan), (0.0, 1.0, math.inf),
                                         (math.nan, 1.0, 0.1), (0.0, math.nan, 0.1),
                                         (0.0, math.inf, 0.1), (-math.inf, 1.0, 0.1)])
def test_tikhonov_refuses_nonfinite_parameters(r, s, alpha):
    f = random_field(2, 2, np.random.default_rng(0))
    g = forward_sinogram(f, direction_cover(2))
    with pytest.raises(ParamViolation, match="need finite r, s and alpha"):
        tikhonov_reconstruct(g, r, s, alpha)
    with pytest.raises(ParamViolation, match="need finite r, s and alpha"):
        tikhonov_objective(f, g, r, s, alpha)


def test_tikhonov_noiseless_s_equals_r(rng):
    K = 3
    cover = direction_cover(K)
    f = random_field(2, K, rng)
    g = forward_sinogram(f, cover)
    alpha = 0.7
    rec = tikhonov_reconstruct(g, r=1.0, s=1.0, alpha=alpha)
    assert np.max(np.abs(rec.coeffs - f.coeffs / (1 + alpha))) < 1e-12


def test_tikhonov_zero_data():
    K = 2
    cover = direction_cover(K)
    g = forward_sinogram(field_from_coeffs(2, K, {}), cover)
    rec = tikhonov_reconstruct(g, 0.0, 1.0, 0.5)
    assert np.all(rec.coeffs == 0)


def test_tikhonov_alpha_to_zero_limit(rng):
    K = 3
    cover = direction_cover(K)
    f = random_field(2, K, rng)
    g = forward_sinogram(f, cover)
    rec = tikhonov_reconstruct(g, 0.0, 1.0, 1e-8)
    assert sobolev_norm(rec - f, 0.0) < 1e-6


def test_tikhonov_param_violation():
    K = 2
    g = forward_sinogram(field_from_coeffs(2, K, {}), direction_cover(K))
    with pytest.raises(ParamViolation):
        tikhonov_reconstruct(g, r=2.0, s=1.0, alpha=0.5)
    with pytest.raises(ParamViolation):
        tikhonov_reconstruct(g, r=0.0, s=1.0, alpha=0.0)


def test_partial_family_is_refused_by_the_minimizer_not_the_objective(rng):
    # the closed form needs W = 1 on the band; a cover that misses a line
    # has its canonical rule (c_w = 0), on which the objective and the data
    # norm still compute, since neither divides by W
    K = 3
    partial = direction_cover(K)[:-1]
    f = random_field(2, K, rng)
    g = forward_sinogram(f, partial)
    assert canonical_weight(partial, K).c_w == 0.0
    with pytest.raises(IncompleteCover, match="no stored subspace is orthogonal to k="):
        tikhonov_reconstruct(g, 0.0, 1.0, 0.5)
    assert math.isfinite(tikhonov_objective(f, g, 0.0, 1.0, 0.5))
    assert math.isfinite(sinogram_norm(g, 1.0, canonical_weight(partial, K)))


def test_objective_zero():
    K = 2
    cover = direction_cover(K)
    g = forward_sinogram(field_from_coeffs(2, K, {}), cover)
    f = field_from_coeffs(2, K, {})
    assert tikhonov_objective(f, g, 0.0, 1.0, 0.5) == pytest.approx(0.0)


def _random_data(K, rng):
    cover = direction_cover(K)
    g = forward_sinogram(random_field(2, K, rng), cover)
    noisy = {}
    for A in g.members:
        arr = g.slices[A].coeffs + 0.1 * (rng.standard_normal(g.slices[A].coeffs.shape)
                                          + 1j * rng.standard_normal(g.slices[A].coeffs.shape))
        arr = np.where(orthogonality_mask(A, K), arr, 0j)
        arr[K, K] = 0
        noisy[A] = TorusField(2, K, arr)
    return TorusSinogram.from_slices(g.mean + 0.05, noisy)


def test_minimizer_beats_perturbations(rng):
    K = 2
    r, s, alpha = 0.0, 1.0, 0.3
    for _ in range(5):
        g = _random_data(K, rng)
        f_star = tikhonov_reconstruct(g, r, s, alpha)
        base = tikhonov_objective(f_star, g, r, s, alpha)
        for _ in range(10):
            eta = random_field(2, K, rng) * 0.1
            assert tikhonov_objective(f_star + eta, g, r, s, alpha) > base


def test_objective_is_quadratic_along_segments(rng):
    K = 2
    r, s, alpha = 0.0, 1.0, 0.4
    g = _random_data(K, rng)
    f_star = tikhonov_reconstruct(g, r, s, alpha)
    eta = random_field(2, K, rng)
    ts = [0.0, 0.5, 1.0]
    vals = [tikhonov_objective(f_star + t * eta, g, r, s, alpha) for t in ts]
    # fit a parabola through the three samples, then check a fourth point
    coeffs = np.polyfit(ts, vals, 2)
    assert coeffs[0] > 0
    probe = 0.25
    predicted = np.polyval(coeffs, probe)
    actual = tikhonov_objective(f_star + probe * eta, g, r, s, alpha)
    assert abs(predicted - actual) < 1e-10 * max(1.0, abs(actual))


def test_weighted_variant_reduces_to_planar(rng):
    K = 2
    fam = hyperplane_cover(K, 3)
    w = weight_on_family(HEIGHT_DECAY, fam, K)
    f = random_field(3, K, rng)
    g = forward_sinogram(f, fam)
    rec = tikhonov_reconstruct_weighted(g, w, 0.0, 0.0, 1e-9)
    assert np.max(np.abs(rec.coeffs - f.coeffs)) < 1e-6


def test_alpha_schedule():
    assert alpha_schedule(1e-4, mode="strategy") == pytest.approx(1e-2)
    s = 1.5
    assert alpha_schedule(0.04, delta=2 * s, s=s, mode="optimal") == pytest.approx(0.2)
    a = alpha_schedule(1e-4, delta=1e-9, s=1.0, mode="optimal")
    assert a == pytest.approx(1e-4, rel=1e-4)
    with pytest.raises(ParamViolation):
        alpha_schedule(0.0)
    with pytest.raises(ParamViolation):
        alpha_schedule(0.1, delta=-1.0, s=1.0, mode="optimal")


def test_strategy_constant_values():
    assert strategy_constant(0.5) == 0.5
    assert strategy_constant(0.25) == pytest.approx(0.25 * 3**0.75)
    assert strategy_constant(0.25) == pytest.approx(0.5698768424)


def test_error_bound():
    b = error_bound(0.1, 0.0, 1.0, 1.0, 2.0)
    assert b == pytest.approx(0.1**0.5 * 0.5 * 2.0)
    b2 = error_bound(0.1, 0.05, 1.0, 1.0, 2.0)
    assert b2 == pytest.approx(b + 0.5)
    with pytest.raises(ParamViolation):
        error_bound(0.1, 0.0, 3.0, 1.0, 1.0)
    with pytest.raises(ParamViolation):
        error_bound(2.0, 0.0, 1.5, 1.0, 1.0)


def test_smoothing_gain(rng):
    K = 3
    r, s, alpha = 0.0, 1.0, 0.2
    for _ in range(10):
        f = random_field(2, K, rng)
        out = post_process(f, s, alpha)
        assert sobolev_norm(out, r + 2 * s) <= sobolev_norm(f, r) / alpha + 1e-12


def test_post_process_multiplier_symmetry_keeps_real(rng):
    f = random_field(2, 3, rng, real=True)
    out = post_process(f, 1.5, 0.3)
    assert out.real


# each refusal of the regularization module, with its typed error and the start of its message
@pytest.mark.parametrize("call, error, start", [
    (lambda: tikhonov_objective(random_field(3, 1, np.random.default_rng(0)),
                                forward_sinogram(random_field(2, 1, np.random.default_rng(0)),
                                                 direction_cover(1)), 0.0, 1.0, 0.1),
     DimensionMismatch, "field and data dimensions differ"),
    (lambda: alpha_schedule(0.1, mode="fast"), ParamViolation, "unknown schedule mode 'fast'"),
    (lambda: strategy_constant(1.0), ParamViolation, "the constant is defined for 0 < x < 1"),
    (lambda: error_bound(0.5, -1.0, 1.0, 1.0, 1.0), ParamViolation, "eps must be nonnegative"),
])
def test_regularization_refusals(call, error, start):
    with pytest.raises(error) as info:
        call()
    assert str(info.value).startswith(start)
