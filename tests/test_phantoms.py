import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusradon.errors import BadParams
from torusradon.fields import to_coefficients, to_samples
from torusradon.phantoms import phantom


def dense_phantom(kind, params, K, N):
    """Reference: the N x N samples with each centre taken mod 1, their band
    by fft2 and the truncation residual by the round trip through
    to_samples, as rms(samples - truncated) / rms(samples)."""
    x = np.arange(N) / N

    def dist2(center):
        dx, dy = ((x - c % 1.0 + 0.5) % 1.0 - 0.5 for c in center)
        return dx[:, None] ** 2 + dy[None, :] ** 2

    if kind == "disk":
        samples = (dist2(params["center"]) <= params["radius"] ** 2).astype(float)
    else:
        samples = np.zeros((N, N))
        for b in params["bumps"]:
            samples += b["amplitude"] * np.exp(-dist2(b["center"]) / (2 * b["width"] ** 2))
    f = to_coefficients(samples, K)
    peak = np.max(np.abs(samples))
    if peak == 0:
        return f.coeffs, 0.0
    # the ratio taken on samples scaled to peak 1, so that the squares of
    # an amplitude like 1e-175 do not underflow to a residual of 0
    unit = samples / peak
    resid = np.sqrt(np.mean(np.abs(unit - to_samples(to_coefficients(unit, K), N)) ** 2))
    return f.coeffs, float(resid / np.sqrt(np.mean(unit**2)))


def test_harmonic_phantom_coefficients():
    ph = phantom("harmonic", {"frequencies": [(1, 2)], "amplitudes": [1.0]}, K=4, N=16)
    f = ph.field
    assert f.real
    assert f.coeff((1, 2)) == pytest.approx(1.0)
    assert f.coeff((-1, -2)) == pytest.approx(1.0)
    assert np.sum(np.abs(f.coeffs)) == pytest.approx(2.0)


def test_disk_phantom_mean_and_residual():
    ph = phantom("disk", {"radius": 0.2, "center": (0.5, 0.5)}, K=16, N=128)
    expected = math.pi * 0.04
    assert ph.analytic_mean == pytest.approx(expected)
    assert ph.field.coeff((0, 0)).real == pytest.approx(expected, rel=0.02)
    assert ph.truncation_residual is not None and 0 < ph.truncation_residual < 0.5
    assert ph.field.real


def test_disk_truncation_residual_decreases_with_band():
    coarse = phantom("disk", {"radius": 0.2}, K=8, N=256)
    fine = phantom("disk", {"radius": 0.2}, K=32, N=256)
    assert fine.truncation_residual < coarse.truncation_residual


def test_multi_bump_zero_amplitudes():
    ph = phantom("multi-bump", {"bumps": [{"center": (0.3, 0.4), "width": 0.1, "amplitude": 0.0}]},
                 K=4, N=16)
    assert np.all(ph.field.coeffs == 0)


# bumps of one centre (mod 1) and width whose amplitudes cancel give an
# exact zero with residual 0, as on the dense grid, where a product of
# their separate 1-D spectra would leave rounding noise
def test_cancelling_bumps_give_an_exact_zero():
    ph = phantom("multi-bump", {"bumps": [
        {"center": (0.25, 0.5), "width": 0.1, "amplitude": 2.0},
        {"center": (1.25, -0.5), "width": 0.1, "amplitude": -2.0},
    ]}, K=10, N=43)
    assert np.all(ph.field.coeffs == 0)
    assert ph.truncation_residual == 0.0


# bumps of one centre and opposite amplitudes but different widths cancel
# in part on the band and off it: the band from 1-D spectra and the residual
# from B x B Grams still hold the dense path's tolerances
@pytest.mark.parametrize("K, N", [(32, 128), (64, 256)])
@pytest.mark.parametrize("widths", [(0.02, 0.03), (0.01, 0.011)])
def test_cancelling_bumps_of_two_widths_match_the_dense_path(K, N, widths):
    params = {"bumps": [{"center": (0.3, 0.6), "width": w, "amplitude": a}
                        for w, a in zip(widths, (1.0, -1.0))]}
    ph = phantom("multi-bump", params, K, N)
    coeffs, resid = dense_phantom("multi-bump", params, K, N)
    scale = max(1.0, float(np.max(np.abs(coeffs))))
    assert np.max(np.abs(ph.field.coeffs - coeffs)) <= 1e-14 * scale
    assert abs(ph.truncation_residual - resid) <= 1e-12
    assert 0 < ph.truncation_residual < 1


# a multi-bump phantom costs its band, not its grid: no N x N array is made
# (at K = 8, N = 1024 the grid spectrum once peaked at 32 MiB)
def test_a_multi_bump_phantom_allocates_no_grid():
    params = {"bumps": [{"center": (0.3, 0.4), "width": 0.05},
                        {"center": (0.6, 0.7), "width": 0.08, "amplitude": -0.5}]}
    phantom("multi-bump", params, K=8, N=1024)  # warm: imports and caches
    tracemalloc.start()
    try:
        phantom("multi-bump", params, K=8, N=1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_multi_bump_real_and_positive_mean():
    ph = phantom("multi-bump", {"bumps": [
        {"center": (0.3, 0.4), "width": 0.08, "amplitude": 1.0},
        {"center": (0.7, 0.6), "width": 0.05, "amplitude": 0.5},
    ]}, K=8, N=64)
    assert ph.field.real
    assert ph.field.coeff((0, 0)).real > 0


def test_bad_params():
    with pytest.raises(BadParams):
        phantom("harmonic", {"frequencies": [(1, 0)]}, K=4, N=16)
    with pytest.raises(BadParams):
        phantom("disk", {"radius": 0.7}, K=4, N=16)
    with pytest.raises(BadParams):
        phantom("unknown", {}, K=4, N=16)
    with pytest.raises(BadParams):
        phantom("disk", {"radius": 0.2}, K=8, N=16)
    with pytest.raises(BadParams):
        phantom("harmonic", {"frequencies": [(9, 0)], "amplitudes": [1.0]}, K=4, N=16)


# a parameter that is not finite is refused by name: a NaN disk centre once
# gave an all-zero field, a NaN width or amplitude a misleading Hermitian
# error, and an infinite amplitude a numpy RuntimeWarning; so are bumps whose
# amplitudes sum past the float range at one centre (once three warnings and
# the Hermitian error) or in the spectrum of two centres
@pytest.mark.parametrize("kind, params, name", [
    ("disk", {"center": (math.nan, 0.5)}, "center"),
    ("disk", {"center": (0.5, math.inf)}, "center"),
    ("multi-bump", {"bumps": [{"center": (0.5, -math.inf)}]}, "center"),
    ("multi-bump", {"bumps": [{"width": math.nan}]}, "width"),
    ("multi-bump", {"bumps": [{"width": math.inf}]}, "width"),
    ("multi-bump", {"bumps": [{"amplitude": math.nan}]}, "amplitude"),
    ("multi-bump", {"bumps": [{"amplitude": math.inf}]}, "amplitude"),
    ("harmonic", {"frequencies": [(1, 2)], "amplitudes": [math.nan]}, "amplitudes"),
    ("harmonic", {"frequencies": [(1, 2)], "amplitudes": [-math.inf]}, "amplitudes"),
    ("multi-bump", {"bumps": [{"amplitude": 1.7e308, "width": 0.3}] * 2}, "amplitude"),
    ("multi-bump", {"bumps": [{"amplitude": 1.7e308, "width": 10.0, "center": c}
                              for c in ((0.2, 0.2), (0.3, 0.3))]}, "amplitude"),
])
def test_phantom_parameters_must_be_finite(kind, params, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadParams, match=f"^phantom {name} must be finite"):
            phantom(kind, params, K=4, N=16)


# a disk across the edge x = 1 keeps its whole area; it was once cut there,
# with mean 0.0997 against the analytic pi r^2 = 0.1257
def test_disk_wraps_round_the_torus():
    ph = phantom("disk", {"radius": 0.2, "center": (0.9, 0.5)}, K=16, N=128)
    assert ph.field.mean().real == pytest.approx(ph.analytic_mean, rel=0.02)
    centred = phantom("disk", {"radius": 0.2}, K=16, N=128)
    assert abs(ph.field.mean() - centred.field.mean()) < 1e-3


centers = st.tuples(st.floats(-3, 3), st.floats(-3, 3))
bump_lists = st.lists(st.fixed_dictionaries({
    "center": centers,
    "width": st.floats(0.01, 0.3),
    # a subnormal amplitude gives samples of fewer than 53 bits, on which
    # two summation orders need not agree to 1e-12
    "amplitude": st.one_of(st.just(0.0), st.floats(-2, 2, allow_subnormal=False)),
}), max_size=5)


# the band and the residual come from one grid spectrum (the bumps' by 1-D
# FFTs, the residual by Parseval); the dense path's residual carries about
# 1e-17 of cancellation error
@given(st.one_of(
    st.tuples(st.just("multi-bump"), st.fixed_dictionaries({"bumps": bump_lists})),
    st.tuples(st.just("disk"), st.fixed_dictionaries({"radius": st.floats(0.01, 0.49),
                                                       "center": centers})),
), st.integers(0, 10), st.integers(0, 21))
@settings(max_examples=100)
def test_phantom_matches_the_dense_path(kind_params, K, extra):
    kind, params = kind_params
    N = 2 * K + 2 + extra
    ph = phantom(kind, params, K, N)
    coeffs, resid = dense_phantom(kind, params, K, N)
    scale = max(1.0, float(np.max(np.abs(coeffs))))
    assert np.max(np.abs(ph.field.coeffs - coeffs)) <= 1e-14 * scale
    assert abs(ph.truncation_residual - resid) <= 1e-12


# a centre is taken mod 1 before any distance: a disk at (1e300, 0.5) was
# once all zeros and one at (2^52, 0.5) had mean 0.2158, not pi r^2
@pytest.mark.parametrize("base, moved", [
    ((0.0, 0.5), (2.0**52, 0.5)),
    ((0.0, 0.5), (1e300, 0.5)),
    ((0.5, 0.0), (0.5, -1e300)),
    ((0.25, 0.75), (0.25 + 3 + 2.0**40, 0.75 - 3 - 2.0**40)),
], ids=["2^52", "1e300", "-1e300", "3+2^40"])
@pytest.mark.parametrize("kind, params", [
    pytest.param("disk", lambda c: {"radius": 0.2, "center": c}, id="disk"),
    pytest.param("multi-bump", lambda c: {"bumps": [{"center": c, "width": 0.05}]},
                 id="multi-bump"),
])
def test_an_integer_shift_of_the_centre_changes_nothing(base, moved, kind, params):
    assert all((Fraction(m) - Fraction(b)).denominator == 1 for b, m in zip(base, moved))
    want = phantom(kind, params(base), K=8, N=33).field.coeffs
    assert np.array_equal(phantom(kind, params(moved), K=8, N=33).field.coeffs, want)


# a width whose 2 width^2 is not a normal float is refused by name: 1e-200
# once gave a misleading Hermitian error after numpy warnings
@pytest.mark.parametrize("width", [0.0, -0.1, 1e-154, 1e-170, 1e-200, 1e200])
def test_a_bump_width_out_of_range_is_refused(width):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadParams, match="^bump width must be positive"):
            phantom("multi-bump", {"bumps": [{"width": width}]}, K=4, N=16)


# the residual is a ratio, so it is the same for any finite multiple of a
# field: two bumps of amplitude 1e300 once gave a NaN residual and three
# numpy warnings, and amplitude 1e-175 a residual of 0
@pytest.mark.parametrize("amplitude", [1e300, 1e-175])
def test_the_truncation_residual_is_scale_free(amplitude):
    bumps = [{"center": (0.3, 0.4), "width": 0.05}, {"center": (0.3, 0.4), "width": 0.1}]
    unit = phantom("multi-bump", {"bumps": bumps}, K=8, N=32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = phantom("multi-bump", {"bumps": [{**b, "amplitude": amplitude} for b in bumps]},
                         K=8, N=32)
    assert scaled.truncation_residual == pytest.approx(unit.truncation_residual, rel=1e-12)
    assert 0 < scaled.truncation_residual < 1
