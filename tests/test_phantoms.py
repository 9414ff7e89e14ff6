import math
import warnings

import numpy as np
import pytest

from torusradon.errors import BadParams
from torusradon.phantoms import phantom


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
# error, and an infinite amplitude a numpy RuntimeWarning
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
