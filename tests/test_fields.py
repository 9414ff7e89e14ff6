import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusradon.errors import BandTooLarge, DimensionMismatch
from torusradon.fields import (
    TorusField,
    band_frequencies,
    band_index,
    bessel_multiplier,
    bessel_norm,
    bracket_sq,
    evaluate_at,
    field_from_coeffs,
    is_hermitian,
    random_field,
    sobolev_norm,
    to_coefficients,
    to_samples,
    unit_harmonic,
)


def direct_series(f, N):
    """Independent oracle: evaluate the Fourier series with plain loops."""
    out = np.zeros((N,) * f.n, dtype=complex)
    for j in itertools.product(range(N), repeat=f.n):
        x = np.array(j) / N
        acc = 0j
        for k, c in f.items():
            acc += c * np.exp(2j * np.pi * np.dot(k, x))
        out[j] = acc
    return out


@pytest.mark.parametrize("n,K", [(1, 0), (2, 3), (3, 2)])
def test_band_frequencies_decode_flat_indices(n, K):
    table = band_frequencies(n, K)
    assert table.shape == (n, (2 * K + 1) ** n) and table.dtype == np.int64
    flat = np.arange(table.shape[1])
    assert np.array_equal(table, np.stack(np.unravel_index(flat, (2 * K + 1,) * n)) - K)
    assert band_frequencies(n, K) is table


def test_to_coefficients_constant():
    f = to_coefficients(np.full((8, 8), 3.0), K=2)
    assert f.coeff((0, 0)) == pytest.approx(3.0)
    total = np.sum(np.abs(f.coeffs))
    assert total == pytest.approx(3.0, abs=1e-12)


def test_to_coefficients_single_harmonic():
    N = 8
    x = np.arange(N) / N
    samples = np.exp(2j * np.pi * x)[:, None] * np.ones((1, N))
    f = to_coefficients(samples, K=2)
    assert f.coeff((1, 0)) == pytest.approx(1.0, abs=1e-12)
    assert abs(f.coeffs).sum() == pytest.approx(1.0, abs=1e-12)


def test_round_trip_band_limited(rng):
    f = random_field(2, 3, rng)
    N = 16
    g = to_coefficients(to_samples(f, N), K=3)
    assert np.max(np.abs(f.coeffs - g.coeffs)) < 1e-12


def test_band_too_large():
    with pytest.raises(BandTooLarge):
        to_coefficients(np.zeros((4, 4)), K=2)
    with pytest.raises(BandTooLarge):
        to_samples(field_from_coeffs(2, 3, {}), N=7)


def test_to_samples_constant():
    f = field_from_coeffs(2, 2, {(0, 0): 1.0})
    assert np.allclose(to_samples(f, 8), 1.0)


def test_to_samples_roots_of_unity():
    f = unit_harmonic(2, 1, (1, 0))
    s = to_samples(f, 4)
    expected = np.array([1, 1j, -1, -1j])
    assert np.allclose(s[:, 0], expected, atol=1e-12)
    assert np.allclose(s[:, 2], expected, atol=1e-12)


def test_to_samples_matches_direct_series(rng):
    f = random_field(2, 2, rng)
    N = 6
    assert np.max(np.abs(to_samples(f, N) - direct_series(f, N))) < 1e-12


def test_evaluate_at_matches_grid(rng):
    f = random_field(2, 3, rng)
    N = 8
    grid = to_samples(f, N)
    pts = np.array([[i / N, j / N] for i in range(N) for j in range(N)])
    vals = evaluate_at(f, pts).reshape(N, N)
    assert np.max(np.abs(vals - grid)) < 1e-10


def test_sobolev_norm_examples():
    f = field_from_coeffs(2, 2, {(0, 0): 3.0})
    for s in (-1.0, 0.0, 2.5):
        assert sobolev_norm(f, s) == pytest.approx(3.0)
    g = unit_harmonic(2, 2, (1, 0))
    assert sobolev_norm(g, 2.0) == pytest.approx(2.0)


def test_sobolev_norm_of_an_overflowing_weight(rng):
    # <k>^800 passes the float range from |k|^2 = 5 on; those weights meet
    # zero coefficients, so they add 0, not inf * 0 = NaN, and no warning
    assert sobolev_norm(unit_harmonic(2, 4, (1, 0)), 400.0) == 2.0**200
    # 6^400 passes the float range, but the norm 6^200 does not
    assert sobolev_norm(unit_harmonic(2, 4, (2, 1)), 400.0) == pytest.approx(6.0**200, rel=1e-12)
    assert sobolev_norm(unit_harmonic(2, 4, (2, 1)), 800.0) == np.inf
    # every finite norm is the plain sum of the same terms, bit for bit
    f = random_field(2, 4, rng)
    for s in (-1.0, 0.0, 1.0, 2.5, 40.0):
        plain = np.sqrt(np.sum(bracket_sq(2, 4) ** s * np.abs(f.coeffs) ** 2))
        assert sobolev_norm(f, s) == float(plain)


def test_a_finite_norm_whose_square_overflows_reads_finite():
    # the plain sum <k>^800 |c|^2 = 6^400 passes the float range; the norm is
    # taken from the terms scaled by the largest, as the p = 3 norm is
    f = unit_harmonic(2, 4, (2, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sobolev_norm(f, 400.0) == pytest.approx(6.0**200, rel=1e-12)
        assert bessel_norm(f, 400.0, 2) == pytest.approx(bessel_norm(f, 400.0, 3, 16), rel=1e-12)
        # coefficients whose squares overflow at s = 0
        big = 1e200 * f
        assert sobolev_norm(big, 0.0) == pytest.approx(1e200, rel=1e-12)


def test_bessel_norm_of_an_overflowing_weight(rng):
    # the <k>^800 multiplier passes the float range where the coefficients
    # are 0; the multiplied field is 0 there, not NaN
    f = unit_harmonic(2, 4, (1, 0))
    assert bessel_norm(f, 800.0, 1, 16) == pytest.approx(2.0**400, rel=1e-15)
    g = random_field(2, 4, rng)
    for s in (-1.0, 2.5, 40.0):
        assert np.array_equal(bessel_multiplier(g, s).coeffs, g.coeffs * bracket_sq(2, 4) ** (s / 2))


def test_an_infinite_weighted_coefficient_gives_an_infinite_norm():
    # <k>^800 = 6^400 passes the float range at k = (2, 1): the coefficient
    # 1 + 0j weighs to inf + 0j, and ||f||_p >= |f^(k)| for p >= 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (unit_harmonic(2, 4, (2, 1)),
                  field_from_coeffs(2, 4, {(2, 1): 1.0, (-2, -1): 1.0}, real=True)):
            weighted = bessel_multiplier(f, 800.0)
            assert weighted.coeff((2, 1)) == complex(np.inf, 0.0)
            assert weighted.coeff((1, 1)) == 0
            for p in (1, 3, np.inf, "inf"):
                assert bessel_norm(f, 800.0, p, 16) == np.inf


def test_a_p_norm_whose_power_passes_the_float_range_stays_finite():
    # |2^400 e(x)|^4 = 2^1600 overflows; the norm itself is 2^400
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm = bessel_norm(unit_harmonic(2, 4, (1, 0)), 800.0, 4, 16)
    assert np.isfinite(norm)
    assert norm == pytest.approx(2.0**400, rel=1e-12)


def test_hermitian_check_with_infinite_coefficients():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert is_hermitian(np.array([np.inf - 1j, 2.0, np.inf + 1j]))
        assert not is_hermitian(np.array([np.inf + 0j, 2.0, -np.inf]))
        assert not is_hermitian(np.array([np.inf + 0j, 2.0, 5.0]))


def test_parseval(rng):
    f = random_field(2, 4, rng)
    N = 16
    grid = to_samples(f, N)
    l2 = np.sqrt(np.mean(np.abs(grid) ** 2))
    assert sobolev_norm(f, 0.0) == pytest.approx(l2, abs=1e-12)


def test_bessel_norm_constant():
    f = field_from_coeffs(2, 2, {(0, 0): 3.0})
    for s in (-1.0, 0.0, 1.5):
        for p in (1, 2, np.inf):
            assert bessel_norm(f, s, p, N=8) == pytest.approx(3.0, abs=1e-10)


def test_bessel_norm_p2_matches_sobolev(rng):
    f = random_field(2, 3, rng)
    for s in (-1.0, 0.5, 2.0):
        assert bessel_norm(f, s, 2) == pytest.approx(sobolev_norm(f, s), abs=1e-10)


def test_bessel_norm_sup_of_unimodular():
    f = unit_harmonic(2, 3, (1, 0))
    assert bessel_norm(f, 0.0, np.inf, N=32) == pytest.approx(1.0, abs=1e-12)


@given(st.floats(-2, 2), st.sampled_from([1, 2, np.inf]))
@settings(max_examples=15)
def test_norm_axioms(s, p):
    rng = np.random.default_rng(7)
    f = random_field(2, 2, rng)
    g = random_field(2, 2, rng)
    c = 2.5 - 1.25j
    nf = bessel_norm(f, s, p, N=12)
    assert bessel_norm(c * f, s, p, N=12) == pytest.approx(abs(c) * nf, rel=1e-10)
    assert bessel_norm(f + g, s, p, N=12) <= nf + bessel_norm(g, s, p, N=12) + 1e-10


def test_real_flag_round_trip(rng):
    f = random_field(2, 4, rng, real=True)
    samples = to_samples(f, 12)
    assert np.max(np.abs(samples.imag)) < 1e-12


def test_real_flag_validation():
    with pytest.raises(ValueError):
        field_from_coeffs(2, 1, {(1, 0): 1.0}, real=True)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        field_from_coeffs(2, 2, {}) + field_from_coeffs(2, 3, {})


def test_items_order_and_values():
    f = field_from_coeffs(2, 1, {(1, 0): 2.0, (-1, 1): 1j})
    got = list(f.items())
    assert got == [((-1, 1), 1j), ((1, 0), 2.0 + 0j)]


# each refusal of the fields module, with its typed error and the start of its message
@pytest.mark.parametrize("call, error, start", [
    (lambda: TorusField(2, 1, np.zeros((3, 4))), ValueError, "coefficient array shape (3, 4)"),
    (lambda: field_from_coeffs(2, 1, {(2, 0): 1.0}), DimensionMismatch, "frequency (2, 0) outside band K=1"),
    (lambda: to_coefficients(np.zeros((4, 5)), 1), ValueError, "sample grid must be square"),
])
def test_fields_refusals(call, error, start):
    with pytest.raises(error) as info:
        call()
    assert str(info.value).startswith(start)


def test_band_index_encodes_what_band_frequencies_decodes():
    ks = band_frequencies(3, 2)
    assert [band_index(3, 2, k) for k in ks.T] == list(range(ks.shape[1]))
    assert band_index(2, 2, (3, 0)) is None and band_index(2, 2, (0, -3)) is None


# a frequency with fewer entries than n once addressed a whole row of the
# band: field_from_coeffs(2, 2, {(1,): 1.0}) set the five coefficients k_1 = 1
def test_a_frequency_of_the_wrong_length_is_refused(rng):
    f = random_field(2, 2, rng)
    calls = [lambda: field_from_coeffs(2, 2, {(1,): 1.0}), lambda: unit_harmonic(2, 2, (1,)),
             lambda: f.coeff((1,)), lambda: f.coeff((1, 0, 0)), lambda: band_index(3, 2, (0, 0))]
    for call in calls:
        with pytest.raises(DimensionMismatch, match="^frequency .* entries, need n="):
            call()


def test_coeff_off_the_band_is_zero(rng):
    f = random_field(2, 2, rng)
    assert f.coeff((3, 0)) == 0j and f.coeff((0, -3)) == 0j and f.coeff((-9, 9)) == 0j
    assert f.coeff((2, -2)) == f.coeffs[4, 0] and f.coeff(np.array([-1, 1])) == f.coeffs[1, 3]
    with pytest.raises(TypeError):
        f.coeff((1.0, 0))
