import random

import numpy as np
import pytest

from torusradon.errors import DimensionMismatch, QuadratureTooCoarse
from torusradon.fields import (
    evaluate_at,
    field_from_coeffs,
    random_field,
    to_samples,
    unit_harmonic,
)
from torusradon.lattice import (
    PrimitiveDirection,
    canonicalize_subspace,
    direction_cover,
    enumerate_directions,
    line,
    primitive_reduce,
)
from torusradon.transforms import (
    GeodesicSpec,
    forward_direction,
    forward_sinogram,
    forward_subspace,
    quadrature_line_integral,
)


def test_forward_direction_selection_rule():
    f = unit_harmonic(2, 3, (1, 2))
    kept = forward_direction(f, (2, -1))
    assert np.allclose(kept.coeffs, f.coeffs)
    killed = forward_direction(f, (1, 0))
    assert np.all(killed.coeffs == 0)


def test_forward_direction_preserves_constant():
    f = field_from_coeffs(2, 2, {(0, 0): 4.0})
    for v in enumerate_directions(2, 2):
        assert forward_direction(f, v).coeff((0, 0)) == pytest.approx(4.0)


def test_forward_subspace_examples():
    f = unit_harmonic(3, 2, (1, 1, 1))
    A = canonicalize_subspace([(1, 0, -1), (0, 1, -1)], 2)
    assert np.allclose(forward_subspace(f, A).coeffs, f.coeffs)

    g = unit_harmonic(3, 2, (0, 0, 1))
    B = line((0, 0, 1))
    assert np.all(forward_subspace(g, B).coeffs == 0)


def test_d1_n2_coincides(rng):
    f = random_field(2, 3, rng)
    v = primitive_reduce((2, -1))
    assert np.allclose(forward_direction(f, v).coeffs,
                       forward_subspace(f, line(v)).coeffs)


def test_selection_rule_exact_integers(rng):
    f = random_field(2, 4, rng)
    for v in direction_cover(3):
        out = forward_direction(f, v)
        for k, c in out.items():
            assert v.dot(k) == 0
            assert c == f.coeff(k)


def test_linearity(rng):
    f = random_field(2, 3, rng)
    g = random_field(2, 3, rng)
    a, b = 2.0 - 1j, 0.5j
    v = primitive_reduce((1, 2))
    lhs = forward_direction(a * f + b * g, v)
    rhs = a * forward_direction(f, v) + b * forward_direction(g, v)
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12


def test_quadrature_constant():
    f = field_from_coeffs(2, 2, {(0, 0): 1.0})
    spec = GeodesicSpec((0.3, 0.7), primitive_reduce((1, 2)))
    assert quadrature_line_integral(f, spec) == pytest.approx(1.0, abs=1e-12)


def test_quadrature_parallel_level_sets():
    f = unit_harmonic(2, 2, (1, 0))
    spec = GeodesicSpec((0.25, 0.0), primitive_reduce((0, 1)))
    val = quadrature_line_integral(f, spec)
    assert val == pytest.approx(1j, abs=1e-12)


def test_quadrature_too_coarse():
    f = unit_harmonic(2, 2, (1, 0))
    spec = GeodesicSpec((0.0, 0.0), primitive_reduce((1, 1)))
    with pytest.raises(QuadratureTooCoarse):
        quadrature_line_integral(f, spec, N_q=8)


def test_quadrature_matches_multiplier(rng):
    K = 4
    f = random_field(2, K, rng)
    dirs = [v for v in enumerate_directions(2, 3)]
    for i in range(30):
        v = dirs[i % len(dirs)]
        x = tuple(rng.random(2))
        spec = GeodesicSpec(x, v)
        quad = quadrature_line_integral(f, spec)
        mult = evaluate_at(forward_direction(f, v), np.array([x]))[0]
        assert abs(quad - mult) < 1e-10


def test_quadrature_plane_matches_multiplier(rng):
    K = 2
    f = random_field(3, K, rng)
    A = canonicalize_subspace([(1, 0, -1), (0, 1, -1)], 2)
    x = (0.2, 0.4, 0.1)
    quad = quadrature_line_integral(f, GeodesicSpec(x, A))
    mult = evaluate_at(forward_subspace(f, A), np.array([x]))[0]
    assert abs(quad - mult) < 1e-10


def test_forward_sinogram_zero():
    g = forward_sinogram(field_from_coeffs(2, 2, {}), direction_cover(2))
    assert g.mean == 0
    for A in g.members:
        assert np.all(g.slices[A].coeffs == 0)


def test_forward_sinogram_single_harmonic():
    f = unit_harmonic(2, 2, (1, 2))
    g = forward_sinogram(f, direction_cover(2))
    nonzero = [A for A in g.members if np.any(g.slices[A].coeffs != 0)]
    assert nonzero == [line((2, -1))]
    assert g.mean == 0


def test_forward_sinogram_mean_shared(rng):
    f = random_field(2, 3, rng)
    for fam in (direction_cover(1), direction_cover(3)):
        g = forward_sinogram(f, fam)
        assert g.mean == f.coeff((0, 0))
        for A in g.members:
            assert g.slices[A].coeff((0, 0)) == 0


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        forward_direction(field_from_coeffs(3, 2, {}), (1, 0))
    with pytest.raises(DimensionMismatch):
        quadrature_line_integral(field_from_coeffs(3, 2, {}),
                                 GeodesicSpec((0.0, 0.0), primitive_reduce((1, 1))))


def test_forward_sinogram_depends_only_on_the_family_as_a_set(rng):
    """Order, duplicates and the members' type do not change the result;
    unhashable members (lists of ints) take the cache-free path."""
    K = 6
    cover = direction_cover(K)
    f = random_field(2, K, rng)
    shuffled = list(cover)
    random.Random(3).shuffle(shuffled)
    ref = forward_sinogram(f, cover)
    for family in (shuffled, cover + cover[::3], [line(v) for v in cover], tuple(cover),
                   [list(v.v) for v in reversed(cover)], iter(cover)):
        g = forward_sinogram(f, family)
        assert g.members == ref.members and np.array_equal(g.values, ref.values)
        assert g.mean == ref.mean
    assert forward_sinogram(f, cover).members is ref.members  # built once per family


def test_forward_sinogram_rejects_mixed_or_mismatched_families():
    f = field_from_coeffs(2, 2, {})
    with pytest.raises(DimensionMismatch):
        forward_sinogram(f, [(1, 0), (1, 0, 0)])
    with pytest.raises(DimensionMismatch):
        forward_sinogram(f, [(1, 0, 0)])
    with pytest.raises(ValueError):
        forward_sinogram(f, [])


# each refusal of the transforms module, with its typed error and the start of its message
@pytest.mark.parametrize("call, error, start", [
    (lambda: GeodesicSpec((1.0, 0.5), PrimitiveDirection((1, 0))), ValueError,
     "base point components must lie in [0, 1)"),
    (lambda: forward_direction(field_from_coeffs(2, 1, {}), (1.0, 1)), TypeError,
     "'float' object cannot be interpreted as an integer"),
])
def test_transforms_refusals(call, error, start):
    with pytest.raises(error) as info:
        call()
    assert str(info.value).startswith(start)
