import numpy as np
import pytest

from torusradon.errors import DegenerateWeight, WeightUndefined
from torusradon.fields import (
    bracket_sq,
    field_from_coeffs,
    k_axes,
    k_grids,
    random_field,
    sobolev_norm,
    unit_harmonic,
)
from torusradon.lattice import (
    direction_cover,
    hyperplane_cover,
    line,
    line_cover,
    orthogonal_complement,
)
from torusradon.sinogram import (
    CUSTOM,
    HEIGHT_DECAY,
    TorusSinogram,
    canonical_weight,
    enforce_moment_constraint,
    sinogram_inner,
    sinogram_norm,
    support,
    weight_build,
    weight_on_family,
    zero_sinogram,
)
from torusradon.transforms import forward_sinogram


def test_canonical_weight_constants():
    K = 4
    w = canonical_weight(direction_cover(K), K)
    W = w.normal_array
    assert w.W0 == pytest.approx(1.0, abs=1e-12)
    punctured = W.copy()
    punctured[K, K] = 1.0
    assert punctured.min() == pytest.approx(1.0)
    assert punctured.max() == pytest.approx(1.0)
    assert w.c_w == pytest.approx(1.0)
    assert w.C_w == pytest.approx(1.0)


def test_height_decay_example():
    # four lines orthogonal to (0,0,1) at height 1, each weighted 1/2
    w = weight_build(HEIGHT_DECAY, (2.0,), d=1, n=3, H=1, K=1)
    assert w.normal_value((0, 0, 1)) == pytest.approx(1.0)


def test_weight_build_truncated_grassmannian_size():
    w = weight_build(HEIGHT_DECAY, (2.0,), d=1, n=3, H=1, K=1)
    assert len(w.family) == 13


def test_weight_build_canonical_planar():
    K = 3
    w = weight_build("canonical-singleton", (), d=1, n=2, H=K, K=K)
    assert w.c_w == pytest.approx(1.0)
    assert w.C_w == pytest.approx(1.0)
    assert w.W0 == pytest.approx(1.0, abs=1e-12)


def normalized_weight_sums(w):
    """Band array of sum_A wtilde(k, A)^2 with wtilde = w / sqrt(W); equal
    to one wherever W(k) > 0."""
    W = w.normal_array
    return np.where(W > 0, W / np.where(W > 0, W, 1.0), 0.0)


def test_normalized_weight_sums_to_one():
    K = 3
    w = weight_on_family(HEIGHT_DECAY, hyperplane_cover(K, 3), K)
    sums = normalized_weight_sums(w)
    assert np.allclose(sums, 1.0)


def test_degenerate_weight_raises():
    # a single hyperplane cannot cover the whole band
    fam = [orthogonal_complement((1, 0, 0))]
    with pytest.raises(DegenerateWeight):
        weight_on_family(HEIGHT_DECAY, fam, K=2)


def test_decay_certificate_positive():
    K = 2
    w = weight_on_family(HEIGHT_DECAY, hyperplane_cover(K, 3), K)
    c_A, m_A = w.decay_certificate(w.family[0])
    assert c_A > 0
    assert m_A == 0.0


def test_sinogram_norm_unitary_single_harmonic():
    K = 3
    f = unit_harmonic(2, K, (1, 2))
    cover = direction_cover(K)
    g = forward_sinogram(f, cover)
    w = canonical_weight(cover, K)
    assert sinogram_norm(g, 0.0, w) == pytest.approx(1.0, abs=1e-12)


def test_sinogram_norm_zero_and_mean_only():
    K = 2
    cover = direction_cover(K)
    w = canonical_weight(cover, K)
    z = zero_sinogram(2, 1, K, cover)
    assert sinogram_norm(z, 1.0, w) == 0.0
    m = z.with_mean(5.0)
    for s in (-1.0, 0.0, 2.0):
        assert sinogram_norm(m, s, w) == pytest.approx(5.0, abs=1e-12)


@pytest.mark.parametrize("s", [-1.0, 0.0, 1.0, 2.0])
def test_unitarity_random_fields(s, rng):
    K = 4
    cover = direction_cover(K)
    w = canonical_weight(cover, K)
    for _ in range(5):
        f = random_field(2, K, rng, decay=2.0)
        g = forward_sinogram(f, cover)
        assert sinogram_norm(g, s, w) == pytest.approx(sobolev_norm(f, s), abs=1e-12)


def test_sinogram_norm_weight_undefined():
    K = 1
    A = line((0, 1))
    f = field_from_coeffs(2, K, {(1, 0): 1.0})
    g = TorusSinogram(2, 1, K, 0j, {A: f})
    table = {(((0, 0)), A): 1.0}
    w = weight_on_family(CUSTOM, [A], K, params=tuple(table.items()), certify=False)
    with pytest.raises(WeightUndefined):
        sinogram_norm(g, 0.0, w)


def test_enforce_moment_constraint_mean():
    K = 1
    A1, A2 = line((1, 0)), line((0, 1))
    raw = {
        A1: field_from_coeffs(2, K, {(0, 0): 1.0}),
        A2: field_from_coeffs(2, K, {(0, 0): 3.0}),
    }
    g = enforce_moment_constraint(raw)
    assert g.mean == pytest.approx(2.0)
    assert g.slices[A1].coeff((0, 0)) == 0


def test_enforce_moment_constraint_fixed_point():
    K = 2
    cover = direction_cover(K)
    f = field_from_coeffs(2, K, {(0, 0): 2.0, (0, 1): 1.0, (0, -1): 1.0}, real=True)
    g = forward_sinogram(f, cover)
    raw = {A: field_from_coeffs(2, K, dict(g.slices[A].items()) | {(0, 0): g.mean})
           for A in g.subspaces}
    back = enforce_moment_constraint(raw)
    assert back.mean == pytest.approx(g.mean)
    for A in g.subspaces:
        assert np.allclose(back.slices[A].coeffs, g.slices[A].coeffs)


def test_moment_projection_is_norm_minimizing(rng):
    K = 1
    cover = direction_cover(K)
    w = canonical_weight(cover, K)
    raw = {line(v): field_from_coeffs(2, K, {(0, 0): complex(rng.standard_normal())})
           for v in cover}
    proj = enforce_moment_constraint(raw, w)
    # distance from raw to any constraint-satisfying h, as raw-space vectors
    def dist(shared):
        total = 0.0
        for A in sorted(raw):
            total += w.weight((0, 0), A) ** 2 * abs(raw[A].coeff((0, 0)) - shared) ** 2
        return total
    d_star = dist(proj.mean)
    for _ in range(25):
        other = proj.mean + complex(rng.standard_normal(), rng.standard_normal())
        assert d_star <= dist(other) + 1e-15


def test_constructor_rejects_off_range_data():
    # a slice lives on A^perp with k = 0 owned by the shared mean; the
    # constructor gathers onto that support and refuses anything else
    K = 2
    A = line((1, 0))
    for bad in ({(1, 1): 2.0}, {(0, 0): 1.0}, {(0, 1): 1.0, (2, 0): 1e-300}):
        with pytest.raises(ValueError):
            TorusSinogram(2, 1, K, 0j, {A: field_from_coeffs(2, K, bad)})
    good = TorusSinogram(2, 1, K, 0j, {A: field_from_coeffs(2, K, {(0, 1): 2.0})})
    assert good.slice(A).coeff((0, 1)) == 2.0
    assert np.array_equal(good.vectors[A], [0, 0, 2.0, 0])


def test_support_index_pairs_k_with_minus_k():
    K = 3
    for A in hyperplane_cover(K, 3)[:20] + line_cover(K, 3)[:20]:
        idx = support(A, K)
        assert np.all(np.diff(idx) > 0)
        ks = np.stack(np.unravel_index(idx, (2 * K + 1,) * 3), axis=1) - K
        assert np.array_equal(ks[::-1], -ks)
        assert all(A.contains_frequency(k) and any(k) for k in ks)


def test_forward_stores_only_usable_coefficients(rng):
    # one value per band frequency k != 0: each has exactly one orthogonal line
    K = 32
    g = forward_sinogram(random_field(2, K, rng), direction_cover(K))
    assert sum(v.size for v in g.vectors.values()) == 4224 == (2 * K + 1) ** 2 - 1


def test_slices_are_dense_and_not_cached(rng):
    K = 3
    f = random_field(2, K, rng)
    g = forward_sinogram(f, direction_cover(K))
    A = g.subspaces[1]
    first = g.slices[A]
    assert first is not g.slices[A]
    assert np.array_equal(first.coeffs, g.slice(A).coeffs)
    assert first.coeff((0, 0)) == 0
    assert set(g.slices) == set(g.subspaces) and len(g.slices) == len(g.subspaces)


@pytest.mark.parametrize("cached", [
    lambda: k_axes(2, 3)[0],
    lambda: k_grids(2, 3)[1],
    lambda: bracket_sq(2, 3),
    lambda: support(line((1, 2)), 3),
    lambda: canonical_weight(direction_cover(3), 3).normal_array,
])
def test_shared_arrays_are_read_only(cached):
    arr = cached()
    with pytest.raises(ValueError):
        arr[...] = 0


def test_sinogram_inner_generates_norm(rng):
    K = 2
    cover = direction_cover(K)
    w = canonical_weight(cover, K)
    f = random_field(2, K, rng)
    g = forward_sinogram(f, cover)
    ip = sinogram_inner(g, g, 1.0, w)
    assert ip.imag == pytest.approx(0.0, abs=1e-12)
    assert np.sqrt(ip.real) == pytest.approx(sinogram_norm(g, 1.0, w), abs=1e-12)


def test_norm_axioms_p_l_combinations(rng):
    K = 2
    cover = direction_cover(K)
    w = canonical_weight(cover, K)
    f = random_field(2, K, rng)
    h = random_field(2, K, rng)
    a = forward_sinogram(f, cover)
    b = forward_sinogram(h, cover)
    for p in (1, 2, np.inf):
        for l in (1, 2, np.inf):
            na = sinogram_norm(a, 0.5, w, p=p, l=l, N=12)
            nb = sinogram_norm(b, 0.5, w, p=p, l=l, N=12)
            nsum = sinogram_norm(a + b, 0.5, w, p=p, l=l, N=12)
            assert nsum <= na + nb + 1e-10
            assert sinogram_norm(2.0 * a, 0.5, w, p=p, l=l, N=12) == pytest.approx(2 * na, rel=1e-10)


def test_line_cover_norms_n3(rng):
    K = 2
    fam = line_cover(K, 3)
    w = weight_on_family(HEIGHT_DECAY, fam, K)
    f = random_field(3, K, rng)
    g = forward_sinogram(f, fam)
    assert sinogram_norm(g, 0.0, w) > 0
