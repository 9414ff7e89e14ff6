import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusradon.errors import AxisDegenerate, DimensionMismatch, IncompleteCover, QuadratureTooCoarse
from torusradon.fields import (
    TorusField,
    bessel_norm,
    field_from_coeffs,
    orthogonality_mask,
    random_field,
    sobolev_norm,
    unit_harmonic,
)
from torusradon.inversion import (
    ReconstructionReport,
    adjoint,
    adjoint_normalized,
    invert_filtered,
    invert_sum,
    normal_multiplier,
    reconstruct_slices,
    slice_reconstruct_coeff,
)
from torusradon.lattice import (
    PrimitiveDirection,
    direction_cover,
    frequency_band,
    hyperplane_cover,
    line,
    line_cover,
    orthogonal_complement,
    orthogonal_primitive,
    primitive_reduce,
)
from torusradon.regularization import tikhonov_reconstruct
from torusradon.sinogram import (
    HEIGHT_DECAY,
    TorusSinogram,
    _data_weight,
    canonical_family,
    canonical_weight,
    layout,
    sinogram_inner,
    sinogram_norm,
    scatter,
    weight_on_family,
)
from torusradon.transforms import forward_sinogram


def planar_setup(K, rng, decay=0.0):
    cover = direction_cover(K)
    f = random_field(2, K, rng, decay=decay)
    g = forward_sinogram(f, cover)
    w = canonical_weight(cover, K)
    return f, g, w


def test_slice_reconstruct_harmonic_collapse():
    K = 3
    f = unit_harmonic(2, K, (1, 2))
    v = primitive_reduce((2, -1))
    g_v = forward_sinogram(f, [v])
    field = field_from_coeffs(2, K, dict(g_v.slices[line(v)].items()) | {(0, 0): g_v.mean})
    got = slice_reconstruct_coeff(field, (1, 2), v)
    assert got == pytest.approx(1.0, abs=1e-12)


def test_slice_reconstruct_constant_both_axes():
    K = 2
    f = field_from_coeffs(2, K, {(0, 0): 5.0})
    for v, axis in [((1, 0), 1), ((0, 1), 0)]:
        vv = primitive_reduce(v)
        g = forward_sinogram(f, [vv])
        field = field_from_coeffs(2, K, {(0, 0): g.mean})
        got = slice_reconstruct_coeff(field, (0, 0), vv, axis=axis)
        assert got == pytest.approx(5.0, abs=1e-12)


def test_slice_reconstruct_axis_degenerate():
    K = 2
    v = primitive_reduce((2, -1))
    field = forward_sinogram(random_field(2, K, np.random.default_rng(1)), [v]).slices[line(v)]
    # a forced axis on which k has no component
    with pytest.raises(AxisDegenerate, match=re.escape("axis 0 formula needs k[0] != 0")):
        slice_reconstruct_coeff(field, (0, 2), primitive_reduce((1, 0)), axis=0)
    with pytest.raises(AxisDegenerate, match=re.escape("axis 1 formula needs k[1] != 0")):
        slice_reconstruct_coeff(field, (2, 0), primitive_reduce((0, 1)), axis=1)
    # k = 0 along an axis the line runs parallel to: v[1 - axis] == 0
    with pytest.raises(AxisDegenerate, match=re.escape("needs v[1] != 0, got v=(1, 0)")):
        slice_reconstruct_coeff(field, (0, 0), primitive_reduce((1, 0)), axis=0)
    with pytest.raises(AxisDegenerate, match=re.escape("needs v[0] != 0, got v=(0, 1)")):
        slice_reconstruct_coeff(field, (0, 0), primitive_reduce((0, 1)), axis=1)


def test_slice_reconstruct_all_band(rng):
    K = 4
    f = random_field(2, K, rng)
    errs = []
    for k in frequency_band(2, K, punctured=True):
        v = orthogonal_primitive(k)
        g_v = forward_sinogram(f, [v])
        field = field_from_coeffs(2, K, dict(g_v.slices[line(v)].items()) | {(0, 0): g_v.mean})
        got = slice_reconstruct_coeff(field, k, v)
        errs.append(abs(got - f.coeff(k)))
    assert max(errs) < 1e-10


def test_slice_reconstruct_axis_agreement(rng):
    K = 3
    f = random_field(2, K, rng)
    for k in [(1, 2), (-2, 1), (3, -3)]:
        v = orthogonal_primitive(k)
        g_v = forward_sinogram(f, [v])
        field = field_from_coeffs(2, K, dict(g_v.slices[line(v)].items()) | {(0, 0): g_v.mean})
        a0 = slice_reconstruct_coeff(field, k, v, axis=0)
        a1 = slice_reconstruct_coeff(field, k, v, axis=1)
        assert abs(a0 - a1) < 1e-10


def test_reconstruct_slices_full(rng):
    K = 3
    f, g, _ = planar_setup(K, rng)
    rec = reconstruct_slices(g)
    assert np.max(np.abs(rec.coeffs - f.coeffs)) < 1e-10


def test_slice_path_agrees_with_filtered_path_on_noisy_data(rng):
    # the two inversion routes read the same slice coefficients, so they
    # must agree even when the data is not an exact transform
    from torusradon.experiments import add_noise

    K = 3
    f, g, w = planar_setup(K, rng)
    noisy = add_noise(g, 0.3, 0.0, 2024)
    a = reconstruct_slices(noisy)
    b = invert_filtered(noisy, w)
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-10


def slices_oracle(g):
    """The per-frequency loop reconstruct_slices replaced: for each band
    frequency k, the dense slice of the line orthogonal to k, with the mean
    at k = 0, and one slice_reconstruct_coeff quadrature; k = 0 from the
    first stored line."""
    K = g.K
    arr = np.zeros((2 * K + 1,) * 2, dtype=np.complex128)

    def with_mean(A):
        coeffs = g.slices[A].coeffs
        coeffs[K, K] = g.mean
        return TorusField(2, K, coeffs)

    dense = {}
    for k in frequency_band(2, K, punctured=True):
        A = line(orthogonal_primitive(k))
        if A not in g.blocks:
            raise IncompleteCover(f"no slice orthogonal to k={k}")
        if A not in dense:
            dense[A] = with_mean(A)
        arr[k[0] + K, k[1] + K] = slice_reconstruct_coeff(dense[A], k, PrimitiveDirection(A.basis[0]))
    first = g.members[0]
    arr[K, K] = slice_reconstruct_coeff(with_mean(first), (0, 0), PrimitiveDirection(first.basis[0]))
    return TorusField(2, K, arr)


def test_reconstruct_slices_matches_per_frequency_oracle(rng):
    from torusradon.bridge import bridge_ingest, disk_sinogram
    from torusradon.experiments import add_noise

    for K in (0, 1, 2, 16):
        f, g, _ = planar_setup(K, rng)
        cover = direction_cover(K)
        bridged = bridge_ingest(disk_sinogram(cover, 256, 0.2), cover, K)
        for data in (add_noise(g, 0.3, 0.0, 2024), bridged):
            got = reconstruct_slices(data).coeffs
            assert np.max(np.abs(got - slices_oracle(data).coeffs)) < 1e-13


@pytest.mark.parametrize("K", [0, 1, 2, 16, 32])
def test_reconstruct_slices_is_the_summation_inverse(rng, K):
    # the 2K + 1 nodes are exact at degree 2K, so the quadrature returns
    # every stored value and the mean: no rounding is left to differ
    from torusradon.bridge import bridge_ingest, disk_sinogram
    from torusradon.experiments import add_noise

    f, g, _ = planar_setup(K, rng)
    cover = direction_cover(K)
    bridged = bridge_ingest(disk_sinogram(cover, 256, 0.2), cover, K)
    for data in (add_noise(g, 0.3, 0.0, 2024), bridged):
        assert np.array_equal(reconstruct_slices(data).coeffs, invert_sum(data).coeffs)
    assert np.array_equal(reconstruct_slices(g).coeffs, f.coeffs)


def test_reconstruct_slices_incomplete_cover(rng):
    K = 4
    f, g, _ = planar_setup(K, rng)
    keep = [A for A in g.members if A != line((1, 2))]
    partial = TorusSinogram(tuple(keep), K, g.mean,
                            np.concatenate([g.values[g.blocks[A]] for A in keep]))
    # the first frequency orthogonal to (1, 2), in lexicographic order; the
    # summation path shares the cover check and its message
    with pytest.raises(IncompleteCover, match=re.escape("k=(-4, 2)")) as err:
        reconstruct_slices(partial)
    with pytest.raises(IncompleteCover, match=re.escape("k=(-4, 2)")):
        slices_oracle(partial)
    with pytest.raises(IncompleteCover, match=f"^{re.escape(str(err.value))}$"):
        invert_sum(partial.without_mean())


def test_reconstruct_slices_quadrature_size(rng):
    # the axis integrand has frequencies |k_axis| <= K per factor: 2K + 1
    # midpoint nodes are exact, 2K are not; reconstruct_slices runs on the
    # 2K + 1 nodes, and the per-coefficient quadrature takes any N_q
    K = 4
    f, g, _ = planar_setup(K, rng)
    assert np.max(np.abs(reconstruct_slices(g).coeffs - f.coeffs)) < 1e-12
    for k in ((1, 2), (3, 0), (0, 0)):
        v = orthogonal_primitive(k) if any(k) else PrimitiveDirection((1, 1))
        g_v = forward_sinogram(f, [v])
        field = field_from_coeffs(2, K, dict(g_v.slices[line(v)].items()) | {(0, 0): g_v.mean})
        with pytest.raises(QuadratureTooCoarse, match=f"threshold {2 * K}"):
            slice_reconstruct_coeff(field, k, v, N_q=2 * K)
        for N_q in (None, 2 * K + 1, 6 * K + 7):
            assert abs(slice_reconstruct_coeff(field, k, v, N_q=N_q) - f.coeff(k)) < 1e-12


def test_reconstruct_slices_at_scale(rng):
    K = 64
    f, g, _ = planar_setup(K, rng)
    start = time.perf_counter()
    rec = reconstruct_slices(g)
    elapsed = time.perf_counter() - start
    assert np.max(np.abs(rec.coeffs - f.coeffs)) < 1e-12
    assert elapsed < 0.5  # one scatter of the 5,040 lines' values
    tracemalloc.start()
    try:
        rec = reconstruct_slices(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(rec.coeffs - f.coeffs)) < 1e-12
    assert peak < 8e6  # the stored values and the result; a (2K + 1) x 5,040 pair held 22 MB


def test_reconstruct_slices_peak_memory(rng):
    K = 16
    f, g, _ = planar_setup(K, rng)
    reconstruct_slices(g)  # warms the per-sinogram block map
    tracemalloc.start()
    try:
        reconstruct_slices(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(g.members) == 320
    assert peak < 1e6  # no dense slice: the result holds 1,089 values


def test_adjoint_single_harmonic_identity():
    K = 2
    f = unit_harmonic(2, K, (1, 2))
    cover = direction_cover(K)
    g = forward_sinogram(f, cover)
    w = canonical_weight(cover, K)
    back = adjoint(g, w)
    assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-14


def test_adjoint_zero():
    K = 2
    cover = direction_cover(K)
    w = canonical_weight(cover, K)
    g = forward_sinogram(field_from_coeffs(2, K, {}), cover)
    assert np.all(adjoint(g, w).coeffs == 0)


@pytest.mark.parametrize("s", [-1.0, 0.0, 1.0])
def test_adjoint_pairing_planar(s, rng):
    K = 3
    cover = direction_cover(K)
    w = canonical_weight(cover, K)
    for _ in range(17):
        f = random_field(2, K, rng)
        h = random_field(2, K, rng)
        g = forward_sinogram(h, cover)
        lhs = sinogram_inner(forward_sinogram(f, cover), g, s, w)
        back = adjoint(g, w)
        bs = (1.0 + np.sum(np.stack(np.meshgrid(*[np.arange(-K, K + 1)] * 2, indexing="ij")) ** 2.0, axis=0)) ** s
        rhs = complex(np.sum(bs * f.coeffs * np.conj(back.coeffs)))
        assert abs(lhs - rhs) < 1e-10


@pytest.mark.parametrize("n,d,K", [(3, 1, 2), (3, 2, 2)])
def test_adjoint_pairing_higher_dim(n, d, K, rng):
    fam = line_cover(K, n) if d == 1 else hyperplane_cover(K, n)
    w = weight_on_family(HEIGHT_DECAY, fam, K)
    for _ in range(10):
        f = random_field(n, K, rng)
        h = random_field(n, K, rng)
        g = forward_sinogram(h, fam)
        lhs = sinogram_inner(forward_sinogram(f, fam), g, 1.0, w)
        back = adjoint(g, w)
        axes = np.meshgrid(*[np.arange(-K, K + 1)] * n, indexing="ij")
        bs = (1.0 + sum(a**2.0 for a in axes)) ** 1.0
        rhs = complex(np.sum(bs * f.coeffs * np.conj(back.coeffs)))
        assert abs(lhs - rhs) < 1e-10


def test_normal_multiplier_examples():
    K = 3
    cover = direction_cover(K)
    w = canonical_weight(cover, K)
    for k in [(1, 0), (2, -1), (3, 3)]:
        assert normal_multiplier(w, k) == pytest.approx(1.0)
    assert normal_multiplier(w, (0, 0)) == pytest.approx(1.0)

    w3 = weight_on_family(HEIGHT_DECAY, line_cover(1, 3), 1)
    assert normal_multiplier(w3, (0, 0, 1)) == pytest.approx(1.0)


def test_normal_operator_diagonal(rng):
    K = 2
    cover = direction_cover(K)
    w = canonical_weight(cover, K)
    for k in [(0, 0), (1, 0), (-2, 1), (2, 2)]:
        e = unit_harmonic(2, K, k)
        out = adjoint(forward_sinogram(e, cover), w)
        expected = normal_multiplier(w, k)
        assert out.coeff(k) == pytest.approx(expected, abs=1e-14)
        rest = out.coeffs.copy()
        rest[k[0] + K, k[1] + K] = 0
        assert np.all(rest == 0)


@pytest.mark.parametrize("n,d,K", [(2, 1, 4), (3, 1, 2), (3, 2, 2)])
def test_invert_filtered_pipeline_identity(n, d, K, rng):
    if d == n - 1 and n == 2:
        fam = direction_cover(K)
        w = canonical_weight(fam, K)
    elif d == n - 1:
        fam = hyperplane_cover(K, n)
        w = weight_on_family(HEIGHT_DECAY, fam, K)
    else:
        fam = line_cover(K, n)
        w = weight_on_family(HEIGHT_DECAY, fam, K)
    for _ in range(3):
        f = random_field(n, K, rng)
        rec = invert_filtered(forward_sinogram(f, fam), w)
        assert np.max(np.abs(rec.coeffs - f.coeffs)) < 1e-12


def test_invert_filtered_singular():
    K = 2
    cover = direction_cover(K)
    w = canonical_weight(cover[:2], K)
    partial = forward_sinogram(random_field(2, K, np.random.default_rng(0)), cover[:2])
    # lines (0, 1) and (1, -1) cover k = (-2, -2) but not (-2, -1)
    with pytest.raises(IncompleteCover, match=re.escape("no stored subspace is orthogonal to k=(-2, -1)")):
        invert_filtered(partial, w)


def test_adjoint_normalized_identity_and_norms(rng):
    K = 3
    cover = direction_cover(K)
    w = canonical_weight(cover, K)
    f = random_field(2, K, rng, decay=1.0)
    rec = adjoint_normalized(forward_sinogram(f, cover), w)
    assert np.max(np.abs(rec.coeffs - f.coeffs)) < 1e-12
    for p in (1, 2, np.inf):
        assert bessel_norm(rec, 0.5, p, N=16) == pytest.approx(
            bessel_norm(f, 0.5, p, N=16), abs=1e-10)


def test_invert_sum_cosine():
    K = 3
    f = field_from_coeffs(2, K, {(1, 2): 1.0, (-1, -2): 1.0}, real=True)
    cover = direction_cover(K)
    g = forward_sinogram(f, cover)
    rec = invert_sum(g)
    assert np.max(np.abs(rec.coeffs - f.coeffs)) < 1e-12


def test_invert_sum_zero():
    K = 2
    g = forward_sinogram(field_from_coeffs(2, K, {}), direction_cover(K))
    assert np.all(invert_sum(g).coeffs == 0)


def test_invert_sum_mean_split(rng):
    K = 3
    f = random_field(2, K, rng, real=True)
    g = forward_sinogram(f, direction_cover(K))
    rec = invert_sum(g.without_mean())
    full = rec.coeffs.copy()
    full[K, K] += g.mean
    assert np.max(np.abs(full - f.coeffs)) < 1e-12


def test_invert_sum_carries_the_mean(rng):
    # the stored mean is the k = 0 coefficient: summing the slices of data
    # with a nonzero mean gives the whole field, as the zero-average sum
    # with the mean added
    K = 2
    f = random_field(2, K, rng)
    arr = f.coeffs.copy()
    arr[K, K] = 7.0
    f = TorusField(2, K, arr)
    g = forward_sinogram(f, direction_cover(K))
    rec = invert_sum(g)
    assert np.max(np.abs(rec.coeffs - f.coeffs)) < 1e-12
    split = invert_sum(g.without_mean()).coeffs
    split[K, K] += g.mean
    assert np.array_equal(rec.coeffs, split)


def test_invert_sum_incomplete_cover(rng):
    K = 2
    f = random_field(2, K, rng)
    cover = direction_cover(K)
    g = forward_sinogram(f, cover).without_mean()
    removed = {A: fld for A, fld in g.slices.items() if A != line((2, -1))}
    partial = TorusSinogram.from_slices(0j, removed)
    with pytest.raises(IncompleteCover):
        invert_sum(partial)


def test_invert_sum_hyperplanes_n3(rng):
    K = 2
    fam = hyperplane_cover(K, 3)
    f = random_field(3, K, rng, real=True)
    g = forward_sinogram(f, fam).without_mean()
    rec = invert_sum(g)
    expected = f.coeffs.copy()
    expected[K, K, K] = 0
    assert np.max(np.abs(rec.coeffs - expected)) < 1e-12


_MEAN_PARTS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e300, -1e300,
                                         1.7976931348623157e308, -1.7976931348623157e308]),
                        st.floats(-1e300, 1e300))


@given(family=st.one_of(st.integers(0, 40).map(lambda R: (direction_cover(R), R)),
                        st.integers(1, 4).map(lambda K: (hyperplane_cover(K, 3), K))),
       mean=st.one_of(_MEAN_PARTS.map(complex), st.builds(complex, _MEAN_PARTS, _MEAN_PARTS)),
       scale=st.sampled_from([1.0, 1e-300, 1e300]), seed=st.integers(0, 2**32 - 1),
       alpha=st.one_of(st.sampled_from([5e-324, 1.0, 1e300]), st.floats(1e-12, 1e12)))
@settings(max_examples=300, derandomize=True)
def test_alpha_zero_methods_write_the_bytes_of_the_sum(family, mean, scale, seed, alpha):
    # the four alpha = 0 names are one multiplier: on hyperplane data W = 1
    # off k = 0, and k = 0 holds the stored mean, not W(0) mean / W(0); the
    # oracle is the plain scatter of the slices with the mean put back.
    # Tikhonov shares the k = 0 rule, mean W(0) / (W(0) + alpha): W(0) mean
    # is never formed, so a mean at the float maximum leaves it finite
    cover, K = family
    members = canonical_family(cover)
    size = layout(members, K)[0].size
    values = scale * ([1.0, 1j] @ np.random.default_rng(seed).standard_normal((2, size)))
    g = TorusSinogram(members, K, mean, values)
    expected = scatter(K, g.members, g.values, 0j + g.mean).tobytes()
    assert invert_sum(g).coeffs.tobytes() == expected
    w = _data_weight(g)
    assert invert_filtered(g, w).coeffs.tobytes() == expected
    assert adjoint_normalized(g, w).coeffs.tobytes() == expected
    if g.n == 2:
        assert reconstruct_slices(g).coeffs.tobytes() == expected
    rec = tikhonov_reconstruct(g, 0.0, 1.0, alpha).coeffs
    W0 = w.normal_array.flat[w.normal_array.size // 2]
    assert rec.flat[rec.size // 2].tobytes() == np.complex128(0j + g.mean * (W0 / (W0 + alpha))).tobytes()
    assert np.all(np.isfinite(rec))


def test_stability_inequality(rng):
    K = 3
    fam = hyperplane_cover(K, 3)
    w = weight_on_family(HEIGHT_DECAY, fam, K)
    worst = 0.0
    for _ in range(20):
        f = random_field(3, K, rng)
        g = forward_sinogram(f, fam)
        lhs = sobolev_norm(f, 1.0)
        rhs = sinogram_norm(g, 1.0, w) / w.c_w
        assert lhs <= rhs * (1 + 1e-12)
        worst = max(worst, lhs / rhs)
    assert worst <= 1.0 + 1e-12


def sum_pairing(g, weight_table, h):
    """sum_A (F_{w(.,A)} g(., A), h) with unsquared weights; when the
    weights sum to one over each orthogonality set this equals the
    distributional pairing (f, h) for g in the range of the transform."""
    K = g.K
    flipped = h.coeffs[(slice(None, None, -1),) * h.n]
    acc = 0j
    for A in g.members:
        fa = g.slices[A].coeffs
        fa[(K,) * g.n] = g.mean
        warr = np.zeros(fa.shape)
        for (k, B), val in weight_table.items():
            if B == A:
                warr[tuple(int(x) + K for x in k)] = val
        acc += complex(np.sum(fa * warr * flipped))
    return acc


def field_pairing(f, h):
    """Distributional pairing (f, h) = sum_k f^(k) h^(-k)."""
    flipped = h.coeffs[(slice(None, None, -1),) * h.n]
    return complex(np.sum(f.coeffs * flipped))


def equal_split_table(g):
    """Unsquared weights 1/|Omega_k| on the stored family: each band
    frequency splits evenly over its orthogonal members."""
    masks = {A: orthogonality_mask(A, g.K) for A in g.members}
    counts = sum(masks.values())
    return {(tuple(int(x) - g.K for x in i), A): 1.0 / counts[tuple(i)]
            for A, mask in masks.items() for i in np.argwhere(mask)}


def test_sum_pairing_equals_field_pairing(rng):
    K = 2
    cover = direction_cover(K)
    f = random_field(2, K, rng)
    g = forward_sinogram(f, cover)
    table = equal_split_table(g)
    h = random_field(2, K, rng)
    lhs = sum_pairing(g, table, h)
    rhs = field_pairing(f, h)
    assert abs(lhs - rhs) < 1e-10


# each refusal of the inversion module, with its typed error and the start of its message
@pytest.mark.parametrize("call, error, start", [
    (lambda: slice_reconstruct_coeff(random_field(3, 1, np.random.default_rng(0)), (0, 0, 0),
                                     PrimitiveDirection((0, 0, 1))),
     DimensionMismatch, "slice reconstruction is a planar (n=2) operation"),
    (lambda: slice_reconstruct_coeff(random_field(2, 1, np.random.default_rng(0)), (1, 0),
                                     PrimitiveDirection((1, 0))),
     ValueError, "direction (1, 0) is not orthogonal to k=(1, 0)"),
    (lambda: slice_reconstruct_coeff(random_field(2, 1, np.random.default_rng(0)), (1, 0),
                                     PrimitiveDirection((0, 1)), axis=2),
     ValueError, "axis must be 0 or 1"),
    (lambda: ReconstructionReport("filtered", errors={"H0": -1.0}), ValueError,
     "errors must be nonnegative"),
])
def test_inversion_refusals(call, error, start):
    with pytest.raises(error) as info:
        call()
    assert str(info.value).startswith(start)


# W(k) off the band was once read at a wrapped index: (-4, 0) at K = 3 gave
# W(3, 0) = 1.0, and (4, 0) raised a bare IndexError
def test_normal_multiplier_is_zero_off_the_band():
    w = canonical_weight(direction_cover(3), 3)
    assert normal_multiplier(w, (-4, 0)) == 0.0 and normal_multiplier(w, (4, 0)) == 0.0
    assert normal_multiplier(w, (3, 0)) == 1.0 and normal_multiplier(w, (0, 0)) == 1.0
    with pytest.raises(DimensionMismatch):
        normal_multiplier(w, (1,))
