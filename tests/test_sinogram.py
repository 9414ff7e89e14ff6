import math

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
    _check_weight_defined,
    canonical_weight,
    enforce_moment_constraint,
    layout,
    plain_magnitude,
    sinogram_inner,
    sinogram_norm,
    support,
    weighted_scatter,
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


# --- the flat layout against the per-member loops it replaced ------------------


def oracle_weights(w, A):
    """w(., A) on support(A, K) and w(0, A), NaN where undefined, looked up
    one pair at a time."""
    def get(k):
        try:
            return w.weight(k, A)
        except WeightUndefined:
            return math.nan
    ks = np.stack(np.unravel_index(support(A, w.K), (2 * w.K + 1,) * w.n), axis=1) - w.K
    return np.array([get(k) for k in ks]), get((0,) * w.n)


def weighted_scatter_oracle(g, w, with_data):
    """Per-member loop: sum of w^2 times each member's vector (ones without
    data) at its frequencies, the summed w(0, A)^2 times the mean at k = 0."""
    out = np.zeros((2 * g.K + 1) ** g.n, dtype=np.complex128)
    w0 = 0.0
    for A, v in g.vectors.items():
        wk, wz = oracle_weights(w, A)
        out[support(A, g.K)] += np.nan_to_num(wk) ** 2 * (v if with_data else 1.0)
        w0 += np.nan_to_num(wz) ** 2
    out[out.size // 2] = w0 * (g.mean if with_data else 1.0)
    return out.reshape((2 * g.K + 1,) * g.n)


def sinogram_inner_oracle(g, h, s, w):
    bs = bracket_sq(g.n, g.K).ravel()
    acc = 0j
    for A, a in g.vectors.items():
        wk, wz = oracle_weights(w, A)
        acc += np.nan_to_num(wz) ** 2 * g.mean * np.conj(h.mean)
        acc += complex(np.sum(bs[support(A, g.K)] ** float(s) * np.nan_to_num(wk) ** 2
                              * a * np.conj(h.vectors[A])))
    return acc


def plain_magnitude_oracle(g):
    return math.sqrt(abs(g.mean) ** 2 + sum(float(np.sum(np.abs(v) ** 2))
                                            for v in g.vectors.values()))


def first_undefined_oracle(g, w):
    """The message naming the first (k, A), in member order with k = 0
    first, where g holds data and w has no value; None if there is none."""
    for A, v in g.vectors.items():
        wk, wz = oracle_weights(w, A)
        if g.mean != 0 and math.isnan(wz):
            return f"no weight value for k=0, A={A.serialize()!r}"
        bad = np.flatnonzero(np.isnan(wk) & (v != 0))
        if bad.size:
            flat = support(A, g.K)[bad[0]]
            k = tuple(int(i) - g.K for i in np.unravel_index(flat, (2 * g.K + 1,) * g.n))
            return f"no weight value for k={k}, A={A.serialize()!r}"
    return None


def holey_table_rule(family, K, rng, skip):
    """Custom-table rule with a random positive value on every (k, A) of
    the family's band, k = 0 included, except where skip(k, j) holds for
    member j."""
    table = []
    for j, A in enumerate(family):
        ks = [(0,) * A.n] + [tuple(int(x) - K for x in np.unravel_index(i, (2 * K + 1,) * A.n))
                             for i in support(A, K)]
        table += [((k, A), float(rng.uniform(0.5, 2.0))) for k in ks if not skip(k, j)]
    return weight_on_family(CUSTOM, family, K, params=tuple(table), certify=False)


def flat_layout_cases(rng):
    """(label, sinogram, rule): a custom table with NaN holes, height-decay
    on line_cover(2, 3), and sinograms on strict subsets of the family."""
    K = 3
    cover = [line(v) for v in direction_cover(K)]
    holey = holey_table_rule(cover, K, rng, lambda k, j: (3 * j + sum(k)) % 7 == 2)
    g = forward_sinogram(random_field(2, K, rng), cover).with_mean(0.7 - 0.2j)
    lines3 = line_cover(2, 3)
    yield "custom table with holes", g, holey
    yield "height-decay lines in T^3", forward_sinogram(random_field(3, 2, rng), lines3), \
        weight_on_family(HEIGHT_DECAY, lines3, 2)
    yield "subset of a height-decay family", forward_sinogram(random_field(3, 2, rng), lines3[::3]), \
        weight_on_family(HEIGHT_DECAY, lines3, 2)
    yield "subset of a holey table", forward_sinogram(random_field(2, K, rng), cover[1::2]), holey
    yield "subset of the canonical rule", forward_sinogram(random_field(2, K, rng), cover[::2]), \
        canonical_weight(cover, K)


def close(a, b):
    return np.max(np.abs(np.asarray(a) - np.asarray(b))) <= 1e-14 * max(1.0, np.max(np.abs(b)))


def test_weighted_scatter_matches_member_loop(rng):
    for label, g, w in flat_layout_cases(rng):
        assert close(weighted_scatter(g.members, w, g.values, g.mean),
                     weighted_scatter_oracle(g, w, True)), label
        assert close(weighted_scatter(g.members, w), weighted_scatter_oracle(g, w, False).real), label


def test_inner_and_magnitude_match_member_loop(rng):
    for label, g, w in flat_layout_cases(rng):
        h = g * (0.3 + 1.1j) + g.with_mean(0.2)
        if first_undefined_oracle(g, w) is not None:
            # keep only the pairs the table defines, so the products exist
            defined = {A: np.where(np.isnan(oracle_weights(w, A)[0]), 0, v)
                       for A, v in g.vectors.items()}
            g = TorusSinogram.from_vectors(g.n, g.d, g.K, 0j, defined)
            h = g * (0.3 + 1.1j)
        for s in (-1.0, 0.0, 1.5):
            assert close(sinogram_inner(g, h, s, w), sinogram_inner_oracle(g, h, s, w)), label
        assert close(plain_magnitude(g), plain_magnitude_oracle(g)), label


def test_check_weight_defined_names_the_first_undefined_pair(rng):
    K = 2
    cover = [line(v) for v in direction_cover(K)]
    f = random_field(2, K, rng)
    named = set()
    for skip in (lambda k, j: j == 2 and any(k) or j == 5 and not any(k),  # k != 0 member first
                 lambda k, j: j == 3,                                       # k = 0 before k != 0
                 lambda k, j: j == 4 and not any(k) or j == 6 and any(k),  # k = 0 member first
                 lambda k, j: False):
        w = holey_table_rule(cover, K, rng, skip)
        for mean in (0j, 1.5):
            g = forward_sinogram(f, cover).with_mean(mean)
            want = first_undefined_oracle(g, w)
            named.add(want)
            if want is None:
                _check_weight_defined(g, w)
                continue
            with pytest.raises(WeightUndefined) as ei:
                _check_weight_defined(g, w)
            assert str(ei.value) == want
    assert len(named) == 6


def test_mirror_index_reverses_each_member_block(rng):
    for label, g, _ in flat_layout_cases(rng):
        index, offsets, mirror = layout(g.members, g.K)
        flat = np.arange(index.size)
        assert np.array_equal(flat[mirror],
                              np.concatenate([flat[a:b][::-1] for a, b in zip(offsets, offsets[1:])]))
        assert np.array_equal(g.values[mirror],
                              np.concatenate([v[::-1] for v in g.vectors.values()])), label


def test_vectors_are_views_of_values_built_once(rng):
    K = 3
    g = forward_sinogram(random_field(2, K, rng), direction_cover(K))
    assert g.vectors is g.vectors
    assert all(np.shares_memory(v, g.values) for v in g.vectors.values() if v.size)
    with pytest.raises(ValueError):
        g.values[0] = 1.0
    with pytest.raises(ValueError):
        g.vectors[g.members[0]][0] = 1.0
