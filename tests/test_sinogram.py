import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from torusradon.errors import DimensionMismatch, IncompleteCover, WeightUndefined
from torusradon.fields import (
    band_frequencies,
    bracket_sq,
    field_from_coeffs,
    random_field,
    sobolev_norm,
    unit_harmonic,
    zero_field,
)
from torusradon.inversion import adjoint, adjoint_normalized, invert_filtered, normal_multiplier
from torusradon.lattice import (
    direction_cover,
    hyperplane_cover,
    line,
    line_cover,
    orthogonal_complement,
)
from torusradon.sinogram import (
    CANONICAL,
    CUSTOM,
    HEIGHT_DECAY,
    TorusSinogram,
    canonical_weight,
    enforce_moment_constraint,
    layout,
    sinogram_inner,
    sinogram_norm,
    support,
    weight_build,
    weight_on_family,
)
from torusradon.regularization import tikhonov_reconstruct_weighted
from torusradon.transforms import forward_sinogram


def test_canonical_weight_constants():
    K = 4
    w = canonical_weight(direction_cover(K), K)
    W = w.normal_array
    assert normal_multiplier(w, (0, 0)) == pytest.approx(1.0, abs=1e-12)
    punctured = W.copy()
    punctured[K, K] = 1.0
    assert punctured.min() == pytest.approx(1.0)
    assert punctured.max() == pytest.approx(1.0)
    assert w.c_w == pytest.approx(1.0)
    assert w.C_w == pytest.approx(1.0)


def test_height_decay_example():
    # four lines orthogonal to (0,0,1) at height 1, each weighted 1/2
    w = weight_build(HEIGHT_DECAY, (2.0,), d=1, n=3, H=1, K=1)
    assert normal_multiplier(w, (0, 0, 1)) == pytest.approx(1.0)


def test_weight_build_truncated_grassmannian_size():
    w = weight_build(HEIGHT_DECAY, (2.0,), d=1, n=3, H=1, K=1)
    assert len(w.family) == 13


def test_weight_build_canonical_planar():
    K = 3
    w = weight_build("canonical-singleton", (), d=1, n=2, H=K, K=K)
    assert w.c_w == pytest.approx(1.0)
    assert w.C_w == pytest.approx(1.0)
    assert normal_multiplier(w, (0, 0)) == pytest.approx(1.0, abs=1e-12)


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


@pytest.mark.parametrize("n, K, family, kind", [(3, 2, line_cover(2, 3), HEIGHT_DECAY),
                                                (2, 4, direction_cover(4)[:3], CANONICAL)])
def test_default_rule_is_the_uncertified_data_rule(rng, n, K, family, kind):
    # with no rule given the norms take the family's data rule, built even at c_w = 0:
    # height-decay for lines in T^3 (no canonical rule), canonical for three
    # lines that miss part of the plane's band
    g, h = (forward_sinogram(random_field(n, K, rng), family) for _ in range(2))
    w = weight_on_family(kind, family, K)
    for s in (-1.0, 0.0, 1.5):
        assert sinogram_norm(g, s) == sinogram_norm(g, s, w)
        assert sinogram_inner(g, h, s) == sinogram_inner(g, h, s, w)
    assert sinogram_norm(g, 0.5, p=3, l=1) == sinogram_norm(g, 0.5, w, p=3, l=1)


def test_degenerate_weight_raises(rng):
    # a single hyperplane cannot cover the whole band: its rule is built,
    # with c_w = 0, and the inversion refuses it, naming the first k
    fam = [orthogonal_complement((1, 0, 0))]
    w = weight_on_family(HEIGHT_DECAY, fam, K=2)
    assert w.c_w == 0.0 and w.C_w > 0.0
    g = forward_sinogram(random_field(3, 2, rng), fam)
    with pytest.raises(IncompleteCover, match=re.escape("orthogonal to k=(-2, -2, -2)")):
        invert_filtered(g, w)


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
    z = TorusSinogram(w.family, K, 0j, np.zeros(layout(w.family, K)[0].size))
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


def test_incomplete_table_is_refused_at_build():
    K = 1
    A = line((0, 1))
    table = {((0, 0), A): 1.0}  # w(0, A) alone; support(A, 1) holds k = (-1, 0) and (1, 0)
    with pytest.raises(ValueError, match=r"k=\(-1, 0\)"):
        weight_on_family(CUSTOM, [A], K, params=tuple(table.items()))
    table[(1, 0), A] = table[(-1, 0), A] = 2.0
    w = weight_on_family(CUSTOM, [A], K, params=tuple(table.items()))
    assert (w.weight((0, 0), A), w.weight((1, 0), A)) == (1.0, 2.0)
    with pytest.raises(WeightUndefined):  # off A's support
        w.weight((0, 1), A)


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
           for A in g.members}
    back = enforce_moment_constraint(raw)
    assert back.mean == pytest.approx(g.mean)
    for A in g.members:
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
            TorusSinogram.from_slices(0j, {A: field_from_coeffs(2, K, bad)})
    good = TorusSinogram.from_slices(0j, {A: field_from_coeffs(2, K, {(0, 1): 2.0})})
    assert good.slices[A].coeff((0, 1)) == 2.0
    assert np.array_equal(good.values[good.blocks[A]], [0, 0, 2.0, 0])


@pytest.mark.parametrize("family,K", [(lambda: direction_cover(16), 16),
                                      (lambda: hyperplane_cover(4, 3), 4),
                                      (lambda: line_cover(3, 3), 3)])
def test_dense_constructor_gathers_the_slices_back(family, K, rng):
    fam = family()
    g = forward_sinogram(random_field(fam[0].n, K, rng), fam)
    back = TorusSinogram.from_slices(g.mean, g.slices)
    assert back.members == g.members and back.values.tobytes() == g.values.tobytes()


def test_decay_certificate_leaves_the_family_caches_alone():
    """Certifying every member reads the rule's own arrays: no one-member
    layout pushes the family out."""
    K = 32
    w = canonical_weight(direction_cover(K), K)
    index = layout(w.family, K)
    size = layout.cache_info().currsize
    assert all(w.decay_certificate(A) == pytest.approx((1 / 36, 0.0)) for A in w.family)
    assert layout(w.family, K) is index
    assert layout.cache_info().currsize == size


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
    assert g.values.size == 4224 == (2 * K + 1) ** 2 - 1


def test_slices_are_dense_and_not_cached(rng):
    K = 3
    f = random_field(2, K, rng)
    g = forward_sinogram(f, direction_cover(K))
    A = g.members[1]
    first = g.slices[A]
    assert first is not g.slices[A]
    assert np.array_equal(first.coeffs, g.slices[A].coeffs)
    assert first.coeff((0, 0)) == 0
    assert set(g.slices) == set(g.members) and len(g.slices) == len(g.members)


@pytest.mark.parametrize("cached", [
    lambda: band_frequencies(2, 3),
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
    """w(., A) on support(A, K) and w(0, A), looked up one pair at a time."""
    ks = np.stack(np.unravel_index(support(A, w.K), (2 * w.K + 1,) * w.n), axis=1) - w.K
    return np.array([w.weight(k, A) for k in ks]), w.weight((0,) * w.n, A)


def weighted_sum_oracle(g, w, with_data):
    """Per-member loop: sum of w^2 times each member's vector (ones without
    data) at its frequencies, the summed w(0, A)^2 times the mean at k = 0."""
    out = np.zeros((2 * g.K + 1) ** g.n, dtype=np.complex128)
    w0 = 0.0
    for A, b in g.blocks.items():
        v = g.values[b]
        wk, wz = oracle_weights(w, A)
        out[support(A, g.K)] += wk ** 2 * (v if with_data else 1.0)
        w0 += wz ** 2
    out[out.size // 2] = w0 * (g.mean if with_data else 1.0)
    return out.reshape((2 * g.K + 1,) * g.n)


def sinogram_inner_oracle(g, h, s, w):
    bs = bracket_sq(g.n, g.K).ravel()
    acc = 0j
    for A, b in g.blocks.items():
        wk, wz = oracle_weights(w, A)
        acc += wz ** 2 * g.mean * np.conj(h.mean)
        acc += complex(np.sum(bs[support(A, g.K)] ** float(s) * wk ** 2
                              * g.values[b] * np.conj(h.values[h.blocks[A]])))
    return acc


def band_pairs(family, K):
    """(j, k, A) for every pair a weight rule on the family needs: member
    by member, k = 0 first and then support(A, K) in ascending flat order."""
    for j, A in enumerate(family):
        yield j, (0,) * A.n, A
        for i in support(A, K):
            yield j, tuple(int(x) - K for x in np.unravel_index(i, (2 * K + 1,) * A.n)), A


def table_params(family, K, rng, skip=lambda k, j: False):
    """Custom-table parameters with a random positive value on every (k, A)
    of the family's band, k = 0 included, except where skip(k, j) holds for
    member j."""
    return tuple(((k, A), float(rng.uniform(0.5, 2.0))) for j, k, A in band_pairs(family, K)
                 if not skip(k, j))


def flat_layout_cases(rng):
    """(label, sinogram, rule): a complete k-dependent custom table,
    height-decay on line_cover(2, 3), and rules built on strict subsets of
    those families, the table's from its whole-family parameters."""
    K = 3
    cover = [line(v) for v in direction_cover(K)]
    table = weight_on_family(CUSTOM, cover, K, params=table_params(cover, K, rng))
    g = forward_sinogram(random_field(2, K, rng), cover).with_mean(0.7 - 0.2j)
    lines3 = line_cover(2, 3)
    yield "k-dependent custom table", g, table
    yield "height-decay lines in T^3", forward_sinogram(random_field(3, 2, rng), lines3), \
        weight_on_family(HEIGHT_DECAY, lines3, 2)
    yield "subset of a height-decay family", forward_sinogram(random_field(3, 2, rng), lines3[::3]), \
        weight_on_family(HEIGHT_DECAY, lines3[::3], 2)
    yield "subset of a custom table", forward_sinogram(random_field(2, K, rng), cover[1::2]), \
        weight_on_family(CUSTOM, cover[1::2], K, params=table.params)
    yield "subset of the canonical rule", forward_sinogram(random_field(2, K, rng), cover[::2]), \
        canonical_weight(cover[::2], K)


def close(a, b):
    return np.max(np.abs(np.asarray(a) - np.asarray(b))) <= 1e-14 * max(1.0, np.max(np.abs(b)))


def test_adjoint_and_normal_multiplier_match_member_loop(rng):
    for label, g, w in flat_layout_cases(rng):
        assert close(adjoint(g, w).coeffs, weighted_sum_oracle(g, w, True)), label
        assert close(w.normal_array, weighted_sum_oracle(g, w, False).real), label


def test_inner_matches_member_loop(rng):
    for label, g, w in flat_layout_cases(rng):
        h = g * (0.3 + 1.1j) + g.with_mean(0.2)
        for s in (-1.0, 0.0, 1.5):
            assert close(sinogram_inner(g, h, s, w), sinogram_inner_oracle(g, h, s, w)), label


def test_incomplete_table_names_the_first_missing_pair(rng):
    K = 2
    cover = sorted(line(v) for v in direction_cover(K))  # member j is cover[j]
    named = set()
    for skip in (lambda k, j: j == 2 and any(k) or j == 5 and not any(k),  # k != 0 member first
                 lambda k, j: j == 3,                                       # k = 0 before k != 0
                 lambda k, j: j == 4 and not any(k) or j == 6 and any(k),  # k = 0 member first
                 lambda k, j: False):
        params = table_params(cover, K, rng, skip)
        first = next(((k, A) for j, k, A in band_pairs(cover, K) if skip(k, j)), None)
        named.add(first)
        if first is None:
            weight_on_family(CUSTOM, cover, K, params=params)
            continue
        with pytest.raises(ValueError) as ei:
            weight_on_family(CUSTOM, cover, K, params=params)
        assert str(ei.value) == f"no weight value for k={first[0]}, A={first[1].serialize()!r}"
    assert len(named) == 4


def test_mirror_index_reverses_each_member_block(rng):
    for label, g, _ in flat_layout_cases(rng):
        index, offsets, mirror = layout(g.members, g.K)
        flat = np.arange(index.size)
        assert np.array_equal(flat[mirror],
                              np.concatenate([flat[a:b][::-1] for a, b in zip(offsets, offsets[1:])]))
        assert np.array_equal(g.values[mirror],
                              np.concatenate([g.values[b][::-1] for b in g.blocks.values()])), label


def test_vectors_are_views_of_values_built_once(rng):
    K = 3
    g = forward_sinogram(random_field(2, K, rng), direction_cover(K))
    assert g.blocks is g.blocks
    with pytest.raises(ValueError):
        g.values[0] = 1.0
    with pytest.raises(ValueError):
        g.values[g.blocks[g.members[0]]][0] = 1.0


def test_canonical_rule_is_shared_and_read_only():
    K = 4
    cover = direction_cover(K)
    assert canonical_weight(cover, K) is weight_on_family(CANONICAL, cover, K)
    for kind in (CANONICAL, HEIGHT_DECAY):
        w = weight_on_family(kind, cover, K)
        assert weight_on_family(kind, list(reversed(cover)), K) is w
        assert weight_on_family(kind, [line(v) for v in cover], K) is w
        assert weight_on_family(kind, cover, K - 1) is not w
        for arr in (w.normal_array, w.w2, w.w2_zero):
            with pytest.raises(ValueError):
                arr[...] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            w.C_w = 2.0


def test_weight_on_family_drops_duplicate_members():
    K = 4
    cover = direction_cover(K)
    assert canonical_weight(cover + cover[:1], K).C_w == pytest.approx(1.0)
    for kind in (CANONICAL, HEIGHT_DECAY):
        once = weight_on_family(kind, cover, K)
        twice = weight_on_family(kind, cover + cover[::2], K)
        assert twice.family == once.family and len(twice.family) == len(cover)
        assert np.array_equal(twice.normal_array, once.normal_array)
        assert (twice.c_w, twice.C_w) == (once.c_w, once.C_w)


def test_constructor_takes_only_a_canonical_family():
    K = 2
    members = tuple(sorted(line(v) for v in direction_cover(K)))
    size = layout(members, K)[0].size
    g = TorusSinogram(members, K, 0j, np.ones(size))
    assert g.members == members
    for bad in (members[::-1], members + members[:1], members[1:] + members[:1]):
        with pytest.raises(DimensionMismatch):
            TorusSinogram(bad, K, 0j, np.ones(layout(bad, K)[0].size))
    with pytest.raises(DimensionMismatch):
        TorusSinogram((), K, 0j, np.ones(0))


def test_rule_refuses_a_member_outside_its_family(rng):
    K = 3
    cover = direction_cover(K)
    w = weight_on_family(HEIGHT_DECAY, cover[:-1], K)
    outside = line(cover[-1])
    for call in (lambda: w.weight((0, 0), outside), lambda: w.decay_certificate(outside),
                 lambda: w.decay_certificate(line((1, 0, 0)))):
        with pytest.raises(DimensionMismatch):
            call()
    g = forward_sinogram(random_field(2, K, rng), cover)
    part = forward_sinogram(random_field(2, K, rng), cover[:-1])
    cases = [(g, w),  # a rule on a strict subset of the data's members
             (part, weight_on_family(HEIGHT_DECAY, cover, K))]  # and on a strict superset
    cases += [(g, weight_on_family(HEIGHT_DECAY, cover, other)) for other in (K - 1, K + 1)]
    for data, rule in cases:  # the last two: a rule on the data's family at another band
        for read in (lambda: adjoint(data, rule), lambda: invert_filtered(data, rule),
                     lambda: adjoint_normalized(data, rule),
                     lambda: sinogram_norm(data, 0.0, rule), lambda: sinogram_norm(data, 0.0, rule, p=3),
                     lambda: sinogram_inner(data, data, 0.0, rule),
                     lambda: tikhonov_reconstruct_weighted(data, rule, 0.0, 1.0, 0.5),
                     lambda: enforce_moment_constraint(dict(data.slices), rule)):
            with pytest.raises(DimensionMismatch):
                read()


@pytest.mark.parametrize("kind,params", [
    (HEIGHT_DECAY, (0.0,)),
    (HEIGHT_DECAY, (math.nan,)),
    (HEIGHT_DECAY, (-2.0,)),
    (HEIGHT_DECAY, (math.inf,)),
    (HEIGHT_DECAY, (1e-200,)),
    (HEIGHT_DECAY, (1e200,)),
    (HEIGHT_DECAY, (2.0, 3.0)),
    (HEIGHT_DECAY, ("2",)),
    (CANONICAL, (2.0,)),
    (CUSTOM, ((((0, 1), line((1, 0))), math.nan),)),
    (CUSTOM, ((((0, 1), line((1, 0))), "1.0"),)),
    (CUSTOM, ((((0, 1), line((1, 0))), None),)),
    (CUSTOM, ((((0, 1), line((1, 0))), -1.0),)),
], ids=["zero base", "nan base", "negative base", "infinite base", "weight overflows",
        "square underflows", "extra entry", "string base",
        "canonical with a base", "nan value", "string value", "None value", "negative value"])
def test_weight_parameters_are_validated(kind, params):
    with pytest.raises(ValueError):
        weight_on_family(kind, direction_cover(2), 2, params=params)


@pytest.mark.parametrize("family, k", [
    ([line(v) for v in direction_cover(2)], (0, 0)),  # eight w(0, A)^2 of 1e308 at k = 0
    (line_cover(1, 3), (-1, -1, -1)),  # three lines are orthogonal to the first k
])
def test_table_whose_squares_sum_past_the_float_range_is_refused(family, k):
    # every w^2 = 1e308 is finite, but W sums them: the build refuses the
    # table, naming the first k where W is inf, with no overflow warning
    K = 1 if family[0].n == 3 else 2
    fam = sorted(family)
    table = tuple(((kk, A), 1e154) for _, kk, A in band_pairs(fam, K))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"squares sum to inf at k={k}")):
            weight_on_family(CUSTOM, fam, K, params=table)


@pytest.mark.parametrize("value", [1e-200, 1e200])
def test_table_values_whose_squares_leave_the_float_range_are_refused(rng, value):
    # the square of a w(0, A) or of a w(k, A) is 0 or inf in floats: the
    # positivity refusal (a numpy overflow warning would fail the test)
    K = 2
    cover = sorted(line(v) for v in direction_cover(K))
    params = table_params(cover, K, rng)
    for i in (0, 1):
        table = params[:i] + ((params[i][0], value),) + params[i + 1:]
        with pytest.raises(ValueError, match="weights must be finite and positive"):
            weight_on_family(CUSTOM, cover, K, params=table)


# each refusal of the sinogram module, with its typed error and the start of its message
@pytest.mark.parametrize("call, error, start", [
    (lambda: TorusSinogram(forward_sinogram(zero_field(2, 1), direction_cover(1)).members, 1, 0j,
                           np.zeros(3)), DimensionMismatch,
     "(3,) values do not fit the layout at K=1"),
    (lambda: TorusSinogram.from_slices(0j, {line((1, 0)): zero_field(2, 1), line((0, 1)): zero_field(2, 2)}),
     DimensionMismatch, "slices must share one band"),
    (lambda: forward_sinogram(zero_field(2, 1), direction_cover(1))
     + forward_sinogram(zero_field(2, 2), direction_cover(1)),
     DimensionMismatch, "sinograms live on different bands or subspace families"),
    (lambda: weight_on_family(CANONICAL, [], 1), ValueError, "family must be nonempty"),
    (lambda: weight_on_family(CANONICAL, line_cover(1, 3), 1), ValueError,
     "canonical-singleton weights are a d = n-1 construction"),
    (lambda: weight_on_family("flat", direction_cover(1), 1), ValueError, "unknown weight kind 'flat'"),
    (lambda: enforce_moment_constraint({}), ValueError, "no slices given"),
    (lambda: canonical_weight(direction_cover(2), 2).weight((0,), line((1, 0))), DimensionMismatch,
     "frequency (0,) has 1 entries, need n=2"),
])
def test_sinogram_refusals(call, error, start):
    with pytest.raises(error) as info:
        call()
    assert str(info.value).startswith(start)
