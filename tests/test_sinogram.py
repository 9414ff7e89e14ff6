import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from torusradon import sinogram
from torusradon.errors import DimensionMismatch, IncompleteCover
from torusradon.fields import (
    band_frequencies,
    bracket_sq,
    field_from_coeffs,
    random_field,
    sobolev_norm,
    unit_harmonic,
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
    HEIGHT_DECAY,
    TorusSinogram,
    as_subspace,
    canonical_family,
    canonical_weight,
    layout,
    sinogram_inner,
    sinogram_norm,
    support,
    weight_build,
    weight_on_family,
)
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


@pytest.mark.parametrize("d, n, H, K", [(1, 2, 3, 3), (1, 3, 1, 2), (2, 3, 1, 2)])
def test_normal_multiplier_sums_the_orthogonality_set(d, n, H, K):
    """W(k) is the sum of w^2 = 4^-height(A) over the orthogonality set
    Omega_k of Railo 2020: the members orthogonal to k, found by brute force.
    Omega_0 is the whole family, and a hyperplane family holds at most k's
    own orthogonal complement."""
    w = weight_build(HEIGHT_DECAY, (2.0,), d, n, H, K)
    for k, W in zip(band_frequencies(n, K).T.tolist(), w.normal_array.ravel()):
        omega = [A for A in w.family if A.contains_frequency(k)]
        if not any(k):
            assert omega == list(w.family)
        elif d == n - 1:
            assert omega == [A for A in [orthogonal_complement(k)] if A.height <= H]
        want = sum(4.0 ** -A.height for A in omega)
        assert abs(W - want) <= 1e-15 * want, k


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
    m = TorusSinogram(z.members, K, 5.0, z.values)
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


def test_sinogram_norm_of_an_overflowing_weight(rng):
    # as sobolev_norm: <k>^800 overflows from |k|^2 = 5 on, but only on
    # values that are 0, which add 0 with no warning
    K = 4
    cover = direction_cover(K)
    assert sinogram_norm(forward_sinogram(unit_harmonic(2, K, (1, 0)), cover), 400.0) == 2.0**200
    # every finite inner product is the plain sum of the same terms, bit for bit
    g = forward_sinogram(random_field(2, K, rng), cover)
    h = g.without_mean()
    bs = bracket_sq(2, K).ravel()[layout(g.members, K)[0]]
    w = canonical_weight(cover, K)
    for s in (-1.0, 0.0, 2.5, 40.0):
        plain = w.w2_zero.sum() * g.mean * np.conj(h.mean) + np.sum(
            bs ** s * w.w2 * g.values * np.conj(h.values))
        assert sinogram_inner(g, h, s, w) == complex(plain)


def test_an_overflowing_weight_on_a_nonzero_value_gives_inf_not_nan():
    # <k>^800 = 6^400 at k = (2, 1) meets the value 1 + 0j: each part takes
    # the weight alone, so the inner product is inf + 0j, not (inf + 0j)(1 + 0j)
    K = 4
    g = forward_sinogram(unit_harmonic(2, K, (2, 1)), direction_cover(K))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ip = sinogram_inner(g, g, 400.0)
        assert ip.real == np.inf and ip.imag == 0.0
        # 6^200 is finite, but its square passes the float range in the l-sum
        base = sinogram_norm(g, 0.0, p=3)
        for l in (1, 2, np.inf):
            assert sinogram_norm(g, 400.0, p=3, l=l) == pytest.approx(6.0**200 * base, rel=1e-12)


def test_a_finite_p2_norm_whose_square_overflows_reads_finite():
    # the inner product <g, g> at s = 400 is 6^400 = inf, but the norm 6^200
    # is finite: the per-slice path scales its sums, so it reads 6^200
    g = forward_sinogram(unit_harmonic(2, 4, (2, 1)), direction_cover(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sinogram_norm(g, 0.0) == pytest.approx(1.0, rel=1e-12)
        assert sinogram_norm(g, 400.0) == pytest.approx(6.0**200, rel=1e-12)
        assert sinogram_norm(g, 800.0) == np.inf


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
    """w(., A) on support(A, K) and w(0, A), from the rule's definition: the
    canonical rule is 1 off k = 0 and 1/sqrt(|family|) at k = 0, height-decay
    is base^-height(A) everywhere."""
    if w.kind == CANONICAL:
        wk, wz = 1.0, 1.0 / math.sqrt(len(w.family))
    else:
        wk = wz = (w.params[0] if w.params else 2.0) ** -A.height
    return np.full(support(A, w.K).size, wk), wz


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


def flat_layout_cases(rng):
    """(label, sinogram, rule): height-decay on line_cover(2, 3), and rules
    built on strict subsets of that family and of a planar cover."""
    K = 3
    cover = [line(v) for v in direction_cover(K)]
    lines3 = line_cover(2, 3)
    yield "height-decay lines in T^3", forward_sinogram(random_field(3, 2, rng), lines3), \
        weight_on_family(HEIGHT_DECAY, lines3, 2)
    yield "subset of a height-decay family", forward_sinogram(random_field(3, 2, rng), lines3[::3]), \
        weight_on_family(HEIGHT_DECAY, lines3[::3], 2)
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
        h = g * (0.3 + 1.1j) + TorusSinogram(g.members, g.K, 0.2, g.values)
        for s in (-1.0, 0.0, 1.5):
            assert close(sinogram_inner(g, h, s, w), sinogram_inner_oracle(g, h, s, w)), label


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


def sorted_distinct(family):
    """The canonical family built by hand: sorted distinct subspaces."""
    return tuple(sorted({as_subspace(A) for A in family}))


# a family object just canonicalized is recognized without hashing its
# members, and any change to it since is seen on the next call
def test_the_same_family_object_gives_the_same_canonical_family():
    cover = direction_cover(8)
    fam = canonical_family(cover)
    assert fam == sorted_distinct(cover)
    assert canonical_family(cover) is fam
    assert canonical_family(fam) is fam


@pytest.mark.parametrize("change", [
    lambda c: c.append(line((1, 9))),
    lambda c: c.pop(),
    lambda c: c.pop(0),
    lambda c: c.__setitem__(3, line((2, 9))),
    lambda c: c.__setitem__(3, c[4]),
    lambda c: c.reverse(),
    lambda c: c.clear(),
], ids=["append", "pop", "pop-first", "replace", "duplicate", "reverse", "clear"])
def test_a_family_changed_in_place_is_seen(change):
    cover = [line(v) for v in direction_cover(4)]
    canonical_family(cover)
    change(cover)
    assert canonical_family(cover) == sorted_distinct(cover)


def test_a_family_of_int_lists_changed_in_place_is_seen():
    vectors = [[1, 0], [0, 1], [1, 1]]
    assert canonical_family(vectors) == sorted_distinct(map(tuple, vectors))
    vectors[2][1] = -1
    assert canonical_family(vectors) == sorted_distinct(map(tuple, vectors))
    vectors[0][:] = [2, 3]
    assert canonical_family(vectors) == sorted_distinct(map(tuple, vectors))


def test_an_iterator_is_a_family():
    cover = direction_cover(4)
    for _ in range(2):
        assert canonical_family(iter(cover)) == sorted_distinct(cover)
        assert canonical_family(A for A in cover) == sorted_distinct(cover)


# an id reused by another object fails the snapshot comparison: here the
# snapshot held under the id of numpy vectors is of other members, and
# numpy's elementwise comparison is no hit either
def test_a_reused_id_is_no_hit(monkeypatch):
    vectors = [np.array([1, 2]), np.array([0, 1])]
    other = tuple(direction_cover(1)[:2])
    monkeypatch.setitem(sinogram._HELD, id(vectors), (other, canonical_family(other)))
    assert canonical_family(vectors) == sorted_distinct(vectors)
    monkeypatch.setitem(sinogram._HELD, id(other), (tuple(vectors), canonical_family(vectors)))
    assert canonical_family(other) == sorted_distinct(other)


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
    g = forward_sinogram(random_field(2, K, rng), cover)
    part = forward_sinogram(random_field(2, K, rng), cover[:-1])
    cases = [(g, w),  # a rule on a strict subset of the data's members
             (part, weight_on_family(HEIGHT_DECAY, cover, K))]  # and on a strict superset
    cases += [(g, weight_on_family(HEIGHT_DECAY, cover, other)) for other in (K - 1, K + 1)]
    for data, rule in cases:  # the last two: a rule on the data's family at another band
        for read in (lambda: adjoint(data, rule), lambda: invert_filtered(data, rule),
                     lambda: adjoint_normalized(data, rule),
                     lambda: sinogram_norm(data, 0.0, rule), lambda: sinogram_norm(data, 0.0, rule, p=3),
                     lambda: sinogram_inner(data, data, 0.0, rule)):
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
], ids=["zero base", "nan base", "negative base", "infinite base", "weight overflows",
        "square underflows", "extra entry", "string base", "canonical with a base"])
def test_weight_parameters_are_validated(kind, params):
    with pytest.raises(ValueError):
        weight_on_family(kind, direction_cover(2), 2, params=params)


@pytest.mark.parametrize("family, k", [
    ([line(v) for v in direction_cover(1)], (0, 0)),  # four w(0, A)^2 of 1e308 at k = 0
    (line_cover(1, 3), (-1, -1, -1)),  # three lines are orthogonal to the first k
])
def test_table_whose_squares_sum_past_the_float_range_is_refused(family, k):
    # every member has height 1, so base 1e-154 gives each the weight 1e154:
    # every w^2 = 1e308 is finite, but W sums them. The build refuses the
    # rule, naming the first k where W is inf, with no overflow warning
    K = 1 if family[0].n == 3 else 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"squares sum to inf at k={k}")):
            weight_on_family(HEIGHT_DECAY, family, K, params=(1e-154,))


# each refusal of the sinogram module, with its typed error and the start of its message
@pytest.mark.parametrize("call, error, start", [
    (lambda: TorusSinogram(forward_sinogram(field_from_coeffs(2, 1, {}), direction_cover(1)).members, 1, 0j,
                           np.zeros(3)), DimensionMismatch,
     "(3,) values do not fit the layout at K=1"),
    (lambda: TorusSinogram.from_slices(0j, {line((1, 0)): field_from_coeffs(2, 1, {}),
                                            line((0, 1)): field_from_coeffs(2, 2, {})}),
     DimensionMismatch, "slices must share one band"),
    (lambda: forward_sinogram(field_from_coeffs(2, 1, {}), direction_cover(1))
     + forward_sinogram(field_from_coeffs(2, 2, {}), direction_cover(1)),
     DimensionMismatch, "sinograms live on different bands or subspace families"),
    (lambda: weight_on_family(CANONICAL, [], 1), ValueError, "family must be nonempty"),
    (lambda: weight_on_family(CANONICAL, line_cover(1, 3), 1), ValueError,
     "canonical-singleton weights are a d = n-1 construction"),
    (lambda: weight_on_family("flat", direction_cover(1), 1), ValueError, "unknown weight kind 'flat'"),
    (lambda: normal_multiplier(canonical_weight(direction_cover(2), 2), (0,)), DimensionMismatch,
     "frequency (0,) has 1 entries, need n=2"),
])
def test_sinogram_refusals(call, error, start):
    with pytest.raises(error) as info:
        call()
    assert str(info.value).startswith(start)
