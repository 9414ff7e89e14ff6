import itertools
import random
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from torusradon import lattice
from torusradon.errors import CoverTooLarge, DimensionMismatch, RankMismatch, ZeroVector
from torusradon.lattice import (
    PrimitiveDirection,
    RationalSubspace,
    canonicalize_subspace,
    direction_cover,
    enumerate_directions,
    enumerate_grassmannian,
    frequency_band,
    hyperplane_cover,
    integer_kernel,
    line,
    line_cover,
    orthogonal_complement,
    orthogonal_line,
    orthogonal_primitive,
    primitive_reduce,
    row_hnf,
)

nonzero_vec2 = st.tuples(st.integers(-50, 50), st.integers(-50, 50)).filter(any)


def test_primitive_reduce_examples():
    assert primitive_reduce((4, 6)).v == (2, 3)
    assert primitive_reduce((0, -5)).v == (0, 1)
    assert primitive_reduce((3, 5)).v == (3, 5)


def test_primitive_reduce_zero_raises():
    with pytest.raises(ZeroVector):
        primitive_reduce((0, 0))


@given(nonzero_vec2)
def test_primitive_reduce_idempotent(v):
    once = primitive_reduce(v)
    assert primitive_reduce(once.v) == once


@given(nonzero_vec2)
def test_primitive_reduce_canonical(v):
    p = primitive_reduce(v).v
    g = gcd(p[0], p[1])
    assert g == 1
    first = p[0] if p[0] != 0 else p[1]
    assert first > 0


def test_orthogonal_primitive_examples():
    assert orthogonal_primitive((1, 2)).v == (2, -1)
    assert orthogonal_primitive((2, 4)).v == (2, -1)
    assert orthogonal_primitive((0, 3)).v == (1, 0)
    with pytest.raises(ZeroVector):
        orthogonal_primitive((0, 0))


@given(nonzero_vec2)
def test_orthogonal_primitive_is_orthogonal(k):
    v = orthogonal_primitive(k)
    assert v.dot(k) == 0


def brute_directions(n, H):
    out = set()
    for v in itertools.product(range(-H, H + 1), repeat=n):
        if any(v):
            out.add(primitive_reduce(v).v)
    return sorted(out)


def test_enumerate_directions_small():
    got = [p.v for p in enumerate_directions(2, 1)]
    assert got == [(0, 1), (1, -1), (1, 0), (1, 1)]


@pytest.mark.parametrize("n,H,count", [(2, 2, 8), (3, 1, 13)])
def test_enumerate_directions_counts(n, H, count):
    got = [p.v for p in enumerate_directions(n, H)]
    assert got == brute_directions(n, H)
    assert len(got) == count


def test_enumerate_directions_h2_additions():
    base = {p.v for p in enumerate_directions(2, 1)}
    ext = {p.v for p in enumerate_directions(2, 2)}
    assert ext - base == {(1, -2), (1, 2), (2, -1), (2, 1)}


def test_row_hnf_kernel_example():
    assert integer_kernel([(1, 1, 1)], 3) == [(1, 0, -1), (0, 1, -1)]


def test_canonicalize_subspace_examples():
    A = canonicalize_subspace([(2, 0, 0), (0, 1, 0)], 2)
    assert A.basis == ((1, 0, 0), (0, 1, 0))
    B = canonicalize_subspace([(0, 1, 0), (1, 0, 0)], 2)
    assert B == A
    C = canonicalize_subspace([(1, 1)], 1)
    assert C.basis == ((1, 1),)


def test_canonicalize_rank_mismatch():
    with pytest.raises(RankMismatch):
        canonicalize_subspace([(1, 0, 0), (2, 0, 0)], 2)
    with pytest.raises(RankMismatch):
        canonicalize_subspace([(1, 0, 0)], 2)


def random_unimodular(d, rng, steps=8):
    m = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for _ in range(steps):
        i, j = rng.sample(range(d), 2) if d > 1 else (0, 0)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


@pytest.mark.parametrize("seed", range(10))
def test_canonicalize_unimodular_invariance(seed):
    rng = random.Random(seed)
    n, d = 4, 2
    while True:
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(d)]
        try:
            A = canonicalize_subspace(rows, d)
            break
        except RankMismatch:
            continue
    P = random_unimodular(d, rng)
    mixed = [
        [sum(P[i][r] * rows[r][c] for r in range(d)) for c in range(n)]
        for i in range(d)
    ]
    assert canonicalize_subspace(mixed, d) == A


def test_grassmannian_hnf_pattern_matches_bruteforce():
    # every 2-subspace of Q^3 with height <= 2, via span-canonicalization
    brute = set()
    for rows in itertools.product(itertools.product(range(-2, 3), repeat=3), repeat=2):
        try:
            A = canonicalize_subspace(rows, 2)
        except RankMismatch:
            continue
        if A.height <= 2:
            brute.add(A)
    assert set(enumerate_grassmannian(2, 3, 2)) == brute


def test_direction_cover_examples():
    assert [v.v for v in direction_cover(0)] == [(1, 0)]
    got = direction_cover(1)
    assert sorted(v.v for v in got) == [(0, 1), (1, -1), (1, 0), (1, 1)]
    assert len(direction_cover(2)) == 8


@pytest.mark.parametrize("R", [1, 2, 3, 5])
def test_direction_cover_exhaustive(R):
    cover = direction_cover(R)
    for k in frequency_band(2, R, punctured=True):
        assert any(v.dot(k) == 0 for v in cover)


def test_hyperplane_cover_n3():
    cover = hyperplane_cover(2, 3)
    for k in frequency_band(3, 2, punctured=True):
        assert any(A.contains_frequency(k) for A in cover)
    assert orthogonal_complement((1, 1, 1)) in cover


@pytest.mark.parametrize("n,K", [(2, 3), (3, 3), (4, 2)])
def test_line_cover(n, K):
    cover = line_cover(K, n)
    for k in frequency_band(n, K, punctured=True):
        assert any(A.contains_frequency(k) for A in cover)


def test_orthogonal_line_general_dims():
    for k in [(0, 0, 0, 7, 0), (1, 0, -2, 0, 0), (0, 3, 0, 0, 4)]:
        A = orthogonal_line(k)
        assert A.contains_frequency(k)


def test_serialization_round_trip():
    A = canonicalize_subspace([(1, 0, -1), (0, 1, -1)], 2)
    assert A.serialize() == "2 3; 1 0 -1; 0 1 -1"
    assert RationalSubspace.parse(A.serialize()) == A


def test_parse_of_a_line_is_the_interned_line():
    for A in [*(line(v) for v in direction_cover(8)), *line_cover(2, 3)]:
        assert RationalSubspace.parse(A.serialize()) is line(A.basis[0])
    # not HNF, not saturated, wrong row length, the zero row: the checked
    # constructor's ValueError, as for any other subspace
    for text in ["1 2; -1 2", "1 2; 2 4", "1 2; 1 2 3", "1 2; 0 0"]:
        with pytest.raises(ValueError):
            RationalSubspace.parse(text)
    for A in hyperplane_cover(2, 3):  # d = 2 parses as before: a new equal value
        B = RationalSubspace.parse(A.serialize())
        assert B == A and B is not A


def test_row_hnf_canonical_form():
    h = row_hnf([(2, 4, 6), (1, 1, 1)], 3)
    # echelon, positive pivots, above-pivot entries reduced
    assert h == [(1, 1, 1), (0, 2, 4)]


def _assert_is_the_checked_subspace(A):
    checked = RationalSubspace(A.n, A.d, A.basis)
    assert A == checked and hash(A) == hash(checked) and vars(A) == vars(checked)


def test_line_of_a_direction_equals_the_checked_subspace():
    """The trusted builders skip the canonical-form check; each value must
    still be the one the checked constructor builds, hash and fields
    included."""
    for v in [*direction_cover(32), *enumerate_directions(3, 4)]:
        A = line(v)
        _assert_is_the_checked_subspace(A)
        assert line(v) is A and line(list(v.v)) is A and line(tuple(-x for x in v.v)) is A
    for k in [*frequency_band(3, 2, punctured=True), (2, -3, 5), (1, 0, -4, 2), (0, 6, 0, 9)]:
        _assert_is_the_checked_subspace(orthogonal_complement(k))
    for family in [hyperplane_cover(3, 3), enumerate_grassmannian(2, 3, 2), enumerate_grassmannian(2, 4, 2)]:
        for A in family:
            _assert_is_the_checked_subspace(A)


@pytest.mark.parametrize("build, args", [(line, ((5,),)), (enumerate_grassmannian, (1, 1, 2)),
                                         (enumerate_grassmannian, (0, 2, 1)),
                                         (orthogonal_complement, ((5,),)),
                                         (enumerate_grassmannian, (2, 2, 1))])
def test_builders_refuse_dimensions_outside_one_to_n_minus_one(build, args):
    with pytest.raises(ValueError, match="need 1 <= d <= n-1"):
        build(*args)


def leibniz_det(m):
    """Exact determinant by the Leibniz formula; enough for d <= 3."""
    k = len(m)
    return sum((-1) ** sum(p[i] > p[j] for i in range(k) for j in range(i + 1, k))
               * prod(m[i][p[i]] for i in range(k)) for p in itertools.permutations(range(k)))


@st.composite
def integer_bases(draw):
    """(n, d, basis): any integer rows, or an echelon shape near HNF (above-
    pivot entries drawn from [-1, pivot], so some are not reduced)."""
    n = draw(st.integers(2, 4))
    d = draw(st.integers(1, n - 1))
    rows = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(d)]
    if draw(st.booleans()):
        cols = sorted(draw(st.lists(st.integers(0, n - 1), min_size=d, max_size=d, unique=True)))
        for i, c in enumerate(cols):
            rows[i][:c + 1] = [0] * c + [draw(st.integers(1, 3))]
        for i in range(d):
            for m in range(i + 1, d):
                rows[i][cols[m]] = draw(st.integers(-1, rows[m][cols[m]]))
    return n, d, tuple(map(tuple, rows))


@given(integer_bases())
def test_checked_constructor_accepts_exactly_saturated_hnf_bases(case):
    """The one canonical-form check against its definition: the basis is
    its own row HNF and the gcd of its maximal minors is 1."""
    n, d, basis = case
    minors = (leibniz_det([[r[c] for c in cols] for r in basis])
              for cols in itertools.combinations(range(n), d))
    canonical = tuple(row_hnf(basis, n)) == basis and gcd(*minors) == 1
    try:
        RationalSubspace(n, d, basis)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == canonical


def old_direction_cover(R):
    """The cover as it was first written: score each candidate's orthogonal
    direction by the multiples it covers."""
    if R == 0:
        return [PrimitiveDirection((1, 0))]
    scored = sorted((-2 * (R // max(abs(x) for x in ell.v)), orthogonal_primitive(ell.v))
                    for ell in enumerate_directions(2, R))
    return [v for _, v in scored]


@pytest.mark.parametrize("R", [0, 1, 2, 8, 32])
def test_direction_cover_equals_the_rotate_and_score_cover(R):
    assert direction_cover(R) == old_direction_cover(R)


@pytest.mark.parametrize("R", [0, 1, 2, 8, 32])
def test_direction_cover_hands_out_new_lists_of_shared_directions(R):
    # the cover is built once per radius; the sort below is the uncached
    # cover, kept as the oracle
    oracle = [PrimitiveDirection((1, 0))] if R == 0 else \
        sorted(enumerate_directions(2, R), key=lambda v: (-(R // max(map(abs, v.v))), v.v))
    first, second = direction_cover(R), direction_cover(R)
    assert first == second == oracle and first is not second
    assert all(a is b for a, b in zip(first, second))
    first.reverse()
    first.append(PrimitiveDirection((1, 0)))
    second.clear()
    assert direction_cover(R) == oracle
    with pytest.raises(TypeError):  # every float radius is refused, 0.0 included
        direction_cover(float(R))
    numpy_radius = direction_cover(np.int64(R))  # a numpy integer shares the int's cover
    assert numpy_radius == oracle and all(a is b for a, b in zip(numpy_radius, direction_cover(R)))


@pytest.mark.parametrize("K, n", [(2, 3), (6, 3), (3, 4)])
def test_hyperplane_cover_equals_the_deduplicated_cover(K, n):
    assert hyperplane_cover(K, n) == sorted({orthogonal_complement(v.v) for v in enumerate_directions(n, K)})


def test_direction_hash_is_by_value():
    """Equal directions built apart hash alike and are one dict key."""
    v, w = PrimitiveDirection((3, -2)), PrimitiveDirection((3, -2))
    assert v == w and v is not w and hash(v) == hash(w)
    assert primitive_reduce((-6, 4)) == v and hash(primitive_reduce((-6, 4))) == hash(v)
    cover = direction_cover(8)
    assert {v: 1, w: 2} == {v: 2} and len({*cover, *direction_cover(8)}) == len(cover)


def test_subspace_hash_is_by_value():
    A = canonicalize_subspace([(1, 0, -1), (0, 1, -1)], 2)
    B = RationalSubspace.parse(A.serialize())
    assert A == B and A is not B and hash(A) == hash(B) == hash((3, 2, A.basis))
    assert len({A, B, line((1, 2)), line((1, 2))}) == 2


# each refusal of the lattice module, with its typed error and the start of its message
@pytest.mark.parametrize("call, error, start", [
    (lambda: PrimitiveDirection((0, 0)), ZeroVector, "primitive direction must be nonzero"),
    (lambda: PrimitiveDirection((-1, 2)), ValueError, "sign not canonical: (-1, 2)"),
    (lambda: orthogonal_primitive((1, 2, 3)), DimensionMismatch, "orthogonal_primitive is a planar"),
    (lambda: enumerate_directions(2, 0), ValueError, "H must be >= 1"),
    (lambda: RationalSubspace(2, 2, ((1, 0), (0, 1))), ValueError, "need 1 <= d <= n-1, got d=2"),
    (lambda: canonicalize_subspace([], 1), RankMismatch, "no generators given"),
    (lambda: orthogonal_complement((0, 0, 0)), ZeroVector, "frequency must be nonzero"),
    (lambda: enumerate_grassmannian(2, 3, 0), ValueError, "H must be >= 1"),
    (lambda: direction_cover(-1), ValueError, "R must be >= 0"),
    (lambda: orthogonal_line((0, 0, 0)), ZeroVector, "frequency must be nonzero"),
    (lambda: integer_kernel([(1.5, 1)], 2), TypeError, "'float' object cannot be interpreted"),
    (lambda: row_hnf([(2.0, 1)], 2), TypeError, "'float' object cannot be interpreted"),
])
def test_lattice_refusals(call, error, start):
    with pytest.raises(error) as info:
        call()
    assert str(info.value).startswith(start)


# a radius whose (2H+1)^n candidate vectors cannot fit in memory is refused
# by name before the walk: direction_cover(10**7) once ran until it was
# killed; the walk itself is made to fail here, so a missed check fails fast
@pytest.mark.parametrize("call, radius, count", [
    (lambda: enumerate_directions(2, 10**12), 10**12, (2 * 10**12 + 1) ** 2),
    (lambda: enumerate_grassmannian(1, 2, 10**12), 10**12, (2 * 10**12 + 1) ** 2),
    (lambda: direction_cover(10**12), 10**12, (2 * 10**12 + 1) ** 2),
    (lambda: line_cover(10**12, 2), 10**12, (2 * 10**12 + 1) ** 2),
    (lambda: hyperplane_cover(10**9, 3), 10**9, (2 * 10**9 + 1) ** 3),
    (lambda: line_cover(10**9, 3), 10**9, (2 * 10**9 + 1) ** 3),
    (lambda: enumerate_directions(3000, 1), 1, "3^3000"),
    (lambda: enumerate_directions(10**5, 1), 1, "3^100000"),
])
def test_a_radius_past_memory_is_refused_before_the_walk(monkeypatch, call, radius, count):
    def walk(*args, **kwargs):
        raise AssertionError("the walk started")
    monkeypatch.setattr(lattice.itertools, "product", walk)
    with pytest.raises(CoverTooLarge) as info:
        call()
    assert str(info.value).startswith(f"radius {radius} in Z^")
    assert f" walks {count} candidate vectors" in str(info.value)


# an integer vector is read with operator.index: a float entry, even 2.0,
# was once truncated toward zero, so (1.5, 2) was silently the line (1, 2)
@pytest.mark.parametrize("v", [(1.5, 2), (2.0, 1), ("1", 2)])
def test_a_direction_must_have_integer_entries(v):
    with pytest.raises(TypeError):
        line(v)
    with pytest.raises(TypeError):
        canonicalize_subspace([v], 1)


@pytest.mark.parametrize("basis", [((1.0, 0.0),), ((1, 0.0),), (("1", "0"),)])
def test_the_checked_constructor_refuses_entries_that_are_not_integers(basis):
    # a float basis once built, equalled the line (1, 0) and serialized as
    # "1 2; 1.0 0.0", which parse refuses
    with pytest.raises(TypeError):
        RationalSubspace(2, 1, basis)


def test_the_checked_constructor_stores_python_integers():
    A = RationalSubspace(2, 1, ((np.int64(1), np.int64(2)),))
    assert A == line((1, 2)) and {type(x) for x in A.basis[0]} == {int}
    assert A.serialize() == "1 2; 1 2"


def test_parse_reads_a_line_with_extra_whitespace_and_refuses_others():
    assert RationalSubspace.parse("  1 2 ;\t1   -2 ") is line((1, -2))
    for text in ["1 2; 1 2; 0 1", "1 2; 1.0 2", "1 2;", "1; 1 2"]:
        with pytest.raises(ValueError):
            RationalSubspace.parse(text)


def test_numpy_integers_are_integers():
    assert line(np.array([2, 4])) == line((1, 2))
    assert PrimitiveDirection((1, 2)).dot(np.array([2, -1])) == 0
