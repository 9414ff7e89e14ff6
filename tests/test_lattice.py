import itertools
import random
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from torusradon.errors import RankMismatch, ZeroVector
from torusradon.lattice import (
    PrimitiveDirection,
    RationalSubspace,
    canonicalize_subspace,
    direction_cover,
    direction_of,
    enumerate_directions,
    enumerate_grassmannian,
    frequency_band,
    hyperplane_cover,
    integer_kernel,
    line,
    line_cover,
    omega_k,
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


def test_omega_k_examples():
    got = omega_k((1, 2), 1, 2, 2)
    assert [A.basis for A in got] == [((2, -1),)]

    got = omega_k((1, 1, 1), 2, 3, 1)
    assert [A.basis for A in got] == [((1, 0, -1), (0, 1, -1))]

    got = omega_k((0, 0, 1), 1, 3, 1)
    assert sorted(A.basis[0] for A in got) == [(0, 1, 0), (1, -1, 0), (1, 0, 0), (1, 1, 0)]


def test_omega_k_zero_gives_full_grassmannian():
    assert omega_k((0, 0), 1, 2, 2) == enumerate_grassmannian(1, 2, 2)


def test_omega_k_orthogonality_exact():
    for k in [(3, -5), (7, 2)]:
        for A in omega_k(k, 1, 2, 8):
            assert A.contains_frequency(k)


def test_omega_k_hyperplane_singleton():
    k = (2, -3, 5)
    A = orthogonal_complement(k)
    assert omega_k(k, 2, 3, A.height) == [A]
    assert omega_k(k, 2, 3, A.height + 3) == [A]


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
    v = PrimitiveDirection((2, -1))
    assert PrimitiveDirection.parse(v.serialize()) == v
    A = canonicalize_subspace([(1, 0, -1), (0, 1, -1)], 2)
    assert A.serialize() == "2 3; 1 0 -1; 0 1 -1"
    assert RationalSubspace.parse(A.serialize()) == A


def test_line_direction_round_trip():
    v = primitive_reduce((4, -6))
    assert direction_of(line(v)) == v


def test_row_hnf_canonical_form():
    h = row_hnf([(2, 4, 6), (1, 1, 1)], 3)
    # echelon, positive pivots, above-pivot entries reduced
    assert h == [(1, 1, 1), (0, 2, 4)]


def test_line_of_a_direction_equals_the_checked_subspace():
    """line(v) skips the HNF and saturation checks for a direction; it must
    still be the value the checked constructor builds, hash included."""
    for v in [*direction_cover(32), *enumerate_directions(3, 4)]:
        A = line(v)
        checked = RationalSubspace(v.n, 1, (v.v,))
        assert A == checked and hash(A) == hash(checked)
        assert line(v) is A and line(list(v.v)) is A and line(tuple(-x for x in v.v)) is A


def test_direction_hash_is_by_value():
    """Equal directions built apart hash alike and are one dict key."""
    v, w = PrimitiveDirection((3, -2)), PrimitiveDirection.parse("3,-2")
    assert v == w and v is not w and hash(v) == hash(w)
    assert primitive_reduce((-6, 4)) == v and hash(primitive_reduce((-6, 4))) == hash(v)
    cover = direction_cover(8)
    assert {v: 1, w: 2} == {v: 2} and len({*cover, *direction_cover(8)}) == len(cover)


def test_subspace_hash_is_by_value():
    A = canonicalize_subspace([(1, 0, -1), (0, 1, -1)], 2)
    B = RationalSubspace.parse(A.serialize())
    assert A == B and A is not B and hash(A) == hash(B) == hash((3, 2, A.basis))
    assert len({A, B, line((1, 2)), line((1, 2))}) == 2
