import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusradon.errors import CorruptInput
from torusradon.fields import random_field
from torusradon.io import (
    read_field,
    read_pgm,
    read_sinogram,
    write_csv,
    write_field,
    write_pgm,
    write_sinogram,
)
from torusradon.lattice import direction_cover
from torusradon.transforms import forward_sinogram


def test_field_round_trip(tmp_path, rng):
    f = random_field(2, 3, rng, real=True)
    p = tmp_path / "f.tfield"
    write_field(f, p)
    g = read_field(p)
    assert g.n == f.n and g.K == f.K and g.real == f.real
    assert np.array_equal(g.coeffs, f.coeffs)


def test_field_file_layout(tmp_path):
    from torusradon.fields import field_from_coeffs

    f = field_from_coeffs(1, 1, {(-1,): 1 + 2j, (0,): 3.0, (1,): -4j})
    p = tmp_path / "f.tfield"
    write_field(f, p)
    blob = p.read_bytes()
    header, _, payload = blob.partition(b"\n")
    assert b'"K": 1' in header and b'"n": 1' in header
    vals = np.frombuffer(payload, dtype="<f8")
    # lexicographic order, interleaved (re, im): k=-1, 0, 1
    assert vals.tolist() == [1.0, 2.0, 3.0, 0.0, 0.0, -4.0]


def test_sinogram_round_trip(tmp_path, rng):
    K = 3
    cover = direction_cover(K)
    g = forward_sinogram(random_field(2, K, rng), cover)
    d = tmp_path / "sino"
    write_sinogram(g, d)
    assert (d / "meta.json").exists() and (d / "mean.txt").exists()
    back = read_sinogram(d)
    assert back.mean == g.mean
    assert back.subspaces == g.subspaces
    for A in g.subspaces:
        assert np.array_equal(back.slices[A].coeffs, g.slices[A].coeffs)


def test_pgm_round_trip(tmp_path, rng):
    img = rng.standard_normal((12, 8))
    p = tmp_path / "img.pgm"
    write_pgm(img, p)
    back, lo, hi = read_pgm(p)
    assert lo == img.min() and hi == img.max()
    assert np.max(np.abs(back - img)) <= (hi - lo) / 65535


def test_pgm_constant_image(tmp_path):
    p = tmp_path / "c.pgm"
    write_pgm(np.full((4, 4), 2.5), p)
    back, lo, hi = read_pgm(p)
    assert lo == hi == 2.5
    assert np.all(back == 2.5)


def test_pgm_deterministic_bytes(tmp_path, rng):
    img = rng.standard_normal((6, 6))
    p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_pgm(img, p1)
    write_pgm(img, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_write_csv(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(p, "a,b", [(1.0, 2.5), (3.0, -0.125)])
    assert p.read_text() == "a,b\n1,2.5\n3,-0.125\n"


PGM_IMAGE = np.arange(16.0).reshape(4, 4) / 7.0


@given(cut=st.integers(0, 200))
@settings(max_examples=200)
def test_pgm_truncation_parses_or_raises_corrupt_input(tmp_path_factory, cut):
    path = tmp_path_factory.mktemp("pgm") / "img.pgm"
    write_pgm(PGM_IMAGE, path)
    data = path.read_bytes()
    path.write_bytes(data[:cut])
    try:
        img, lo, hi = read_pgm(path)
    except CorruptInput:
        assert cut < len(data)
        return
    assert cut >= len(data) and np.allclose(img, PGM_IMAGE, atol=(hi - lo) / 65535)


@pytest.mark.parametrize("data", [
    b"P6\n# linear scale min=0 max=1\n1 1\n65535\n\x00\x00",   # magic
    b"P5\n# linear scale min=0\n1 1\n65535\n\x00\x00",         # max missing
    b"P5\n# linear scale min=0 max=nan\n1 1\n65535\n\x00\x00", # max not finite
    b"P5\n# linear scale min=0 max=1\n1 1\n0\n\x00\x00",       # maxval zero
    b"P5\n# linear scale min=0 max=1\n1\n65535\n\x00\x00",     # one dimension
    b"P5\n# linear scale min=0 max=1\n1 1\n65535\n\x00",        # odd payload
    b"P5\n# \xff\n1 1\n65535\n\x00\x00",                        # not ascii
])
def test_pgm_rejects_corrupt_bytes(tmp_path, data):
    path = tmp_path / "bad.pgm"
    path.write_bytes(data)
    with pytest.raises(CorruptInput):
        read_pgm(path)
    with pytest.raises(CorruptInput):
        read_pgm(tmp_path / "missing.pgm")
