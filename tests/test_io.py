import json
import os
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusradon.cli import main
from torusradon.errors import CorruptInput
from torusradon.fields import random_field
from torusradon.io import (
    _slice_filename,
    read_field,
    read_pgm,
    read_sinogram,
    write_csv,
    write_field,
    write_in_place,
    write_pgm,
    write_sinogram,
)
from torusradon.lattice import RationalSubspace, direction_cover, enumerate_grassmannian, line_cover
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
    assert back.members == g.members
    for A in g.members:
        assert np.array_equal(back.slices[A].coeffs, g.slices[A].coeffs)


def test_sinogram_rewrite_leaves_no_stale_slice_files(tmp_path, rng):
    # a smaller family written over a larger one: the files of the members
    # it lacks are deleted, so the directory holds exactly its slices
    f = random_field(2, 4, rng)
    write_sinogram(forward_sinogram(f, direction_cover(4)), tmp_path)
    g = forward_sinogram(f, direction_cover(2))
    write_sinogram(g, tmp_path)
    assert sorted(p.name for p in tmp_path.glob("slice_*.tfield")) == \
        sorted(_slice_filename(A) for A in g.members)
    assert len(list(tmp_path.glob("slice_*.tfield"))) == len(g.members) == 8
    back = read_sinogram(tmp_path)
    assert back.members == g.members and back.mean == g.mean
    assert np.array_equal(back.values, g.values)


def test_field_written_over_a_larger_field_equals_a_fresh_write(tmp_path, rng):
    # outputs are rewritten in place, then cut: no tail of the K = 4 file stays
    small = random_field(2, 2, rng)
    write_field(random_field(2, 4, rng), tmp_path / "over.tfield")
    write_field(small, tmp_path / "over.tfield")
    write_field(small, tmp_path / "fresh.tfield")
    assert (tmp_path / "over.tfield").read_bytes() == (tmp_path / "fresh.tfield").read_bytes()
    assert read_field(tmp_path / "over.tfield").K == 2


def test_sinogram_written_over_a_larger_one_equals_a_fresh_write(tmp_path, rng):
    f = random_field(2, 4, rng)
    write_sinogram(forward_sinogram(f, direction_cover(4)), tmp_path / "over")
    g = forward_sinogram(f, direction_cover(2))
    write_sinogram(g, tmp_path / "over")
    write_sinogram(g, tmp_path / "fresh")
    over, fresh = ({p.name: p.read_bytes() for p in d.iterdir()} for d in (tmp_path / "over", tmp_path / "fresh"))
    assert over["meta.json"] == fresh["meta.json"]  # 8 subspaces written over 24
    assert over == fresh


def test_new_file_mode_is_that_of_write_bytes(tmp_path):
    old = os.umask(0o027)
    try:
        write_in_place(tmp_path / "helper", b"x")
        (tmp_path / "path").write_bytes(b"x")
    finally:
        os.umask(old)
    assert (tmp_path / "helper").stat().st_mode == (tmp_path / "path").stat().st_mode
    assert (tmp_path / "helper").stat().st_mode & 0o777 == 0o666 & ~0o027


def test_non_regular_targets_are_written_and_never_cut(rng):
    # ftruncate on /dev/null raises EINVAL: only regular files are cut
    write_field(random_field(2, 2, rng), "/dev/null")
    write_pgm(rng.standard_normal((4, 4)), "/dev/null")
    write_in_place(os.devnull, "text\n")


@contextmanager
def _file_modes_apply():
    """Root is not bound by file modes: as root, the block runs with the
    effective uid of an unprivileged user (65534), which reaches files only
    by names relative to the working directory."""
    if os.geteuid() != 0:
        yield
        return
    os.seteuid(65534)
    try:
        yield
    finally:
        os.seteuid(0)


def test_read_only_file_is_refused(tmp_path, monkeypatch, capsys, rng):
    d = tmp_path / "ro"
    d.mkdir()
    d.chmod(0o755)
    monkeypatch.chdir(d)
    write_field(random_field(2, 2, rng), "r.tfield")
    before = Path("r.tfield").read_bytes()
    Path("r.tfield").chmod(0o444)
    with _file_modes_apply():
        with pytest.raises(PermissionError):
            write_field(random_field(2, 1, rng), "r.tfield")
        code = main(["phantom", "--kind", "harmonic", "--band", "2", "--grid", "8", "--out", "r.tfield"])
    assert code == 2 and "Permission denied" in capsys.readouterr().err
    assert Path("r.tfield").read_bytes() == before


@pytest.mark.parametrize("n, K, family", [
    (2, 4, direction_cover(4)),
    (3, 2, enumerate_grassmannian(2, 3, 1)),   # planes in T^3
    (3, 2, line_cover(2, 3)),                   # lines in T^3
    (2, 0, direction_cover(2)),                 # K = 0: the mean alone
])
def test_sinogram_files_hold_only_their_blocks(tmp_path, rng, n, K, family):
    g = forward_sinogram(random_field(n, K, rng), family)
    write_sinogram(g, tmp_path / "sino")
    assert json.loads((tmp_path / "sino" / "meta.json").read_text())["format"] == 2
    for A, block in g.blocks.items():
        head, _, payload = (tmp_path / "sino" / _slice_filename(A)).read_bytes().partition(b"\n")
        assert json.loads(head) == {"K": K, "n": n, "real": False}
        assert np.array_equal(np.frombuffer(payload, "<c16"), g.values[block])
    back = read_sinogram(tmp_path / "sino")
    assert back.members == g.members and back.mean == g.mean and back.K == g.K
    assert np.array_equal(back.values, g.values)


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


def _block_file(path, K: int, values, real: bool = False) -> None:
    """A slice file by hand: the field header, then the block's values."""
    header = json.dumps({"K": K, "n": 2, "real": real}, sort_keys=True).encode()
    path.write_bytes(header + b"\n" + np.asarray(values, "<c16").tobytes())


def _corrupt_sinogram(d, fault):
    """Write a small sinogram to d, then break it by `fault`."""
    g = forward_sinogram(random_field(2, 3, np.random.default_rng(5)), direction_cover(3))
    write_sinogram(g, d)
    meta = json.loads((d / "meta.json").read_text())
    A, block = next((A, b) for A, b in g.blocks.items() if b.stop > b.start)
    first = d / _slice_filename(A)
    if fault == "slice band differs from meta":
        write_field(random_field(2, 2, np.random.default_rng(6)), first)
    elif fault == "meta d differs from its subspaces":
        meta["d"] = 2
    elif fault == "duplicate subspaces in meta":
        meta["subspaces"].append(meta["subspaces"][0])
    elif fault == "payload one value short":
        _block_file(first, 3, g.values[block][:-1])
    elif fault == "payload one value long":
        _block_file(first, 3, np.append(g.values[block], 1.0))
    elif fault == "slice flagged real, not Hermitian":
        _block_file(first, 3, g.values[block] * 1j + 1e-3, real=True)
    elif fault == "dense slice directory":
        del meta["format"]
        for A in g.members:
            write_field(g.slices[A], d / _slice_filename(A))
    (d / "meta.json").write_text(json.dumps(meta))


SINOGRAM_FAULTS = ["slice band differs from meta", "meta d differs from its subspaces",
                   "duplicate subspaces in meta", "payload one value short",
                   "payload one value long", "slice flagged real, not Hermitian"]


@pytest.mark.parametrize("fault", SINOGRAM_FAULTS)
def test_read_sinogram_raises_corrupt_input(tmp_path, fault):
    _corrupt_sinogram(tmp_path / "sino", fault)
    with pytest.raises(CorruptInput):
        read_sinogram(tmp_path / "sino")


@pytest.mark.parametrize("key, value", [("K", 2.9), ("K", "2"), ("K", True), ("n", 2.0),
                                        ("real", "false"), ("real", 0), ("real", None)])
def test_field_header_fields_of_another_json_type_are_refused(tmp_path, rng, key, value):
    # n and K must be JSON integers (true is none) and real a JSON boolean;
    # nothing is cast, so "K": 2.9 never reads as K = 2
    path = tmp_path / "f.tfield"
    write_field(random_field(2, 2, rng, real=True), path)
    head, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(head) | {key: value}
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(CorruptInput, match=f"must be a JSON {'bool' if key == 'real' else 'int'}"):
        read_field(path)


@pytest.mark.parametrize("key, value", [("K", 3.0), ("K", "3"), ("n", True), ("d", 1.5)])
def test_meta_json_fields_of_another_json_type_are_refused(tmp_path, key, value):
    _corrupt_sinogram(tmp_path / "sino", None)
    meta = json.loads((tmp_path / "sino" / "meta.json").read_text()) | {key: value}
    (tmp_path / "sino" / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(CorruptInput, match="must be a JSON int"):
        read_sinogram(tmp_path / "sino")


def test_dense_slice_directory_is_refused_by_name(tmp_path):
    # the earlier format: no "format" in meta.json, one dense field per slice
    _corrupt_sinogram(tmp_path / "sino", "dense slice directory")
    with pytest.raises(CorruptInput, match="dense slice directories"):
        read_sinogram(tmp_path / "sino")


def test_read_sinogram_reads_slices_flagged_real(tmp_path, rng):
    for K in (3, 0):  # at K = 0 every block is empty
        g = forward_sinogram(random_field(2, K, rng, real=True), direction_cover(3))
        write_sinogram(g, tmp_path / f"sino{K}")
        for A, block in g.blocks.items():
            _block_file(tmp_path / f"sino{K}" / _slice_filename(A), K, g.values[block], real=True)
        back = read_sinogram(tmp_path / f"sino{K}")
        assert back.members == g.members and np.array_equal(back.values, g.values)


SMALL_SINOGRAM = forward_sinogram(random_field(2, 2, np.random.default_rng(3), real=True),
                                  direction_cover(2))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_damaged_sinogram_reads_or_raises_corrupt_input(tmp_path_factory, data):
    # truncate one file of the directory at any byte, or flip any one bit
    g, d = SMALL_SINOGRAM, tmp_path_factory.mktemp("sino")
    write_sinogram(g, d)
    path = d / data.draw(st.sampled_from(sorted(p.name for p in d.iterdir())))
    blob = bytearray(path.read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        del blob[data.draw(st.integers(0, len(blob) - 1), label="cut"):]
    else:
        bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
        blob[bit // 8] ^= 1 << bit % 8
    path.write_bytes(bytes(blob))
    try:
        back = read_sinogram(d)
    except CorruptInput:
        pass
    else:
        assert back.members == g.members and back.K == g.K and back.values.size == g.values.size
    assert main(["reconstruct", "--sinogram", str(d), "--out", str(d / "r.tfield")]) in (0, 2)


def test_read_sinogram_checks_meta_band_before_its_layout(tmp_path):
    # meta.json claims K = 400 over K = 4 slice files: the first slice file
    # refuses that band before a layout of its size is built
    d = tmp_path / "sino"
    write_sinogram(forward_sinogram(random_field(2, 4, np.random.default_rng(5)), direction_cover(4)), d)
    meta = json.loads((d / "meta.json").read_text())
    (d / "meta.json").write_text(json.dumps({**meta, "K": 400}))
    tracemalloc.start()
    try:
        with pytest.raises(CorruptInput, match="is not meta.json's"):
            read_sinogram(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, f"peak {peak / 1e6:.1f} MB before refusing the band"


def _rows(n, *rows):
    return f"{len(rows)} {n}; " + "; ".join(" ".join(map(str, r)) for r in rows)


SATURATED_WIDE_PLANE = _rows(3000, [1, 0, *(i % 7 - 3 for i in range(2998))], [0, 1, *(i % 5 - 2 for i in range(2998))])


@pytest.mark.parametrize("n, d, text, refusal", [
    # rows 2 e_i of Z^30: in HNF but not saturated. A gcd over the
    # C(30, 15) = 155,117,520 maximal minors would run for hours
    (30, 15, _rows(30, *([2 * (j == i) for j in range(30)] for i in range(15))), "saturated"),
    # n comes from meta.json unbounded: the check must not grow as n^3 (two
    # n x n integer kernels take minutes at n = 3000)
    (3000, 1, _rows(3000, [2] + [0] * 2999), "saturated"),
    # a saturated plane parses; its directory is refused for want of its slice file
    (3000, 2, SATURATED_WIDE_PLANE, "cannot read"),
])
def test_meta_subspaces_are_checked_at_once(tmp_path, n, d, text, refusal):
    start = time.perf_counter()
    if refusal == "saturated":
        with pytest.raises(ValueError):
            RationalSubspace.parse(text)
    else:
        assert RationalSubspace.parse(text).serialize() == text
    (tmp_path / "meta.json").write_text(json.dumps({"format": 2, "n": n, "d": d, "K": 0, "subspaces": [text]}))
    (tmp_path / "mean.txt").write_text("0 0\n")
    with pytest.raises(CorruptInput, match=refusal):
        read_sinogram(tmp_path)
    assert time.perf_counter() - start < 2


def test_read_sinogram_refuses_a_band_too_large_to_lay_out(tmp_path):
    # meta.json and every slice header claim K = 10**7 over K = 0 slice files:
    # numpy refuses the band's layout (petabytes) before touching memory,
    # and the reader names meta.json and the band instead of failing
    d = tmp_path / "sino"
    write_sinogram(forward_sinogram(random_field(2, 0, np.random.default_rng(5)), direction_cover(2)), d)
    meta = json.loads((d / "meta.json").read_text())
    (d / "meta.json").write_text(json.dumps({**meta, "K": 10**7}))
    for path in d.glob("slice_*.tfield"):
        head, payload = path.read_bytes().split(b"\n", 1)
        path.write_bytes(json.dumps(json.loads(head) | {"K": 10**7}).encode() + b"\n" + payload)
    with pytest.raises(CorruptInput, match=r"meta\.json: band \(n=2, K=10000000\) cannot be laid out"):
        read_sinogram(d)
    out = tmp_path / "r.tfield"
    assert main(["reconstruct", "--sinogram", str(d), "--method", "filtered", "--out", str(out)]) == 2
    assert not out.exists()


def _field_file(tmp_path, header, payload=b""):
    path = tmp_path / "f.tfield"
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    return path


def _sinogram_with_mean(tmp_path, text):
    d = tmp_path / "sino"
    write_sinogram(forward_sinogram(random_field(2, 1, np.random.default_rng(0), real=True),
                                    direction_cover(1)), d)
    if text is None:
        (d / "mean.txt").unlink()
    else:
        (d / "mean.txt").write_text(text)
    return d


# each refusal of the io module, with its typed error and the start of its
# message ({tmp} is the test's directory)
@pytest.mark.parametrize("call, error, start", [
    (lambda t: read_field(_field_file(t, {"K": 1, "n": 0, "real": False})), CorruptInput,
     "{tmp}/f.tfield: bad band n=0, K=1"),
    (lambda t: read_field(_field_file(t, {"K": 1, "n": 1, "real": True},
                                      np.array([1, 2, 3], "<c16").tobytes())),
     CorruptInput, "{tmp}/f.tfield: flagged real but coefficients are not Hermitian"),
    (lambda t: read_sinogram(_sinogram_with_mean(t, None)), CorruptInput, "{tmp}/sino/mean.txt: cannot read"),
    (lambda t: read_sinogram(_sinogram_with_mean(t, "nan 0\n")), CorruptInput,
     "{tmp}/sino/mean.txt: non-finite mean"),
    (lambda t: write_pgm(np.zeros(3), t / "x.pgm"), ValueError, "image must be two-dimensional"),
])
def test_io_refusals(tmp_path, call, error, start):
    with pytest.raises(error) as info:
        call(tmp_path)
    assert str(info.value).startswith(start.format(tmp=tmp_path))
