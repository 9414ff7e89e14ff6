import json
import os
import re
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusradon.cli import main
from torusradon.errors import CorruptInput, DimensionMismatch, TorusRadonError
from torusradon.fields import random_field, to_samples
from torusradon.io import (
    _family_text,
    _parse_subspaces,
    _slice_filename,
    read_field,
    read_sinogram,
    write_csv,
    write_field,
    write_in_place,
    write_pgm,
    write_sinogram,
)
from torusradon.lattice import (RationalSubspace, canonicalize_subspace, direction_cover,
                               enumerate_grassmannian, line_cover)
from torusradon.sinogram import TorusSinogram
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


def _same_sinogram(a, b) -> bool:
    return (a.members == b.members and a.K == b.K and a.mean == b.mean
            and np.array_equal(a.values, b.values))


def test_a_directory_rewritten_with_another_family_reads_the_new_one(tmp_path, rng):
    # the per-family caches are keyed by the family: a read after the
    # directory holds another family, band and values returns those
    d = tmp_path / "sino"
    big = forward_sinogram(random_field(2, 6, rng), direction_cover(6))
    small = forward_sinogram(random_field(2, 4, rng), direction_cover(4))
    for g in (big, small, big):
        write_sinogram(g, d)
        for _ in range(2):
            assert _same_sinogram(read_sinogram(d), g)
    assert len(list(d.glob("slice_*.tfield"))) == len(big.members)


def test_a_corrupt_subspace_is_refused_on_every_read_until_mended(tmp_path, rng):
    # a refused parse is not cached: the same corrupt meta.json is refused
    # again, and once mended the directory reads
    g = forward_sinogram(random_field(2, 3, rng), direction_cover(3))
    d = tmp_path / "sino"
    write_sinogram(g, d)
    good = (d / "meta.json").read_text()
    text = g.members[-1].serialize()
    bad = good.replace(f'"{text}"', '"1 2; 2 0"')  # not saturated
    assert bad != good
    read_sinogram(d)
    for _ in range(2):
        (d / "meta.json").write_text(bad)
        with pytest.raises(CorruptInput, match="meta.json"):
            read_sinogram(d)
    (d / "meta.json").write_text(good)
    assert _same_sinogram(read_sinogram(d), g)


def test_the_per_family_caches_return_values_no_caller_can_change(tmp_path, rng):
    g = forward_sinogram(random_field(2, 3, rng), direction_cover(3))
    names, texts = _family_text(g.members)
    members = _parse_subspaces(texts)
    assert members == g.members and _family_text(g.members) == (names, texts)
    for cached in (names, texts, members):
        with pytest.raises(TypeError):
            cached[0] = cached[1]
        with pytest.raises(AttributeError):
            cached.append(cached[0])
    with pytest.raises(AttributeError):
        members[0].basis = ((1, 0),)
    assert _family_text(g.members) == (names, texts) and _parse_subspaces(texts) == g.members


def test_a_sinogram_reads_alike_through_a_symlink_and_a_relative_path(tmp_path, rng, monkeypatch):
    g = forward_sinogram(random_field(2, 3, rng), direction_cover(3))
    write_sinogram(g, tmp_path / "sino")
    direct = read_sinogram(tmp_path / "sino")
    (tmp_path / "link").symlink_to("sino")
    monkeypatch.chdir(tmp_path)
    for path in (tmp_path / "link", "link", "sino", "./sino/", Path("sino")):
        assert _same_sinogram(read_sinogram(path), direct)
    # a write through the link rewrites the directory it points to
    h = forward_sinogram(random_field(2, 2, rng), direction_cover(2))
    write_sinogram(h, "link")
    write_sinogram(h, "fresh")
    assert (tmp_path / "link").is_symlink() and _tree(tmp_path / "sino") == _tree(tmp_path / "fresh")
    assert _same_sinogram(read_sinogram("sino"), h)


def test_errors_name_the_file_by_its_full_path(tmp_path, rng):
    # files are opened relative to the directory's descriptor; a refusal
    # still names the file by the directory path it was given
    g = forward_sinogram(random_field(2, 2, rng), direction_cover(2))
    d = tmp_path / "sino"
    write_sinogram(g, d)
    path = d / _slice_filename(g.members[0])
    path.unlink()
    with pytest.raises(CorruptInput, match=f"^{re.escape(str(path))}: cannot read"):
        read_sinogram(d)
    with pytest.raises(CorruptInput, match=f"^{re.escape(str(tmp_path / 'missing' / 'meta.json'))}: "):
        read_sinogram(tmp_path / "missing")
    with pytest.raises(CorruptInput, match="NotADirectoryError"):
        read_sinogram(path.with_name("mean.txt"))
    write_sinogram(g, d)
    (d / "meta.json").unlink()
    (d / "meta.json").mkdir()
    with pytest.raises(IsADirectoryError) as info:
        write_sinogram(g, d)
    assert info.value.filename == str(d / "meta.json")


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


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_short_writes_give_the_same_bytes(tmp_path, rng, monkeypatch):
    # the writer loops until the kernel has taken every byte: with at most
    # 3 bytes per os.write, fresh files and files written over longer old
    # ones hold the bytes of a normal write
    f, image = random_field(2, 2, rng), rng.standard_normal((5, 7))
    g = forward_sinogram(random_field(2, 2, rng), direction_cover(2))

    def write_all(d):
        d.mkdir(exist_ok=True)
        write_field(f, d / "f.tfield")
        write_pgm(image, d / "i.pgm")
        write_sinogram(g, d / "sino")

    normal, fresh, over = tmp_path / "normal", tmp_path / "fresh", tmp_path / "over"
    write_all(normal)
    over.mkdir()
    write_field(random_field(2, 4, rng), over / "f.tfield")
    write_pgm(rng.standard_normal((9, 9)), over / "i.pgm")
    write_sinogram(forward_sinogram(random_field(2, 4, rng), direction_cover(4)), over / "sino")
    real_write, asked = os.write, []

    def short_write(fd, data):
        asked.append(len(data))
        return real_write(fd, data[:3])

    monkeypatch.setattr("torusradon.io.os.write", short_write)
    write_all(fresh)
    write_all(over)
    monkeypatch.undo()
    assert max(asked) > 3  # some writes were cut short
    assert _tree(fresh) == _tree(over) == _tree(normal)
    assert len(_tree(normal)) == 2 + 2 + len(g.members)


def _count_os_calls(monkeypatch, *names) -> dict[str, int]:
    """Count the calls torusradon.io makes to the named os functions until
    monkeypatch.undo()."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _real=getattr(os, name), **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(f"torusradon.io.os.{name}", counted)
    return counts


def test_a_sinogram_read_pays_fstat_three_times_and_two_reads_per_file(tmp_path, rng, monkeypatch):
    # meta.json, mean.txt and the first slice file are read at their fstat
    # size; every later slice file with one read sized by its block and the
    # read that confirms the end
    g = forward_sinogram(random_field(2, 6, rng), direction_cover(6))
    write_sinogram(g, tmp_path / "sino")
    counts = _count_os_calls(monkeypatch, "fstat", "read")
    back = read_sinogram(tmp_path / "sino")
    monkeypatch.undo()
    assert _same_sinogram(back, g)
    assert counts["fstat"] <= 3
    assert counts["read"] == 2 * (2 + len(g.members))


def test_a_rewrite_cuts_only_the_files_it_shrinks(tmp_path, rng, monkeypatch):
    # over a sinogram of the same family, band and mean no file is cut; over
    # the same family at K = 12 each file that shrinks is cut once: every
    # slice file and meta.json, and mean.txt if its old text was longer
    g = forward_sinogram(random_field(2, 6, rng), direction_cover(6))
    write_sinogram(g, tmp_path / "fresh")
    same = TorusSinogram(g.members, g.K, g.mean, rng.standard_normal(g.values.size))
    wide = forward_sinogram(random_field(2, 12, rng), direction_cover(6))
    for old, least in ((same, 0), (wide, len(g.members) + 1)):
        d = tmp_path / f"over_K{old.K}"
        write_sinogram(old, d)
        sizes = {p.name: p.stat().st_size for p in d.iterdir()}
        counts = _count_os_calls(monkeypatch, "ftruncate")
        write_sinogram(g, d)
        monkeypatch.undo()
        shrunk = sum(sizes[p.name] > p.stat().st_size for p in d.iterdir())
        assert counts["ftruncate"] == shrunk and least <= shrunk <= least + (old is wide)
        assert _tree(d) == _tree(tmp_path / "fresh")


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


def _read_pgm(path):
    """(image, min, max) of a P5 written by write_pgm, its linear scale undone."""
    _, comment, size, _, data = Path(path).read_bytes().split(b"\n", 4)
    lo, hi = (float(tok.partition(b"=")[2]) for tok in comment.split()[-2:])
    w, h = map(int, size.split())
    return np.frombuffer(data, ">u2").reshape(h, w) / 65535.0 * (hi - lo) + lo, lo, hi


def test_pgm_round_trip(tmp_path, rng):
    img = rng.standard_normal((12, 8))
    p = tmp_path / "img.pgm"
    write_pgm(img, p)
    back, lo, hi = _read_pgm(p)
    assert lo == img.min() and hi == img.max()
    assert np.max(np.abs(back - img)) <= (hi - lo) / 65535


def test_pgm_constant_image(tmp_path):
    p = tmp_path / "c.pgm"
    write_pgm(np.full((4, 4), 2.5), p)
    back, lo, hi = _read_pgm(p)
    assert lo == hi == 2.5
    assert np.all(back == 2.5)


def test_pgm_deterministic_bytes(tmp_path, rng):
    img = rng.standard_normal((6, 6))
    p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_pgm(img, p1)
    write_pgm(img, p2)
    assert p1.read_bytes() == p2.read_bytes()


def _levels(path) -> bytes:
    return Path(path).read_bytes().split(b"\n", 4)[4]


def test_pgm_of_samples_whose_range_passes_the_float_range(tmp_path, rng):
    # max - min passes the float range: the levels are those of the same
    # image scaled by 2^-4, where it does not, with no overflow warning
    img = rng.uniform(-1.0, 1.0, (6, 5)) * 1.7e308
    write_pgm(img, tmp_path / "big.pgm")
    write_pgm(img / 16, tmp_path / "small.pgm")
    levels = np.frombuffer(_levels(tmp_path / "big.pgm"), ">u2")
    assert levels.tobytes() == _levels(tmp_path / "small.pgm")
    assert levels[[img.argmin(), img.argmax()]].tolist() == [0, 65535]
    # the command line: a harmonic of amplitude 6e307 has samples in +-1.2e308
    assert main(["phantom", "--kind", "harmonic", "--params",
                 '{"frequencies": [[1, 0]], "amplitudes": [6e307]}', "--band", "2", "--grid", "8",
                 "--image", str(tmp_path / "h.pgm"), "--out", str(tmp_path / "h.tfield")]) == 0
    write_pgm(to_samples(read_field(tmp_path / "h.tfield"), 8).real / 16, tmp_path / "h16.pgm")
    assert _levels(tmp_path / "h.pgm") == _levels(tmp_path / "h16.pgm")
    assert len(set(np.frombuffer(_levels(tmp_path / "h.pgm"), ">u2"))) == 5


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_pgm_of_non_finite_samples_is_refused_before_any_file(tmp_path, capsys, bad):
    img = np.ones((3, 4))
    img[1, 2] = bad
    with pytest.raises(TorusRadonError, match="non-finite samples"):
        write_pgm(img, tmp_path / "x.pgm")
    assert not (tmp_path / "x.pgm").exists()
    # the harmonic's samples overflow to inf in to_samples, which numpy
    # reports; the command exits 2 and leaves neither the field nor the image
    with np.errstate(over="ignore"):
        code = main(["phantom", "--kind", "harmonic", "--params",
                     '{"frequencies": [[1, 0]], "amplitudes": [1e308]}', "--band", "2", "--grid", "8",
                     "--image", str(tmp_path / "h.pgm"), "--out", str(tmp_path / "h.tfield")])
    err = capsys.readouterr().err
    assert code == 2 and err.count("error: ") == 1 and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == []


def test_write_csv(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(p, "a,b", [(1.0, 2.5), (3.0, -0.125)])
    assert p.read_text() == "a,b\n1,2.5\n3,-0.125\n"


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
                                        ("real", "false"), ("real", 0), ("real", None),
                                        ("K", 4.0), ("real", 1)])
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


@pytest.mark.parametrize("head", [
    b'{"real": true, "n": 2, "K": 2}',                      # keys in another order
    b'  { "K" :2,\t"n":  2 , "real":true }  ',             # extra whitespace
])
def test_field_headers_that_spell_the_same_fields_are_read(tmp_path, rng, head):
    f = random_field(2, 2, rng, real=True)
    path = tmp_path / "f.tfield"
    write_field(f, path)
    path.write_bytes(head + b"\n" + path.read_bytes().partition(b"\n")[2])
    back = read_field(path)
    assert (back.n, back.K, back.real) == (2, 2, True) and np.array_equal(back.coeffs, f.coeffs)


@pytest.mark.parametrize("blob", [
    b'{"K": 0, "n": 2, "real": false}',                      # no newline
    b'',                                                     # zero bytes
])
def test_a_file_without_a_header_line_is_refused(tmp_path, blob):
    # the header is refused before any payload is looked at; also as a slice
    # file of a K = 0 sinogram, whose blocks are empty, so that a header
    # without its newline would otherwise pass as a whole slice file
    path = tmp_path / "f.tfield"
    path.write_bytes(blob)
    with pytest.raises(CorruptInput, match=f"^{re.escape(str(path))}: bad field header"):
        read_field(path)
    g = forward_sinogram(random_field(2, 0, np.random.default_rng(5)), direction_cover(2))
    write_sinogram(g, tmp_path / "sino")
    path = tmp_path / "sino" / _slice_filename(g.members[0])
    path.write_bytes(blob)
    with pytest.raises(CorruptInput, match=f"^{re.escape(str(path))}: bad field header"):
        read_sinogram(tmp_path / "sino")


@pytest.mark.parametrize("fault", ["bad header", "payload one value short"])
def test_a_bad_slice_after_good_ones_is_named(tmp_path, fault):
    # the 719 slice files read first share one header line, parsed once; the
    # refusal of the last still names that file
    g = forward_sinogram(random_field(2, 24, np.random.default_rng(5)), direction_cover(24))
    assert len(g.members) == 720
    d = tmp_path / "sino"
    write_sinogram(g, d)
    last = d / _slice_filename(g.members[-1])
    head, _, payload = last.read_bytes().partition(b"\n")
    if fault == "bad header":
        last.write_bytes(head.replace(b'"K": 24', b'"K": 24.0') + b"\n" + payload)
    else:
        last.write_bytes(head + b"\n" + payload[:-16])
    with pytest.raises(CorruptInput) as info:
        read_sinogram(d)
    assert str(info.value).startswith(f"{last}: ")


def test_a_slice_path_that_is_a_directory_is_refused(tmp_path, rng):
    # os.open reaches a directory; the read of it fails (EISDIR)
    g = forward_sinogram(random_field(2, 2, rng), direction_cover(2))
    write_sinogram(g, tmp_path / "sino")
    path = tmp_path / "sino" / _slice_filename(g.members[3])
    path.unlink()
    path.mkdir()
    with pytest.raises(CorruptInput, match=f"^{re.escape(str(path))}: cannot read"):
        read_sinogram(tmp_path / "sino")
    out = tmp_path / "r.tfield"
    assert main(["reconstruct", "--sinogram", str(tmp_path / "sino"), "--out", str(out)]) == 2
    assert not out.exists()


def test_a_slice_file_name_past_the_limit_is_refused_before_any_write(tmp_path):
    # the coordinate 3-plane of Q^60 names a 374-byte slice file: the refusal
    # makes no directory, and over an old sinogram deletes and rewrites nothing
    plane = canonicalize_subspace([tuple(int(j == i) for j in range(60)) for i in range(3)], 3)
    g = forward_sinogram(random_field(60, 0, np.random.default_rng(5), real=True), [plane])
    message = r"\(n=60, d=3\) subspace is 374 bytes, over the 255-byte limit"
    with pytest.raises(DimensionMismatch, match=message):
        write_sinogram(g, tmp_path / "fresh" / "sino")
    assert not (tmp_path / "fresh").exists()
    d = tmp_path / "sino"
    write_sinogram(forward_sinogram(random_field(2, 2, np.random.default_rng(5)), direction_cover(2)), d)
    before = {p: p.read_bytes() for p in sorted(d.rglob("*"))}
    with pytest.raises(DimensionMismatch, match=message):
        write_sinogram(g, d)
    assert {p: p.read_bytes() for p in sorted(d.rglob("*"))} == before


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


def _sinogram_k6(d, real=False):
    g = forward_sinogram(random_field(2, 6, np.random.default_rng(7), real=real), direction_cover(6))
    write_sinogram(g, d)
    return g


@pytest.mark.parametrize("member", [1, -1])
@pytest.mark.parametrize("extra", [1, -1])
def test_a_later_slice_file_a_byte_long_or_short_is_named(tmp_path, member, extra):
    # the sized read of a later slice file sees a length it did not ask for,
    # and the full parse gives the payload-length message
    g = _sinogram_k6(tmp_path / "sino")
    A = g.members[member]
    path = tmp_path / "sino" / _slice_filename(A)
    blob = path.read_bytes()
    path.write_bytes(blob + b"\0" if extra > 0 else blob[:-1])
    want = 16 * (g.blocks[A].stop - g.blocks[A].start)
    with pytest.raises(CorruptInput, match=f"^{re.escape(str(path))}: payload is {want + extra} bytes, want {want}$"):
        read_sinogram(tmp_path / "sino")


def test_a_long_tail_on_a_later_slice_file_is_read_in_few_calls(tmp_path, monkeypatch):
    # at K = 0 a slice file is its header line alone, so the sized read asks
    # for a few dozen bytes; the rest of a 1 MB tail is read at its fstat size
    g = forward_sinogram(random_field(2, 0, np.random.default_rng(5)), direction_cover(6))
    write_sinogram(g, tmp_path / "sino")
    path = tmp_path / "sino" / _slice_filename(g.members[-1])
    path.write_bytes(path.read_bytes() + bytes(1 << 20))
    counts = _count_os_calls(monkeypatch, "read")
    with pytest.raises(CorruptInput, match=f"^{re.escape(str(path))}: payload is {1 << 20} bytes, want 0$"):
        read_sinogram(tmp_path / "sino")
    monkeypatch.undo()
    assert counts["read"] <= 2 * (2 + len(g.members)) + 2


@pytest.mark.parametrize("member", [0, 1, -1])
@pytest.mark.parametrize("head", [b'{"n": 2, "K": 6, "real": false}',   # keys in another order
                                  b'{"real": true, "n": 2, "K": 6}'])   # flagged real
def test_slice_headers_spelled_another_way_are_read(tmp_path, member, head):
    # a header that is not the first file's bytes takes the full parse
    g = _sinogram_k6(tmp_path / "sino", real=True)
    path = tmp_path / "sino" / _slice_filename(g.members[member])
    path.write_bytes(head + b"\n" + path.read_bytes().partition(b"\n")[2])
    assert _same_sinogram(read_sinogram(tmp_path / "sino"), g)


@pytest.mark.parametrize("member", [1, -1])
def test_a_later_slice_sharing_a_real_first_header_is_checked_hermitian(tmp_path, member):
    # files whose header bytes equal the first file's take its "real" flag,
    # so their blocks are checked for Hermitian symmetry as the first one's is
    g = _sinogram_k6(tmp_path / "sino", real=True)
    for A, block in g.blocks.items():
        values = g.values[block] if A != g.members[member] else g.values[block] * 1j + 1e-3
        _block_file(tmp_path / "sino" / _slice_filename(A), 6, values, real=True)
    path = tmp_path / "sino" / _slice_filename(g.members[member])
    with pytest.raises(CorruptInput, match=f"^{re.escape(str(path))}: flagged real but"):
        read_sinogram(tmp_path / "sino")
