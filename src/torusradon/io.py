"""On-disk formats.

TorusField: a JSON header line {K, n, real}, then little-endian complex128
values in lexicographic frequency order. TorusSinogram: a directory with
meta.json ("format": 2), mean.txt, and per member a slice file named by its
basis: the field header, then only the member's block of `g.values`, so
data off A^perp or at k = 0 cannot be written; earlier dense slice
directories are refused. Images: 16-bit P5 PGM with the linear scaling in
the header comment. All writers are pure functions of their inputs, so
identical runs give identical bytes, and all go through write_in_place:
four system calls per file (open, fstat, write, close), the new bytes
written over the old ones on a raw descriptor, never truncated to zero
first, because on ext4 (auto_da_alloc) a file truncated to zero is flushed
at its close; only a regular file longer than the new bytes is then cut.
Readers raise CorruptInput on malformed or unreadable files. A field file
is read whole on a raw descriptor (open, fstat, read to the end, close),
and a header line is parsed once per distinct line. In a sinogram the
first slice file is read that way and confirms the band; every later one is read
in four calls (open, one read sized by its block, the read that confirms
the end, close), and a file of that length that starts with the first
file's header bytes is taken without parsing; any other goes through the
full parse and checks. A sinogram directory is opened once per read or
write, and meta.json, mean.txt and every slice file are opened relative to
that descriptor; messages still name each file by its full path. What a
family costs in text is paid once per process: its slice file names and
serialized subspaces are cached per canonical family, and the subspaces a
meta.json lists are parsed once per distinct list. The code is POSIX-only
(dir_fd, O_DIRECTORY, ftruncate).
"""

from __future__ import annotations

import json
import os
import stat
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import CorruptInput, DimensionMismatch, TorusRadonError
from .fields import TorusField, is_hermitian
from .lattice import RationalSubspace
from .sinogram import TorusSinogram, canonical_family, layout

SINOGRAM_FORMAT = 2
NAME_MAX = 255  # bytes in one file name on common file systems


def write_in_place(path, data: bytes | str, dir_fd: int | None = None) -> None:
    """Write data (a str as UTF-8) to path (relative to the directory
    descriptor dir_fd, if given) with os.write on a raw descriptor, over
    the old bytes of an existing file: open, fstat, write, close, one write
    call unless the kernel writes short. Only a regular file whose old size
    exceeds the new data is then cut to length, so a same-length rewrite
    pays no ftruncate. A new file gets mode 0o666 & ~umask, as
    Path.write_bytes gives; targets that are not regular files, such as
    /dev/null, are never cut. A run killed before the cut can leave new
    bytes over an old tail; README "File formats" lists what the readers
    then refuse. No fsync."""
    if isinstance(data, str):
        data = data.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666, dir_fd=dir_fd)
    try:
        old = os.fstat(fd)
        done = os.write(fd, data)
        while done < len(data):  # the kernel wrote short
            done += os.write(fd, memoryview(data)[done:])
        if stat.S_ISREG(old.st_mode) and old.st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _header(n: int, K: int, real: bool) -> bytes:
    return json.dumps({"K": K, "n": n, "real": bool(real)}, sort_keys=True).encode("ascii") + b"\n"


def write_field(f: TorusField, path) -> None:
    write_in_place(path, _header(f.n, f.K, f.real) + np.asarray(f.coeffs, "<c16").tobytes())


def _typed(obj: dict, key: str, kind: type):
    """obj[key] if its JSON type is exactly kind (int or bool, so that true
    is no integer and "false" no boolean); TypeError otherwise."""
    value = obj[key]
    if type(value) is not kind:
        raise TypeError(f"{key} must be a JSON {kind.__name__}, got {value!r}")
    return value


@lru_cache(maxsize=8)  # every slice file of a sinogram has the same header bytes
def _header_fields(head: bytes) -> tuple[int, int, bool]:
    """(n, K, real) of a header line; exceptions are not cached."""
    header = json.loads(head.decode("ascii"))
    return _typed(header, "n", int), _typed(header, "K", int), _typed(header, "real", bool)


def _read_bytes(path, dir_fd: int | None = None, size: int | None = None) -> bytes:
    """The whole file at path (relative to dir_fd, if given), read on a raw
    descriptor. Without size the first read is sized by fstat, so nothing
    past the file size plus one byte is asked for; with size (the expected
    length plus one) there is no fstat, and a file longer than expected has
    its rest read at its fstat size. Either way a read of b"" confirms the
    end. OSError as os raises it."""
    fd = os.open(path, os.O_RDONLY, dir_fd=dir_fd)
    try:
        if size is None:
            size = os.fstat(fd).st_size + 1
        blob = os.read(fd, size)  # EISDIR for a directory
        while chunk := os.read(fd, size):
            blob += chunk
            size = os.fstat(fd).st_size + 1
    finally:
        os.close(fd)
    return blob


def _read_file(path, dir_fd: int | None = None, name=None, size: int | None = None) -> bytes:
    """The bytes of a field or slice file (see _read_bytes); with dir_fd,
    the file opened is name, relative to that directory descriptor. An
    unreadable file is CorruptInput naming path."""
    try:
        return _read_bytes(path if dir_fd is None else name, dir_fd, size)
    except OSError as e:
        raise CorruptInput(f"{path}: cannot read: {e.strerror}") from e


def _parse_values(path, blob: bytes) -> tuple[int, int, bool, bytes]:
    """(n, K, real, payload bytes) of a field or slice file's bytes, its
    header checked; messages name path."""
    head, newline, raw = blob.partition(b"\n")
    try:
        if not newline:
            raise ValueError("no header line")
        n, K, real = _header_fields(head)
    except (ValueError, KeyError, TypeError) as e:
        raise CorruptInput(f"{path}: bad field header: {e!r}") from e
    if n < 1 or K < 0:
        raise CorruptInput(f"{path}: bad band n={n}, K={K}")
    return n, K, real, raw


def _finite(path, raw: bytes, size: int) -> np.ndarray:
    if len(raw) != 16 * size:
        raise CorruptInput(f"{path}: payload is {len(raw)} bytes, want {16 * size}")
    arr = np.frombuffer(raw, dtype="<c16").astype(np.complex128)
    if not np.all(np.isfinite(arr)):
        raise CorruptInput(f"{path}: non-finite coefficients")
    return arr


def read_field(path) -> TorusField:
    n, K, real, raw = _parse_values(path, _read_file(path))
    arr = _finite(path, raw, (2 * K + 1) ** n)
    if real and not is_hermitian(arr):
        raise CorruptInput(f"{path}: flagged real but coefficients are not Hermitian")
    return TorusField(n, K, arr.reshape((2 * K + 1,) * n), real=real)


def _slice_filename(A: RationalSubspace) -> str:
    return "slice_" + "__".join("_".join(map(str, row)) for row in A.basis) + ".tfield"


@lru_cache(maxsize=16)
def _family_text(members: tuple) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(slice file names, serialize() strings) of a canonical family, in
    member order, built once per family."""
    return tuple(map(_slice_filename, members)), tuple(A.serialize() for A in members)


@lru_cache(maxsize=16)
def _parse_subspaces(texts: tuple) -> tuple[RationalSubspace, ...]:
    """The subspaces a meta.json lists, in its order, parsed once per
    distinct list; each string takes every check of RationalSubspace.parse,
    and exceptions are not cached."""
    return tuple(map(RationalSubspace.parse, texts))


def write_sinogram(g: TorusSinogram, directory) -> None:
    """Write g into the directory; slice files of members g lacks, left by
    an earlier sinogram, are deleted first, so the files name g's family.
    A member whose slice file name would pass NAME_MAX is refused with
    DimensionMismatch before anything is made, deleted or written."""
    names, texts = _family_text(g.members)
    for A, name in zip(g.members, names):
        if len(name) > NAME_MAX:
            raise DimensionMismatch(f"the slice file name of an (n={A.n}, d={A.d}) subspace is "
                                    f"{len(name)} bytes, over the {NAME_MAX}-byte limit: "
                                    "the sinogram format cannot store it")
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    fd = os.open(d, os.O_RDONLY | os.O_DIRECTORY)
    try:
        listed = {name for name in os.listdir(fd) if name.startswith("slice_") and name.endswith(".tfield")}
        for stale in listed.difference(names):
            os.unlink(stale, dir_fd=fd)
        meta = {"format": SINOGRAM_FORMAT, "n": g.n, "d": g.d, "K": g.K, "subspaces": list(texts)}
        write_in_place("meta.json", json.dumps(meta, sort_keys=True, indent=2) + "\n", fd)
        write_in_place("mean.txt", f"{g.mean.real:.17g} {g.mean.imag:.17g}\n", fd)
        header = _header(g.n, g.K, False)
        raw = g.values.astype("<c16", copy=False).tobytes()
        offsets = layout(g.members, g.K)[1].tolist()
        for name, lo, hi in zip(names, offsets, offsets[1:]):
            write_in_place(name, header + raw[16 * lo : 16 * hi], fd)
    except OSError as e:  # name the file by its full path, as a call on that path would
        if isinstance(e.filename, str):
            e.filename = os.path.join(d, e.filename)
        raise
    finally:
        os.close(fd)


def read_sinogram(directory) -> TorusSinogram:
    """Each slice file is checked for its band and its block's length, then
    all values in one pass; no layout is built before a file confirms K."""
    d = Path(directory)
    try:
        fd = os.open(d, os.O_RDONLY | os.O_DIRECTORY)
    except OSError as e:
        raise CorruptInput(f"{d / 'meta.json'}: {e!r}") from e
    try:
        return _read_sinogram_at(d, fd)
    finally:
        os.close(fd)


def _read_sinogram_at(d: Path, fd: int) -> TorusSinogram:
    """read_sinogram of the directory d, open as the descriptor fd."""
    try:
        meta = json.loads(_read_bytes("meta.json", fd).decode())
        n, dim, K = (_typed(meta, key, int) for key in ("n", "d", "K"))
        members = _parse_subspaces(tuple(meta["subspaces"]))
    except (OSError, ValueError, KeyError, TypeError, AttributeError, TorusRadonError) as e:
        raise CorruptInput(f"{d / 'meta.json'}: {e!r}") from e
    if meta.get("format") != SINOGRAM_FORMAT:
        raise CorruptInput(f"{d / 'meta.json'}: format {meta.get('format')!r} is not {SINOGRAM_FORMAT}; "
                           "the dense slice directories of earlier versions are not read")
    if K < 0 or len(set(members)) != len(members) or {(A.n, A.d) for A in members} != {(n, dim)}:
        raise CorruptInput(f"{d / 'meta.json'}: need K >= 0 and 1+ distinct (n={n}, d={dim}) subspaces")
    try:
        re, im = _read_bytes("mean.txt", fd).decode().split()
        mean = complex(float(re), float(im))
    except OSError as e:
        raise CorruptInput(f"{d / 'mean.txt'}: cannot read: {e.strerror}") from e
    except ValueError as e:
        raise CorruptInput(f"{d / 'mean.txt'}: want two numbers: {e}") from e
    if not np.isfinite(mean):
        raise CorruptInput(f"{d / 'mean.txt'}: non-finite mean")
    members = canonical_family(members)
    payloads, flagged = [], []
    prefix = os.path.join(d, "")  # d and a separator: the paths join as os.path.join does
    header = b""  # the first slice file's header line, once it has confirmed the band
    for i, name in enumerate(_family_text(members)[0]):
        path = prefix + name
        if header:
            lo, hi = offsets[i : i + 2]
            want = len(header) + 16 * (hi - lo)
            blob = _read_file(path, fd, name, want + 1)
            if len(blob) == want and blob.startswith(header):  # its fields are checked already
                payloads.append(blob[len(header):])
                flagged += [(path, lo, hi)] * first_real
                continue
        else:
            blob = _read_file(path, fd, name)
        sn, sK, real, raw = _parse_values(path, blob)
        if (sn, sK) != (n, K):
            raise CorruptInput(f"{path}: band (n={sn}, K={sK}) is not meta.json's (n={n}, K={K})")
        if not header:  # built only once a slice file has confirmed meta.json's band
            try:
                offsets = layout(members, K)[1].tolist()
            except (MemoryError, ValueError) as e:  # numpy refuses a huge band before touching memory
                raise CorruptInput(f"{d / 'meta.json'}: band (n={n}, K={K}) cannot be laid out: {e}") from e
            header, first_real = blob[: len(blob) - len(raw)], real
        lo, hi = offsets[i : i + 2]
        if len(raw) != 16 * (hi - lo):
            raise CorruptInput(f"{path}: payload is {len(raw)} bytes, want {16 * (hi - lo)}")
        payloads.append(raw)
        flagged += [(path, lo, hi)] * real
    values = _finite(d, b"".join(payloads), offsets[-1])
    for path, lo, hi in flagged:
        if not is_hermitian(values[lo:hi]):
            raise CorruptInput(f"{path}: flagged real but coefficients are not Hermitian")
    return TorusSinogram(members, K, mean, values)


def write_pgm(image: np.ndarray, path) -> None:
    """16-bit grayscale P5 with linear min-max scaling noted in the comment.
    An image with a non-finite sample has no such scale: TorusRadonError,
    before the file is opened."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("image must be two-dimensional")
    if not np.all(np.isfinite(img)):
        raise TorusRadonError(f"{path}: the image has non-finite samples, so no linear scale fits it")
    lo, hi = float(img.min()), float(img.max())
    # in halves where hi - lo passes the float range; halving is exact, and
    # every other image is scaled by (img - lo) / (hi - lo) itself
    h = 1.0 if np.isfinite(hi - lo) else 0.5
    scaled = np.round((h * img - h * lo) / (h * hi - h * lo) * 65535.0) if hi > lo else np.zeros_like(img)
    header = (f"P5\n# linear scale min={lo:.17g} max={hi:.17g}\n"
              f"{img.shape[1]} {img.shape[0]}\n65535\n")
    write_in_place(path, header.encode("ascii") + scaled.astype(">u2").tobytes())


def write_csv(path, header: str, rows) -> None:
    lines = [",".join(f"{x:.17g}" if isinstance(x, float) else str(x) for x in row) for row in rows]
    write_in_place(path, "\n".join([header, *lines]) + "\n")


def output_root() -> Path:
    """Output directory root: TORUSRADON_OUT, or the working directory."""
    return Path(os.environ.get("TORUSRADON_OUT", "."))
