"""On-disk formats.

TorusField: a JSON header line {K, n, real}, then little-endian complex128
values in lexicographic frequency order. TorusSinogram: a directory with
meta.json ("format": 2), mean.txt, and per member a slice file named by its
basis: the field header, then only the member's block of `g.values`, so
data off A^perp or at k = 0 cannot be written; earlier dense slice
directories are refused. Images: 16-bit P5 PGM with the linear scaling in
the header comment. All writers are pure functions of their inputs, so
identical runs give identical bytes, and all go through write_in_place:
an existing file is overwritten and then cut to length, never truncated
to zero first, because on ext4 (auto_da_alloc) a file truncated to zero
is flushed at its close. Readers raise CorruptInput on malformed or
unreadable files.
"""

from __future__ import annotations

import json
import os
import stat
from pathlib import Path

import numpy as np

from .errors import CorruptInput, TorusRadonError
from .fields import TorusField, is_hermitian
from .lattice import RationalSubspace
from .sinogram import TorusSinogram, canonical_family, layout

SINOGRAM_FORMAT = 2


def write_in_place(path, data: bytes | str) -> None:
    """Write data (a str as UTF-8) to path in one write, over the old bytes
    of an existing file, then cut a regular file to the new length.
    A new file gets mode 0o666 & ~umask, as Path.write_bytes gives; targets
    that are not regular files, such as /dev/null, are never cut. A run
    killed before the cut can leave new bytes over an old tail; README
    "File formats" lists what the readers then refuse. No fsync, as with
    open(path, "wb")."""
    if isinstance(data, str):
        data = data.encode()
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


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


def _read_values(path) -> tuple[int, int, bool, bytes]:
    """(n, K, real, payload bytes) of a field or slice file, its header checked."""
    try:
        with open(path, "rb") as fh:
            head = fh.readline()
            raw = fh.read()
    except OSError as e:
        raise CorruptInput(f"{path}: cannot read: {e.strerror}") from e
    try:
        header = json.loads(head.decode("ascii"))
        n, K, real = _typed(header, "n", int), _typed(header, "K", int), _typed(header, "real", bool)
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
    n, K, real, raw = _read_values(path)
    arr = _finite(path, raw, (2 * K + 1) ** n)
    if real and not is_hermitian(arr):
        raise CorruptInput(f"{path}: flagged real but coefficients are not Hermitian")
    return TorusField(n, K, arr.reshape((2 * K + 1,) * n), real=real)


def _slice_filename(A: RationalSubspace) -> str:
    return "slice_" + "__".join("_".join(map(str, row)) for row in A.basis) + ".tfield"


def write_sinogram(g: TorusSinogram, directory) -> None:
    """Write g into the directory; slice files of members g lacks, left by
    an earlier sinogram, are deleted first, so the files name g's family."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    names = {A: _slice_filename(A) for A in g.members}
    for stale in {p.name for p in d.glob("slice_*.tfield")} - set(names.values()):
        (d / stale).unlink()
    meta = {"format": SINOGRAM_FORMAT, "n": g.n, "d": g.d, "K": g.K,
            "subspaces": [A.serialize() for A in g.members]}
    write_in_place(d / "meta.json", json.dumps(meta, sort_keys=True, indent=2) + "\n")
    write_in_place(d / "mean.txt", f"{g.mean.real:.17g} {g.mean.imag:.17g}\n")
    header = _header(g.n, g.K, False)
    for A, block in g.blocks.items():
        write_in_place(os.path.join(d, names[A]), header + g.values[block].astype("<c16").tobytes())


def read_sinogram(directory) -> TorusSinogram:
    """Each slice file is checked for its band and its block's length, then
    all values in one pass; no layout is built before a file confirms K."""
    d = Path(directory)
    try:
        meta = json.loads((d / "meta.json").read_text())
        n, dim, K = (_typed(meta, key, int) for key in ("n", "d", "K"))
        members = [RationalSubspace.parse(text) for text in meta["subspaces"]]
    except (OSError, ValueError, KeyError, TypeError, AttributeError, TorusRadonError) as e:
        raise CorruptInput(f"{d / 'meta.json'}: {e!r}") from e
    if meta.get("format") != SINOGRAM_FORMAT:
        raise CorruptInput(f"{d / 'meta.json'}: format {meta.get('format')!r} is not {SINOGRAM_FORMAT}; "
                           "the dense slice directories of earlier versions are not read")
    if K < 0 or len(set(members)) != len(members) or {(A.n, A.d) for A in members} != {(n, dim)}:
        raise CorruptInput(f"{d / 'meta.json'}: need K >= 0 and 1+ distinct (n={n}, d={dim}) subspaces")
    try:
        re, im = (d / "mean.txt").read_text().split()
        mean = complex(float(re), float(im))
    except OSError as e:
        raise CorruptInput(f"{d / 'mean.txt'}: cannot read: {e.strerror}") from e
    except ValueError as e:
        raise CorruptInput(f"{d / 'mean.txt'}: want two numbers: {e}") from e
    if not np.isfinite(mean):
        raise CorruptInput(f"{d / 'mean.txt'}: non-finite mean")
    members = canonical_family(members)
    payloads, flagged = [], []
    for i, path in enumerate(d / _slice_filename(A) for A in members):
        sn, sK, real, raw = _read_values(path)
        if (sn, sK) != (n, K):
            raise CorruptInput(f"{path}: band (n={sn}, K={sK}) is not meta.json's (n={n}, K={K})")
        if i == 0:  # built only once a slice file has confirmed meta.json's band
            try:
                offsets = layout(members, K)[1].tolist()
            except (MemoryError, ValueError) as e:  # numpy refuses a huge band before touching memory
                raise CorruptInput(f"{d / 'meta.json'}: band (n={n}, K={K}) cannot be laid out: {e}") from e
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
    """16-bit grayscale P5 with linear min-max scaling noted in the comment."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("image must be two-dimensional")
    lo, hi = float(img.min()), float(img.max())
    scaled = np.round((img - lo) / (hi - lo) * 65535.0) if hi > lo else np.zeros_like(img)
    header = (f"P5\n# linear scale min={lo:.17g} max={hi:.17g}\n"
              f"{img.shape[1]} {img.shape[0]}\n65535\n")
    write_in_place(path, header.encode("ascii") + scaled.astype(">u2").tobytes())


def read_pgm(path) -> tuple[np.ndarray, float, float]:
    """Read back a P5 written by write_pgm: (scaled array, min, max).
    Raises CorruptInput on a malformed, truncated or unreadable file."""
    try:
        magic, comment, size, maxval, data = Path(path).read_bytes().split(b"\n", 4)
        if magic != b"P5":
            raise ValueError("not a P5 PGM")
        parts = dict(tok.split("=") for tok in comment.decode("ascii").replace("#", "").split()
                     if "=" in tok)
        lo, hi = float(parts["min"]), float(parts["max"])
        w, h = (int(t) for t in size.split())
        maxval = int(maxval)
        if not (np.isfinite(lo) and np.isfinite(hi) and 0 < maxval < 65536):
            raise ValueError(f"bad scale min={lo}, max={hi} or maxval={maxval}")
        raw = np.frombuffer(data, dtype=">u2").reshape(h, w)
    except OSError as e:
        raise CorruptInput(f"{path}: cannot read: {e.strerror}") from e
    except (ValueError, KeyError, UnicodeDecodeError) as e:
        raise CorruptInput(f"{path}: bad PGM: {e!r}") from e
    img = raw.astype(np.float64) / maxval * (hi - lo) + lo if hi > lo else np.full((h, w), lo)
    return img, lo, hi


def write_csv(path, header: str, rows) -> None:
    lines = [",".join(f"{x:.17g}" if isinstance(x, float) else str(x) for x in row) for row in rows]
    write_in_place(path, "\n".join([header, *lines]) + "\n")


def output_root() -> Path:
    """Output directory root: TORUSRADON_OUT, or the working directory."""
    return Path(os.environ.get("TORUSRADON_OUT", "."))
