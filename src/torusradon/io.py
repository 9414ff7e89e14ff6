"""On-disk formats.

TorusField: one JSON header line {K, n, real} followed by little-endian
float64 (re, im) pairs in lexicographic frequency order. TorusSinogram: a
directory with meta.json, mean.txt, and one dense field file per subspace
named by its serialized basis; slices are densified on write and gathered
onto their supports on read. Images: 16-bit P5 PGM with the linear scaling
recorded in the header comment. All writers are pure functions of their
inputs, so identical runs produce identical bytes. The readers check what
they parse and raise CorruptInput on malformed or unreadable files.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .errors import CorruptInput, TorusRadonError
from .fields import TorusField
from .lattice import RationalSubspace
from .sinogram import TorusSinogram


def write_field(f: TorusField, path) -> None:
    header = json.dumps({"K": f.K, "n": f.n, "real": bool(f.real)}, sort_keys=True)
    flat = np.ascontiguousarray(f.coeffs.ravel(), dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        fh.write(flat.tobytes())


def read_field(path) -> TorusField:
    try:
        with open(path, "rb") as fh:
            head = fh.readline()
            raw = fh.read()
    except OSError as e:
        raise CorruptInput(f"{path}: cannot read: {e.strerror}") from e
    try:
        header = json.loads(head.decode("ascii"))
        n, K, real = int(header["n"]), int(header["K"]), bool(header["real"])
    except (ValueError, KeyError, TypeError) as e:
        raise CorruptInput(f"{path}: bad field header: {e!r}") from e
    if n < 1 or K < 0:
        raise CorruptInput(f"{path}: bad band n={n}, K={K}")
    if len(raw) != 16 * (2 * K + 1) ** n:
        raise CorruptInput(f"{path}: payload is {len(raw)} bytes, "
                           f"want {16 * (2 * K + 1) ** n} for n={n}, K={K}")
    arr = np.frombuffer(raw, dtype="<c16").astype(np.complex128)
    if not np.all(np.isfinite(arr)):
        raise CorruptInput(f"{path}: non-finite coefficients")
    try:
        return TorusField(n, K, arr.reshape((2 * K + 1,) * n), real=real)
    except ValueError as e:
        raise CorruptInput(f"{path}: {e}") from e


def _slice_filename(A: RationalSubspace) -> str:
    rows = "__".join("_".join(str(x) for x in r) for r in A.basis)
    return f"slice_{rows}.tfield"


def write_sinogram(g: TorusSinogram, directory) -> None:
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    meta = {
        "n": g.n,
        "d": g.d,
        "K": g.K,
        "subspaces": [A.serialize() for A in g.subspaces],
    }
    (d / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    (d / "mean.txt").write_text(f"{g.mean.real:.17g} {g.mean.imag:.17g}\n")
    for A in g.subspaces:
        write_field(g.slice(A), d / _slice_filename(A))


def read_sinogram(directory) -> TorusSinogram:
    d = Path(directory)
    try:
        meta = json.loads((d / "meta.json").read_text())
        n, dim, K = int(meta["n"]), int(meta["d"]), int(meta["K"])
        members = [RationalSubspace.parse(text) for text in meta["subspaces"]]
    except (OSError, ValueError, KeyError, TypeError, AttributeError, TorusRadonError) as e:
        raise CorruptInput(f"{d / 'meta.json'}: {e!r}") from e
    try:
        re, im = (d / "mean.txt").read_text().split()
        mean = complex(float(re), float(im))
    except OSError as e:
        raise CorruptInput(f"{d / 'mean.txt'}: cannot read: {e.strerror}") from e
    except ValueError as e:
        raise CorruptInput(f"{d / 'mean.txt'}: want two numbers: {e}") from e
    if not np.isfinite(mean):
        raise CorruptInput(f"{d / 'mean.txt'}: non-finite mean")
    slices = {A: read_field(d / _slice_filename(A)) for A in members}
    try:
        return TorusSinogram(n, dim, K, mean, slices)
    except ValueError as e:
        raise CorruptInput(f"{d}: {e}") from e


def write_pgm(image: np.ndarray, path) -> None:
    """16-bit grayscale P5 with linear min-max scaling noted in the comment."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("image must be two-dimensional")
    lo, hi = float(img.min()), float(img.max())
    if hi > lo:
        scaled = np.round((img - lo) / (hi - lo) * 65535.0)
    else:
        scaled = np.zeros_like(img)
    data = scaled.astype(">u2").tobytes()
    header = (f"P5\n# linear scale min={lo:.17g} max={hi:.17g}\n"
              f"{img.shape[1]} {img.shape[0]}\n65535\n")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(data)


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
    lines = [header]
    for row in rows:
        lines.append(",".join(f"{x:.17g}" if isinstance(x, float) else str(x) for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


def output_root(default: str = ".") -> Path:
    """Output directory root, overridable through TORUSRADON_OUT."""
    return Path(os.environ.get("TORUSRADON_OUT", default))
