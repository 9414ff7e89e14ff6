"""The four benchmark workloads and the checks made apart from the program.

Each workload builds its covers and weights in `setup` and runs one
closed-loop operation per call of `operation(i, tr, timed)`: inputs come
from (seed, i), the calls into torusradon run inside `timed()` (which
collects garbage first and adds the elapsed time), and every output is then
checked against figures the benchmark computes itself: its own integer dot
products for the support rule, its own gathers and weighted averages, its
own Tikhonov multiplier, chord formula, Bessel-function disk coefficients
(J1 by its own quadrature), `.tfield` parser and PGM reader. No check
compares against a stored copy of the program's earlier output.
`operation` returns (attempted, failed).
"""

from __future__ import annotations

import functools
import gc
import hashlib
import io as _io
import json
import math
import time
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import torusradon as T
from torusradon import cli, experiments
from torusradon.experiments import add_noise


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's own figure."""


def require(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def require_close(got: np.ndarray, want: np.ndarray, tol: float, what: str) -> None:
    scale = max(1.0, float(np.max(np.abs(want))))
    err = float(np.max(np.abs(got - want))) / scale
    require(err <= tol, f"{what}: relative error {err:.3e} > {tol:.0e}")


class Stopwatch:
    """Sums the time spent inside `with timed():` blocks; each block starts
    with gc.collect(), outside the timing."""

    def __init__(self):
        self.seconds = 0.0

    @contextmanager
    def __call__(self):
        gc.collect()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds += time.perf_counter() - start


class Band:
    """The frequency band |k|_inf <= K of T^n, flattened in the C order of
    the program's dense (2K+1)^n arrays, with the support rule evaluated by
    the benchmark's own integer dot products."""

    def __init__(self, n: int, K: int):
        self.n, self.K = n, K
        axes = [np.arange(-K, K + 1, dtype=np.int64)] * n
        self.freqs = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        self.center = len(self.freqs) // 2
        self.bracket_sq = 1.0 + np.sum(self.freqs.astype(np.float64) ** 2, axis=1)
        self._masks: dict[tuple, np.ndarray] = {}

    @property
    def shape(self) -> tuple[int, ...]:
        return (2 * self.K + 1,) * self.n

    def support(self, basis) -> np.ndarray:
        """Frequencies orthogonal to every basis row (A-perp on the band)."""
        mask = self._masks.get(basis)
        if mask is None:
            rows = np.array(basis, dtype=np.int64)
            mask = np.all(self.freqs @ rows.T == 0, axis=1)
            self._masks[basis] = mask
        return mask

    def usable_cells(self, g) -> int:
        """Cells the support rule allows: A-perp on the band with k != 0."""
        return sum(int(self.support(A.basis).sum()) - 1 for A in g.slices)

    def check_support(self, g, what: str) -> None:
        for A, f in g.slices.items():
            off = ~self.support(A.basis)
            require(not np.any(f.coeffs.ravel()[off]),
                    f"{what}: nonzero coefficient off A-perp for {A.serialize()}")

    def weighted_gather(self, g, weight_sq=lambda A: 1.0) -> np.ndarray:
        """sum_A w^2 g^(k, A) / sum_A w^2 over the members orthogonal to k,
        with the shared mean at k = 0; for hyperplane data each k != 0 has
        one member, so this is the gather g^_{A(k)}(k)."""
        num = np.zeros(len(self.freqs), dtype=np.complex128)
        den = np.zeros(len(self.freqs))
        for A, f in g.slices.items():
            mask = self.support(A.basis)
            w2 = weight_sq(A)
            num[mask] += w2 * f.coeffs.ravel()[mask]
            den[mask] += w2
        require(np.all(den > 0), "some band frequency has no orthogonal member")
        num[self.center], den[self.center] = g.mean, 1.0
        return (num / den).reshape(self.shape)

    def data_norm(self, g) -> float:
        """H^0 data norm under the canonical rule: the mean counts once."""
        total = abs(g.mean) ** 2
        for f in g.slices.values():
            total += float(np.sum(np.abs(f.coeffs) ** 2))
        return math.sqrt(total)

    def tikhonov_factor(self, s_minus_r: float, alpha: float) -> np.ndarray:
        return (1.0 / (1.0 + alpha * self.bracket_sq ** s_minus_r)).reshape(self.shape)


def bessel_j1(x: np.ndarray) -> np.ndarray:
    """J1(x) = (1/2pi) int_0^2pi cos(tau - x sin tau) dtau by the periodic
    trapezoid rule, which converges geometrically once the node count
    exceeds |x| (here |x| < 40)."""
    tau = 2 * np.pi * np.arange(256) / 256
    return np.mean(np.cos(tau[None, :] - np.asarray(x)[:, None] * np.sin(tau)[None, :]), axis=1)


def count_cells(tr, band: Band, g) -> None:
    tr.count("sinogram.stored_cells", sum(f.coeffs.size for f in g.slices.values()))
    tr.count("sinogram.usable_cells", band.usable_cells(g))


def random_bumps(rng) -> list[dict]:
    return [{"center": [float(c) for c in rng.uniform(0.15, 0.85, 2)],
             "width": float(rng.uniform(0.03, 0.08)),
             "amplitude": float(rng.uniform(0.5, 1.5))}
            for _ in range(int(rng.integers(3, 6)))]


class Workload:
    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir

    def rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, i])


class PlanarK32(Workload):
    """T^2 at K=32: phantom -> forward -> noise -> four reconstructions."""

    K, GRID = 32, 128

    def setup(self, tr) -> None:
        with tr.span("lattice.cover"):
            self.cover = T.direction_cover(self.K)
        with tr.span("sinogram.weight"):
            self.w = T.canonical_weight(self.cover, self.K)
        self.band = Band(2, self.K)

    def operation(self, i, tr, timed):
        rng = self.rng(i)
        bumps = random_bumps(rng)
        eps = float(10.0 ** rng.uniform(-3, -1))
        noise_seed = int(rng.integers(2**31))
        alpha = math.sqrt(eps)
        with timed():
            with tr.span("phantoms.build"):
                f = T.phantom("multi-bump", {"bumps": bumps}, self.K, self.GRID).field
            with tr.span("transforms.forward"):
                g0 = T.forward_sinogram(f, self.cover)
            with tr.span("experiments.noise"):
                g = add_noise(g0, eps, 0.0, noise_seed)
            with tr.span("inversion.filtered"):
                rec_f = T.invert_filtered(g, self.w)
            with tr.span("inversion.normalized"):
                rec_n = T.adjoint_normalized(g, self.w)
            with tr.span("inversion.sum"):
                rec_s = T.invert_sum(g.without_mean())
            with tr.span("regularization.tikhonov"):
                rec_t = T.tikhonov_reconstruct(g, 0.0, 1.0, alpha)
        if tr.enabled:
            count_cells(tr, self.band, g)
        b = self.band
        b.check_support(g0, "clean data")
        b.check_support(g, "noisy data")
        noise = b.data_norm(g - g0)
        require(abs(noise - eps) <= 1e-10 * eps, f"noise norm {noise!r} != eps {eps!r}")
        gathered = b.weighted_gather(g)
        require_close(rec_f.coeffs, gathered, 1e-12, "invert_filtered vs gather")
        require_close(rec_n.coeffs, gathered, 1e-12, "adjoint_normalized vs gather")
        no_mean = gathered.copy()
        no_mean.flat[b.center] = 0.0
        require_close(rec_s.coeffs, no_mean, 1e-12, "invert_sum vs gather")
        require_close(rec_t.coeffs, gathered * b.tikhonov_factor(1.0, alpha), 1e-12,
                      "tikhonov_reconstruct vs gather / (1 + alpha <k>^2)")
        check_noiseless_planes(b, f, g0, self.w, self.w)
        return 1, 0


def check_noiseless_planes(band: Band, f, g0, w_filtered, w_normalized) -> None:
    """Noiseless hyperplane data: every inverse gives back the field."""
    require_close(T.invert_filtered(g0, w_filtered).coeffs, f.coeffs, 1e-12,
                  "noiseless invert_filtered vs field")
    require_close(T.adjoint_normalized(g0, w_normalized).coeffs, f.coeffs, 1e-12,
                  "noiseless adjoint_normalized vs field")
    rec = T.invert_sum(g0.without_mean()).coeffs.copy()
    rec.flat[band.center] += g0.mean
    require_close(rec, f.coeffs, 1e-10, "noiseless invert_sum + mean vs field")


class HyperplaneN3(Workload):
    """T^3 at K=6: planes and lines from one random field."""

    K, LINE_HEIGHT = 6, 4

    def setup(self, tr) -> None:
        with tr.span("lattice.cover"):
            self.planes = T.hyperplane_cover(self.K, 3)
            self.lines = T.enumerate_grassmannian(1, 3, self.LINE_HEIGHT)
        with tr.span("sinogram.weight"):
            self.w_canonical = T.canonical_weight(self.planes, self.K)
            self.w_decay = T.weight_on_family("height-decay", self.planes, self.K)
            self.w_lines = T.weight_build("height-decay", (), 1, 3, self.LINE_HEIGHT, self.K)
        self.band = Band(3, self.K)

    def operation(self, i, tr, timed):
        rng = self.rng(i)
        eps = float(10.0 ** rng.uniform(-3, -1))
        noise_seed = int(rng.integers(2**31))
        with timed():
            with tr.span("phantoms.build"):
                f = T.random_field(3, self.K, rng, real=True)
            with tr.span("transforms.forward"):
                gp = T.forward_sinogram(f, self.planes)
                gl = T.forward_sinogram(f, self.lines)
            with tr.span("experiments.noise"):
                gpn = add_noise(gp, eps, 0.0, noise_seed)
            with tr.span("inversion.filtered"):
                rec_f = T.invert_filtered(gpn, self.w_decay)
            with tr.span("inversion.normalized"):
                rec_n = T.adjoint_normalized(gpn, self.w_canonical)
            with tr.span("inversion.sum"):
                rec_s = T.invert_sum(gpn.without_mean())
            with tr.span("inversion.filtered"):
                rec_l = T.invert_filtered(gl, self.w_lines)
        if tr.enabled:
            count_cells(tr, self.band, gp)
        b = self.band
        for g, what in ((gp, "clean planes"), (gpn, "noisy planes"), (gl, "lines")):
            b.check_support(g, what)
        noise = b.data_norm(gpn - gp)
        require(abs(noise - eps) <= 1e-10 * eps, f"noise norm {noise!r} != eps {eps!r}")
        gathered = b.weighted_gather(gpn)
        require_close(rec_f.coeffs, gathered, 1e-12, "planes invert_filtered vs gather")
        require_close(rec_n.coeffs, gathered, 1e-12, "planes adjoint_normalized vs gather")
        no_mean = gathered.copy()
        no_mean.flat[b.center] = 0.0
        require_close(rec_s.coeffs, no_mean, 1e-12, "planes invert_sum vs gather")
        # height-decay weight with base 2: w(A)^2 = 4^-height(A)
        averaged = b.weighted_gather(
            gl, lambda A: 4.0 ** -max(abs(x) for row in A.basis for x in row))
        require_close(rec_l.coeffs, averaged, 1e-12, "lines invert_filtered vs weighted average")
        require_close(rec_l.coeffs, f.coeffs, 1e-12, "noiseless lines invert_filtered vs field")
        check_noiseless_planes(b, f, gp, self.w_decay, self.w_canonical)
        return 1, 0


class BridgeK16(Workload):
    """The `torusradon bridge` defaults: K=16 cover, 256 offsets, a disk."""

    # The radius sets how many strands cross the support, and so the work
    # of bridge_ingest; it stays at the CLI default so that every operation
    # does the same work. The seed moves the centre.
    K, OFFSETS, RADIUS = 16, 256, 0.2

    def setup(self, tr) -> None:
        with tr.span("lattice.cover"):
            self.cover = T.direction_cover(self.K)
        with tr.span("sinogram.weight"):
            self.w = T.canonical_weight(self.cover, self.K)
        self.band = Band(2, self.K)
        self.dirs = np.array([v.v for v in self.cover], dtype=np.float64)

    def disk_data(self, radius: float, center: np.ndarray) -> np.ndarray:
        """Chord length 2 sqrt(rho^2 - t^2) at signed distance t from the
        centre along the unit normal (-v2, v1)/|v|, 1-periodized."""
        speed = np.hypot(self.dirs[:, 0], self.dirs[:, 1])
        c_v = (-self.dirs[:, 1] * center[0] + self.dirs[:, 0] * center[1]) / speed
        s = np.arange(self.OFFSETS) / self.OFFSETS
        t = s[None, None, :] + np.arange(-2, 3)[None, :, None] - c_v[:, None, None]
        return (2.0 * np.sqrt(np.clip(radius**2 - t**2, 0.0, None))).sum(axis=1)

    def disk_coefficients(self, radius: float, center: np.ndarray) -> np.ndarray:
        """rho J1(2 pi rho |k|) / |k| e^{-2 pi i k.c}, pi rho^2 at k = 0."""
        k = self.band.freqs.astype(np.float64)
        knorm = np.hypot(k[:, 0], k[:, 1])
        safe = np.where(knorm > 0, knorm, 1.0)
        amp = np.where(knorm > 0, radius * bessel_j1(2 * np.pi * radius * safe) / safe,
                       np.pi * radius**2)
        return amp * np.exp(-2j * np.pi * (k @ center))

    def operation(self, i, tr, timed):
        rng = self.rng(i)
        radius = self.RADIUS
        center = 0.5 + rng.uniform(-0.08, 0.08, 2)
        sino = T.EuclideanSinogram(tuple(self.cover), self.OFFSETS,
                                   self.disk_data(radius, center), radius, tuple(center))
        with timed():
            with tr.span("bridge.ingest"):
                g = T.bridge_ingest(sino, self.cover, self.K)
            with tr.span("inversion.filtered"):
                rec_f = T.invert_filtered(g, self.w)
            with tr.span("inversion.slice"):
                rec_s = T.reconstruct_slices(g)
        if tr.enabled:
            count_cells(tr, self.band, g)
        b = self.band
        b.check_support(g, "bridged data")
        exact = self.disk_coefficients(radius, center)
        err2 = abs(g.mean - exact[b.center]) ** 2
        ref2 = abs(exact[b.center]) ** 2
        for A, f in g.slices.items():
            mask = b.support(A.basis).copy()
            mask[b.center] = False
            err2 += float(np.sum(np.abs(f.coeffs.ravel()[mask] - exact[mask]) ** 2))
            ref2 += float(np.sum(np.abs(exact[mask]) ** 2))
        rel = math.sqrt(err2 / ref2)
        require(rel <= 0.01, f"bridged slices {rel:.3%} off the analytic disk")
        require_close(rec_s.coeffs, rec_f.coeffs, 1e-12, "reconstruct_slices vs invert_filtered")
        return 1, 0


# --- cli-files ------------------------------------------------------------------

def read_tfield(path) -> tuple[dict, np.ndarray]:
    """A JSON header line, then little-endian complex128 values."""
    head, payload = Path(path).read_bytes().split(b"\n", 1)
    header = json.loads(head)
    shape = (2 * header["K"] + 1,) * header["n"]
    require(len(payload) == 16 * math.prod(shape), f"{path}: payload length {len(payload)}")
    return header, np.frombuffer(payload, dtype="<c16").reshape(shape)


def write_tfield(path, K: int, values: np.ndarray) -> None:
    header = json.dumps({"K": K, "n": 2, "real": True}, sort_keys=True).encode()
    Path(path).write_bytes(header + b"\n" + np.asarray(values, dtype="<c16").tobytes())


def check_pgm(path, size: int) -> None:
    data = Path(path).read_bytes()
    lines = data.split(b"\n", 4)
    require(lines[0] == b"P5", f"{path}: magic {lines[0]!r}")
    require(lines[1].startswith(b"# linear scale min="), f"{path}: comment {lines[1]!r}")
    require(lines[2] == f"{size} {size}".encode(), f"{path}: size line {lines[2]!r}")
    require(lines[3] == b"65535", f"{path}: maxval {lines[3]!r}")
    require(len(lines[4]) == 2 * size * size, f"{path}: {len(lines[4])} pixel bytes")


def tree_digest(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def files_in(path: Path) -> list[Path]:
    return [path] if path.is_file() else [p for p in path.rglob("*") if p.is_file()]


# Names that cli and experiments imported from the layers; the traced
# sessions wrap them so that each call gets a span.
TRACED_NAMES = {
    cli: {
        "read_field": "io.read", "read_sinogram": "io.read", "write_field": "io.write",
        "write_sinogram": "io.write", "write_pgm": "io.write",
        "direction_cover": "lattice.cover", "canonical_weight": "sinogram.weight",
        "phantom": "phantoms.build", "forward_sinogram": "transforms.forward",
        "invert_filtered": "inversion.filtered", "adjoint_normalized": "inversion.normalized",
        "invert_sum": "inversion.sum", "reconstruct_slices": "inversion.slice",
        "tikhonov_reconstruct": "regularization.tikhonov",
    },
    experiments: {
        "write_csv": "io.write", "write_pgm": "io.write",
        "direction_cover": "lattice.cover", "canonical_weight": "sinogram.weight",
        "weight_on_family": "sinogram.weight", "phantom": "phantoms.build",
        "forward_sinogram": "transforms.forward", "add_noise": "experiments.noise",
        "invert_filtered": "inversion.filtered", "adjoint_normalized": "inversion.normalized",
        "invert_sum": "inversion.sum", "reconstruct_slices": "inversion.slice",
        "tikhonov_reconstruct": "regularization.tikhonov",
    },
}

SWEEP_CONFIG = {
    "phantom": {"kind": "multi-bump", "bumps": [
        {"center": [0.35, 0.4], "width": 0.06, "amplitude": 1.0},
        {"center": [0.65, 0.6], "width": 0.04, "amplitude": 0.7},
    ]},
    "band": 16, "grid": 64, "method": "tikhonov",
    "reg": {"r": 0.0, "s": 1.0, "delta": 1.0, "schedule": "strategy"},
    "noise": {"eps": [0.1, 0.03, 0.01, 0.003], "t": 0.0, "kind": "random"},
    "seed": 20190614, "error_norms": [0.0, 1.0],
}


class CliFiles(Workload):
    """`cli.main` in-process on K=24 files: an eight-command session, then
    three corrupt-input probes that must each exit with code 2."""

    K, GRID, ALPHA = 24, 64, 1e-2
    METHODS = ("filtered", "normalized", "sum", "tikhonov")

    def setup(self, tr) -> None:
        # The set-up processes of one run share this directory, so a warm-up
        # session after the first overwrites files too, as every operation
        # does; run.py removes it when the run ends.
        probes = self.work_dir / "probes"
        probes.mkdir(parents=True, exist_ok=True)
        self.config = self.work_dir / "sweep.json"
        self.config.write_text(json.dumps(SWEEP_CONFIG, sort_keys=True))
        # seed-independent corrupt inputs
        values = np.zeros((9, 9), dtype=np.complex128)
        values[4, 4] = 1.0
        write_tfield(probes / "whole.tfield", 4, values)
        data = (probes / "whole.tfield").read_bytes()
        (probes / "truncated.tfield").write_bytes(data[:-5])
        write_tfield(probes / "nan.tfield", 4, np.full((9, 9), np.nan))
        sino = probes / "no_subspaces"
        sino.mkdir(exist_ok=True)
        (sino / "meta.json").write_text(json.dumps({"n": 2, "d": 1, "K": 4}))
        (sino / "mean.txt").write_text("1 0\n")
        self.probes = [
            ["forward", "--field", str(probes / "truncated.tfield"), "--out", str(probes / "o1")],
            ["reconstruct", "--sinogram", str(sino), "--out", str(probes / "o2.tfield")],
            ["forward", "--field", str(probes / "nan.tfield"), "--out", str(probes / "o3")],
        ]
        self.reference_digest = None
        self.read_paths: list[Path] = []
        self.band = Band(2, self.K)

    @staticmethod
    def call(argv) -> int | None:
        """Exit code of cli.main, or None if it raised."""
        with redirect_stdout(_io.StringIO()), redirect_stderr(_io.StringIO()):
            try:
                return cli.main([str(a) for a in argv])
            except (Exception, SystemExit):
                return None

    def commands(self, s: Path, bumps) -> list[tuple[str, list]]:
        recon = []
        for m in self.METHODS:
            argv = ["reconstruct", "--sinogram", s / "sino", "--method", m, "--grid", self.GRID,
                    "--out", s / f"rec_{m}.tfield", "--image", s / f"rec_{m}.pgm"]
            if m == "tikhonov":
                argv += ["--r", "0", "--s", "1", "--alpha", repr(self.ALPHA)]
            recon.append(("cli.reconstruct", argv))
        return [
            ("cli.phantom", ["phantom", "--kind", "multi-bump", "--params",
                             json.dumps({"bumps": bumps}), "--band", self.K,
                             "--grid", self.GRID, "--out", s / "phantom.tfield"]),
            ("cli.forward", ["forward", "--field", s / "phantom.tfield", "--out", s / "sino"]),
            *recon,
            ("cli.sweep", ["sweep", "--config", self.config, "--output", s / "sweep"]),
            ("cli.selftest", ["selftest", "--out", s / "selftest"]),
        ]

    @contextmanager
    def traced_layers(self, tr):
        saved = []

        def wrap(fn, span):
            @functools.wraps(fn)
            def inner(*args, **kwargs):
                if span == "io.read":
                    self.read_paths.append(Path(args[0]))
                with tr.span(span):
                    return fn(*args, **kwargs)
            return inner

        for module, names in TRACED_NAMES.items():
            for name, span in names.items():
                fn = getattr(module, name)
                saved.append((module, name, fn))
                setattr(module, name, wrap(fn, span))
        try:
            yield
        finally:
            for module, name, fn in saved:
                setattr(module, name, fn)

    def operation(self, i, tr, timed):
        rng = self.rng(i)
        bumps = random_bumps(rng)
        # Sessions overwrite one directory, as a user re-running the commands
        # would; deleting ~750 files each time would add file-system churn.
        s = self.work_dir / "session"
        s.mkdir(exist_ok=True)
        start_ns = time.time_ns() - 50_000_000  # file times use a coarse clock
        self.read_paths = []
        codes = []
        with self.traced_layers(tr) if tr.enabled else nullcontext():
            for span, argv in self.commands(s, bumps):
                with timed(), tr.span(span):
                    codes.append(self.call(argv))
        failed = sum(code != 0 for code in codes)
        failed += sum(self.call(argv) != 2 for argv in self.probes)
        if tr.enabled:
            written = files_in(s)
            tr.count("io.files_written", len(written))
            tr.count("io.bytes_written", sum(p.stat().st_size for p in written))
            read = [p for path in self.read_paths for p in files_in(path)]
            tr.count("io.files_read", len(read))
            tr.count("io.bytes_read", sum(p.stat().st_size for p in read))
            self.count_stored_cells(tr, s / "sino")
        require(all(code == 0 for code in codes), f"session exit codes {codes}")
        stale = [p for p in files_in(s) if p.stat().st_mtime_ns < start_ns]
        require(not stale, f"{len(stale)} files not rewritten, e.g. {stale[:1]}")
        self.check_session(s, bumps)
        return len(codes) + len(self.probes), failed

    def count_stored_cells(self, tr, sino: Path) -> None:
        """Cells of the sinogram directory: payload bytes / 16 per slice
        file; usable cells from the basis in each file name."""
        stored = usable = 0
        for path in sino.glob("slice_*.tfield"):
            with open(path, "rb") as fh:
                header = len(fh.readline())
            stored += (path.stat().st_size - header) // 16
            rows = path.stem[len("slice_"):].split("__")
            basis = tuple(tuple(int(x) for x in row.split("_")) for row in rows)
            usable += int(self.band.support(basis).sum()) - 1
        tr.count("sinogram.stored_cells", stored)
        tr.count("sinogram.usable_cells", usable)

    def own_phantom(self, bumps) -> np.ndarray:
        """Band coefficients of the periodized Gaussian bumps sampled on
        the N x N grid, by the benchmark's own DFT."""
        N, K = self.GRID, self.K
        x = np.arange(N) / N
        X, Y = np.meshgrid(x, x, indexing="ij")
        samples = np.zeros((N, N))
        for b in bumps:
            dx = (X - b["center"][0] + 0.5) % 1.0 - 0.5
            dy = (Y - b["center"][1] + 0.5) % 1.0 - 0.5
            samples += b["amplitude"] * np.exp(-(dx**2 + dy**2) / (2 * b["width"] ** 2))
        idx = np.arange(-K, K + 1) % N
        return (np.fft.fft2(samples) / N**2)[np.ix_(idx, idx)]

    def check_session(self, s: Path, bumps) -> None:
        _, f = read_tfield(s / "phantom.tfield")
        require_close(f, self.own_phantom(bumps), 1e-12, "phantom file vs own DFT")
        slices = list((s / "sino").glob("slice_*.tfield"))
        require(len(slices) == 720, f"{len(slices)} slice files, want 720")
        for m in ("filtered", "normalized", "sum"):
            require_close(read_tfield(s / f"rec_{m}.tfield")[1], f, 1e-12, f"reconstruct {m}")
        require_close(read_tfield(s / "rec_tikhonov.tfield")[1],
                      f * self.band.tikhonov_factor(1.0, self.ALPHA), 1e-12,
                      "reconstruct tikhonov vs phantom / (1 + alpha <k>^2)")
        for m in self.METHODS:
            check_pgm(s / f"rec_{m}.pgm", self.GRID)
        digest = {**{f"sweep/{k}": v for k, v in tree_digest(s / "sweep").items()},
                  **{f"selftest/{k}": v for k, v in tree_digest(s / "selftest").items()}}
        require(len(digest) > 2, "sweep and selftest wrote no artifacts")
        if self.reference_digest is None:
            self.reference_digest = digest
        require(digest == self.reference_digest, "sweep or selftest artifacts changed bytes")


WORKLOADS = {
    "planar-k32": PlanarK32,
    "bridge-k16": BridgeK16,
    "hyperplane-n3": HyperplaneN3,
    "cli-files": CliFiles,
}
