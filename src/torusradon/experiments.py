"""Experiment orchestration: deterministic noise, parameter sweeps, the
convergence-rate harness, and the self-test battery.

Seeds for grid points derive from the master seed through a splitmix-style
integer recurrence, so serial and parallel execution schedules see the
same streams.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .errors import BadParams, ConfigInvalid, ParamViolation
from .fields import (TorusField, band_index, evaluate_at, random_field, sobolev_norm, to_samples,
                     unit_harmonic)
from .inversion import (ReconstructionReport, adjoint_normalized, invert_filtered, invert_sum,
                        reconstruct_slices)
from .io import write_csv, write_in_place, write_pgm
from .lattice import direction_cover, line, orthogonal_primitive
from .phantoms import DEFAULT_HARMONIC, phantom
from .regularization import (
    _check_minimizer_params,
    alpha_schedule,
    error_bound,
    strategy_constant,
    tikhonov_objective,
    tikhonov_reconstruct,
)
from .sinogram import TorusSinogram, _data_weight, canonical_weight, layout, sinogram_norm
# weight_on_family stays importable from here: the benchmark's traced run
# wraps it by this name to time each layer.
from .sinogram import weight_on_family  # noqa: F401
from .transforms import GeodesicSpec, forward_direction, forward_sinogram, quadrature_line_integral

_M64 = (1 << 64) - 1


def splitmix64(state: int) -> tuple[int, int]:
    """One step of the splitmix64 recurrence: (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _M64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return state, (z ^ (z >> 31)) & _M64


def derive_seed(master: int, index: int) -> int:
    """Per-task seed: advance the recurrence index+1 times from the master."""
    state = master & _M64
    out = 0
    for _ in range(index + 1):
        state, out = splitmix64(state)
    return out


def add_noise(g: TorusSinogram, eps: float, t: float, seed: int) -> TorusSinogram:
    """Add pseudo-random data-space noise of exact H^t data norm eps.

    The noise is one draw on the sinogram's flat values, so it respects the
    support rule, then one on the shared average. It is Hermitian (the -k
    partner of each entry is its mirror entry in the layout), so real data
    stays real. Deterministic in the seed."""
    if eps < 0:
        raise ParamViolation("eps must be nonnegative")
    if eps == 0:
        return g
    rng = np.random.default_rng(seed)
    real, imag = rng.standard_normal((2, g.values.size))
    raw = real + 1j * imag
    mirror = layout(g.members, g.K)[2]
    noise = TorusSinogram(g.members, g.K, complex(rng.standard_normal()),
                          (raw + np.conj(raw[mirror])) / 2.0)
    return g + eps / sinogram_norm(noise, t) * noise


def probe_noise(g: TorusSinogram, eps: float, t: float, k_star) -> TorusSinogram:
    """Data-space probe of exact H^t norm eps concentrated at one frequency
    pair; aligned with the reconstruction operator's worst amplification,
    which spread-out random noise cannot reach on a finite band."""
    if eps <= 0:
        raise ParamViolation("probe needs eps > 0")
    flat = band_index(g.n, g.K, k_star)
    if flat is None:
        raise ConfigInvalid(f"probe frequency {k_star} lies off the band K={g.K}")
    block = g.blocks.get(line(orthogonal_primitive(k_star)))
    if block is None:
        raise ConfigInvalid(f"family lacks the direction orthogonal to probe frequency {k_star}")
    index, _, mirror = layout(g.members, g.K)
    at = block.start + np.searchsorted(index[block], flat)
    values = np.zeros(g.values.size, np.complex128)
    values[[at, mirror[at]]] = 1.0
    noise = TorusSinogram(g.members, g.K, 0j, values)
    return g + eps / sinogram_norm(noise, t) * noise


# --- configuration --------------------------------------------------------------

# Reconstruction methods by name: fn(g, reg) with reg the tikhonov r, s and
# alpha; each reads the data rule of g's family (`_data_weight`).
METHODS = {
    "slice": lambda g, reg: reconstruct_slices(g),
    "filtered": lambda g, reg: invert_filtered(g, _data_weight(g)),
    "normalized": lambda g, reg: adjoint_normalized(g, _data_weight(g)),
    "sum": lambda g, reg: invert_sum(g),
    "tikhonov": lambda g, reg: tikhonov_reconstruct(g, reg["r"], reg["s"], reg["alpha"]),
}


def _finite(v) -> bool:
    """A JSON number that fits a finite float; a bool is not a number here."""
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:
        return False


# Config fields, and those of its noise and reg objects: (check, valid value).
# `type(v) is int` refuses a bool; `in` on a tuple of strings never hashes v.
_NUMBER = (_finite, "a finite number")
_INT = (lambda v: type(v) is int, "an integer")
_POSITIVE = (lambda v: type(v) is int and v >= 1, "a positive integer")
_OBJECT = (lambda v: isinstance(v, dict), "an object")
_FIELDS = {
    "phantom": (lambda v: isinstance(v, dict) and isinstance(v.get("kind"), str),
                "an object with a string 'kind'"),
    "band": _POSITIVE, "grid": _INT, "seed": _INT, "noise": _OBJECT, "reg": _OBJECT,
    "method": (lambda v: v in tuple(METHODS), f"one of {tuple(METHODS)}"),
    "output": (lambda v: v is None or isinstance(v, str), "a string"),
    "error_norms": (lambda v: isinstance(v, list) and all(map(_finite, v)),
                    "a list of finite numbers"),
}
_NOISE = {
    "eps": (lambda v: isinstance(v, list) and all(_finite(e) and e >= 0 for e in v),
            "a list of finite numbers >= 0"),
    "t": _NUMBER,
    "kind": (lambda v: v in ("random", "probe"), "'random' or 'probe'"),
}
_REG = {
    "r": _NUMBER, "s": _NUMBER, "delta": _NUMBER,
    "alpha": (lambda v: v is None or _finite(v), "a finite number"),
    "schedule": (lambda v: v in ("strategy", "optimal"), "'strategy' or 'optimal'"),
}


@dataclass
class ExperimentConfig:
    phantom: dict = dc_field(default_factory=lambda: {"kind": "harmonic", **DEFAULT_HARMONIC})
    band: int = 8
    grid: int = 64
    method: str = "filtered"
    reg: dict = dc_field(default_factory=dict)
    noise: dict = dc_field(default_factory=dict)
    seed: int = 20190614
    output: str | None = None
    error_norms: list = dc_field(default_factory=lambda: [0.0])

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        problems = []
        for prefix, fields, given in (("", _FIELDS, raw), ("noise.", _NOISE, raw.get("noise")),
                                      ("reg.", _REG, raw.get("reg"))):
            for key, val in given.items() if isinstance(given, dict) else ():
                if key not in fields:
                    problems.append(f"{prefix}{key}: unknown field")
                elif not fields[key][0](val):
                    problems.append(f"{prefix}{key}: need {fields[key][1]}, got {val!r}")
        if problems:
            raise ConfigInvalid("; ".join(problems))
        cfg = ExperimentConfig(**raw)  # the config keys are the field names
        if cfg.grid < 2 * cfg.band + 2:
            problems.append(f"grid: need an integer >= 2*band+2 = {2 * cfg.band + 2}")
        if cfg.method == "tikhonov":
            problems += [f"reg.{f}: required for the tikhonov method"
                         for f in "rs" if f not in cfg.reg]
        try:  # a schedule's alpha is positive at every eps once it is at eps = 0
            if cfg.method == "tikhonov" and not problems:
                _reg_params(cfg, 0.0)
        except ParamViolation as e:
            problems.append(f"reg: {e}")
        if problems:
            raise ConfigInvalid("; ".join(problems))
        return cfg

    @staticmethod
    def json_object(text: str, source: str = "config") -> dict:
        """The JSON object in the text of `source` (named in the error);
        ConfigInvalid if the text is not JSON or holds another JSON value."""
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigInvalid(f"{source} is not valid JSON: {e}") from e
        if not isinstance(raw, dict):
            raise ConfigInvalid(f"{source} must be a JSON object, got {type(raw).__name__}")
        return raw

    @staticmethod
    def json_file(path) -> dict:
        """json_object of the text of a file; ConfigInvalid if it cannot be read."""
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigInvalid(f"{path}: cannot read: {e}") from e
        return ExperimentConfig.json_object(text)


def _delta(cfg: ExperimentConfig) -> float:
    """The tikhonov smoothness gap delta of both the schedule and the
    bound; s when the config gives none."""
    return float(cfg.reg.get("delta", cfg.reg["s"]))


def _reg_params(cfg: ExperimentConfig, eps: float) -> dict:
    """The tikhonov r, s and alpha at one noise level; ParamViolation if
    they break the closed form's hypotheses."""
    s = float(cfg.reg["s"])
    alpha = cfg.reg.get("alpha")
    if alpha is None:
        mode = cfg.reg.get("schedule", "strategy")
        alpha = alpha_schedule(max(eps, 1e-300), delta=_delta(cfg), s=s, mode=mode)
    reg = {"r": float(cfg.reg["r"]), "s": s, "alpha": float(alpha)}
    _check_minimizer_params(**reg)
    return reg


def _error_report(truth: TorusField, rec: TorusField, cfg: ExperimentConfig,
                  extra_params: dict) -> ReconstructionReport:
    N = cfg.grid
    diff = rec - truth
    errors = {f"H{float(s):g}": sobolev_norm(diff, float(s)) for s in cfg.error_norms}
    tg = to_samples(truth, N).real
    rg = to_samples(rec, N).real
    errors["grid_l2"] = float(np.sqrt(np.mean((tg - rg) ** 2)))
    errors["grid_linf"] = float(np.max(np.abs(tg - rg)))
    params = {"band": cfg.band, "grid": cfg.grid, "seed": cfg.seed, **extra_params}
    return ReconstructionReport(cfg.method, params, errors)


def run_experiment(cfg: ExperimentConfig) -> list[ReconstructionReport]:
    """forward -> (noise) -> reconstruction -> error report, one report per
    noise level (a single noiseless run when none are configured). Artifacts
    (CSV curves, JSON report, PGM images) land in cfg.output if set."""
    params = {k: v for k, v in cfg.phantom.items() if k != "kind"}
    try:
        truth = phantom(cfg.phantom["kind"], params, cfg.band, cfg.grid).field
    except BadParams as e:
        raise ConfigInvalid(f"phantom: {e}") from e
    g0 = forward_sinogram(truth, direction_cover(cfg.band))
    eps_list = cfg.noise.get("eps") or [0.0]
    t, kind = float(cfg.noise.get("t", 0.0)), cfg.noise.get("kind", "random")
    outdir = Path(cfg.output) if cfg.output else None
    reports = []
    rows = []
    for i, eps in enumerate(eps_list):
        t0 = time.perf_counter()
        if eps > 0 and kind == "random":
            g = add_noise(g0, eps, t, derive_seed(cfg.seed, i))
        elif eps > 0:
            g = probe_noise(g0, eps, t, (0, 1))
        else:
            g = g0
        extra = _reg_params(cfg, eps) if cfg.method == "tikhonov" else {}
        rec = METHODS[cfg.method](g, extra)
        rep = _error_report(truth, rec, cfg, {"eps": eps, **extra})
        rep.duration_s = time.perf_counter() - t0
        reports.append(rep)
        err0 = rep.errors.get("H0", rep.errors["grid_l2"])
        alpha = extra.get("alpha", 0.0)
        bound = float("nan")
        if cfg.method == "tikhonov" and eps > 0:
            delta = _delta(cfg)
            M_f = sobolev_norm(truth, float(cfg.reg["r"]) + delta)
            try:
                bound = error_bound(alpha, eps, delta, float(cfg.reg["s"]), M_f)
            except ParamViolation:  # outside the estimate's hypotheses
                pass
        ratio = err0 / bound if bound == bound and bound > 0 else float("nan")
        rows.append((float(eps), float(alpha), float(err0), float(bound), float(ratio)))
        if outdir is not None:
            sub = outdir / f"eps_{i:02d}"
            sub.mkdir(parents=True, exist_ok=True)
            write_pgm(to_samples(rec, cfg.grid).real, sub / "recon.pgm")
            write_pgm(to_samples(rec - truth, cfg.grid).real, sub / "diff.pgm")
    if outdir is not None:
        outdir.mkdir(parents=True, exist_ok=True)
        write_pgm(to_samples(truth, cfg.grid).real, outdir / "truth.pgm")
        write_csv(outdir / "sweep.csv", "eps,alpha,err_Hr,bound,ratio", rows)
        payload = [r.payload for r in reports]
        write_in_place(outdir / "report.json", json.dumps(payload, sort_keys=True, indent=2) + "\n")
        write_in_place(outdir / "errors.csv", reports[-1].errors_csv())
    return reports


def convergence_rate_experiment(eps_list, delta: float, s: float, K: int = 16,
                                r: float = 0.0) -> tuple[float, list]:
    """Measured log-log slope of reconstruction error vs noise level under
    the optimal schedule, using the saturation-aligned probe.

    The probe sits at the band frequency closest to the multiplier's
    amplification scale <k> = alpha^(-1/2s); the truth is a weak low
    harmonic so the noise term dominates the error."""
    t = r - 2.0 * s
    cover = direction_cover(K)
    truth = 0.01 * (unit_harmonic(2, K, (1, 1)) + unit_harmonic(2, K, (-1, -1)))
    g0 = forward_sinogram(truth, cover)
    pts = []
    for eps in eps_list:
        alpha = alpha_schedule(eps, delta=delta, s=s, mode="optimal")
        target = alpha ** (-1.0 / (2.0 * s))
        m = int(round(math.sqrt(max(target**2 - 1.0, 0.0))))
        m = max(1, min(m, K))
        g = probe_noise(g0, eps, t, (0, m))
        rec = tikhonov_reconstruct(g, r, s, alpha)
        err = sobolev_norm(rec - truth, r)
        pts.append((eps, err))
    xs = np.log([p[0] for p in pts])
    ys = np.log([p[1] for p in pts])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return slope, pts


def strategy_bound_experiment(eps_list, delta_list, s: float = 1.0, r: float = 0.0,
                              t: float = 0.0, K: int = 8, seed: int = 99) -> list:
    """Measured error vs the quantitative bound over an (eps, delta) grid;
    rows (eps, delta, alpha, err, bound)."""
    cover = direction_cover(K)
    rng = np.random.default_rng(seed)
    truth = random_field(2, K, rng, real=True, decay=3.0)
    g0 = forward_sinogram(truth, cover)
    rows = []
    idx = 0
    for delta in delta_list:
        if not (0 < delta < 2 * s):
            raise ParamViolation(f"delta={delta} violates 0 < delta < 2s")
        alpha_cap = 2.0 * s / delta - 1.0
        M_f = sobolev_norm(truth, r + delta)
        for eps in eps_list:
            alpha = min(math.sqrt(eps), alpha_cap)
            g = add_noise(g0, eps, t, derive_seed(seed, idx))
            idx += 1
            rec = tikhonov_reconstruct(g, r, s, alpha)
            err = sobolev_norm(rec - truth, r)
            bound = error_bound(alpha, eps, delta, s, M_f)
            rows.append((eps, delta, alpha, err, bound))
    return rows


# --- self-test battery ------------------------------------------------------------


def _check_slice_identity(rng):
    K = 6
    f = random_field(2, K, rng)
    worst = 0.0
    for v in direction_cover(3)[:8]:
        out = forward_direction(f, v)
        for k, c in out.items():
            if v.dot(k) != 0 or c != f.coeff(k):
                return False, 1.0
        x = tuple(rng.random(2))
        quad = quadrature_line_integral(f, GeodesicSpec(x, v))
        mult = evaluate_at(out, np.array([x]))[0]
        worst = max(worst, abs(quad - mult))
    return worst < 1e-10, worst


def _check_unitarity(rng):
    K = 6
    cover = direction_cover(K)
    w = canonical_weight(cover, K)
    worst = 0.0
    for s in (-1.0, 0.0, 1.0, 2.0):
        f = random_field(2, K, rng, decay=2.0)
        g = forward_sinogram(f, cover)
        worst = max(worst, abs(sinogram_norm(g, s, w) - sobolev_norm(f, s)))
    return worst < 1e-12, worst


def _check_filtered_identity(rng):
    K = 6
    cover = direction_cover(K)
    w = canonical_weight(cover, K)
    f = random_field(2, K, rng)
    rec = invert_filtered(forward_sinogram(f, cover), w)
    worst = float(np.max(np.abs(rec.coeffs - f.coeffs)))
    return worst < 1e-12, worst


def _check_sum_identity(rng):
    K = 5
    cover = direction_cover(K)
    f = random_field(2, K, rng, real=True)
    rec = invert_sum(forward_sinogram(f, cover))
    worst = float(np.max(np.abs(rec.coeffs - f.coeffs)))
    return worst < 1e-12, worst


def _check_tikhonov_minimizer(rng):
    K = 4
    cover = direction_cover(K)
    f = random_field(2, K, rng)
    g = add_noise(forward_sinogram(f, cover), 0.1, 0.0, 11)
    r, s, alpha = 0.0, 1.0, 0.3
    star = tikhonov_reconstruct(g, r, s, alpha)
    base = tikhonov_objective(star, g, r, s, alpha)
    margin = np.inf
    for _ in range(20):
        eta = 0.1 * random_field(2, K, rng)
        margin = min(margin, tikhonov_objective(star + eta, g, r, s, alpha) - base)
    return margin > 0, float(margin)


def _check_strategy_constant(_rng):
    val = strategy_constant(0.5)
    return val == 0.5, abs(val - 0.5)


def _check_noise_determinism(rng):
    K = 4
    cover = direction_cover(K)
    g = forward_sinogram(random_field(2, K, rng, real=True), cover)
    a = add_noise(g, 0.25, 0.0, 1234)
    b = add_noise(g, 0.25, 0.0, 1234)
    same = a.mean == b.mean and np.array_equal(a.values, b.values)
    return same, 0.0 if same else 1.0


SELFTEST_CHECKS = [
    ("fourier_slice_identity", _check_slice_identity),
    ("unitarity", _check_unitarity),
    ("filtered_left_inverse", _check_filtered_identity),
    ("summation_inversion", _check_sum_identity),
    ("tikhonov_minimizer", _check_tikhonov_minimizer),
    ("strategy_constant_half", _check_strategy_constant),
    ("noise_determinism", _check_noise_determinism),
]


def selftest(output: str | None = None, seed: int = 20190614) -> tuple[bool, dict]:
    """Run the invariant battery with a fixed seed; write a deterministic
    report (and one small sweep's artifacts) when an output directory is
    given. Returns (all_passed, per-check results)."""
    results = {}
    for name, check in SELFTEST_CHECKS:
        rng = np.random.default_rng(seed)
        passed, metric = check(rng)
        results[name] = {"passed": bool(passed), "metric": float(metric)}
    ok = all(r["passed"] for r in results.values())
    if output is not None:
        out = Path(output)
        out.mkdir(parents=True, exist_ok=True)
        write_in_place(out / "selftest_report.json", json.dumps(results, sort_keys=True, indent=2) + "\n")
        cfg = ExperimentConfig.from_dict({
            "band": 6, "grid": 16, "method": "filtered",
            "noise": {"eps": [0.0, 0.01], "t": 0.0}, "seed": seed,
            "output": str(out / "demo_sweep"),
        })
        run_experiment(cfg)
    return ok, results
