"""Acceptance criteria, one test per criterion, each printing a PASS line
with its measured figure. Tolerances are fixed here and match the stated
requirements; runtime limits are asserted where specified.
"""

import json
import time

import numpy as np
import pytest

from torusradon.bridge import bridge_ingest, disk_sinogram
from torusradon.errors import IncompleteCover
from torusradon.experiments import (
    ExperimentConfig,
    add_noise,
    convergence_rate_experiment,
    run_experiment,
    selftest,
    strategy_bound_experiment,
)
from torusradon.fields import (
    bessel_norm,
    evaluate_at,
    field_from_coeffs,
    random_field,
    sobolev_norm,
    to_samples,
    unit_harmonic,
)
from torusradon.inversion import (
    adjoint,
    adjoint_normalized,
    invert_filtered,
    invert_sum,
    normal_multiplier,
    slice_reconstruct_coeff,
)
from torusradon.lattice import (
    direction_cover,
    enumerate_directions,
    frequency_band,
    hyperplane_cover,
    line,
    line_cover,
    orthogonal_complement,
    orthogonal_primitive,
)
from torusradon.phantoms import phantom
from torusradon.regularization import strategy_constant, tikhonov_objective, tikhonov_reconstruct
from torusradon.sinogram import (
    HEIGHT_DECAY,
    TorusSinogram,
    canonical_weight,
    sinogram_inner,
    sinogram_norm,
    weight_on_family,
)
from torusradon.transforms import GeodesicSpec, forward_direction, forward_sinogram, quadrature_line_integral

RNG_SEED = 20190614


def report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_1_fourier_slice_identity():
    t0 = time.perf_counter()
    K = 16
    rng = np.random.default_rng(RNG_SEED)
    dirs = enumerate_directions(2, 2)[:20]
    assert len(dirs) == 20 or len(dirs) == len(enumerate_directions(2, 2))
    kgrid = np.stack(np.meshgrid(np.arange(-K, K + 1), np.arange(-K, K + 1), indexing="ij"))
    worst_quad = 0.0
    for trial in range(100):
        f = random_field(2, K, rng)
        v = dirs[trial % len(dirs)]
        out = forward_direction(f, v)
        dots = v.v[0] * kgrid[0] + v.v[1] * kgrid[1]
        assert np.array_equal(out.coeffs[dots == 0], f.coeffs[dots == 0])
        assert np.all(out.coeffs[dots != 0] == 0)
        x = tuple(rng.random(2))
        quad = quadrature_line_integral(f, GeodesicSpec(x, v))
        mult = evaluate_at(out, np.array([x]))[0]
        worst_quad = max(worst_quad, abs(quad - mult))
    elapsed = time.perf_counter() - t0
    assert worst_quad < 1e-10
    assert elapsed < 10.0
    report(1, f"selection rule exact on 100 fields x 20 directions; "
              f"quadrature agreement {worst_quad:.2e} < 1e-10; {elapsed:.1f}s < 10s")


def test_criterion_2_slice_reconstruction():
    t0 = time.perf_counter()
    K = 16
    rng = np.random.default_rng(RNG_SEED + 1)
    f = random_field(2, K, rng)
    worst = 0.0
    worst_axes = 0.0
    for k in frequency_band(2, K):
        if any(k):
            v = orthogonal_primitive(k)
        else:
            v = orthogonal_primitive((0, 1))
        g_v = forward_direction(f, v)
        got = slice_reconstruct_coeff(g_v, k, v)
        worst = max(worst, abs(got - f.coeff(k)))
        if k[0] != 0 and k[1] != 0:
            a0 = slice_reconstruct_coeff(g_v, k, v, axis=0)
            a1 = slice_reconstruct_coeff(g_v, k, v, axis=1)
            worst_axes = max(worst_axes, abs(a0 - a1))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10
    assert worst_axes < 1e-10
    assert elapsed < 10.0
    report(2, f"all {(2*K+1)**2} coefficients recovered, max error {worst:.2e} < 1e-10; "
              f"axis variants agree to {worst_axes:.2e}; {elapsed:.1f}s < 10s")


def test_criterion_3_unitarity():
    K = 8
    rng = np.random.default_rng(RNG_SEED + 2)
    cover = direction_cover(K)
    w = canonical_weight(cover, K)
    worst = 0.0
    for _ in range(50):
        f = random_field(2, K, rng, decay=2.0)
        g = forward_sinogram(f, cover)
        for s in (-1.0, 0.0, 1.0, 2.0):
            lhs = sinogram_norm(g, s, w)
            rhs = sobolev_norm(f, s)
            worst = max(worst, abs(lhs - rhs) / max(1.0, rhs))
    assert worst < 1e-12
    report(3, f"data norm equals H^s norm for s in {{-1,0,1,2}}, 50 fields, "
              f"worst relative gap {worst:.2e} < 1e-12")


def _pairing_gap(n, K, fam, w, rng, s=1.0):
    f = random_field(n, K, rng)
    h = random_field(n, K, rng)
    g = forward_sinogram(h, fam)
    lhs = sinogram_inner(forward_sinogram(f, fam), g, s, w)
    back = adjoint(g, w)
    axes = np.meshgrid(*[np.arange(-K, K + 1)] * n, indexing="ij")
    bs = (1.0 + sum(a**2.0 for a in axes)) ** s
    rhs = complex(np.sum(bs * f.coeffs * np.conj(back.coeffs)))
    return abs(lhs - rhs) / max(1.0, abs(lhs))


def test_criterion_4_adjoint_normal_and_filtered_inverse():
    t0 = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED + 3)
    K = 8

    cover2 = direction_cover(K)
    w2c = canonical_weight(cover2, K)
    w2h = weight_on_family(HEIGHT_DECAY, cover2, K)
    worst_pair = 0.0
    for _ in range(50):
        worst_pair = max(worst_pair, _pairing_gap(2, K, cover2, w2c, rng))
        worst_pair = max(worst_pair, _pairing_gap(2, K, cover2, w2h, rng))
    fam31 = line_cover(2, 3)
    w31 = weight_on_family(HEIGHT_DECAY, fam31, 2)
    fam32s = hyperplane_cover(2, 3)
    w32c = canonical_weight(fam32s, 2)
    w32h = weight_on_family(HEIGHT_DECAY, fam32s, 2)
    for _ in range(10):
        worst_pair = max(worst_pair, _pairing_gap(3, 2, fam31, w31, rng))
        worst_pair = max(worst_pair, _pairing_gap(3, 2, fam32s, w32c, rng))
        worst_pair = max(worst_pair, _pairing_gap(3, 2, fam32s, w32h, rng))
    assert worst_pair < 1e-10

    # normal operator diagonal: exact equality against the enumerated symbol
    for w, n, fam in ((w2c, 2, cover2), (w2h, 2, cover2), (w31, 3, fam31)):
        Kw = w.K
        for k in [(0,) * n, (1,) + (0,) * (n - 1), (1, -2) + (0,) * (n - 2)]:
            e = unit_harmonic(n, Kw, k)
            out = adjoint(forward_sinogram(e, fam), w)
            assert out.coeff(k) == normal_multiplier(w, k)
            rest = out.coeffs.copy()
            rest[tuple(x + Kw for x in k)] = 0
            assert np.all(rest == 0)

    # exact left inverse at all three (n, d) configurations, complete covers
    worst_id = 0.0
    configs = [
        (2, 1, K, cover2, w2c),
        (3, 1, K, line_cover(K, 3), None),
        (3, 2, K, hyperplane_cover(K, 3), None),
    ]
    for n, d, KK, fam, w in configs:
        if w is None:
            w = weight_on_family(HEIGHT_DECAY, fam, KK)
        f = random_field(n, KK, rng)
        rec = invert_filtered(forward_sinogram(f, fam), w)
        worst_id = max(worst_id, float(np.max(np.abs(rec.coeffs - f.coeffs))))
    elapsed = time.perf_counter() - t0
    assert worst_id < 1e-12
    assert elapsed < 60.0
    report(4, f"pairing gap {worst_pair:.2e} < 1e-10 (both weights); normal operator "
              f"diagonal exact; left inverse max error {worst_id:.2e} < 1e-12 at "
              f"(2,1),(3,1),(3,2) K=8; {elapsed:.1f}s < 60s")


def test_criterion_5_stability_and_normalized_adjoint():
    rng = np.random.default_rng(RNG_SEED + 4)
    K = 6
    cover = direction_cover(K)
    w2 = canonical_weight(cover, K)
    fam3 = hyperplane_cover(3, 3)
    w3 = weight_on_family(HEIGHT_DECAY, fam3, 3)
    violations = 0
    sharpest = 0.0
    for trial in range(100):
        if trial % 2 == 0:
            f = random_field(2, K, rng)
            g = forward_sinogram(f, cover)
            lhs, rhs = sobolev_norm(f, 1.0), sinogram_norm(g, 1.0, w2) / w2.c_w
        else:
            f = random_field(3, 3, rng)
            g = forward_sinogram(f, fam3)
            lhs, rhs = sobolev_norm(f, 1.0), sinogram_norm(g, 1.0, w3) / w3.c_w
        if lhs > rhs * (1 + 1e-12):
            violations += 1
        sharpest = max(sharpest, lhs / rhs)
    assert violations == 0

    worst_id = 0.0
    worst_norm = 0.0
    for _ in range(10):
        f = random_field(2, K, rng, decay=1.0)
        rec = adjoint_normalized(forward_sinogram(f, cover), w2)
        worst_id = max(worst_id, float(np.max(np.abs(rec.coeffs - f.coeffs))))
        for p in (1, 2, np.inf):
            a = bessel_norm(rec, 0.5, p, N=2 * K + 2)
            b = bessel_norm(f, 0.5, p, N=2 * K + 2)
            worst_norm = max(worst_norm, abs(a - b) / max(1.0, b))
    f3 = random_field(3, 3, rng)
    rec3 = adjoint_normalized(forward_sinogram(f3, fam3), w3)
    worst_id = max(worst_id, float(np.max(np.abs(rec3.coeffs - f3.coeffs))))
    assert worst_id < 1e-12
    assert worst_norm < 1e-10
    report(5, f"stability inequality never violated in 100 trials (sharpest ratio "
              f"{sharpest:.4f}); normalized adjoint identity {worst_id:.2e} < 1e-12; "
              f"L^p_s preservation gap {worst_norm:.2e} < 1e-10 for p in {{1,2,inf}}")


def test_criterion_6_summation_inversion():
    rng = np.random.default_rng(RNG_SEED + 5)
    worst = 0.0
    K2 = 16
    cover = direction_cover(K2)
    f2 = random_field(2, K2, rng, real=True)
    arr = f2.coeffs.copy()
    arr[K2, K2] = 0.0
    from torusradon.fields import TorusField

    f2 = TorusField(2, K2, arr, real=True)
    rec2 = invert_sum(forward_sinogram(f2, cover))
    worst = max(worst, float(np.max(np.abs(rec2.coeffs - f2.coeffs))))

    K3 = 4
    fam3 = hyperplane_cover(K3, 3)
    f3 = random_field(3, K3, rng, real=True)
    arr = f3.coeffs.copy()
    arr[K3, K3, K3] = 0.0
    f3 = TorusField(3, K3, arr, real=True)
    g3 = forward_sinogram(f3, fam3)
    rec3 = invert_sum(g3)
    worst = max(worst, float(np.max(np.abs(rec3.coeffs - f3.coeffs))))
    assert worst < 1e-10

    needed = orthogonal_complement((1, 2, 3))
    partial = {A: fld for A, fld in g3.slices.items() if A != needed}
    with pytest.raises(IncompleteCover):
        invert_sum(TorusSinogram.from_slices(0j, partial))
    report(6, f"summation inversion exact (max error {worst:.2e} < 1e-10) for "
              f"zero-average phantoms at n=2 (K=16) and n=3 (K=4); IncompleteCover "
              f"raised when one needed hyperplane is removed")


def test_criterion_7_tikhonov_minimizer():
    rng = np.random.default_rng(RNG_SEED + 6)
    K = 4
    cover = direction_cover(K)
    r, s, alpha = 0.0, 1.0, 0.35
    for trial in range(20):
        g0 = forward_sinogram(random_field(2, K, rng), cover)
        g = add_noise(g0, 0.2, 0.0, 1000 + trial)
        star = tikhonov_reconstruct(g, r, s, alpha)
        base = tikhonov_objective(star, g, r, s, alpha)
        for _ in range(50):
            eta = 0.2 * random_field(2, K, rng)
            assert tikhonov_objective(star + eta, g, r, s, alpha) > base

    f = random_field(2, K, rng)
    g = forward_sinogram(f, cover)
    rec = tikhonov_reconstruct(g, 1.0, 1.0, alpha)
    gap = float(np.max(np.abs(rec.coeffs - f.coeffs / (1 + alpha))))
    assert gap < 1e-10
    report(7, f"minimizer beat 50 perturbations in each of 20 trials; noiseless "
              f"s=r closed form matches f/(1+alpha) to {gap:.2e} < 1e-10")


def test_criterion_8_strategy_bound_and_rate():
    t0 = time.perf_counter()
    eps_list = [10.0**-i for i in range(1, 7)]
    delta_list = [0.25, 0.5, 0.75, 1.0, 1.5]
    rows = strategy_bound_experiment(eps_list, delta_list, s=1.0, r=0.0, t=0.0, K=8,
                                     seed=RNG_SEED + 7)
    assert len(rows) == 30
    margin = min(bound - err for _, _, _, err, bound in rows)
    assert margin >= 0.0

    assert strategy_constant(0.5) == 0.5

    delta, s = 2.0, 2.0
    slope, _ = convergence_rate_experiment(
        [1e-1, 1e-2, 1e-3, 1e-4, 1e-5], delta=delta, s=s, K=16)
    target = delta / (2 * s + delta)
    rel_gap = abs(slope - target) / target
    elapsed = time.perf_counter() - t0
    assert rel_gap <= 0.2
    assert elapsed < 120.0
    report(8, f"bound held on the 6x5 grid (min margin {margin:.3e}); C(1/2) = 0.5 "
              f"exactly; optimal-schedule slope {slope:.3f} vs target {target:.3f} "
              f"({100*rel_gap:.1f}% < 20%); {elapsed:.1f}s < 2min")


def test_criterion_9_bridge():
    t0 = time.perf_counter()
    K, N, rho = 32, 256, 0.2
    ph = phantom("disk", {"radius": rho}, K=K, N=N)
    cover = direction_cover(K)
    sino = disk_sinogram(cover, N, rho)
    g = bridge_ingest(sino, cover, K)
    rec = invert_filtered(g, canonical_weight(cover, K))
    tg = to_samples(ph.field, N).real
    rg = to_samples(rec, N).real
    rel = float(np.linalg.norm(rg - tg) / np.linalg.norm(tg))
    assert rel < 0.05

    # refinement against the band-limited truth: finer offset grids reduce
    # the error monotonically (the band itself is fixed, so no floor here)
    K2 = 12
    cover2 = direction_cover(K2)
    ph2 = phantom("disk", {"radius": rho}, K=K2, N=512)
    w2 = canonical_weight(cover2, K2)
    errs = []
    for M in (64, 128, 256):
        g2 = bridge_ingest(disk_sinogram(cover2, M, rho), cover2, K2)
        r2 = invert_filtered(g2, w2)
        errs.append(sobolev_norm(r2 - ph2.field, 0.0))
    assert errs[0] > errs[1] > errs[2]
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(9, f"bridged reconstruction error {100*rel:.2f}% < 5% at N=256, K=32, "
              f"cover 32; offset refinement errors {[f'{e:.2e}' for e in errs]} "
              f"strictly decreasing; {elapsed:.1f}s < 2min")


def test_criterion_10_determinism(tmp_path):
    outs = []
    for name in ("one", "two"):
        d = tmp_path / f"selftest_{name}"
        ok, _ = selftest(str(d), seed=RNG_SEED)
        assert ok
        outs.append(d)
    files1 = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
    assert files1 == files2
    for rel in files1:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel

    sweeps = []
    raw = {
        "phantom": {"kind": "multi-bump",
                    "bumps": [{"center": [0.4, 0.6], "width": 0.08, "amplitude": 1.0}]},
        "band": 8, "grid": 24, "method": "tikhonov",
        "reg": {"r": 0.0, "s": 1.0, "delta": 1.0, "schedule": "strategy"},
        "noise": {"eps": [0.1, 0.01], "t": 0.0}, "seed": 31337,
    }
    for name in ("s1", "s2"):
        cfg = ExperimentConfig.from_dict(dict(raw, output=str(tmp_path / name)))
        run_experiment(cfg)
        sweeps.append(tmp_path / name)
    f1 = sorted(p.relative_to(sweeps[0]) for p in sweeps[0].rglob("*") if p.is_file())
    for rel in f1:
        assert (sweeps[0] / rel).read_bytes() == (sweeps[1] / rel).read_bytes(), rel
    report(10, f"selftest and a fixed-config sweep are byte-identical across runs "
               f"({len(files1)} + {len(f1)} files compared)")
