import json
import re
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusradon.cli import main
from torusradon.errors import ConfigInvalid, DimensionMismatch, ParamViolation, TorusRadonError
from torusradon.experiments import (
    METHODS,
    ExperimentConfig,
    add_noise,
    convergence_rate_experiment,
    derive_seed,
    probe_noise,
    run_experiment,
    selftest,
    splitmix64,
    strategy_bound_experiment,
)
from torusradon.fields import band_frequencies, bracket_sq, random_field
from torusradon.inversion import adjoint_normalized, invert_filtered
from torusradon.io import read_sinogram, write_sinogram
from torusradon.lattice import direction_cover, enumerate_grassmannian
from torusradon.sinogram import (
    CANONICAL,
    CUSTOM,
    HEIGHT_DECAY,
    canonical_weight,
    layout,
    scatter,
    sinogram_norm,
    support,
    weight_on_family,
)
from torusradon.transforms import forward_sinogram


def make_data(K, rng):
    cover = direction_cover(K)
    f = random_field(2, K, rng, real=True)
    return forward_sinogram(f, cover), canonical_weight(cover, K)


def test_splitmix_deterministic():
    s1, o1 = splitmix64(42)
    s2, o2 = splitmix64(42)
    assert (s1, o1) == (s2, o2)
    assert derive_seed(7, 3) == derive_seed(7, 3)
    assert derive_seed(7, 3) != derive_seed(7, 4)


def test_add_noise_zero_eps_is_identity(rng):
    g, _ = make_data(3, rng)
    assert add_noise(g, 0.0, 1.0, 5) is g


def test_add_noise_exact_norm(rng):
    g, w = make_data(3, rng)
    for t in (-1.0, 0.0, 1.0):
        noisy = add_noise(g, 0.25, t, 17)
        noise_norm = sinogram_norm(noisy - g, t, w)
        assert noise_norm == pytest.approx(0.25, rel=1e-12)


def test_add_noise_respects_range_and_determinism(rng):
    g, _ = make_data(3, rng)
    a = add_noise(g, 0.5, 0.0, 99)
    b = add_noise(g, 0.5, 0.0, 99)
    # data off A^perp cannot be represented; the noise on each vector is
    # Hermitian, its mirror entry being the -k partner
    noise = a - g
    for block in noise.blocks.values():
        v = noise.values[block]
        np.testing.assert_allclose(v[::-1], np.conj(v), rtol=0, atol=1e-15)
    assert a.mean == b.mean
    for block in a.blocks.values():
        assert np.array_equal(a.values[block], b.values[block])
    c = add_noise(g, 0.5, 0.0, 100)
    assert c.mean != a.mean


def test_probe_noise_concentration(rng):
    g, w = make_data(4, rng)
    probed = probe_noise(g, 0.1, -2.0, (0, 2))
    diff = probed - g
    assert sinogram_norm(diff, -2.0, w) == pytest.approx(0.1, rel=1e-12)
    nz = [(A, k) for A in diff.members for k, _ in diff.slices[A].items()]
    assert {k for _, k in nz} == {(0, 2), (0, -2)}


def test_probe_noise_positions(rng):
    """The probe pair sits where the layout holds k and -k: each band
    frequency has exactly one entry on a direction cover."""
    K = 6
    g, _ = make_data(K, rng)
    index = layout(g.members, K)[0]
    for k in [(0, 1), (0, -6), (2, -3), (-6, 6), (5, 0), (4, 2)]:
        diff = probe_noise(g, 0.1, 0.0, k) - g
        flat = [np.ravel_multi_index((K + s * k[0], K + s * k[1]), (2 * K + 1,) * 2) for s in (1, -1)]
        assert np.array_equal(np.flatnonzero(diff.values), np.flatnonzero(np.isin(index, flat)))
        assert diff.mean == 0


def test_probe_noise_refuses_a_family_without_the_orthogonal_direction(rng):
    # direction_cover(1) has no (2, -1), the direction orthogonal to k = (1, 2)
    g = forward_sinogram(random_field(2, 2, rng), direction_cover(1))
    with pytest.raises(ConfigInvalid,
                       match=re.escape("family lacks the direction orthogonal to probe frequency (1, 2)")):
        probe_noise(g, 0.1, 0.0, (1, 2))


def test_config_validation_errors():
    with pytest.raises(ConfigInvalid) as ei:
        ExperimentConfig.from_dict({"method": "nope", "band": -1})
    msg = str(ei.value)
    assert "method" in msg and "band" in msg
    with pytest.raises(ConfigInvalid):
        ExperimentConfig.json_object("{not json")
    with pytest.raises(ConfigInvalid):
        ExperimentConfig.from_dict({"method": "tikhonov"})


@pytest.mark.parametrize("raw", [
    {"band": 4, "grid": 9},
    {"method": "tikhonov", "reg": {"r": 1.0, "s": 0.5}},
    {"method": "tikhonov", "reg": {"r": 0.0, "s": 1.0, "alpha": 0.0}},
    {"method": "tikhonov", "reg": {"r": -1.0, "s": -0.5, "schedule": "optimal"}},
    {"method": "tikhonov", "reg": {"r": 0.0, "s": 1.0, "delta": -1.0, "schedule": "optimal"}},
])
def test_config_that_cannot_run_is_invalid(raw):
    with pytest.raises(ConfigInvalid):
        ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize("key, value", [("weight", "canonical"), ("cover_radius", 8)])
def test_the_sweep_takes_its_family_and_rule_from_the_band(tmp_path, capsys, key, value):
    """A sweep's cover and weight rule follow from its band, so a config
    that names either is refused as an unknown field, with exit code 2."""
    raw = {"band": 4, "grid": 16, key: value}
    with pytest.raises(ConfigInvalid, match=f"^{key}: unknown field$"):
        ExperimentConfig.from_dict(raw)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["sweep", "--config", str(path), "--output", str(tmp_path / "out")]) == 2
    assert f"{key}: unknown field" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_the_noise_sweep_config_is_valid():
    path = Path(__file__).resolve().parent.parent / "scripts" / "noise_sweep.json"
    cfg = ExperimentConfig.from_dict(ExperimentConfig.json_file(path))
    assert cfg.method == "tikhonov" and cfg.phantom["kind"] == "multi-bump"


def test_phantom_the_kind_rejects_is_config_invalid():
    cfg = ExperimentConfig.from_dict({"phantom": {"kind": "disk", "radius": 0.7},
                                      "band": 2, "grid": 8})
    with pytest.raises(ConfigInvalid, match="phantom"):
        run_experiment(cfg)


def test_run_experiment_filtered_exact(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "phantom": {"kind": "harmonic", "frequencies": [[1, 2]], "amplitudes": [1.0]},
        "band": 6, "grid": 16, "method": "filtered",
        "output": str(tmp_path / "run"),
    })
    reports = run_experiment(cfg)
    assert len(reports) == 1
    assert reports[0].errors["H0"] < 1e-10
    assert (tmp_path / "run" / "truth.pgm").exists()
    assert (tmp_path / "run" / "sweep.csv").exists()
    assert (tmp_path / "run" / "report.json").exists()


def test_report_durations_time_their_own_step():
    cfg = ExperimentConfig.from_dict({
        "phantom": {"kind": "disk", "radius": 0.25},
        "band": 8, "grid": 24, "method": "filtered",
        "noise": {"eps": [0.1, 0.01, 0.001], "t": 0.0},
    })
    start = time.perf_counter()
    reports = run_experiment(cfg)
    wall = time.perf_counter() - start
    assert len(reports) == 3
    assert all(r.duration_s > 0 for r in reports)
    assert sum(r.duration_s for r in reports) <= wall


def test_run_experiment_tikhonov_closed_form(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "phantom": {"kind": "harmonic", "frequencies": [[1, 2]], "amplitudes": [1.0]},
        "band": 6, "grid": 16, "method": "tikhonov",
        "reg": {"r": 1.0, "s": 1.0, "alpha": 0.5},
        "error_norms": [1.0],
    })
    rep = run_experiment(cfg)[0]
    # noiseless s = r: reconstruction is truth/(1+alpha), error alpha/(1+alpha)*|f|
    from torusradon.fields import sobolev_norm
    from torusradon.phantoms import phantom

    truth = phantom("harmonic", {"frequencies": [[1, 2]], "amplitudes": [1.0]}, 6, 16).field
    expected = sobolev_norm(truth, 1.0) * 0.5 / 1.5
    assert rep.errors["H1"] == pytest.approx(expected, abs=1e-10)


def test_run_experiment_deterministic_outputs(tmp_path):
    raw = {
        "phantom": {"kind": "disk", "radius": 0.25},
        "band": 6, "grid": 24, "method": "filtered",
        "noise": {"eps": [0.05], "t": 0.0}, "seed": 31415,
    }
    outs = []
    for name in ("a", "b"):
        cfg = ExperimentConfig.from_dict(dict(raw, output=str(tmp_path / name)))
        run_experiment(cfg)
        outs.append(tmp_path / name)
    for rel in ("sweep.csv", "truth.pgm", "report.json", "eps_00/recon.pgm", "eps_00/diff.pgm"):
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel


def test_a_tikhonov_sweep_without_delta_takes_delta_as_s(tmp_path):
    """The schedule and the bound read one delta, s when the config gives
    none: a config without delta writes the artifacts of one with delta = s,
    and each row's bound and ratio are numbers."""
    raw = {"band": 6, "grid": 16, "method": "tikhonov",
           "reg": {"r": 0.0, "s": 1.5, "schedule": "optimal"}, "noise": {"eps": [0.01, 0.1]}}
    trees = []
    for name, reg in (("without", raw["reg"]), ("with", dict(raw["reg"], delta=1.5))):
        run_experiment(ExperimentConfig.from_dict(dict(raw, reg=reg, output=str(tmp_path / name))))
        trees.append({p.relative_to(tmp_path / name): p.read_bytes()
                      for p in (tmp_path / name).rglob("*") if p.is_file()})
    assert trees[0] == trees[1]
    rows = (tmp_path / "without" / "sweep.csv").read_text().splitlines()
    assert rows[0] == "eps,alpha,err_Hr,bound,ratio" and len(rows) == 3
    assert all(np.isfinite([float(x) for x in row.split(",")]).all() for row in rows[1:])


def test_strategy_bound_never_violated():
    rows = strategy_bound_experiment(
        eps_list=[1e-1, 1e-2, 1e-3], delta_list=[0.5, 1.0], K=6)
    for eps, delta, alpha, err, bound in rows:
        assert err <= bound


def test_convergence_rate_slope():
    delta, s = 2.0, 2.0
    slope, pts = convergence_rate_experiment(
        [1e-1, 1e-2, 1e-3, 1e-4, 1e-5], delta=delta, s=s, K=16)
    target = delta / (2 * s + delta)
    assert abs(slope - target) <= 0.2 * target


def test_strategy_error_vanishes_monotonically():
    # error -> 0 along alpha = sqrt(eps), allowing 5% realization slack
    cfg = ExperimentConfig.from_dict({
        "phantom": {"kind": "multi-bump", "bumps": [
            {"center": [0.35, 0.55], "width": 0.07, "amplitude": 1.0}]},
        "band": 8, "grid": 24, "method": "tikhonov",
        "reg": {"r": 0.0, "s": 1.0, "schedule": "strategy"},
        "noise": {"eps": [10.0**-i for i in range(1, 7)], "t": 0.0},
        "seed": 20190614,
    })
    errs = [rep.errors["H0"] for rep in run_experiment(cfg)]
    for a, b in zip(errs, errs[1:]):
        assert b <= a * 1.05
    assert errs[-1] < 0.05 * errs[0]


def test_selftest_passes(tmp_path):
    ok, results = selftest(str(tmp_path / "st"))
    assert ok, results
    assert (tmp_path / "st" / "selftest_report.json").exists()
    assert (tmp_path / "st" / "demo_sweep" / "sweep.csv").exists()


# Small sweep configs: a valid config, then up to two fields replaced by a
# value of the wrong type or range. Band and grid stay small, so a config
# that runs takes milliseconds.
_SMALL = st.floats(-2, 2)
_PHANTOMS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("harmonic"),
                           "frequencies": st.lists(st.lists(st.integers(-3, 3), min_size=2,
                                                            max_size=2), min_size=1, max_size=2),
                           "amplitudes": st.lists(_SMALL, min_size=1, max_size=2)}),
    st.fixed_dictionaries({"kind": st.just("disk"), "radius": st.floats(0.05, 0.45),
                           "center": st.lists(st.floats(0.3, 0.7), min_size=2, max_size=2)}),
    st.fixed_dictionaries({"kind": st.just("multi-bump"), "bumps": st.lists(
        st.fixed_dictionaries({"center": st.lists(st.floats(0, 1), min_size=2, max_size=2),
                               "width": st.floats(0.03, 0.2), "amplitude": _SMALL}),
        max_size=2)}),
)
_BAD = {
    "band": st.sampled_from([0, -1, True, 2.5, "2", 40]),
    "grid": st.sampled_from([0, 3, 1.5, None]),
    "method": st.sampled_from(["fbp", 1]),
    "seed": st.sampled_from([-1.5, "x", None]),
    "error_norms": st.sampled_from([["a"], [float("nan")], 1.0]),
    "phantom": st.sampled_from([{"kind": "blob"}, {"kind": "disk", "radius": 0.7}, [],
                                {"kind": "harmonic", "frequencies": [[1]], "amplitudes": [1]},
                                {"kind": "multi-bump", "bumps": [{"width": -1}]}]),
    "noise": st.sampled_from([{"eps": [-0.1]}, {"eps": "abc"}, {"t": float("inf")},
                              {"kind": "white"}, [1], {"sigma": 1}]),
    "reg": st.sampled_from([{"r": "x", "s": 1}, {"r": 1, "s": 0}, {"r": 0, "s": 1, "alpha": 0},
                            {"r": 0, "s": -1, "schedule": "optimal"}, {"s": 1}, []]),
    "extra": st.just(1),
}


@st.composite
def _sweep_configs(draw):
    band = draw(st.integers(1, 3))
    raw = {
        "band": band, "grid": draw(st.integers(2 * band + 2, 10)), "phantom": draw(_PHANTOMS),
        "method": draw(st.sampled_from(["slice", "filtered", "normalized", "sum", "tikhonov"])),
        "seed": draw(st.integers(0, 2**32)),
        "error_norms": draw(st.lists(_SMALL, max_size=2)),
        "noise": {"eps": draw(st.lists(st.floats(0, 0.5), max_size=2)), "t": draw(_SMALL),
                  "kind": draw(st.sampled_from(["random", "probe"]))},
        "reg": {"r": draw(st.floats(-1, 1)), "s": draw(st.floats(1, 2)),
                "delta": draw(st.floats(0, 2)),
                "alpha": draw(st.one_of(st.none(), st.floats(1e-3, 1))),
                "schedule": draw(st.sampled_from(["strategy", "optimal"]))},
    }
    for key in draw(st.lists(st.sampled_from(sorted(_BAD)), max_size=2)):
        raw[key] = draw(_BAD[key])
    return raw


@given(raw=_sweep_configs())
@settings(max_examples=100)
def test_random_sweep_config_runs_or_is_config_invalid(tmp_path_factory, raw):
    """A sweep config either runs or is refused with ConfigInvalid, never
    another error; `torusradon sweep` then exits 2."""
    try:
        run_experiment(ExperimentConfig.from_dict(raw))
    except ConfigInvalid:
        path = tmp_path_factory.mktemp("sweep") / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main(["sweep", "--config", str(path), "--output", str(path.parent / "out")]) == 2


@st.composite
def _small_domains(draw):
    n = draw(st.sampled_from([2, 3]))
    d = draw(st.integers(1, n - 1))
    full = enumerate_grassmannian(d, n, draw(st.integers(1, 2)))
    picked = draw(st.one_of(st.just(set(range(len(full)))),
                            st.sets(st.integers(0, len(full) - 1), min_size=1)))
    return (n, d, draw(st.integers(0, 3)), [full[i] for i in sorted(picked)], full,
            draw(st.sampled_from([HEIGHT_DECAY, CUSTOM] + [CANONICAL] * (d == n - 1))),
            draw(st.booleans()), draw(st.integers(0, 2**32)))


@given(domain=_small_domains())
@settings(max_examples=150)
def test_every_method_is_exact_or_typed_on_small_domains(tmp_path_factory, domain):
    """On a random sub-family of a small Grassmannian, every reconstruction
    method and the sinogram file round trip is exact on the covered band or
    raises a TorusRadonError, never another error or a wrong result; K = 0
    included, where the band is the mean alone."""
    n, d, K, members, full, kind, rule_on_full, seed = domain
    rng = np.random.default_rng(seed)
    f = random_field(n, K, rng, real=True)
    g = forward_sinogram(f, members)
    covered = scatter(K, g.members, np.ones(g.values.size), 1.0) > 0
    alpha = 0.5  # tikhonov with r = 0, s = 1 is f W / (W + alpha <k>^2), and W = 1 where it runs
    tikhonov = f.coeffs / (1.0 + alpha * bracket_sq(n, K))
    family, params = full if rule_on_full else members, ()
    if kind == CUSTOM:  # a weight drawn for every (k, A), so it varies in k
        params = tuple(((tuple(k), A), rng.uniform(0.5, 2.0)) for A in family
                       for k in [(0,) * n] + band_frequencies(n, K)[:, support(A, K)].T.tolist())
    # a rule on a family that misses part of the band is still built, with
    # c_w = 0: the methods refuse such data themselves
    w = weight_on_family(kind, family, K, params)
    try:  # the default data rule gives every family a norm
        assert np.isfinite(sinogram_norm(g, 0.0))
    except TorusRadonError:
        pass
    # every method reads the data rule of g's family, as `reconstruct` does
    for method in METHODS:
        expected = tikhonov if method == "tikhonov" else f.coeffs
        try:
            rec = METHODS[method](g, {"r": 0.0, "s": 1.0, "alpha": alpha})
        except TorusRadonError:
            continue
        assert np.max(np.abs(rec.coeffs - expected)[covered]) < 1e-10, method
    for invert in (invert_filtered, adjoint_normalized):  # an explicit rule w
        if len(family) > len(members):
            with pytest.raises(DimensionMismatch):  # a rule is read only on its own family
                invert(g, w)
            continue
        try:
            rec = invert(g, w)
        except TorusRadonError:
            continue
        assert np.max(np.abs(rec.coeffs - f.coeffs)[covered]) < 1e-10, invert.__name__
    path = tmp_path_factory.mktemp("sino")
    try:
        write_sinogram(g, path)
        back = read_sinogram(path)
    except TorusRadonError:
        return
    assert back.members == g.members
    assert np.max(np.abs(back.values - g.values), initial=abs(back.mean - g.mean)) < 1e-10


def _cover_data(K=2):
    return forward_sinogram(random_field(2, K, np.random.default_rng(0), real=True), direction_cover(K))


# each refusal of the experiments module, with its typed error and the start of its message
@pytest.mark.parametrize("call, error, start", [
    (lambda: add_noise(_cover_data(), -1.0, 0.0, 1), ParamViolation, "eps must be nonnegative"),
    (lambda: probe_noise(_cover_data(), 0.0, 0.0, (0, 1)), ParamViolation, "probe needs eps > 0"),
    (lambda: probe_noise(_cover_data(), 0.1, 0.0, (0, 3)), ConfigInvalid,
     "probe frequency (0, 3) lies off the band K=2"),
    (lambda: strategy_bound_experiment([0.1], [3.0], s=1.0, K=2), ParamViolation,
     "delta=3.0 violates 0 < delta < 2s"),
    (lambda: ExperimentConfig.from_dict({"band": 4, "grid": 9}), ConfigInvalid,
     "grid: need an integer >= 2*band+2 = 10"),
])
def test_experiments_refusals(call, error, start):
    with pytest.raises(error) as info:
        call()
    assert str(info.value).startswith(start)
