import filecmp
import json
from pathlib import Path

import numpy as np
import pytest

from torusradon.cli import main


def run(args):
    return main([str(a) for a in args])


def tree_bytes(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_phantom_forward_reconstruct_pipeline(tmp_path, capsys):
    field = tmp_path / "f.tfield"
    sino = tmp_path / "sino"
    recon = tmp_path / "rec.tfield"
    assert run(["phantom", "--kind", "harmonic", "--band", "6", "--grid", "20",
                "--out", field]) == 0
    assert run(["forward", "--field", field, "--out", sino]) == 0
    assert run(["reconstruct", "--sinogram", sino, "--method", "filtered",
                "--out", recon, "--grid", "20", "--image", tmp_path / "rec.pgm"]) == 0
    from torusradon.io import read_field

    f = read_field(field)
    r = read_field(recon)
    assert np.max(np.abs(f.coeffs - r.coeffs)) < 1e-12
    assert (tmp_path / "rec.pgm").exists()


@pytest.mark.parametrize("method", ["slice", "normalized", "sum", "tikhonov"])
def test_reconstruct_methods_run(tmp_path, method):
    field = tmp_path / "f.tfield"
    sino = tmp_path / "sino"
    run(["phantom", "--kind", "harmonic", "--band", "4", "--grid", "12", "--out", field])
    run(["forward", "--field", field, "--out", sino])
    assert run(["reconstruct", "--sinogram", sino, "--method", method,
                "--out", tmp_path / "r.tfield", "--alpha", "1e-6", "--s", "1.0"]) == 0


@pytest.mark.parametrize("method", ["slice", "filtered", "normalized", "sum", "tikhonov"])
def test_mean_only_band_reconstructs_the_mean(tmp_path, method):
    # K = 0: the sinogram holds no slice values, only the shared mean
    from torusradon.io import read_field

    field, sino, recon = tmp_path / "f.tfield", tmp_path / "sino", tmp_path / "r.tfield"
    assert run(["phantom", "--band", "0", "--out", field]) == 0
    assert run(["forward", "--field", field, "--cover", "2", "--out", sino]) == 0
    assert run(["reconstruct", "--sinogram", sino, "--method", method, "--alpha", "0.5",
                "--out", recon]) == 0
    mean = read_field(field).coeffs[0, 0]
    expected = mean / 1.5 if method == "tikhonov" else mean  # mean W / (W + alpha), W(0) = 1
    assert abs(read_field(recon).coeffs[0, 0] - expected) < 1e-12 * abs(mean)


@pytest.mark.parametrize("method", ["filtered", "normalized"])
def test_line_family_reconstructs_with_height_decay_weights(tmp_path, capsys, method):
    # lines in T^3 have no canonical rule: the default is height-decay, and
    # a family that misses part of the band is refused by the inversion,
    # naming the first k no stored line is orthogonal to
    from torusradon.fields import random_field
    from torusradon.io import read_field, write_sinogram
    from torusradon.lattice import line, line_cover
    from torusradon.transforms import forward_sinogram

    f = random_field(3, 2, np.random.default_rng(5), real=True)
    write_sinogram(forward_sinogram(f, line_cover(2, 3)), tmp_path / "lines")
    write_sinogram(forward_sinogram(f, [line((0, 0, 1))]), tmp_path / "one")
    recon = tmp_path / "r.tfield"
    assert run(["reconstruct", "--sinogram", tmp_path / "lines", "--method", method,
                "--out", recon]) == 0
    assert np.max(np.abs(read_field(recon).coeffs - f.coeffs)) < 1e-12
    assert run(["reconstruct", "--sinogram", tmp_path / "one", "--method", method,
                "--out", recon]) == 2
    assert "error: no stored subspace is orthogonal to k=(-2, -2, -2)\n" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--alpha", "nan"), ("--alpha", "inf"), ("--r", "nan"),
                                         ("--s", "nan"), ("--s", "inf")])
def test_tikhonov_refuses_nonfinite_parameters(tmp_path, capsys, flag, value):
    field, sino, recon = tmp_path / "f.tfield", tmp_path / "sino", tmp_path / "r.tfield"
    run(["phantom", "--kind", "harmonic", "--band", "2", "--grid", "8", "--out", field])
    run(["forward", "--field", field, "--out", sino])
    assert run(["reconstruct", "--sinogram", sino, "--method", "tikhonov", flag, value,
                "--out", recon]) == 2
    assert "error: need finite r, s and alpha" in capsys.readouterr().err
    assert not recon.exists()


def test_refused_grid_writes_no_file(tmp_path, capsys):
    field, sino, recon = tmp_path / "f.tfield", tmp_path / "sino", tmp_path / "r.tfield"
    run(["phantom", "--kind", "harmonic", "--band", "2", "--grid", "8", "--out", field])
    run(["forward", "--field", field, "--out", sino])
    assert run(["reconstruct", "--sinogram", sino, "--image", tmp_path / "r.pgm", "--grid", "3",
                "--out", recon]) == 2
    assert "error: grid N=3 too coarse for band K=2" in capsys.readouterr().err
    assert not recon.exists() and not (tmp_path / "r.pgm").exists()


@pytest.mark.parametrize("command", ["phantom", "reconstruct"])
def test_unwritable_output_is_an_error(tmp_path, capsys, command):
    field, sino = tmp_path / "f.tfield", tmp_path / "sino"
    run(["phantom", "--kind", "harmonic", "--band", "2", "--grid", "8", "--out", field])
    run(["forward", "--field", field, "--out", sino])
    args = {"phantom": ["--band", "2", "--grid", "8"], "reconstruct": ["--sinogram", sino]}[command]
    assert run([command, *args, "--out", tmp_path / "nodir" / "p.tfield"]) == 2
    err = capsys.readouterr().err
    assert "error: " in err and "nodir" in err
    assert not (tmp_path / "nodir").exists()


@pytest.mark.parametrize("command", ["phantom", "reconstruct"])
@pytest.mark.parametrize("refused", ["--image", "--out"])
def test_refused_output_leaves_no_file(tmp_path, capsys, command, refused):
    # either write failing leaves neither --out nor --image behind
    field, sino = tmp_path / "f.tfield", tmp_path / "sino"
    run(["phantom", "--kind", "harmonic", "--band", "2", "--grid", "8", "--out", field])
    run(["forward", "--field", field, "--out", sino])
    args = {"phantom": ["--band", "2"], "reconstruct": ["--sinogram", sino]}[command]
    out = {"--out": tmp_path / "r.tfield", "--image": tmp_path / "r.pgm", refused: tmp_path / "nodir" / "x"}
    assert run([command, *args, "--grid", "8", "--out", out["--out"], "--image", out["--image"]]) == 2
    assert "nodir" in capsys.readouterr().err
    assert not (tmp_path / "r.tfield").exists() and not (tmp_path / "r.pgm").exists()
    assert not (tmp_path / "nodir").exists()


def test_refused_bridge_leaves_no_emitted_csv(tmp_path, capsys):
    # the sinogram directory cannot be made under a file: exit 2 and no CSV
    (tmp_path / "afile").touch()
    csv = tmp_path / "b.csv"
    assert run(["bridge", "--cover", "4", "--band", "4", "--emit-csv", csv,
                "--out", tmp_path / "afile" / "sub"]) == 2
    assert "Not a directory" in capsys.readouterr().err
    assert not csv.exists()


def test_outputs_to_dev_null(tmp_path):
    # not a regular file: written, never cut
    field, sino = tmp_path / "f.tfield", tmp_path / "sino"
    run(["phantom", "--kind", "harmonic", "--band", "2", "--grid", "8", "--out", field])
    run(["forward", "--field", field, "--out", sino])
    assert run(["reconstruct", "--sinogram", sino, "--grid", "8",
                "--out", "/dev/null", "--image", "/dev/null"]) == 0


def test_sweep_deterministic(tmp_path):
    cfg = {
        "phantom": {"kind": "disk", "radius": 0.25},
        "band": 6,
        "grid": 24,
        "method": "filtered",
        "noise": {"eps": [0.0, 0.02], "t": 0.0},
        "seed": 7,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    a, b = tmp_path / "out_a", tmp_path / "out_b"
    assert run(["sweep", "--config", cfg_path, "--output", a]) == 0
    assert run(["sweep", "--config", cfg_path, "--output", b]) == 0
    ta, tb = tree_bytes(a), tree_bytes(b)
    assert set(ta) == set(tb)
    for rel in ta:
        assert ta[rel] == tb[rel], rel


def test_sweep_invalid_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"method": "bogus"}))
    assert run(["sweep", "--config", bad]) == 2
    assert "method" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["slice", "filtered", "normalized", "sum", "tikhonov"])
def test_every_method_refuses_a_partial_cover_alike(tmp_path, capsys, method):
    # a cover of radius 4 misses part of a K = 12 band: one check, one
    # message naming the first uncovered k, exit 2 and no output file
    field, sino, recon = tmp_path / "f.tfield", tmp_path / "sino", tmp_path / "r.tfield"
    assert run(["phantom", "--band", "12", "--grid", "32", "--out", field]) == 0
    assert run(["forward", "--field", field, "--cover", "4", "--out", sino]) == 0
    capsys.readouterr()
    assert run(["reconstruct", "--sinogram", sino, "--method", method, "--out", recon]) == 2
    assert capsys.readouterr().err == "error: no stored subspace is orthogonal to k=(-12, -11)\n"
    assert not recon.exists()


def test_bridge_csv_input_is_emitted_again(tmp_path, capsys):
    d, e = tmp_path / "d.csv", tmp_path / "e.csv"
    common = ["--cover", "4", "--band", "4", "--radius", "0.2"]
    assert run(["bridge", *common, "--offsets", "64", "--emit-csv", d, "--out", tmp_path / "a"]) == 0
    assert run(["bridge", "--csv", d, *common, "--emit-csv", e, "--out", tmp_path / "b"]) == 0
    assert filecmp.cmp(d, e, shallow=False)
    # a refused run removes the CSV it wrote, never its own --csv input
    (tmp_path / "afile").touch()
    for target in (e, d):
        assert run(["bridge", "--csv", d, *common, "--emit-csv", target,
                    "--out", tmp_path / "afile" / "sub"]) == 2
    assert not e.exists() and d.read_bytes().startswith(b"angle_vx,angle_vy,offset,value")


def test_bridge_command(tmp_path):
    out = tmp_path / "bridged"
    csv = tmp_path / "euclid.csv"
    assert run(["bridge", "--cover", "4", "--band", "4", "--offsets", "64",
                "--radius", "0.2", "--emit-csv", csv, "--out", out]) == 0
    assert (out / "meta.json").exists()
    assert csv.read_text().startswith("angle_vx,angle_vy,offset,value")
    # ingest the emitted CSV back through the other path
    out2 = tmp_path / "bridged2"
    assert run(["bridge", "--csv", csv, "--cover", "4", "--band", "4",
                "--radius", "0.2", "--out", out2]) == 0
    ta, tb = tree_bytes(out), tree_bytes(out2)
    assert set(ta) == set(tb)


def test_selftest_deterministic_and_green(tmp_path, capsys):
    a, b = tmp_path / "st_a", tmp_path / "st_b"
    assert run(["selftest", "--out", a]) == 0
    assert run(["selftest", "--out", b]) == 0
    out = capsys.readouterr().out
    assert "selftest: OK" in out
    ta, tb = tree_bytes(a), tree_bytes(b)
    assert set(ta) == set(tb)
    for rel in ta:
        assert ta[rel] == tb[rel], rel


def test_selftest_over_an_earlier_run_equals_a_fresh_one(tmp_path):
    # another seed's artifacts first: the rewrite leaves none of their bytes
    over, fresh = tmp_path / "over", tmp_path / "fresh"
    assert run(["selftest", "--out", over, "--seed", "1"]) == 0
    assert run(["selftest", "--out", over]) == 0
    assert run(["selftest", "--out", fresh]) == 0
    assert tree_bytes(over) == tree_bytes(fresh)


def test_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("TORUSRADON_OUT", str(tmp_path / "root"))
    (tmp_path / "root").mkdir()
    assert run(["phantom", "--kind", "harmonic", "--band", "4", "--grid", "12"]) == 0
    assert (tmp_path / "root" / "phantom.tfield").exists()


def _corrupt_probe(tmp_path, kind):
    """A corrupt input file or directory, and the command that reads it."""
    sino = tmp_path / "sino"
    reconstruct = ["reconstruct", "--sinogram", sino, "--out", tmp_path / "r.tfield"]
    if kind in ("sinogram without subspaces", "sinogram with an empty subspace list"):
        sino.mkdir()
        meta = {"n": 2, "d": 1, "K": 4}
        if kind == "sinogram with an empty subspace list":
            meta["subspaces"] = []
        (sino / "meta.json").write_text(json.dumps(meta))
        (sino / "mean.txt").write_text("1 0\n")
        return reconstruct
    if kind == "missing sinogram directory":
        return reconstruct
    if kind.startswith("sinogram "):
        assert run(["bridge", "--cover", "2", "--band", "2", "--offsets", "16",
                    "--out", sino]) == 0
        meta = json.loads((sino / "meta.json").read_text())
        first = sorted(sino.glob("slice_*.tfield"))[0]
        if kind == "sinogram missing a slice file":
            first.unlink()
        elif kind == "sinogram slice band differs from meta":
            header = json.dumps({"K": 1, "n": 2, "real": False}, sort_keys=True).encode()
            first.write_bytes(header + b"\n" + np.zeros(9, "<c16").tobytes())
        elif kind == "sinogram meta d differs from its subspaces":
            meta["d"] = 2
        elif kind == "sinogram listing a subspace twice":
            meta["subspaces"].append(meta["subspaces"][0])
        elif kind == "sinogram in the dense format":
            del meta["format"]  # the earlier format: no version, one dense field per slice
            header = json.dumps({"K": 2, "n": 2, "real": False}, sort_keys=True).encode()
            for path in sino.glob("slice_*.tfield"):
                path.write_bytes(header + b"\n" + np.zeros(25, "<c16").tobytes())
        (sino / "meta.json").write_text(json.dumps(meta))
        return reconstruct
    if kind in BAD_PHANTOM_PARAMS:
        return ["phantom", "--kind", "harmonic", "--params", BAD_PHANTOM_PARAMS[kind],
                "--band", "4", "--grid", "12", "--out", tmp_path / "p.tfield"]
    if kind in BAD_CONFIGS:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(BAD_CONFIGS[kind]))
        return ["sweep", "--config", cfg, "--output", tmp_path / "sweep"]
    if kind.startswith("config"):
        cfg = tmp_path / "cfg.json"
        if kind != "config missing":
            cfg.write_text("{bad" if kind == "config not json" else "[1]")
        return ["sweep", "--config", cfg, "--output", tmp_path / "sweep"]
    if kind.startswith("csv"):
        csv = tmp_path / "euclid.csv"
        common = ["--cover", "1", "--band", "1", "--offsets", "8"]
        if kind != "csv missing":
            assert run(["bridge", *common, "--emit-csv", csv, "--out", tmp_path / "b0"]) == 0
            lines = csv.read_text().splitlines()
            row = lines[1].split(",")
            lines[1] = ",".join(row[:3] if kind == "csv with three fields" else row[:3] + ["nan"])
            csv.write_text("\n".join(lines) + "\n")
        return ["bridge", "--csv", csv, *common, "--out", tmp_path / "bridged"]
    header = json.dumps({"K": 4, "n": 2, "real": True}, sort_keys=True).encode() + b"\n"
    values = np.zeros((9, 9), dtype="<c16")
    values[4, 4] = 1.0
    if kind == "nan field":
        values[:] = np.nan
    payload = values.tobytes()
    if kind == "truncated field":
        payload = payload[:-5]
    path = tmp_path / "f.tfield"
    path.write_bytes(header + payload)
    return ["forward", "--field", path, "--out", tmp_path / "sino_out"]


# Sweep configs that a check by type alone lets through: each ends in a
# traceback, or runs (a NaN noise level as a noiseless sweep, a bool band as
# band 1).
BAD_CONFIGS = {
    "config eps not a number": {"noise": {"eps": "abc"}},
    "config noise a list": {"noise": [1]},
    "config reg not a number": {"method": "tikhonov", "reg": {"r": "x", "s": 1}},
    "config error norm a string": {"error_norms": ["a"]},
    "config eps nan": {"noise": {"eps": [float("nan")]}},
    "config band a bool": {"band": True, "grid": 16, "phantom": {"kind": "disk", "radius": 0.2}},
    "config harmonic frequency of length one": {
        "phantom": {"kind": "harmonic", "frequencies": [[1]], "amplitudes": [1.0]},
        "band": 4, "grid": 12},
}
BAD_PHANTOM_PARAMS = {
    "phantom params not json": "{bad",
    "phantom params not an object": "[1]",
    "phantom harmonic frequency of length one": '{"frequencies": [[1]], "amplitudes": [1.0]}',
}


@pytest.mark.parametrize("kind", ["truncated field", "nan field", "sinogram without subspaces",
                                  "sinogram with an empty subspace list",
                                  "missing sinogram directory", "sinogram missing a slice file",
                                  "sinogram slice band differs from meta",
                                  "sinogram meta d differs from its subspaces",
                                  "sinogram listing a subspace twice",
                                  "sinogram in the dense format",
                                  "csv with three fields", "csv with nan", "csv missing",
                                  "config missing", "config not json", "config not an object",
                                  *BAD_CONFIGS, *BAD_PHANTOM_PARAMS])
def test_corrupt_input_exit_code(tmp_path, capsys, kind):
    assert run(_corrupt_probe(tmp_path, kind)) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["forward", "--field", "f.tfield", "--cover", "-1"],
    ["bridge", "--cover", "-1"],
    ["bridge", "--band", "-1"],
    ["bridge", "--offsets", "0"],
    ["phantom", "--band", "-1"],
    ["selftest", "--seed", "-1"],
])
def test_out_of_range_flag_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        run(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {argv[-2]}: must be >= " in err and "Traceback" not in err


def test_params_error_names_its_source(tmp_path, capsys):
    argv = ["phantom", "--kind", "harmonic", "--band", "4", "--grid", "12",
            "--out", tmp_path / "p.tfield"]
    assert run([*argv, "--params", "{bad"]) == 2
    assert "error: --params is not valid JSON" in capsys.readouterr().err
    assert run([*argv, "--params", "[1]"]) == 2
    assert "error: --params must be a JSON object" in capsys.readouterr().err
    config = tmp_path / "cfg.json"
    config.write_text("{bad")
    assert run(["sweep", "--config", config, "--output", tmp_path / "sweep"]) == 2
    assert "error: config is not valid JSON" in capsys.readouterr().err


# harmonic frequencies of the wrong length or not integers were once read as
# the (1, 2) harmonic, a NaN disk centre as an all-zero field, and a bump
# width whose square overflows ended in a traceback: each is now refused
# with exit code 2, one error line and no file
@pytest.mark.parametrize("kind, params", [
    ("harmonic", '{"frequencies": [[1, 2, 3]], "amplitudes": [1.0]}'),
    ("harmonic", '{"frequencies": [[1.7, 2]], "amplitudes": [1.0]}'),
    ("disk", '{"radius": 0.2, "center": [NaN, 0.5]}'),
    ("multi-bump", '{"bumps": [{"width": 1e200}]}'),
])
def test_phantom_refuses_malformed_parameters(tmp_path, capsys, kind, params):
    out = tmp_path / "p.tfield"
    assert run(["phantom", "--kind", kind, "--params", params, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not out.exists()


# a band too large to allocate is reported like any refusal (the command is
# replaced, so nothing is allocated)
@pytest.mark.parametrize("raised, message", [
    (MemoryError("Unable to allocate 2.84 PiB for an array"), "Unable to allocate 2.84 PiB for an array"),
    (MemoryError(), "MemoryError"),
])
def test_memory_error_exits_2(tmp_path, capsys, monkeypatch, raised, message):
    def exhausted(args):
        raise raised
    monkeypatch.setattr("torusradon.cli.cmd_phantom", exhausted)
    assert run(["phantom", "--band", "10000000", "--grid", "20000002", "--out", tmp_path / "p"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
