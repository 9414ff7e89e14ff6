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


def test_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("TORUSRADON_OUT", str(tmp_path / "root"))
    (tmp_path / "root").mkdir()
    assert run(["phantom", "--kind", "harmonic", "--band", "4", "--grid", "12"]) == 0
    assert (tmp_path / "root" / "phantom.tfield").exists()


def _corrupt_probe(tmp_path, kind):
    """A corrupt input file or directory, and the command that reads it."""
    if kind == "sinogram without subspaces":
        sino = tmp_path / "sino"
        sino.mkdir()
        (sino / "meta.json").write_text(json.dumps({"n": 2, "d": 1, "K": 4}))
        (sino / "mean.txt").write_text("1 0\n")
        return ["reconstruct", "--sinogram", sino, "--out", tmp_path / "r.tfield"]
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


@pytest.mark.parametrize("kind", ["truncated field", "nan field", "sinogram without subspaces"])
def test_corrupt_input_exit_code(tmp_path, capsys, kind):
    assert run(_corrupt_probe(tmp_path, kind)) == 2
    assert "error:" in capsys.readouterr().err
