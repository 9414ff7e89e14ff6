"""Command-line interface.

Subcommands: phantom, forward, reconstruct, sweep, bridge, selftest.
A sweep is set by its JSON config alone; `sweep --output` names where its
artifacts go. The output root can also come from the TORUSRADON_OUT
environment variable. Exit code 0 means every enabled invariant check
passed.

The argument parser is built once per process and shared by every `main`
call (argparse keeps no state between parses). `main` runs the
subcommand's `cmd_<name>` function looked up in this module when it is
called, so a function replaced here after the first call is the one run.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

from .bridge import bridge_ingest, disk_sinogram, sinogram_from_csv, sinogram_to_csv
from .errors import CorruptInput, TorusRadonError
from .experiments import METHODS, ExperimentConfig, run_experiment, selftest
from .fields import to_samples
from .io import (output_root, read_field, read_sinogram, write_field, write_in_place, write_pgm,
                 write_sinogram)
from .lattice import direction_cover
from .phantoms import DEFAULT_HARMONIC, phantom
from .transforms import forward_sinogram

# The layer functions behind METHODS stay importable from here: the
# benchmark's traced run wraps them by these names to time each layer.
from .inversion import adjoint_normalized, invert_filtered, invert_sum, reconstruct_slices  # noqa: F401
from .regularization import tikhonov_reconstruct  # noqa: F401
from .sinogram import canonical_weight  # noqa: F401


def _out_path(arg: str | None, default_name: str) -> Path:
    if arg:
        return Path(arg)
    return output_root() / default_name


@contextmanager
def _removed_if_refused(path):
    """Remove the file at path (if any) when the block raises: a run whose
    second output is refused leaves no output."""
    try:
        yield
    except BaseException:
        if path:
            Path(path).unlink(missing_ok=True)
        raise


def _write_field_and_image(field, path: Path, image_path, image) -> None:
    """The field file, then the image if asked for."""
    write_field(field, path)
    if image_path:
        with _removed_if_refused(path):
            write_pgm(image, image_path)


def cmd_phantom(args) -> int:
    params = ExperimentConfig.json_object(args.params, "--params") if args.params else {}
    if args.kind == "harmonic" and not params:
        params = DEFAULT_HARMONIC
    ph = phantom(args.kind, params, args.band, args.grid)
    image = to_samples(ph.field, args.grid).real if args.image else None
    path = _out_path(args.out, "phantom.tfield")
    _write_field_and_image(ph.field, path, args.image, image)
    info = {"kind": ph.kind, "mean": ph.field.coeff((0,) * ph.field.n).real}
    if ph.analytic_mean is not None:
        info["analytic_mean"] = ph.analytic_mean
    if ph.truncation_residual is not None:
        info["truncation_residual"] = ph.truncation_residual
    print(json.dumps(info, sort_keys=True))
    print(f"wrote {path}")
    return 0


def cmd_forward(args) -> int:
    f = read_field(args.field)
    cover = direction_cover(args.cover if args.cover is not None else f.K)
    g = forward_sinogram(f, cover)
    path = _out_path(args.out, "sinogram")
    write_sinogram(g, path)
    print(f"wrote {path} ({len(g.members)} slices, K={g.K})")
    return 0


def cmd_reconstruct(args) -> int:
    g = read_sinogram(args.sinogram)
    rec = METHODS[args.method](g, {"r": args.r, "s": args.s, "alpha": args.alpha})
    # render first: a --grid too coarse for the band writes no file
    image = to_samples(rec, args.grid).real if args.image else None
    path = _out_path(args.out, "recon.tfield")
    _write_field_and_image(rec, path, args.image, image)
    print(f"wrote {path}")
    return 0


def cmd_sweep(args) -> int:
    raw = ExperimentConfig.json_file(args.config)
    if args.output is not None:
        raw["output"] = args.output
    if raw.get("output") is None:
        raw["output"] = str(output_root() / "sweep")
    cfg = ExperimentConfig.from_dict(raw)
    reports = run_experiment(cfg)
    for rep in reports:
        eps = rep.parameters.get("eps", 0.0)
        err = rep.errors.get("grid_l2", float("nan"))
        print(f"eps={eps:g} grid_l2={err:.6g} ({rep.duration_s:.2f}s)")
    print(f"wrote {cfg.output}")
    return 0


def cmd_bridge(args) -> int:
    cover = direction_cover(args.cover)
    if args.csv:
        try:
            text = Path(args.csv).read_text()
        except (OSError, UnicodeDecodeError) as e:
            raise CorruptInput(f"{args.csv}: cannot read: {e}") from e
        sino = sinogram_from_csv(text, args.radius)
    else:
        sino = disk_sinogram(cover, args.offsets, args.radius)
    g = bridge_ingest(sino, cover, args.band)
    path = _out_path(args.out, "bridged_sinogram")
    emit = args.emit_csv
    if emit:  # a --csv input written by --emit-csv comes out byte for byte
        write_in_place(emit, sinogram_to_csv(sino))
    # a refused run removes the CSV it wrote, but never the --csv input
    rewrote_input = bool(emit and args.csv) and Path(emit) == Path(args.csv)
    with _removed_if_refused(None if rewrote_input else emit):
        write_sinogram(g, path)
    print(f"wrote {path} ({len(g.members)} slices)")
    return 0


def cmd_selftest(args) -> int:
    ok, results = selftest(args.out, seed=args.seed)
    for name in sorted(results):
        r = results[name]
        print(f"{'PASS' if r['passed'] else 'FAIL'} {name} (metric {r['metric']:.3e})")
    print("selftest:", "OK" if ok else "FAILED")
    return 0 if ok else 1


def _int_at_least(lo: int):
    """argparse type: an integer >= lo; anything else is a usage error."""
    def parse(text: str) -> int:
        if int(text) < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {text}")
        return int(text)
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="torusradon",
                                description="Tomography on flat tori: transforms, inversion, regularization")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("phantom", help="emit a band-limited phantom field")
    q.add_argument("--kind", default="disk", choices=["harmonic", "disk", "multi-bump"])
    q.add_argument("--params", help="JSON phantom parameters")
    q.add_argument("--band", type=_int_at_least(0), default=16)
    q.add_argument("--grid", type=int, default=128)
    q.add_argument("--out")
    q.add_argument("--image", help="also write a PGM rendering")

    q = sub.add_parser("forward", help="forward transform over a direction cover")
    q.add_argument("--field", required=True)
    q.add_argument("--cover", type=_int_at_least(0), help="cover radius (default: the field band)")
    q.add_argument("--out")

    q = sub.add_parser("reconstruct", help="invert a stored sinogram")
    q.add_argument("--sinogram", required=True)
    q.add_argument("--method", default="filtered", choices=list(METHODS))
    q.add_argument("--r", type=float, default=0.0)
    q.add_argument("--s", type=float, default=1.0)
    q.add_argument("--alpha", type=float, default=1e-2)
    q.add_argument("--grid", type=int, default=128)
    q.add_argument("--out")
    q.add_argument("--image")

    q = sub.add_parser("sweep", help="run a configured experiment sweep")
    q.add_argument("--config", required=True)
    q.add_argument("--output", help="artifact directory; replaces the config's output")

    q = sub.add_parser("bridge", help="map Euclidean parallel-beam data onto the torus")
    q.add_argument("--csv", help="Euclidean sinogram CSV (angle_vx,angle_vy,offset,value)")
    q.add_argument("--radius", type=float, default=0.2, help="object support radius")
    q.add_argument("--offsets", type=_int_at_least(1), default=256)
    q.add_argument("--cover", type=_int_at_least(0), default=16)
    q.add_argument("--band", type=_int_at_least(0), default=16)
    q.add_argument("--emit-csv", help="write the Euclidean sinogram the run used here "
                   "(the generated one, or the --csv input)")
    q.add_argument("--out")

    q = sub.add_parser("selftest", help="run the invariant battery")
    q.add_argument("--out", help="write deterministic report artifacts here")
    q.add_argument("--seed", type=_int_at_least(0), default=20190614)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (TorusRadonError, OSError, MemoryError) as e:  # an unwritable path, a band too large
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
