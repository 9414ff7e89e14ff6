#!/usr/bin/env python3
"""Noise sweep for one phantom and method; thin wrapper over the sweep
config machinery so the same run is reproducible through the CLI."""

import argparse
import sys

from torusradon.errors import TorusRadonError
from torusradon.experiments import METHODS, ExperimentConfig, run_experiment

DEFAULT = {
    "phantom": {"kind": "multi-bump", "bumps": [
        {"center": [0.35, 0.55], "width": 0.07, "amplitude": 1.0},
        {"center": [0.65, 0.4], "width": 0.05, "amplitude": 0.6},
    ]},
    "band": 16,
    "grid": 64,
    "method": "tikhonov",
    "reg": {"r": 0.0, "s": 1.0, "delta": 1.0, "schedule": "strategy"},
    "noise": {"eps": [10.0**-i for i in range(1, 7)], "t": 0.0},
    "seed": 20190614,
    "error_norms": [0.0],
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/noise_sweep")
    ap.add_argument("--config", help="JSON config overriding the built-in default")
    ap.add_argument("--method", choices=list(METHODS))
    args = ap.parse_args()
    raw = dict(DEFAULT)
    if args.config:
        raw.update(ExperimentConfig.json_file(args.config))
    if args.method:
        raw["method"] = args.method
    raw["output"] = args.out
    cfg = ExperimentConfig.from_dict(raw)
    reports = run_experiment(cfg)
    for rep in reports:
        eps = rep.parameters.get("eps")
        print(f"eps={eps:g}: H0 error {rep.errors['H0']:.6g}")
    print(f"wrote {cfg.output}")


if __name__ == "__main__":
    try:
        main()
    except TorusRadonError as e:  # a bad config, as `torusradon sweep` reports it
        print(f"error: {e}", file=sys.stderr)
        sys.exit(2)
