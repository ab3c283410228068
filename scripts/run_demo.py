#!/usr/bin/env python3
"""Synthesize a scene, correct its phase aberration, and write the images.

Runs `rt-corona synth` and then `rt-corona solve --verbose` into one
directory, and prints how far the corrected image is from the ground truth.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from rtensor.corona import SceneConfig, make_instance, state_at
from rtensor.corona.cli import main as corona_main
from rtensor.corona.pgm import read_csv


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=64)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--max-iter", type=int, default=200)
    parser.add_argument("--out", default="demo_out")
    parser.add_argument("--square", action="store_true")
    args = parser.parse_args()

    square = ["--square"] if args.square else []
    for argv in (
        ["synth", "--size", str(args.size), "--seed", str(args.seed), "--out", args.out],
        ["solve", "--in", args.out, "--max-iter", str(args.max_iter), "--out", args.out, "--verbose"],
    ):
        status = corona_main(argv + square)
        if status:
            return status

    inst = make_instance(SceneConfig(size=args.size, seed=args.seed))
    # the corrected image at the written phase, exactly as the solver computed it
    corrected = state_at(read_csv(Path(args.out) / "phase.csv"), inst.aberrated, inst.mask).xt
    print(f"max |corrected - ground truth| = {np.abs(corrected - inst.ground_truth).max():.3e}")
    print(f"images in {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
