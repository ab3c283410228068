#!/usr/bin/env python3
"""Synthesize a scene, correct its phase aberration, and write the images.

Equivalent to `rt-corona synth` followed by `rt-corona solve`, with a short
convergence summary printed at the end.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from rtensor.corona import SceneConfig, TrustRegionOptions, make_instance, optimize
from rtensor.corona.pgm import write_csv, write_mask, write_pgm


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=64)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--max-iter", type=int, default=200)
    parser.add_argument("--out", default="demo_out")
    parser.add_argument("--square", action="store_true")
    args = parser.parse_args()

    inst = make_instance(SceneConfig(size=args.size, seed=args.seed))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_pgm(out / "source.pgm", inst.source, square=args.square)
    write_pgm(out / "ground_truth.pgm", inst.ground_truth, square=args.square)
    write_mask(out / "mask.pgm", inst.mask)
    write_pgm(out / "aberrated.pgm", inst.aberrated, square=args.square)

    report = optimize(
        inst.aberrated, inst.mask,
        TrustRegionOptions(max_iter=args.max_iter, verbose=True),
    )
    write_pgm(out / "corrected.pgm", report.corrected, square=args.square)
    write_csv(out / "phase.csv", report.phi)

    traj = report.sse_trajectory
    err = np.abs(report.corrected - inst.ground_truth).max()
    print(
        f"\nsse {traj[0]:.4e} -> {traj[-1]:.4e} "
        f"({traj[-1] / traj[0]:.2e} of initial) in {report.iterations} iterations"
    )
    print(f"max |corrected - ground truth| = {err:.3e}")
    print(f"images in {out}/")


if __name__ == "__main__":
    main()
