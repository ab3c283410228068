"""Command line driver for the coronagraph demo (`rt-corona`).

Subcommands: ``synth`` writes a synthetic scene, ``solve`` corrects an
aberrated image by SSE minimization, ``bench`` measures kernel timings and
tracemalloc peak bytes, ``check`` runs the finite-difference derivative suites.
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ..errors import DataFileError, EngineError
from .bench import benchmark, write_bench_csv
from .fourier import fft2, ifft2
from .model import hess_mult, sse
from .optimize import TrustRegionOptions, optimize
from .pgm import read_csv, read_mask, read_pgm, write_csv, write_mask, write_pgm
from .scene import SceneConfig, make_aberration, make_instance


@contextmanager
def _writing(out: Path):
    """Report an OS fault while writing to ``out`` as a DataFileError that
    names the file (or ``out`` when the fault names none)."""
    try:
        yield
    except OSError as exc:
        raise DataFileError(f"cannot write: {exc.strerror or exc}", exc.filename or out) from exc


def _cmd_synth(args):
    cfg = SceneConfig(size=args.size, seed=args.seed)
    inst = make_instance(cfg)
    out = Path(args.out)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
        write_pgm(out / "source.pgm", inst.source, square=args.square)
        write_pgm(out / "ground_truth.pgm", inst.ground_truth, square=args.square)
        write_mask(out / "mask.pgm", inst.mask)
        write_pgm(out / "aberrated.pgm", inst.aberrated, square=args.square)
        # the PGM clamps negatives; the CSV keeps the exact values the solver needs
        write_csv(out / "aberrated.csv", inst.aberrated)
    print(f"wrote scene ({cfg.size}x{cfg.size}, seed {cfg.seed}) to {out}/")
    return 0


def _cmd_solve(args):
    src = Path(args.indir)
    wb = read_mask(src / "mask.pgm")
    csv_path = src / "aberrated.csv"
    if csv_path.exists():
        xa = read_csv(csv_path)
    else:
        xa = read_pgm(src / "aberrated.pgm")
    opts = TrustRegionOptions(
        max_iter=args.max_iter, grad_tol=args.grad_tol, verbose=args.verbose
    )
    report = optimize(xa, wb, opts)
    out = Path(args.out)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
        write_pgm(out / "corrected.pgm", report.corrected, square=args.square)
        write_csv(out / "phase.csv", report.phi)
        with open(out / "report.csv", "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["step", "sse", "grad_inf_norm", "secs"])
            for k, e in enumerate(report.sse_trajectory):
                writer.writerow(
                    [k, f"{e:.9e}", f"{report.grad_norms[k]:.9e}", f"{report.wall_times[k]:.6f}"]
                )
    first, last = report.sse_trajectory[0], report.sse_trajectory[-1]
    print(
        f"{report.iterations} iterations, sse {first:.4e} -> {last:.4e}, "
        f"stop: {report.stop_reason}; wrote {out}/corrected.pgm"
    )
    return 0


def _square_sizes(text):
    return [int(s) for s in text.split(",")]


def _cmd_bench(args):
    rows = benchmark(args.sizes, reps=args.reps)
    with _writing(Path(args.out)):
        write_bench_csv(rows, args.out)
    print(
        f"{'size':>6} {'sse':>10} {'sse+grad':>10} {'hmf P=2':>10} {'grad/sse':>9} {'hmf/grad':>9}"
        f" {'sse B':>11} {'sse+grad B':>11} {'hmf B':>11}"
    )
    for s, g, h in zip(rows[0::3], rows[1::3], rows[2::3]):  # each size's sse, sse_grad, hmf in run order
        print(
            f"{s.m:>6} {s.secs * 1e3:>8.3f}ms {g.secs * 1e3:>8.3f}ms {h.secs * 1e3:>8.3f}ms "
            f"{g.secs / s.secs:>9.2f} {h.secs / g.secs:>9.2f} {s.bytes:>11d} {g.bytes:>11d} {h.bytes:>11d}"
        )
    print(f"wrote {args.out} (bytes: tracemalloc peak per call)")
    return 0


def _cmd_check(args):
    rng = np.random.default_rng(11)
    m = n = 8
    source = np.abs(fft2(rng.uniform(size=(m, n)))) ** 2
    source /= source.max()
    r = np.hypot(*np.meshgrid(np.arange(m) - m // 2, np.arange(n) - n // 2, indexing="ij"))
    wb = (r < 1) | (r > 3)
    phi_true = make_aberration(m, n, 5)
    xa = np.real(ifft2(fft2(np.sqrt(source) * ~wb) * np.exp(1j * phi_true)))
    phi = make_aberration(m, n, 6) * 0.3
    eps = 1e-5
    failures = 0

    _, grad, xt = sse(phi, xa, wb, want_gradient=True)
    for k in range(10):
        d = rng.standard_normal((m, n))
        ep, _, _ = sse(phi + eps * d, xa, wb)
        em, _, _ = sse(phi - eps * d, xa, wb)
        fd = (ep - em) / (2 * eps)
        an = float((grad * d).sum())
        scale = max(abs(fd), abs(an), 1e-12)
        if abs(fd - an) / scale > 1e-6:
            failures += 1
            print(f"gradient direction {k}: fd {fd:.6e} vs analytic {an:.6e}")

    dphi = rng.standard_normal((m, n, 3))
    f = hess_mult(xt, dphi, wb)
    for k in range(3):
        _, gp, _ = sse(phi + eps * dphi[:, :, k], xa, wb, want_gradient=True)
        _, gm, _ = sse(phi - eps * dphi[:, :, k], xa, wb, want_gradient=True)
        fd = (gp - gm) / (2 * eps)
        hv = f[:, k].reshape(m, n)
        scale = max(np.abs(fd).max(), np.abs(hv).max(), 1e-12)
        if np.abs(fd - hv).max() / scale > 1e-5:
            failures += 1
            print(f"hessian page {k}: max deviation {np.abs(fd - hv).max():.3e}")

    print("derivative checks:", "ok" if failures == 0 else f"{failures} failures")
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="rt-corona", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic scene")
    p.add_argument("--size", type=int, default=401)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--square", action="store_true", help="square pixel values at export")
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("solve", help="correct an aberrated image")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--grad-tol", type=float, default=1e-8)
    p.add_argument("--out", required=True)
    p.add_argument("--square", action="store_true")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("bench", help="time the kernels and record tracemalloc peak bytes")
    p.add_argument("--sizes", type=_square_sizes, default="64,128,256,512")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("check", help="finite-difference derivative suites")
    p.set_defaults(fn=_cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except EngineError as exc:  # a clean message for faults in the input; bugs keep their traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
