"""Workloads on the coronagraph demo: ``corona-solve`` and ``corona-prime``.

``corona-solve`` is time to a solution of stated accuracy: one trust-region
solve from zero phase, stopped by ``sse_floor`` once the SSE is at most
``TARGET`` times its initial value.  Solve cost depends on the scene, so each
seed draws ``SCENES`` scenes and a cycle solves each once; medians over many
scenes vary little between seeds.

``corona-prime`` evaluates the model alone on a scene of prime size, so the
FFTs take the Bluestein path, and the Hessian-multiply works on two pages.
The optimizer does no work there.

References are built from ``numpy.fft``, never from the demo's own FFTs.
"""

from __future__ import annotations

import importlib

import numpy as np

from rtensor.corona import fourier, model, scene

from workload import Op, Workload

optimize = importlib.import_module("rtensor.corona.optimize")  # the package re-exports the function under this name

TARGET = 0.1  # stop once SSE <= TARGET * initial SSE
MAX_ITER = 200  # reaching this cap is a failed solve
SCENES = 32
SOLVE_SIZE = 64  # power of two: the radix-2 path
PRIME_SIZE = 127  # prime: the Bluestein path


def _np_model(phi, xa, wb):
    """The demo's SSE, gradient and corrected image, through ``numpy.fft``."""
    yt = np.fft.fft2(xa) * np.exp(1j * phi)
    xt = np.real(np.fft.ifft2(yt))
    xe = (wb | (~wb & (xt < 0))) * xt
    grad = 2.0 / xt.size * np.imag(np.conj(yt) * np.fft.fft2(xe))
    return float(xe.ravel() @ xe.ravel()), grad, xt


def _np_hess_mult(xt, dphi, wb):
    yt = np.fft.fft2(xt)
    w = wb | (~wb & (xt < 0))
    ye = np.fft.fft2(w * xt)
    dyt = 1j * (yt[:, :, None] * dphi)
    dxt = np.real(np.fft.ifft2(dyt, axes=(0, 1)))
    dye = np.fft.fft2(w[:, :, None] * dxt, axes=(0, 1))
    mn = xt.size
    f = 2.0 / mn * (np.imag(np.conj(dyt) * ye[:, :, None]) + np.imag(np.conj(yt)[:, :, None] * dye))
    return f.reshape(mn, dphi.shape[2])


def _close(got, ref, rel=1e-8) -> bool:
    got, ref = np.asarray(got), np.asarray(ref)
    return got.shape == ref.shape and np.allclose(got, ref, rtol=rel, atol=rel * max(np.abs(ref).max(), 1e-300))


def _fft_ok(x) -> bool:
    return _close(fourier.fft2(x), np.fft.fft2(x, axes=(0, 1)), 1e-10)


class CoronaSolve(Workload):
    name = "corona-solve"
    tail_percentile = 90.0

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng(seed)
        size, count = (32, 2) if tiny else (SOLVE_SIZE, SCENES)
        seeds = rng.integers(0, 2**31, size=count)
        self.instances = [scene.make_instance(scene.SceneConfig(size=size, seed=int(s))) for s in seeds]
        self.ops = [self._solve_op(inst) for inst in self.instances]
        self.stats = {"solves": 0, "cg": 0, "outer": 0, "accepted": 0}

    def _solve_op(self, inst) -> Op:
        xa, wb = inst.aberrated, inst.mask
        floor = TARGET * _np_model(np.zeros_like(xa), xa, wb)[0]
        opts = optimize.TrustRegionOptions(max_iter=MAX_ITER, sse_floor=floor)

        def run():
            return optimize.optimize(xa, wb, opts)

        def check(report, full):
            traj = np.asarray(report.sse_trajectory)
            ok = (
                report.stop_reason == "sse_floor"
                and report.iterations < MAX_ITER
                and traj[-1] <= floor
                and bool(np.all(np.diff(traj) <= 0))
            )
            return ok and (not full or _fft_ok(xa))

        return Op("solve", run, check)

    def pass_stats(self, op, report):
        self.stats["solves"] += 1
        self.stats["cg"] += sum(report.cg_iterations)
        self.stats["outer"] += report.iterations
        self.stats["accepted"] += len(report.sse_trajectory) - 1

    def layer_metrics(self):
        s = self.stats
        return {
            "optimize.cg_iters": s["cg"] / s["solves"],
            "optimize.outer_iters": s["outer"] / s["solves"],
            "optimize.accept_ratio": s["accepted"] / s["outer"],
        }


class CoronaPrime(Workload):
    name = "corona-prime"
    tail_percentile = 95.0

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng(seed)
        size = 37 if tiny else PRIME_SIZE
        inst = scene.make_instance(scene.SceneConfig(size=size, seed=int(rng.integers(2**31))))
        xa, wb = inst.aberrated, inst.mask
        phi = rng.uniform(-0.1, 0.1, xa.shape)
        dphi = rng.uniform(-0.1, 0.1, xa.shape + (2,))
        xt = np.real(np.fft.ifft2(np.fft.fft2(xa) * np.exp(1j * phi)))
        refs = {}

        def reference():
            if not refs:
                refs["model"] = _np_model(phi, xa, wb)
                refs["hess"] = _np_hess_mult(xt, dphi, wb)
            return refs

        def check_sse(out, full):
            e, grad, xt_out = out
            ref_e, ref_grad, ref_xt = reference()["model"]
            ok = grad is None and _close(e, ref_e) and _close(xt_out, ref_xt)
            return ok and (not full or (_fft_ok(xa) and _fft_ok(dphi)))

        def check_grad(out, full):
            e, grad, _ = out
            ref_e, ref_grad, _ = reference()["model"]
            return _close(e, ref_e) and _close(grad, ref_grad)

        def check_hess(out, full):
            return _close(out, reference()["hess"])

        self.ops = [
            Op("sse", lambda: model.sse(phi, xa, wb), check_sse),
            Op("sse-grad", lambda: model.sse(phi, xa, wb, want_gradient=True), check_grad),
            Op("hess-mult", lambda: model.hess_mult(xt, dphi, wb), check_hess),
        ]
