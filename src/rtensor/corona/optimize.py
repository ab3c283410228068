"""Trust-region Newton-CG minimization of the image-plane SSE.

The inner subproblem is solved by Steihaug's truncated conjugate gradient,
with Hessian-vector products supplied by the Hessian-multiply function at the
current iterate, so no Hessian is ever formed.  CG also carries the Hessian
applied to its step, so the predicted reduction costs no extra multiply.
Accepted steps strictly decrease the SSE; the trajectory of accepted values is
therefore nonincreasing.  A non-finite reduction ratio shrinks the radius like
a poor one, so the solver cannot repeat a rejected step forever.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .model import AllocationLedger, hess_mult_cached, state_at

__all__ = ["TrustRegionOptions", "OptReport", "optimize"]


@dataclass(frozen=True)
class TrustRegionOptions:
    max_iter: int = 200
    grad_tol: float = 1e-8
    cg_max_iter: int = 250
    cg_forcing: float = 0.5
    cg_tol: float | None = None  # fixed inner tolerance; None uses the forcing rule
    initial_radius: float = 1.0
    expand: float = 2.0
    shrink: float = 0.25
    rho_expand: float = 0.75
    rho_shrink: float = 0.25
    rho_accept: float = 1e-4
    radius_collapse: float = 1e-13
    sse_floor: float = 1e-22
    seed: int = 0
    verbose: bool = False


@dataclass
class OptReport:
    iterations: int
    sse_trajectory: list[float]
    grad_norms: list[float]
    wall_times: list[float]
    peak_bytes: int
    phi: np.ndarray
    corrected: np.ndarray
    stop_reason: str
    cg_iterations: list[int] = field(default_factory=list)
    radii: list[float] = field(default_factory=list)


def _steihaug(grad, hv, radius, tol, max_iter):
    """Truncated CG on the quadratic model inside the trust region.

    Returns ``(step, h_step, hit_boundary, iterations)``, where ``h_step`` is
    the Hessian applied to ``step``, accumulated from the products CG already
    makes.
    """
    z = np.zeros_like(grad)
    hz = np.zeros_like(grad)
    r = grad.copy()
    d = -r
    rr = float(r.ravel() @ r.ravel())
    if np.sqrt(rr) <= tol:
        return z, hz, False, 0
    for k in range(1, max_iter + 1):
        hd = hv(d)
        dhd = float(d.ravel() @ hd.ravel())
        if dhd <= 0:
            tau = _to_boundary(z, d, radius)
            return z + tau * d, hz + tau * hd, True, k
        alpha = rr / dhd
        z_next = z + alpha * d
        if np.linalg.norm(z_next) >= radius:
            tau = _to_boundary(z, d, radius)
            return z + tau * d, hz + tau * hd, True, k
        hz += alpha * hd
        r = r + alpha * hd
        rr_next = float(r.ravel() @ r.ravel())
        if np.sqrt(rr_next) <= tol:
            return z_next, hz, False, k
        d = -r + (rr_next / rr) * d
        z = z_next
        rr = rr_next
    return z, hz, False, max_iter


def _to_boundary(z, d, radius):
    """The ``tau >= 0`` with ``|z + tau*d| = radius``."""
    dd = float(d.ravel() @ d.ravel())
    zd = float(z.ravel() @ d.ravel())
    zz = float(z.ravel() @ z.ravel())
    return (-zd + np.sqrt(zd * zd + dd * (radius * radius - zz))) / dd


def optimize(xa, wb, options: TrustRegionOptions | None = None) -> OptReport:
    """Minimize the SSE over the phase matrix, starting from zeros."""
    opts = options or TrustRegionOptions()
    xa = np.asarray(xa)  # state_at checks and casts it
    ledger = AllocationLedger()
    phi = np.zeros(xa.shape)
    state = state_at(phi, xa, wb, ledger=ledger)
    radius = opts.initial_radius
    trajectory = [state.e]
    grad_norms = [float(np.abs(state.grad).max())]
    wall = [0.0]
    cg_iters: list[int] = []
    radii = [radius]
    stop = "max_iter"
    start = time.perf_counter()
    it = 0

    def hv(d):
        f = hess_mult_cached(state, d, ledger=ledger)
        return f[:, 0].reshape(d.shape)

    while it < opts.max_iter:
        gn_inf = float(np.abs(state.grad).max())
        if gn_inf <= opts.grad_tol:
            stop = "grad_tol"
            break
        if state.e <= opts.sse_floor:
            stop = "sse_floor"
            break
        g = state.grad
        gn2 = float(np.linalg.norm(g))
        tol = opts.cg_tol if opts.cg_tol is not None else min(opts.cg_forcing, np.sqrt(gn2)) * gn2
        step, hs, boundary, k = _steihaug(g, hv, radius, tol, opts.cg_max_iter)
        cg_iters.append(k)
        if not np.any(step):
            stop = "no_step"
            break
        pred = -(float(g.ravel() @ step.ravel()) + 0.5 * float(step.ravel() @ hs.ravel()))
        trial = state_at(phi + step, xa, wb, ledger=ledger)
        actual = state.e - trial.e
        rho = actual / pred if pred > 0 else -np.inf

        if not np.isfinite(rho) or rho < opts.rho_shrink:
            radius *= opts.shrink
        elif rho > opts.rho_expand and boundary:
            radius *= opts.expand
        accepted = rho > opts.rho_accept and trial.e < state.e
        if accepted:
            phi = phi + step
            state = trial
            trajectory.append(state.e)
            grad_norms.append(float(np.abs(state.grad).max()))
        it += 1
        wall.append(time.perf_counter() - start)
        radii.append(radius)
        if opts.verbose:
            print(
                f"iter {it:3d}  sse {state.e:.6e}  |g| {grad_norms[-1]:.3e}  "
                f"radius {radius:.2e}  cg {k:3d}  {'acc' if accepted else 'rej'}"
            )
        if radius < opts.radius_collapse:
            stop = "radius_collapse"
            break

    return OptReport(
        iterations=it,
        sse_trajectory=trajectory,
        grad_norms=grad_norms,
        wall_times=wall,
        peak_bytes=ledger.peak,
        phi=phi,
        corrected=state.xt,
        stop_reason=stop,
        cg_iterations=cg_iters,
        radii=radii,
    )
