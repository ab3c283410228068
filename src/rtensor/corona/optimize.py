"""Trust-region Newton-CG minimization of the image-plane SSE.

The inner subproblem is solved by Steihaug's truncated conjugate gradient,
with Hessian-vector products taken at the current iterate, so no Hessian is
ever formed.  A product comes in two parts: the curvature d'Hd, which costs
one inverse transform (``model._page_product``), and the vector Hd, which
costs a forward one more and is completed only when CG steps inside the
trust region.  A step that ends on the boundary, as most do, needs only the
curvature.  CG carries H applied to its iterate, so the predicted reduction
costs no extra multiply.
Accepted steps strictly decrease the SSE; the trajectory of accepted values is
therefore nonincreasing.  A non-finite reduction ratio shrinks the radius like
a poor one, so the solver cannot repeat a rejected step forever.

CG is Jacobi-preconditioned by a change of variables (Steihaug 1983; Nocedal
and Wright, *Numerical Optimization*, ch. 4 and 7): with ``s`` the inverse
square root of the Hessian's diagonal, floored, CG works on ``s o g`` and
``s o H(s o v)`` and the step is ``s o`` its result, so the trust region
bounds the step in the scaled norm ``|step / s|``.  ``s`` is recomputed at
the start and at each accepted point from the model state and one ``fft2``
of its deviant mask, a quarter-size one when M and N are even.  The diagonal
is exact on the odd phases,
phi(-k) = -phi(k).  The solve starts there, at zero, and leaves as rounding
grows an even part; that departure is what lets criterion 9's scene converge.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import BoundsError
from .fourier import fft2
from .model import _page_product, state_at

__all__ = ["TrustRegionOptions", "OptReport", "optimize"]


_CG_MAX_ITER = 250
_CG_FORCING = 0.5  # inner tolerance is min(_CG_FORCING, sqrt|g|) * |g|
_INITIAL_RADIUS = 1.0
_EXPAND = 2.0
_SHRINK = 0.25
_RHO_EXPAND = 0.75
_RHO_SHRINK = 0.25
_RHO_ACCEPT = 1e-4
_RADIUS_COLLAPSE = 1e-13
# relative to max|d|.  Hessian products to 1e-3 of the initial SSE, scenes with
# seeds 1-8: at 64x64, 1474, 624, 523, 609 and 737 for floors 1e-2 to 1e-6;
# at 128x128, 5959, 2106, 1432, 1548 and 1886 (three solves hit max_iter at 1e-6)
_DIAG_FLOOR = 1e-4


@dataclass(frozen=True)
class TrustRegionOptions:
    max_iter: int = 200
    grad_tol: float = 1e-8
    sse_floor: float = 1e-22
    verbose: bool = False

    def __post_init__(self):
        # the loop would round a fractional cap up, and never reach an infinite one
        if not isinstance(self.max_iter, numbers.Integral):
            raise BoundsError(f"max_iter must be an integer, got {self.max_iter}")
        # a negative cap runs no iteration, and a NaN tolerance never stops the solve
        for name in ("max_iter", "grad_tol", "sse_floor"):
            value = getattr(self, name)
            if not value >= 0:
                raise BoundsError(f"{name} must be nonnegative, got {value}")


@dataclass
class OptReport:
    """The solver's result.  ``sse_trajectory``, ``grad_norms`` and
    ``wall_times`` hold the start and each accepted step.  ``grad_norms`` are
    of the unscaled gradient; the radius ``verbose`` prints is in the scaled
    norm the preconditioned CG works in."""

    iterations: int
    sse_trajectory: list[float]
    grad_norms: list[float]
    wall_times: list[float]
    phi: np.ndarray
    corrected: np.ndarray
    stop_reason: str
    cg_iterations: list[int] = field(default_factory=list)


def _steihaug(grad, hv, radius, tol, max_iter):
    """Truncated CG on the quadratic model inside the trust region.

    ``hv(d)`` returns ``(d'Hd, finish)``, and ``finish()`` returns Hd.  The
    curvature test, the step length and the boundary exit need only d'Hd, so
    ``finish`` is called only when CG steps inside the region, and dropped
    before the next product.  Returns ``(step, step_h_step, hit_boundary,
    iterations)``, where ``step_h_step`` is step'H step.  It comes from the
    H z that CG carries: for a step z + tau*d and H symmetric it is
    z'Hz + 2*tau*d'Hz + tau^2*d'Hd.
    """
    z = np.zeros_like(grad)
    hz = np.zeros_like(grad)
    r = grad.copy()
    d = -r
    rr = float(r.ravel() @ r.ravel())
    if np.sqrt(rr) <= tol:
        return z, 0.0, False, 0
    for k in range(1, max_iter + 1):
        dhd, finish = hv(d)
        if dhd <= 0:
            return (*_boundary_step(z, hz, d, dhd, radius), True, k)
        alpha = rr / dhd
        z_next = z + alpha * d
        if np.linalg.norm(z_next) >= radius:
            return (*_boundary_step(z, hz, d, dhd, radius), True, k)
        hd = finish()
        del finish  # it holds the product's buffers
        hz += alpha * hd
        r = r + alpha * hd
        rr_next = float(r.ravel() @ r.ravel())
        if np.sqrt(rr_next) <= tol:
            return z_next, float(z_next.ravel() @ hz.ravel()), False, k
        d = -r + (rr_next / rr) * d
        z = z_next
        rr = rr_next
    return z, float(z.ravel() @ hz.ravel()), False, max_iter


def _boundary_step(z, hz, d, dhd, radius):
    """The step ``z + tau*d`` to the boundary, and its step'H step."""
    tau = _to_boundary(z, d, radius)
    zhz = float(z.ravel() @ hz.ravel())
    dhz = float(d.ravel() @ hz.ravel())
    return z + tau * d, zhz + 2.0 * tau * dhz + tau * tau * dhd


def _to_boundary(z, d, radius):
    """The ``tau >= 0`` with ``|z + tau*d| = radius``."""
    dd = float(d.ravel() @ d.ravel())
    zd = float(z.ravel() @ d.ravel())
    zz = float(z.ravel() @ z.ravel())
    return (-zd + np.sqrt(zd * zd + dd * (radius * radius - zz))) / dd


def _jacobi_scaling(state, s):
    """Write into ``s`` the scaling ``1/sqrt(max(|d|, _DIAG_FLOOR * max|d|))``.

    At an odd phase, phi(-k) = -phi(k) with indices mod (M, N), ``d`` is the
    Hessian's exact curvature along ``e_k - e_-k`` per unit step,
    ``2*(f*|yt|^2 - Re(conj(yt)^2 o W2)/MN - curvature)/MN``, with ``f`` the
    deviant fraction ``mean(w)`` and ``W2`` the mask's DFT ``fft2(w)`` read
    at twice the frequency, mod (M, N).  For even M,
    W(2k) = sum_{r < M/2} (w_r + w_{r+M/2}) e^(-2 pi i k r / (M/2)): the
    (M/2)-point DFT of the mask folded in half, with period M/2 in k; likewise
    along N.  So for even M and N, ``W2`` is the (M/2) x (N/2) DFT of the mask
    folded 2x2, tiled 2x2; otherwise it is ``fft2(w)`` gathered at
    (2k mod M, 2l mod N).  That one ``fft2`` is the scaling's
    whole cost in transforms.  ``s`` is filled in place to keep the solve's peak.
    """
    (m, n), mn = s.shape, s.size
    c = np.conj(state.yt)
    c *= c
    if m % 2 or n % 2:
        c *= fft2(state.w)[np.ix_(2 * np.arange(m) % m, 2 * np.arange(n) % n)]
    else:  # W2 tiles the DFT of the mask folded 2x2, so c's four quadrants share it
        half = fft2(state.w.reshape(2, m // 2, 2, n // 2).sum(axis=(0, 2)))
        c.reshape(2, m // 2, 2, n // 2)[...] *= half[:, None, :]
    np.abs(state.yt, out=s)
    s *= s
    s *= np.count_nonzero(state.w)  # f*MN
    s -= c.real
    del c
    s /= mn
    s -= state.curvature
    s *= 2.0 / mn
    np.abs(s, out=s)
    np.maximum(s, _DIAG_FLOOR * s.max() or 1.0, out=s)  # a zero diagonal leaves CG unscaled
    np.sqrt(s, out=s)
    np.divide(1.0, s, out=s)


def optimize(xa, wb, options: TrustRegionOptions | None = None) -> OptReport:
    """Minimize the SSE over the phase matrix, starting from zeros."""
    opts = options or TrustRegionOptions()
    xa = np.asarray(xa)  # state_at checks and casts it
    state = state_at(np.zeros(xa.shape), xa, wb)
    radius = _INITIAL_RADIUS
    trajectory = [state.e]
    grad_norms = [float(np.abs(state.grad).max())]
    wall = [0.0]
    cg_iters: list[int] = []
    stop = "max_iter"
    start = time.perf_counter()
    it = 0

    s = np.empty(state.phi.shape)
    _jacobi_scaling(state, s)

    def scaled_hv(v):
        dhd, finish = _page_product(state.yt, state.w, state.curvature, s * v)

        def scaled():
            hv = finish()
            hv *= s
            return hv

        return dhd, scaled

    while it < opts.max_iter:
        gn_inf = float(np.abs(state.grad).max())
        if gn_inf <= opts.grad_tol:
            stop = "grad_tol"
            break
        if state.e <= opts.sse_floor:
            stop = "sse_floor"
            break
        g = s * state.grad
        gn2 = float(np.linalg.norm(g))
        tol = min(_CG_FORCING, np.sqrt(gn2)) * gn2
        step, shs, boundary, k = _steihaug(g, scaled_hv, radius, tol, _CG_MAX_ITER)
        cg_iters.append(k)
        if not np.any(step):
            stop = "no_step"
            break
        pred = -(float(g.ravel() @ step.ravel()) + 0.5 * shs)
        del g  # the trial evaluation below sets the solve's memory peak
        step *= s
        step += state.phi
        trial = state.at(step)  # its phase is this buffer
        actual = state.e - trial.e
        rho = actual / pred if pred > 0 else -np.inf

        if not np.isfinite(rho) or rho < _RHO_SHRINK:
            radius *= _SHRINK
        elif rho > _RHO_EXPAND and boundary:
            radius *= _EXPAND
        accepted = rho > _RHO_ACCEPT and trial.e < state.e
        if accepted:
            state = trial
            _jacobi_scaling(state, s)
            trajectory.append(state.e)
            grad_norms.append(float(np.abs(state.grad).max()))
            wall.append(time.perf_counter() - start)
        del step, trial  # a rejected trial would otherwise live through the next CG
        it += 1
        if opts.verbose:
            print(
                f"iter {it:3d}  sse {state.e:.6e}  |g| {grad_norms[-1]:.3e}  "
                f"radius {radius:.2e}  cg {k:3d}  {'acc' if accepted else 'rej'}"
            )
        if radius < _RADIUS_COLLAPSE:
            stop = "radius_collapse"
            break

    return OptReport(
        iterations=it,
        sse_trajectory=trajectory,
        grad_norms=grad_norms,
        wall_times=wall,
        phi=state.phi,
        corrected=state.xt,
        stop_reason=stop,
        cg_iterations=cg_iters,
    )
