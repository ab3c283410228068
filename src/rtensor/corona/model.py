"""Image-plane error model: SSE, analytic gradient, and Hessian-multiply.

The corrected image is the inverse 2D DFT of the aberrated image's DFT after
an entrywise phase offset.  Deviant pixels are background nonzeros plus
negative foreground values; the SSE is the inner product of that error image
with itself.  The gradient is (2/MN) * imag(conj(Yt) o Ye), and the
Hessian-multiply builds one pair of DFT increments per phase-step page, so
both derivatives cost the same order as the SSE itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimMismatchError, SpecError
from .fourier import fft2, ifft2

__all__ = ["AberrationState", "sse", "hess_mult", "state_at", "hess_mult_cached"]


def _real(name, a):
    """``a`` as finite float64.  Realness is checked before the cast, which
    would drop an imaginary part with only a warning."""
    a = np.asarray(a)
    if np.iscomplexobj(a):
        raise DimMismatchError(f"{name} must be real")
    a = a.astype(np.float64, copy=False)
    if not np.isfinite(a).all():
        raise SpecError(f"{name} has non-finite entries")
    return a


def _planes(wb, **planes):
    """Checked float64 planes, in the order given, then the boolean mask."""
    planes = {name: _real(name, a) for name, a in planes.items()}
    wb = np.asarray(wb)
    shapes = [a.shape for a in planes.values()]
    if any(s != wb.shape for s in shapes):
        raise DimMismatchError(f"plane shapes disagree: {shapes}, mask {wb.shape}")
    if wb.dtype != np.bool_:
        raise DimMismatchError("occultation mask must be boolean")
    return (*planes.values(), wb)


def _deviant(xt, wb):
    """Deviant pixels: the whole background, and negative foreground values."""
    return wb | (xt < 0)


@dataclass
class AberrationState:
    """The model evaluated at a fixed phase matrix, with the 2D DFTs that
    repeated Hessian applies reuse.  ``ye`` and ``grad`` are None when the
    gradient was not requested."""

    phi: np.ndarray
    xt: np.ndarray
    yt: np.ndarray
    w: np.ndarray
    ye: np.ndarray | None
    e: float
    grad: np.ndarray | None


def _evaluate(phi, xa, wb, want_gradient) -> AberrationState:
    phi, xa, wb = _planes(wb, phase=phi, image=xa)
    yt = fft2(xa) * np.exp(1j * phi)
    xt = np.real(ifft2(yt))
    w = _deviant(xt, wb)
    xe = w * xt
    ye = grad = None
    if want_gradient:
        ye = fft2(xe)
        grad = 2.0 / xt.size * np.imag(np.conj(yt) * ye)
    e = float(xe.ravel() @ xe.ravel())
    return AberrationState(phi=phi, xt=xt, yt=yt, w=w, ye=ye, e=e, grad=grad)


def sse(phi, xa, wb, want_gradient=False):
    """SSE of the corrected image, optionally with its gradient.

    Returns ``(E, grad, xt)``; ``grad`` is None unless requested, and then the
    gradient's DFT is never taken.
    """
    state = _evaluate(phi, xa, wb, want_gradient)
    return state.e, state.grad, state.xt


def state_at(phi, xa, wb) -> AberrationState:
    """Evaluate the model and its gradient once at ``phi``, keeping the 2D
    DFTs for reuse by ``hess_mult_cached``."""
    return _evaluate(phi, xa, wb, True)


def hess_mult(xt, dphi, wb):
    """Hessian of the SSE applied to phase-step pages, without forming it.

    ``dphi`` is M x N x P (a single M x N page is accepted); the result is the
    (M*N) x P matrix whose column k is the Hessian at the phase implied by
    ``xt`` times the vectorized page k (row-major vectorization).
    """
    xt, wb = _planes(wb, image=xt)
    w = _deviant(xt, wb)
    return _hess_mult(fft2(xt), fft2(w * xt), w, dphi)


def hess_mult_cached(state: AberrationState, dphi):
    """Hessian-multiply reusing the DFTs cached in ``state`` (from ``state_at``)."""
    return _hess_mult(state.yt, state.ye, state.w, dphi)


def _hess_mult(yt, ye, w, dphi):
    dphi = _real("steps", dphi)
    if dphi.ndim == 2:
        dphi = dphi[:, :, None]
    if dphi.ndim != 3 or dphi.shape[:2] != w.shape:
        raise DimMismatchError(f"shapes disagree: image {w.shape}, steps {dphi.shape}")
    mn = w.size
    dyt = 1j * (yt[:, :, None] * dphi)
    dxt = np.real(ifft2(dyt))
    dye = fft2(w[:, :, None] * dxt)
    f = 2.0 / mn * (
        np.imag(np.conj(dyt) * ye[:, :, None]) + np.imag(np.conj(yt)[:, :, None] * dye)
    )
    return f.reshape(mn, dphi.shape[2])
