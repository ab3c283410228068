"""Image-plane error model: SSE, analytic gradient, and Hessian-multiply.

The corrected image is the inverse 2D DFT of the aberrated image's DFT after
an entrywise phase offset.  Deviant pixels are background nonzeros plus
negative foreground values; the SSE is the inner product of that error image
with itself.  The gradient is (2/MN) * imag(conj(Yt) o Ye), and the
Hessian-multiply builds one pair of DFT increments per phase-step page, so
both derivatives cost the same order as the SSE itself.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..errors import DimMismatchError, SpecError
from .fourier import fft2, ifft2

__all__ = ["AllocationLedger", "AberrationState", "sse", "hess_mult", "state_at", "hess_mult_cached"]


class AllocationLedger:
    """Accounts bytes of the demo's named buffers; peak of the live total.

    This is a reproducible stand-in for OS-level measurements: functions note
    the arrays they hold, a scope releases them on exit, and ``peak`` records
    the largest concurrent total.
    """

    def __init__(self):
        self.current = 0
        self.peak = 0

    def note(self, *arrays):
        for a in arrays:
            self.current += a.nbytes
        self.peak = max(self.peak, self.current)

    @contextmanager
    def scope(self):
        mark = self.current
        try:
            yield self
        finally:
            self.current = mark


class _NullLedger(AllocationLedger):
    def note(self, *arrays):
        pass


_NULL = _NullLedger()


def _planes(phi, xa, wb):
    """Checked float64 phase and image planes and the mask.

    The image is checked for realness before the cast, which would drop an
    imaginary part with only a warning.
    """
    xa = np.asarray(xa)
    if np.iscomplexobj(xa):
        raise DimMismatchError("aberrated image must be real")
    phi = np.asarray(phi, dtype=np.float64)
    xa = xa.astype(np.float64, copy=False)
    wb = np.asarray(wb)
    if phi.shape != xa.shape or wb.shape != xa.shape:
        raise DimMismatchError(
            f"plane shapes disagree: phi {phi.shape}, image {xa.shape}, mask {wb.shape}"
        )
    if wb.dtype != np.bool_:
        raise DimMismatchError("occultation mask must be boolean")
    _check_finite(phase=phi, image=xa)
    return phi, xa, wb


def _check_finite(**arrays):
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            raise SpecError(f"{name} has non-finite entries")


def sse(phi, xa, wb, want_gradient=False, ledger=None):
    """SSE of the corrected image, optionally with its gradient.

    Returns ``(E, grad, xt)``; ``grad`` is None unless requested.
    """
    led = ledger or _NULL
    phi, xa, wb = _planes(phi, xa, wb)
    with led.scope():
        ya = fft2(xa)
        yt = ya * np.exp(1j * phi)
        xt = np.real(ifft2(yt))
        wf = ~wb & (xt < 0)
        xe = (wb | wf) * xt
        led.note(ya, yt, xt, wf, xe)
        grad = None
        if want_gradient:
            mn = xt.size
            ye = fft2(xe)
            grad = 2.0 / mn * np.imag(np.conj(yt) * ye)
            led.note(ye, grad)
        e = float(xe.ravel() @ xe.ravel())
    return e, grad, xt


@dataclass
class AberrationState:
    """Cached quantities at a fixed phase matrix, for repeated Hessian applies."""

    phi: np.ndarray
    xt: np.ndarray
    yt: np.ndarray
    w: np.ndarray
    ye: np.ndarray
    e: float
    grad: np.ndarray


def state_at(phi, xa, wb, ledger=None) -> AberrationState:
    """Evaluate the model once at ``phi`` and cache the 2D DFTs for reuse."""
    led = ledger or _NULL
    phi, xa, wb = _planes(phi, xa, wb)
    ya = fft2(xa)
    yt = ya * np.exp(1j * phi)
    xt = np.real(ifft2(yt))
    w = wb | (~wb & (xt < 0))
    xe = w * xt
    ye = fft2(xe)
    mn = xt.size
    grad = 2.0 / mn * np.imag(np.conj(yt) * ye)
    led.note(ya, yt, xt, w, xe, ye, grad)
    e = float(xe.ravel() @ xe.ravel())
    return AberrationState(phi=phi, xt=xt, yt=yt, w=w, ye=ye, e=e, grad=grad)


def hess_mult(xt, dphi, wb, ledger=None):
    """Hessian of the SSE applied to phase-step pages, without forming it.

    ``dphi`` is M x N x P (a single M x N page is accepted); the result is the
    (M*N) x P matrix whose column k is the Hessian at the phase implied by
    ``xt`` times the vectorized page k (row-major vectorization).
    """
    led = ledger or _NULL
    xt = np.asarray(xt, dtype=np.float64)
    dphi = np.asarray(dphi, dtype=np.float64)
    if dphi.ndim == 2:
        dphi = dphi[:, :, None]
    if dphi.shape[:2] != xt.shape or wb.shape != xt.shape:
        raise DimMismatchError(
            f"shapes disagree: image {xt.shape}, steps {dphi.shape}, mask {wb.shape}"
        )
    _check_finite(image=xt, steps=dphi)
    with led.scope():
        yt = fft2(xt)
        w = wb | (~wb & (xt < 0))
        ye = fft2(w * xt)
        led.note(yt, w, ye)
        return _hmf_core(yt, ye, w, dphi, led)


def hess_mult_cached(state: AberrationState, dphi, ledger=None):
    """Hessian-multiply reusing the DFTs cached in ``state``."""
    led = ledger or _NULL
    dphi = np.asarray(dphi, dtype=np.float64)
    if dphi.ndim == 2:
        dphi = dphi[:, :, None]
    with led.scope():
        return _hmf_core(state.yt, state.ye, state.w, dphi, led)


def _hmf_core(yt, ye, w, dphi, led):
    mn = yt.shape[0] * yt.shape[1]
    dyt = 1j * (yt[:, :, None] * dphi)
    dxt = np.real(ifft2(dyt))
    dye = fft2(w[:, :, None] * dxt)
    f = 2.0 / mn * (
        np.imag(np.conj(dyt) * ye[:, :, None]) + np.imag(np.conj(yt)[:, :, None] * dye)
    )
    led.note(dyt, dxt, dye, f)
    return f.reshape(mn, dphi.shape[2])
