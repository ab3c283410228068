"""Image-plane error model: SSE, analytic gradient, and Hessian-multiply.

The corrected image is the inverse 2D DFT of the aberrated image's DFT (its
spectrum) after an entrywise phase offset.  Deviant pixels are background
nonzeros plus negative foreground values; the SSE is the inner product of
that error image with itself.  With Ye the error image's DFT, the gradient
is (2/MN) * Im(conj(Yt) o Ye), and the Hessian applied to a phase step D is
(2/MN) * (Im(conj(Yt) o dYe) - Re(conj(Yt) o Ye) o D).  Each page's pair of
DFT increments has a real end, so two pages share one complex transform
each way, and an odd last page is transformed alone.  An
``AberrationState`` keeps the spectrum and the curvature term
Re(conj(Yt) o Ye), so ``state.at`` moves to another phase without
transforming the image again, and a Hessian-multiply transforms only its
increments.

Two identities cut the transforms and trigonometry further.  With
u = Im ifft2(Yt o D), Parseval gives the curvature along one page as
D'HD = 2 * sum(w o u^2) - (2/MN) * sum(Re(conj(Yt) o Ye) o D^2), so the
solver's CG learns it from the inverse transform alone (``_page_product``).
And exp(i*phi) is built from t = tan(phi/2) as
((1 - t^2) + 2it) / (1 + t^2), one trigonometric call where cos and sin are
two; it agrees with them to 2.2e-16.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimMismatchError, SpecError
from .fourier import _rev, fft2, ifft2

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
    """The model evaluated at a fixed phase matrix, with what repeated
    evaluations and Hessian applies over the same image reuse: the checked
    mask ``wb``, the image's ``spectrum`` (its 2D DFT), the phase-shifted
    spectrum ``yt``, the deviant mask ``w`` and the real M x N ``curvature``
    Re(conj(yt) o ye), where ye is the error image's DFT.  ``curvature`` and
    ``grad`` are None when the gradient was not requested.

    ``at(phi)`` evaluates the model at another phase over the same image and
    mask, without transforming the image again.
    """

    phi: np.ndarray
    xt: np.ndarray
    yt: np.ndarray
    w: np.ndarray
    curvature: np.ndarray | None
    e: float
    grad: np.ndarray | None
    spectrum: np.ndarray
    wb: np.ndarray

    def at(self, phi) -> "AberrationState":
        """The model and its gradient at ``phi``, checked as ``state_at`` checks it."""
        phi, wb = _planes(self.wb, phase=phi)
        return _evaluate(phi, self.spectrum, wb, True)


def _evaluate(phi, spectrum, wb, want_gradient) -> AberrationState:
    """The one model evaluation, on checked planes and the image's spectrum."""
    # exp(i*phi) from t = tan(phi/2): cos = (1 - t^2)/(1 + t^2), sin = 2t/(1 + t^2)
    yt = np.empty(phi.shape, np.complex128)
    t = np.multiply(phi, 0.5)
    np.tan(t, out=t)
    q = t * t
    d = q + 1.0
    np.subtract(1.0, q, out=q)
    np.divide(q, d, out=yt.real)
    t *= 2.0
    np.divide(t, d, out=yt.imag)
    del t, q, d
    yt *= spectrum
    xt = ifft2(yt).real.copy()
    w = _deviant(xt, wb)
    xe = w * xt
    curvature = grad = None
    if want_gradient:
        grad, curvature = _derivatives(yt, fft2(xe), xt.size)
    e = float(xe.ravel() @ xe.ravel())
    return AberrationState(phi=phi, xt=xt, yt=yt, w=w, curvature=curvature, e=e, grad=grad,
                           spectrum=spectrum, wb=wb)


def _derivatives(yt, ye, mn):
    """The gradient (2/MN) * Im(conj(yt) o ye) and the curvature Re(conj(yt) o ye)."""
    c = np.conj(yt)
    c *= ye
    return 2.0 / mn * c.imag, c.real.copy()


def sse(phi, xa, wb, want_gradient=False):
    """SSE of the corrected image, optionally with its gradient.

    Returns ``(E, grad, xt)``; ``grad`` is None unless requested, and then the
    gradient's DFT is never taken.
    """
    phi, xa, wb = _planes(wb, phase=phi, image=xa)
    state = _evaluate(phi, fft2(xa), wb, want_gradient)
    return state.e, state.grad, state.xt


def state_at(phi, xa, wb) -> AberrationState:
    """Evaluate the model and its gradient once at ``phi``, keeping the
    image's spectrum for ``state.at`` and the transforms and curvature term
    for ``hess_mult_cached``."""
    phi, xa, wb = _planes(wb, phase=phi, image=xa)
    return _evaluate(phi, fft2(xa), wb, True)


def hess_mult(xt, dphi, wb):
    """Hessian of the SSE applied to phase-step pages, without forming it.

    ``dphi`` is M x N x P (a single M x N page is accepted); the result is the
    (M*N) x P matrix whose column k is the Hessian at the phase implied by
    ``xt`` times the vectorized page k (row-major vectorization).  Taking the
    phase-shifted spectrum as ``fft2(xt)`` is exact only for an odd-symmetric
    phase, whose corrected image is real; at any other phase use
    ``hess_mult_cached`` on a state.
    """
    xt, wb = _planes(wb, image=xt)
    w = _deviant(xt, wb)
    yt = fft2(xt)
    _, curvature = _derivatives(yt, fft2(w * xt), xt.size)
    return _hess_kernel(yt, w, curvature, dphi)


def hess_mult_cached(state: AberrationState, dphi):
    """Hessian-multiply reusing the transforms and curvature kept in ``state``
    (from ``state_at`` or ``state.at``)."""
    return _hess_kernel(state.yt, state.w, state.curvature, dphi)


def _hess_kernel(yt, w, curvature, dphi):
    """(2/MN) * (Im(conj(yt) o fft2(w o Re(ifft2(i yt o D)))) - curvature o D) per page D.

    Re(ifft2(i z)) = -Im(ifft2(z)), so the transforms take yt o D as it is
    and the sign moves into the final scale.

    Both transforms of a page have a real end: u = Im ifft2(yt o D) and the
    input w o u of fft2.  So pages a and b go through one complex transform
    each way (two real transforms in one, Numerical Recipes 12.3): with
    e = D_b - i D_a, ifft2((yt o e - rev(conj(yt) o e)) / 2) = u_a + i u_b, the
    real mask keeps the pair packed, and T = fft2(w o (u_a + i u_b)) = G_a + i G_b
    with G_p = fft2(w o u_p).  With Q = conj(yt) o T - yt o rev(T),
    Im(conj(yt) o G_a) = Im(Q) / 2 and Im(conj(yt) o G_b) = -Re(Q) / 2.  Page
    a is one of the first P // 2 pages, b the page P // 2 after it; the pairs
    are batched pages-first, which numpy transforms faster than pages-last.
    An odd last page is transformed alone, by ``_page_product``.
    """
    dphi = _real("steps", dphi)
    if dphi.ndim == 2:
        dphi = dphi[:, :, None]
    if dphi.ndim != 3 or dphi.shape[:2] != w.shape:
        raise DimMismatchError(f"shapes disagree: image {w.shape}, steps {dphi.shape}")
    mn = w.size
    m, n, pages = dphi.shape
    h = pages // 2
    if pages % 2:  # before f is allocated, so that f is not held through these transforms
        lone = _page_product(yt, w, curvature, dphi[:, :, 2 * h])[1]()
    f = np.empty((m, n, pages))
    if pages % 2:
        f[:, :, 2 * h] = lone
        del lone
    if h:
        np.multiply(curvature[:, :, None], dphi[:, :, :2 * h], out=f[:, :, :2 * h])
        e = np.empty((h, m, n), np.complex128)
        e.real = np.moveaxis(dphi[:, :, h:2 * h], 2, 0)
        np.negative(np.moveaxis(dphi[:, :, :h], 2, 0), out=e.imag)
        c = np.conj(yt) * e
        e *= yt
        e -= _rev(c)
        del c
        # the halves of the packing identities are folded into one exact 1/4 below
        t = ifft2(np.moveaxis(e, 0, 2))
        del e
        t *= w[:, :, None]
        t = np.moveaxis(fft2(t), 2, 0)
        q = _rev(t)
        q *= yt
        t *= np.conj(yt)
        t -= q
        del q
        f[:, :, :h] += 0.25 * np.moveaxis(t.imag, 0, 2)
        f[:, :, h:2 * h] -= 0.25 * np.moveaxis(t.real, 0, 2)
        f[:, :, :2 * h] *= -2.0 / mn
    return f.reshape(mn, pages)


def _page_product(yt, w, curvature, d):
    """The Hessian along one M x N page ``d``: its curvature now, its product on request.

    Returns ``(d'Hd, finish)``, where ``finish()`` returns the product Hd as an
    M x N plane.  With u = Im ifft2(yt o d), Parseval turns the transformed
    term of d'Hd, -(2/MN) * sum(d o Im(conj(yt) o fft2(w o u))), into
    2 * sum(w o u^2), so d'Hd = 2 * sum(w o u^2) - (2/MN) * sum(curvature o d^2)
    costs the inverse transform alone; ``finish`` pays the forward one.  Until
    it is called, ``finish`` holds two real planes, w o u and curvature o d,
    and it spends them, so it is called at most once.
    """
    d = _real("steps", d)
    mn = w.size
    u = ifft2(yt * d).imag
    wu = w * u
    f = curvature * d
    dhd = 2.0 * float(wu.ravel() @ u.ravel()) - 2.0 / mn * float(f.ravel() @ d.ravel())
    del u

    def finish():
        nonlocal wu
        g, wu = fft2(wu), None  # w o u is spent, and freed before the products below
        g *= np.conj(yt)
        np.add(f, g.imag, out=f)
        np.multiply(f, -2.0 / mn, out=f)
        return f

    return dhd, finish
