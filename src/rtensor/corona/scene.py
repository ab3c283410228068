"""Synthetic scene generation: source image, ground truth, mask, aberration.

The source is the squared magnitude of the DFT of a filled circular aperture,
normalized to peak 1 at the image center, which reproduces the ringed
diffraction structure the demo needs.  The ground truth is the entrywise
square root of the source with an annular occultation applied and two small
discs added as twin planets.  The random phase aberration obeys the conjugate
symmetry that keeps inverse transforms of real images real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SpecError
from .fourier import _rev, fft2, ifft2

__all__ = [
    "SceneConfig",
    "Instance",
    "make_source",
    "make_ground_truth",
    "make_aberration",
    "make_instance",
]


# Scene geometry, as fractions of the image size.
_APERTURE_FRAC = 0.04
_R_IN_FRAC = 0.08
_R_OUT_FRAC = 0.375
_PLANET_RADIUS_FRAC = 0.018
_PLANET_OFFSET_FRAC = 0.22
_PLANET_AMPLITUDE = 0.5


@dataclass(frozen=True)
class SceneConfig:
    size: int = 401
    seed: int = 0


def _radius_grid(m: int, n: int, drow: float = 0.0, dcol: float = 0.0) -> np.ndarray:
    """Distance of each pixel from the image center moved by ``(drow, dcol)``."""
    yy = np.arange(m)[:, None] - (m // 2 + drow)
    xx = np.arange(n)[None, :] - (n // 2 + dcol)
    return np.hypot(yy, xx)


def make_source(m: int, n: int) -> np.ndarray:
    """Diffraction-ringed source image in [0, 1], peak 1.0 at the center."""
    if m < 16 or n < 16:
        raise SpecError("source needs at least a 16x16 format")
    r = _radius_grid(m, n)
    aperture = (r <= _APERTURE_FRAC * min(m, n)).astype(np.float64)
    psf = np.abs(fft2(np.fft.ifftshift(aperture))) ** 2
    psf = np.fft.fftshift(psf)
    return psf / psf.max()


def make_ground_truth(source):
    """Square root of the source, occulted by an annular mask, with two planets.

    Returns ``(ground_truth, background_mask)``.  With ``s`` the smaller side,
    the mask is True inside radius ``0.08*s`` and outside ``0.375*s``.  The
    planets are discs of radius ``max(1.5, 0.018*s)`` centered ``0.22*s`` from
    the image center at 30 and 210 degrees, so at every size ``make_source``
    accepts they lie inside the open annulus.
    """
    m, n = source.shape
    s = min(m, n)
    r = _radius_grid(m, n)
    wb = (r < _R_IN_FRAC * s) | (r > _R_OUT_FRAC * s)
    gt = np.sqrt(source)
    gt[wb] = 0.0
    a = np.deg2rad(30.0)
    drow, dcol = _PLANET_OFFSET_FRAC * s * np.sin(a), _PLANET_OFFSET_FRAC * s * np.cos(a)
    for sign in (1.0, -1.0):
        disc = _radius_grid(m, n, sign * drow, sign * dcol) <= max(1.5, _PLANET_RADIUS_FRAC * s)
        gt[disc] += _PLANET_AMPLITUDE
    return gt, wb


def make_aberration(m: int, n: int, seed: int) -> np.ndarray:
    """Random pupil-plane phase obeying Phi[m,n] = -Phi[-m mod M, -n mod N].

    Free entries draw from uniform(-pi, pi); self-paired entries (the DC term
    and, for even sizes, the Nyquist lines' fixed points) are zero so the
    symmetry holds exactly.  A negative ``seed`` raises ``SpecError``.
    """
    if seed < 0:
        raise SpecError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    u = rng.uniform(-np.pi, np.pi, (m, n))
    lin = np.arange(m * n).reshape(m, n)
    plin = _rev(lin)  # the linear index of each entry's pair
    phi = np.where(lin < plin, u, -_rev(u))
    phi[lin == plin] = 0.0
    return phi


@dataclass
class Instance:
    """One synthetic correction problem."""

    source: np.ndarray
    ground_truth: np.ndarray
    mask: np.ndarray
    phi_true: np.ndarray
    aberrated: np.ndarray


def make_instance(config: SceneConfig) -> Instance:
    m = n = config.size
    source = make_source(m, n)
    gt, wb = make_ground_truth(source)
    phi = make_aberration(m, n, config.seed)
    aberrated = np.real(ifft2(fft2(gt) * np.exp(1j * phi)))
    return Instance(source, gt, wb, phi, aberrated)
