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
from .fourier import fft2, ifft2

__all__ = [
    "PlanetSpec",
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
class PlanetSpec:
    """A filled disc added to the annular foreground; offsets from center."""

    drow: float
    dcol: float
    radius: float


@dataclass(frozen=True)
class SceneConfig:
    size: int = 401
    seed: int = 0


def _planets(size: int) -> tuple[PlanetSpec, PlanetSpec]:
    r = _PLANET_OFFSET_FRAC * size
    pr = max(1.5, _PLANET_RADIUS_FRAC * size)
    a = np.deg2rad(30.0)
    return (
        PlanetSpec(r * np.sin(a), r * np.cos(a), pr),
        PlanetSpec(-r * np.sin(a), -r * np.cos(a), pr),
    )


def _radius_grid(m: int, n: int) -> np.ndarray:
    cy, cx = m // 2, n // 2
    yy = np.arange(m)[:, None] - cy
    xx = np.arange(n)[None, :] - cx
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


def make_ground_truth(source, r_in, r_out, planets=()):
    """Square root of the source, occulted by an annular mask, with planets.

    Returns ``(ground_truth, background_mask)``.  The mask is True inside
    radius ``r_in`` and outside ``r_out``; each planet disc must lie entirely
    inside the open annulus.
    """
    m, n = source.shape
    if not 0 < r_in < r_out <= min(m, n) / 2:
        raise SpecError(f"invalid annulus radii {r_in}, {r_out} for {m}x{n}")
    r = _radius_grid(m, n)
    wb = (r < r_in) | (r > r_out)
    gt = np.sqrt(source)
    gt[wb] = 0.0
    cy, cx = m // 2, n // 2
    for p in planets:
        yy = np.arange(m)[:, None] - (cy + p.drow)
        xx = np.arange(n)[None, :] - (cx + p.dcol)
        disc = np.hypot(yy, xx) <= p.radius
        if np.any(disc & wb) or not np.any(disc):
            raise SpecError(f"planet at ({p.drow}, {p.dcol}) leaves the annulus")
        gt[disc] += _PLANET_AMPLITUDE
    return gt, wb


def make_aberration(m: int, n: int, seed: int = 0) -> np.ndarray:
    """Random pupil-plane phase obeying Phi[m,n] = -Phi[-m mod M, -n mod N].

    Free entries draw from uniform(-pi, pi); self-paired entries (the DC term
    and, for even sizes, the Nyquist lines' fixed points) are zero so the
    symmetry holds exactly.
    """
    rng = np.random.default_rng(seed)
    u = rng.uniform(-np.pi, np.pi, (m, n))
    rows = np.arange(m)[:, None]
    cols = np.arange(n)[None, :]
    prow = (-rows) % m
    pcol = (-cols) % n
    lin = rows * n + cols
    plin = prow * n + pcol
    phi = np.where(lin < plin, u, -u[prow, pcol])
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
    gt, wb = make_ground_truth(
        source, _R_IN_FRAC * config.size, _R_OUT_FRAC * config.size, _planets(config.size)
    )
    phi = make_aberration(m, n, config.seed)
    aberrated = np.real(ifft2(fft2(gt) * np.exp(1j * phi)))
    return Instance(source, gt, wb, phi, aberrated)
