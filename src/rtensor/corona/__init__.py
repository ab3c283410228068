"""Coronagraph phase-aberration correction demo built on 2D FFTs."""

from .fourier import dft_operator, fft2, ifft2
from .model import AberrationState, hess_mult, hess_mult_cached, sse, state_at
from .optimize import OptReport, TrustRegionOptions, optimize
from .scene import (
    Instance,
    SceneConfig,
    make_aberration,
    make_ground_truth,
    make_instance,
    make_source,
)

__all__ = [
    "dft_operator",
    "fft2",
    "ifft2",
    "sse",
    "hess_mult",
    "hess_mult_cached",
    "state_at",
    "AberrationState",
    "optimize",
    "TrustRegionOptions",
    "OptReport",
    "SceneConfig",
    "Instance",
    "make_source",
    "make_ground_truth",
    "make_aberration",
    "make_instance",
]
