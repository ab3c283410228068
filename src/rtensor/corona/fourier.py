"""2D discrete Fourier transforms for the image-correction demo.

``fft2``/``ifft2`` compute the transform with ``numpy.fft`` (O(MN log MN) for
every length, including primes such as 401).  Both operate pagewise over
trailing dimensions and return complex128 for every input kind.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimMismatchError

__all__ = ["fft2", "ifft2"]


def _planes(x) -> np.ndarray:
    """``x`` in double precision, checked to have two nonempty leading axes."""
    x = np.asarray(x)
    if x.ndim < 2 or x.shape[0] == 0 or x.shape[1] == 0:
        raise DimMismatchError(
            f"2D transform needs two nonempty leading dimensions, got shape {x.shape}"
        )
    return x.astype(np.result_type(x.dtype, np.float64), copy=False)


def fft2(x: np.ndarray) -> np.ndarray:
    """2D DFT over the first two dimensions, pagewise over the rest."""
    return np.fft.fft2(_planes(x), axes=(0, 1))


def ifft2(y: np.ndarray) -> np.ndarray:
    """Inverse 2D DFT over the first two dimensions, pagewise over the rest."""
    return np.fft.ifft2(_planes(y), axes=(0, 1))
