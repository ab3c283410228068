import numpy as np
import pytest

from rtensor.corona import fft2, ifft2
from rtensor.errors import DimMismatchError

from oracles import dft_operator


def test_operator_m2_exact():
    np.testing.assert_allclose(dft_operator(2), [[1, 1], [1, -1]], atol=1e-15)


@pytest.mark.parametrize("m", [3, 8])
def test_operator_unitary_up_to_scale(m):
    u = dft_operator(m)
    np.testing.assert_allclose(u.conj().T @ u / m, np.eye(m), atol=1e-12)


def test_operator_matches_direct_dft_sum():
    rng = np.random.default_rng(0)
    m = 8
    x = rng.standard_normal(m)
    want = np.array(
        [sum(x[t] * np.exp(-2j * np.pi * k * t / m) for t in range(m)) for k in range(m)]
    )
    np.testing.assert_allclose(dft_operator(m) @ x, want, atol=1e-12)


def test_fft2_impulse_is_ones():
    x = np.zeros((8, 8))
    x[0, 0] = 1.0
    np.testing.assert_allclose(fft2(x), np.ones((8, 8)), atol=1e-14)


@pytest.mark.parametrize("m,n", [(8, 8), (16, 16), (401, 401), (12, 5), (16, 401)])
def test_fft2_matches_operator_product(m, n):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((m, n))
    want = dft_operator(m) @ x @ dft_operator(n).T
    got = fft2(x)
    assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


@pytest.mark.parametrize("m,n", [(8, 8), (401, 401), (24, 7)])
def test_ifft2_inverts(m, n):
    rng = np.random.default_rng(2)
    x = rng.standard_normal((m, n))
    back = ifft2(fft2(x))
    assert np.abs(back - x).max() <= 1e-10
    assert np.abs(back.imag).max() <= 1e-10


def test_parseval_401():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((401, 401))
    space = (np.abs(x) ** 2).sum()
    freq = (np.abs(fft2(x)) ** 2).sum() / x.size
    assert abs(space - freq) <= 1e-10 * space


def test_pagewise_transform():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((8, 8, 3))
    got = fft2(x)
    for p in range(3):
        np.testing.assert_allclose(got[:, :, p], fft2(x[:, :, p]), atol=1e-12)


def test_matches_numpy_fft():
    rng = np.random.default_rng(5)
    for shape in [(8, 8), (401, 401), (30, 12)]:
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ref = np.fft.fft2(x)
        assert np.abs(fft2(x) - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("shape", [(), (8,), (0, 8), (8, 0), (0, 0, 3), (8, 0, 2)])
def test_transforms_reject_empty_or_1d_planes(shape):
    x = np.zeros(shape)
    with pytest.raises(DimMismatchError):
        fft2(x)
    with pytest.raises(DimMismatchError):
        ifft2(x)


@pytest.mark.parametrize("dtype", [np.float32, np.int32, np.int64, np.bool_, np.complex64])
def test_transforms_return_complex128_for_every_kind(dtype):
    x = (np.arange(30).reshape(5, 6) % 3).astype(dtype)
    want = np.fft.fft2(x.astype(np.complex128))
    got = fft2(x)
    assert got.dtype == np.complex128 and ifft2(x).dtype == np.complex128
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_ifft2_inverts_pagewise_3d():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((12, 7, 4)) + 1j * rng.standard_normal((12, 7, 4))
    y = fft2(x)
    back = ifft2(y)
    assert np.abs(back - x).max() <= 1e-12
    for p in range(4):
        np.testing.assert_allclose(back[:, :, p], ifft2(y[:, :, p]), atol=1e-14)
