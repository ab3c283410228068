"""16-bit binary PGM image I/O and CSV helpers for the demo's artifacts.

Pixel values are stored as round(clamp(x, 0, 1) * 65535) big-endian (P5,
maxval 65535).  Boolean masks map False/True to 0/65535 and read back by
thresholding at half scale.  A file that cannot be read as such raises
``DataFileError`` with its path.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataFileError, DimMismatchError, SpecError

__all__ = ["write_pgm", "read_pgm", "write_mask", "read_mask", "write_csv", "read_csv"]

_MAXVAL = 65535


def write_pgm(path, image, square=False):
    """Write a real image; values clamp to [0, 1] (optionally squared first)."""
    arr = np.asarray(image)
    if np.iscomplexobj(arr):  # checked before the cast, which would drop the imaginary part
        raise DimMismatchError(f"image for {path} must be real")
    arr = arr.astype(np.float64, copy=False)
    if not np.isfinite(arr).all():
        raise SpecError(f"image for {path} has non-finite pixels")
    if square:
        arr = arr * arr
    data = np.round(np.clip(arr, 0.0, 1.0) * _MAXVAL).astype(">u2")
    with open(path, "wb") as f:
        f.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n{_MAXVAL}\n".encode("ascii"))
        f.write(data.tobytes())


def read_pgm(path) -> np.ndarray:
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as exc:
        raise DataFileError(f"cannot read: {exc.strerror}", path) from exc
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if blob[pos:pos + 1] == b"#":
            while pos < len(blob) and blob[pos:pos + 1] != b"\n":
                pos += 1
            continue
        if pos == len(blob):
            raise DataFileError("PGM header is cut short", path)
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        fields.append(blob[start:pos])
    if fields[0] != b"P5":
        raise DataFileError("not a binary PGM file (magic number is not P5)", path)
    if not all(f.isdigit() for f in fields[1:]):
        raise DataFileError(f"PGM header fields are not integers: {fields[1:]}", path)
    width, height, maxval = (int(f) for f in fields[1:])
    if width < 1 or height < 1 or not 1 <= maxval <= _MAXVAL:
        raise DataFileError(f"invalid PGM format {width}x{height}, maxval {maxval}", path)
    pos += 1  # single whitespace byte after maxval
    dtype = np.dtype(">u2" if maxval > 255 else np.uint8)
    need = width * height * dtype.itemsize
    if len(blob) - pos < need:
        raise DataFileError(f"PGM body is truncated: {max(len(blob) - pos, 0)} of {need} bytes", path)
    data = np.frombuffer(blob, dtype=dtype, count=width * height, offset=pos)
    return data.reshape(height, width).astype(np.float64) / maxval


def write_mask(path, mask):
    write_pgm(path, np.asarray(mask, dtype=np.float64))


def read_mask(path) -> np.ndarray:
    return read_pgm(path) > 0.5


def write_csv(path, matrix):
    np.savetxt(path, np.asarray(matrix), delimiter=",", fmt="%.17g")


def read_csv(path) -> np.ndarray:
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as exc:
        raise DataFileError(f"cannot read: {exc.strerror or 'not found'}", path) from exc
    except ValueError as exc:  # bytes the text encoding cannot decode
        raise DataFileError(f"malformed CSV: {exc}", path) from exc
    # numpy would only warn on these, and return a 1 x 0 matrix
    if not any(line.partition("#")[0].strip() for line in lines):
        raise DataFileError("no data", path)
    try:
        return np.atleast_2d(np.loadtxt(lines, delimiter=","))
    except ValueError as exc:
        raise DataFileError(f"malformed CSV: {exc}", path) from exc
