"""Bit-exact NPY v1.0 serialization for float32 C-order tensors.

Only little-endian float32, C-order arrays are supported in either
direction; that is the one dtype this toolkit emits, and the narrow scope
keeps the byte layout fully pinned down. Payload bytes round trip verbatim,
NaN bit patterns included.

Layout: 6 magic bytes (0x93 'NUMPY'), version 1.0, a little-endian u16
header length, then an ASCII header dict padded with spaces so the whole
preamble is a multiple of 64 bytes and ends in a newline, then the raw
little-endian float32 payload.

An array moves whole, or in bands of rows of one frame of an (n, c, h, ...)
array, each of whose c slices is moved at its offset in a seekable file.
Every byte moves through one loop per direction, ``_read_into`` and
``_write_all``, which call ``readinto`` or ``write`` until all bytes have
moved, so a pipe or raw file that moves fewer per call loses none. Both take
flat uint8 views of the arrays and copy nothing. The header's shape is
checked once, by numpy building an array of that shape with no elements.
"""

from __future__ import annotations

import ast
import io
import itertools
import math
import struct
from collections.abc import Iterable, Iterator
from typing import BinaryIO

import numpy as np

from .errors import (BadMagic, ShapeMismatch, TruncatedPayload, UnsupportedDtype,
                     UnsupportedOrder)

MAGIC = b"\x93NUMPY"
VERSION = b"\x01\x00"
ALIGN = 64
READ_CHUNK = 1 << 24  # bytes per read from a source that cannot seek


def _write_all(sink: BinaryIO, data) -> None:
    """Write all of ``data``, a flat byte view, calling ``write`` until ``sink`` takes it."""
    done = 0
    while done < len(data):
        if not (n := sink.write(data[done:])):  # 0, or None from a non-blocking raw sink
            raise OSError(f"sink took no bytes with {len(data) - done} left to write")
        done += n


def _write_header(shape: tuple[int, ...], sink: BinaryIO) -> None:
    header = ("{'descr': '<f4', 'fortran_order': False, 'shape': "
              f"{tuple(int(s) for s in shape)!r}, }}")
    header += " " * (-(len(MAGIC) + len(VERSION) + 2 + len(header) + 1) % ALIGN) + "\n"
    preamble = MAGIC + VERSION + struct.pack("<H", len(header)) + header.encode("ascii")
    _write_all(sink, memoryview(preamble))


def _payload(arr: np.ndarray) -> np.ndarray:
    """C-order bytes of a float32 array as a flat uint8 view: no silent casts of actual values."""
    a = np.asarray(arr)
    if a.dtype != np.float32:
        raise UnsupportedDtype(f"write_npy only emits float32, got {a.dtype}")
    return np.ascontiguousarray(a).reshape(-1).view(np.uint8)


def write_npy(arr: np.ndarray, sink: BinaryIO) -> None:
    """Write a float32 array to ``sink`` as NPY v1.0, converted to C order if needed."""
    data = _payload(arr)
    _write_header(np.shape(arr), sink)
    _write_all(sink, data)


def _band_layout(shape: tuple[int, ...]) -> tuple[int, int, int, int]:
    """(n, c, h, bytes per row) of an (n, c, h, ...) array with values in each frame."""
    if len(shape) < 3 or 0 in shape[1:]:
        raise ShapeMismatch(f"an array of shape {shape} has no bands of values")
    return (*shape[:3], math.prod(shape[3:]) * 4)


def write_npy_bands(bands: Iterable[np.ndarray], shape: tuple[int, ...], sink: BinaryIO) -> None:
    """Write an NPY v1.0 float32 array of ``shape`` (n, c, h, ...) from its bands, in order:
    each a (c, rows, ...) array of the next rows of a frame, whose slices go to their
    offsets in the seekable ``sink``. The bytes of :func:`write_npy`."""
    n, c, h, row = _band_layout(shape)
    _write_header(shape, sink)
    start, done = sink.tell(), 0  # rows of the n * h written
    for band in bands:
        i, r0 = divmod(done, h)
        rows = band.shape[1] if band.ndim > 1 else 0
        if i == n or not 0 < rows <= h - r0 or band.shape != (c, rows, *shape[3:]):
            raise ShapeMismatch(f"band of shape {band.shape} after {done} rows of {shape}")
        for k, plane in enumerate(band):
            sink.seek(start + ((i * c + k) * h + r0) * row)
            _write_all(sink, _payload(plane))
        done += rows
    if done != n * h:
        raise ShapeMismatch(f"{done} rows written to an array of shape {shape}")


def write_npy_file(arr: np.ndarray, path) -> None:
    with open(path, "wb") as f:
        write_npy(arr, f)


def _read_into(source: BinaryIO, buf) -> int:
    """Bytes read into the flat byte view ``buf``, by ``readinto`` until full or at the end."""
    got = 0
    while got < len(buf) and (n := source.readinto(buf[got:])):
        got += n
    return got


def _read_header(source: BinaryIO) -> tuple[int, ...]:
    """Shape in the NPY preamble at ``source``, checked as :func:`read_npy` documents."""
    buf = np.empty(len(MAGIC) + len(VERSION) + 2, np.uint8)  # up to the header length
    fixed = buf[:_read_into(source, buf)].tobytes()
    if fixed[:6] != MAGIC:
        raise BadMagic(f"bad magic bytes {fixed[:6]!r}")
    if fixed[6:8] != VERSION:
        raise BadMagic(f"unsupported version bytes {fixed[6:8]!r}, expected 1.0")
    if len(fixed) != 10:
        raise BadMagic("preamble ends before header length")
    header = np.empty(struct.unpack("<H", fixed[8:])[0], np.uint8)
    if (got := _read_into(source, header)) != len(header):
        raise BadMagic(f"header truncated: expected {len(header)} bytes, got {got}")
    try:
        meta = ast.literal_eval(header.tobytes().decode("ascii").strip())
    except (ValueError, SyntaxError, MemoryError, RecursionError) as e:  # last two: deep nesting
        raise BadMagic(f"malformed header dict: {e}") from None
    if not isinstance(meta, dict) or set(meta) != {"descr", "fortran_order", "shape"}:
        raise BadMagic(f"header keys {sorted(meta, key=str) if isinstance(meta, dict) else meta}")
    if meta["descr"] != "<f4":
        raise UnsupportedDtype(f"descr {meta['descr']!r}, only '<f4' supported")
    if meta["fortran_order"] is not False:
        raise UnsupportedOrder(f"fortran_order {meta['fortran_order']!r} not supported")
    shape = meta["shape"]
    if not (isinstance(shape, tuple) and all(type(s) is int and s >= 0 for s in shape)):
        raise BadMagic(f"invalid shape {shape!r}")
    try:  # numpy checks every dim; with a zero in the shape, or put first, it allocates nothing
        np.empty(shape if 0 in shape else (0, *shape[1:]), "<f4")
    except ValueError:  # more dims than numpy allows, or a size past its limit
        raise BadMagic(f"invalid shape {shape!r}") from None
    if source.seekable():
        here = source.tell()
        left = source.seek(0, io.SEEK_END) - here
        source.seek(here)
        if left < math.prod(shape) * 4:
            raise TruncatedPayload(math.prod(shape) * 4, left)
    return shape


def read_npy(source: BinaryIO) -> np.ndarray:
    """Read an NPY v1.0 float32 C-order array from ``source``.

    Raises:
        BadMagic: wrong magic bytes, wrong version, or a malformed header.
        UnsupportedDtype: descr other than '<f4'.
        UnsupportedOrder: fortran_order true.
        TruncatedPayload: fewer payload bytes than the shape requires;
            checked before allocating when ``source`` is seekable, and
            before allocating more than one chunk past the bytes received
            when it is not.
    """
    shape = _read_header(source)
    size = math.prod(shape) * 4
    flat = np.empty(size if source.seekable() else 0, np.uint8)  # a file's length is checked
    got = _read_into(source, flat)
    while got == len(flat) < size:  # a pipe, whose header may declare more than it sends
        flat.resize(min(size, got + READ_CHUNK), refcheck=False)  # no view of flat is left
        got += _read_into(source, flat[got:])
    if got != size:
        raise TruncatedPayload(size, got)
    return flat.view("<f4").reshape(shape)


def read_npy_bands(source: BinaryIO, rows: int) -> Iterator[np.ndarray]:
    """Yield the bands of the NPY v1.0 array at the seekable ``source`` as
    :func:`write_npy_bands` takes them, ``rows`` rows each (fewer at a frame's end), read
    into one reused buffer; raises what :func:`read_npy` and :func:`write_npy_bands` raise."""
    shape = _read_header(source)
    n, c, h, row = _band_layout(shape)
    start, rows = source.tell(), min(rows, h)  # tell: a pipe cannot seek, and fails here
    buf = np.empty((c, rows, *shape[3:]) if n else 0, "<f4")  # one band, or none
    for i, r0 in itertools.product(range(n), range(0, h, rows)):
        band = buf[:, :min(rows, h - r0)]
        for k, plane in enumerate(band):
            at = ((i * c + k) * h + r0) * row
            source.seek(start + at)
            view = plane.reshape(-1).view(np.uint8)
            if (got := _read_into(source, view)) != len(view):
                raise TruncatedPayload(n * c * h * row, at + got)
        yield band


def read_npy_file(path) -> np.ndarray:
    with open(path, "rb") as f:
        return read_npy(f)
