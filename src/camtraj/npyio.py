"""Bit-exact NPY v1.0 serialization for float32 C-order tensors.

Only little-endian float32, C-order arrays are supported in either
direction; that is the one dtype this toolkit emits, and the narrow scope
keeps the byte layout fully pinned down. Payload bytes round trip verbatim,
NaN bit patterns included.

Layout: 6 magic bytes (0x93 'NUMPY'), version 1.0, a little-endian u16
header length, then an ASCII header dict padded with spaces so the whole
preamble is a multiple of 64 bytes and ends in a newline, then the raw
little-endian float32 payload.
"""

from __future__ import annotations

import ast
import io
import math
import struct
from typing import BinaryIO

import numpy as np

from .errors import BadMagic, TruncatedPayload, UnsupportedDtype, UnsupportedOrder

MAGIC = b"\x93NUMPY"
VERSION = b"\x01\x00"
ALIGN = 64
READ_CHUNK = 1 << 24  # bytes per read from a source that cannot seek


def _header_bytes(shape: tuple[int, ...]) -> bytes:
    header = ("{'descr': '<f4', 'fortran_order': False, 'shape': "
              f"{tuple(int(s) for s in shape)!r}, }}")
    base = len(MAGIC) + len(VERSION) + 2  # preamble before the dict text
    pad = ALIGN - (base + len(header) + 1) % ALIGN
    if pad == ALIGN:
        pad = 0
    return (header + " " * pad + "\n").encode("ascii")


def write_npy(arr: np.ndarray, sink: BinaryIO) -> None:
    """Write a float32 array to ``sink`` as NPY v1.0.

    The array is converted to C order if needed; dtype must already be
    float32 (no silent casts of actual values).
    """
    a = np.asarray(arr)
    if a.dtype != np.float32:
        raise UnsupportedDtype(f"write_npy only emits float32, got {a.dtype}")
    shape = a.shape
    a = np.ascontiguousarray(a)  # promotes 0-d to (1,); header keeps the true shape
    header = _header_bytes(shape)
    sink.write(MAGIC)
    sink.write(VERSION)
    sink.write(struct.pack("<H", len(header)))
    sink.write(header)
    sink.write(a.data)


def write_npy_file(arr: np.ndarray, path) -> None:
    with open(path, "wb") as f:
        write_npy(arr, f)


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
    magic = source.read(len(MAGIC))
    if magic != MAGIC:
        raise BadMagic(f"bad magic bytes {magic!r}")
    version = source.read(2)
    if version != VERSION:
        raise BadMagic(f"unsupported version bytes {version!r}, expected 1.0")
    raw_len = source.read(2)
    if len(raw_len) != 2:
        raise BadMagic("preamble ends before header length")
    (hlen,) = struct.unpack("<H", raw_len)
    header = source.read(hlen)
    if len(header) != hlen:
        raise BadMagic(f"header truncated: expected {hlen} bytes, got {len(header)}")
    try:
        meta = ast.literal_eval(header.decode("ascii").strip())
    except (ValueError, SyntaxError, MemoryError, RecursionError) as e:  # last two: deep nesting
        raise BadMagic(f"malformed header dict: {e}") from None
    if not isinstance(meta, dict) or set(meta) != {"descr", "fortran_order", "shape"}:
        raise BadMagic(f"header keys {sorted(meta, key=str) if isinstance(meta, dict) else meta}")
    if meta["descr"] != "<f4":
        raise UnsupportedDtype(f"descr {meta['descr']!r}, only '<f4' supported")
    if meta["fortran_order"] is not False:
        raise UnsupportedOrder(f"fortran_order {meta['fortran_order']!r} not supported")
    shape = meta["shape"]
    if (not isinstance(shape, tuple)
            or not all(isinstance(s, int) and s >= 0 for s in shape)):
        raise BadMagic(f"invalid shape {shape!r}")
    expected = math.prod(shape) * 4
    if not source.seekable():
        return _read_unseekable(source, shape, expected)
    here = source.tell()
    left = source.seek(0, io.SEEK_END) - here
    source.seek(here)
    if left < expected:
        raise TruncatedPayload(expected, left)
    try:
        arr = np.empty(shape, dtype="<f4")
    except ValueError:  # more dims than numpy allows, or a size past its limit
        raise BadMagic(f"invalid shape {shape!r}") from None
    got = source.readinto(arr.reshape(-1).view(np.uint8))
    if got != expected:
        raise TruncatedPayload(expected, got)
    return arr


def _read_unseekable(source: BinaryIO, shape: tuple[int, ...], expected: int) -> np.ndarray:
    """Payload of a pipe-like source, read in chunks of at most READ_CHUNK
    bytes, so a header that declares more than arrives allocates no more
    than one chunk beyond the bytes received."""
    chunks, got = [], 0
    while got < expected:
        chunk = source.read(min(READ_CHUNK, expected - got))
        if not chunk:
            raise TruncatedPayload(expected, got)
        chunks.append(chunk)
        got += len(chunk)
    try:
        return np.frombuffer(bytearray().join(chunks), dtype="<f4").reshape(shape)
    except ValueError:  # more dims than numpy allows, or a size past its limit
        raise BadMagic(f"invalid shape {shape!r}") from None


def read_npy_file(path) -> np.ndarray:
    with open(path, "rb") as f:
        return read_npy(f)
