"""Pixel-wise Plucker ray embeddings.

Each pixel of a posed camera gets the 6-vector (m, d): d is the unit
world-space viewing direction through the pixel and m = o x d is the ray
moment about the world origin, o being the camera center. Channel layout is
moments first (0..2), directions last (3..5). Maps are float32; all
intermediate math runs in float64.

Rays are sampled at pixel centers by default (u + 0.5, v + 0.5); pass
``pixel_origin="corner"`` to sample the integer grid instead.

One kernel computes every ray, one frame at a time over bands of whole rows
of about 16K pixels, whose float64 planes stay in cache. A direction is the
sum of a per-column and a per-row term, and the kernel makes no BLAS call:
at any band size, and under any BLAS kernel or thread count, its float64
bits are those of the same sum, ``np.linalg.norm`` and ``np.cross`` on the
pixel-major (h, w, 3) layout (``ray_direction`` runs it on one pixel). A ray
out of float range raises a CamTrajError naming its frame. ``plucker_bands``
runs the kernel over each frame in bands of whole kernel bands of about 1 MiB
of float32 map, into one reused buffer, which ``camtraj embed`` streams to
disk, or into the (n, 6, h, w) map of ``plucker_sequence``: embed holds no
frame, whatever its size. The kernel and ``verify_plucker`` work on bands of
about 16K pixels, on five and three float64 planes: 0.7 and 0.4 MB.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

import numpy as np

from .errors import CamTrajError, ShapeMismatch
from .geometry import CameraPose, Convention, Extrinsics, Trajectory, convert_extrinsics

PIXEL_ORIGINS = ("center", "corner")
VERIFY_TOL = 1e-6
_BAND_PIXELS = 1 << 14  # rows of about 16K pixels: a band's float64 planes stay in cache
_BAND_BYTES = 1 << 20  # embed moves its map in bands of about 1 MiB: few writes, no frame held


def _pixel_offset(pixel_origin: str) -> float:
    if pixel_origin not in PIXEL_ORIGINS:
        raise CamTrajError(f"pixel_origin must be one of {PIXEL_ORIGINS}, got {pixel_origin!r}")
    return 0.5 if pixel_origin == "center" else 0.0


def _c2w(e: Extrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Camera-to-world rotation and camera center of one extrinsics value."""
    return convert_extrinsics(e.rotation, e.translation, e.convention,
                              Convention.CAMERA_TO_WORLD, "camera center")


def camera_center(e: Extrinsics) -> np.ndarray:
    """World-space camera center: t itself for camera-to-world, -R.T @ t
    for world-to-camera. Raises CamTrajError if -R.T @ t overflows float64."""
    return np.array(_c2w(e)[1])


def ray_direction(pose: CameraPose, u: float, v: float,
                  pixel_origin: str = "center") -> np.ndarray:
    """Unit world-space direction through pixel (u, v), fractional allowed:
    the :func:`plucker_sequence` kernel run on a one-pixel float64 map whose
    principal point is shifted by (u, v)."""
    intr = pose.intrinsics
    out = np.empty((6, 1, 1))
    _fill_map(out, (intr.fx, intr.fy, intr.cx - u, intr.cy - v), *_c2w(pose.extrinsics),
              _pixel_offset(pixel_origin))
    return out[3:6, 0, 0]


@np.errstate(over="raise", invalid="raise", divide="raise")
def _fill_map(out: np.ndarray, intrinsics, r_c2w: np.ndarray, center: np.ndarray,
              off: float, r0: int = 0) -> None:
    """Write rows r0:r0+rows of one camera's Plucker map into ``out``, of shape (6, rows, w).

    Runs over bands of whole rows, ``_BAND_PIXELS`` pixels or one row each, on
    five reused (rows, w) float64 planes: d_k = u*R[k,0] + (v*R[k,1] + R[k,2]),
    then the norm sqrt((d0^2 + d1^2) + d2^2) and the moment planes o x d. Any
    overflow, division by zero or NaN raises a CamTrajError.
    """
    try:
        fx, fy, cx, cy = intrinsics
        height, width = out.shape[1:]
        rows = max(1, _BAND_PIXELS // width)
        col = r_c2w[:, 0, None] * ((np.arange(width, dtype=np.float64) + off - cx) / fx)
        row = r_c2w[:, 1, None] * ((np.arange(r0, r0 + height, dtype=np.float64) + off - cy) / fy)
        row += r_c2w[:, 2, None]
        scratch = np.empty((5, min(rows, height) * width))
        c0, c1, c2 = center  # moment k is c_a*d_i - c_b*d_j, as np.cross forms it
        for v0 in range(0, height, rows):
            band = out[:, v0:v0 + rows]  # the last band may be shorter
            planes = scratch[:, :band[0].size].reshape(5, -1, width)
            d, norm, tmp = planes[:3], planes[3], planes[4]
            np.add(col[:, None, :], row[:, v0:v0 + rows, None], out=d)
            np.multiply(d[0], d[0], out=norm)
            norm += np.multiply(d[1], d[1], out=tmp)
            norm += np.multiply(d[2], d[2], out=tmp)
            d /= np.sqrt(norm, out=norm)
            band[3:6] = d
            for k, (ca, di, cb, dj) in enumerate(((c1, d[2], c2, d[1]), (c2, d[0], c0, d[2]),
                                                  (c0, d[1], c1, d[0]))):
                np.subtract(np.multiply(di, ca, out=norm), np.multiply(dj, cb, out=tmp),
                            out=band[k])
    except FloatingPointError as e:
        raise CamTrajError(f"Plucker map out of float range: {e}") from None


def band_rows(height: int, width: int) -> int:
    """Rows in each band of :func:`plucker_bands`: the fewest whole kernel bands that
    hold ``_BAND_BYTES`` of float32 map, or the whole frame if it is smaller."""
    rows = max(1, _BAND_PIXELS // width)
    return min(height, rows * -(-_BAND_BYTES // (24 * rows * width)))


def plucker_bands(traj: Trajectory, pixel_origin: str = "center",
                  stack: bool = False) -> Iterator[np.ndarray]:
    """Yield each frame's map in order, in bands of :func:`band_rows` rows (fewer at a
    frame's end): (6, rows, w) float32 views of one reused buffer, or with ``stack`` of
    one (n, 6, h, w) array. :func:`convert_extrinsics` names the first frame whose camera
    center overflows float64, before the buffer is allocated; an allocation failure names
    the map's shape."""
    off = _pixel_offset(pixel_origin)  # validate before any work
    r, c = convert_extrinsics(traj.rotations, traj.translations, traj.convention,
                              Convention.CAMERA_TO_WORLD, "camera center")
    shape = (len(traj), 6, traj.height, traj.width)
    rows = band_rows(traj.height, traj.width)
    try:
        buf = np.empty(shape if stack else (6, rows, traj.width), dtype=np.float32)
    except (MemoryError, ValueError):  # ValueError: past numpy's size limit
        raise CamTrajError(f"cannot allocate a float32 embedding of shape {shape}") from None
    for i, r0 in itertools.product(range(len(traj)), range(0, traj.height, rows)):
        band = buf[i, :, r0:r0 + rows] if stack else buf[:, :min(rows, traj.height - r0)]
        try:
            _fill_map(band, traj.intrinsics[i], r[i], c[i], off, r0)
        except CamTrajError as e:
            raise CamTrajError(f"frame {i}: {e}") from None
        yield band


def plucker_sequence(traj: Trajectory, pixel_origin: str = "center") -> np.ndarray:
    """Dense (n, 6, h, w) float32 Plucker maps, one per frame: row v, column u
    of channel block 3..5 holds the unit direction through pixel (u, v); block
    0..2 holds o x d, which is invariant to sliding the origin along the ray."""
    return [*plucker_bands(traj, pixel_origin, stack=True)][-1].base


def _block_deviations(block: np.ndarray) -> tuple[float, float]:
    """max |norm(d) - 1| and max |m . d| / max(1, |m|) of one (6, h, w) block, in float64
    planes, each channel converted as a ufunc reads it."""
    m, d = block[0:3], block[3:6]
    s, m_norm, tmp = np.empty((3, *block.shape[1:]))

    def dot(a, b, out):  # a[0]*b[0] + a[1]*b[1] + a[2]*b[2], summed left to right
        np.multiply(a[0], b[0], out=out, dtype=np.float64)
        for k in (1, 2):
            out += np.multiply(a[k], b[k], out=tmp, dtype=np.float64)
        return out

    np.sqrt(dot(d, d, s), out=s)
    s -= 1.0
    norm_dev = np.abs(s, out=s).max()
    np.maximum(np.sqrt(dot(m, m, m_norm), out=m_norm), 1.0, out=m_norm)
    dot(m, d, s)
    s /= m_norm
    return norm_dev, np.abs(s, out=s).max()


def verify_plucker(arr: np.ndarray) -> dict:
    """Check Plucker invariants on a (..., 6, h, w) array.

    Returns max deviations {"direction_norm": ..., "moment_dot": ...} and
    whether both are below VERIFY_TOL. The moment term is |m . d| / max(1, |m|)
    per pixel, as float32 rounding of m leaves |m . d| near 2e-7 * |m|. Computed
    in float64 on blocks of rows of about 16K pixels, which stay in cache and
    keep memory beyond ``arr`` near 0.4 MB; a NaN anywhere fails the check.
    """
    a = np.asarray(arr)
    if a.ndim < 3 or a.shape[-3] != 6 or a.size == 0:
        raise ShapeMismatch(f"expected non-empty (..., 6, h, w) array, got shape {a.shape}")
    rows = max(1, _BAND_PIXELS // a.shape[-1])
    devs = np.array([_block_deviations(a[i][:, r:r + rows]) for i in np.ndindex(a.shape[:-3])
                     for r in range(0, a.shape[-2], rows)])
    norm_dev, dot_dev = (float(v) for v in devs.max(axis=0))
    return {
        "direction_norm": norm_dev,
        "moment_dot": dot_dev,
        "ok": norm_dev < VERIFY_TOL and dot_dev < VERIFY_TOL,
    }
