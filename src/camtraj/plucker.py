"""Pixel-wise Plucker ray embeddings.

Each pixel of a posed camera gets the 6-vector (m, d): d is the unit
world-space viewing direction through the pixel and m = o x d is the ray
moment about the world origin, o being the camera center. Channel layout is
moments first (0..2), directions last (3..5). Maps are float32; all
intermediate math runs in float64.

Rays are sampled at pixel centers by default (u + 0.5, v + 0.5); pass
``pixel_origin="corner"`` to sample the integer grid instead.

One kernel computes every ray, one frame at a time on contiguous (h, w)
float64 planes, bit for bit the pixel-major (h, w, 3) matmul/norm/cross
form (``ray_direction`` runs it on one pixel); a ray out of float range
raises a CamTrajError naming its frame. ``plucker_frames`` runs it into one
reused buffer, which ``camtraj embed`` streams to disk, or into the (n, 6, h,
w) map of ``plucker_sequence``. ``verify_plucker`` reads blocks of about 16K
pixels, so it needs about 1 MB of float64 beyond the map.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .errors import CamTrajError, ShapeMismatch
from .geometry import CameraPose, Convention, Extrinsics, Trajectory, convert_extrinsics

PIXEL_ORIGINS = ("center", "corner")
VERIFY_TOL = 1e-6


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
              off: float) -> None:
    """Write the (6, h, w) Plucker map of one camera into ``out``.

    Works on contiguous (h, w) float64 planes. The camera-space planes
    (u, v, 1) go through one (3, 3) @ (3, h*w) product, which sums
    d_k = u*R[k,0] + v*R[k,1] + R[k,2] in the same order, with the same
    fused multiply-adds, as the pixel-major ``d_cam @ R.T``; elementwise
    sums would round differently. The norm is sqrt((d0^2 + d1^2) + d2^2)
    and the moment planes o x d are written straight into ``out``. Any
    overflow, division by zero or NaN raises a CamTrajError.
    """
    try:
        fx, fy, cx, cy = intrinsics
        height, width = out.shape[1:]
        cam = np.empty((3, height, width))
        cam[0] = (np.arange(width, dtype=np.float64) + off - cx) / fx
        cam[1] = ((np.arange(height, dtype=np.float64) + off - cy) / fy)[:, None]
        cam[2] = 1.0
        d = np.empty_like(cam)
        np.matmul(r_c2w, cam.reshape(3, -1), out=d.reshape(3, -1))
        norm, tmp = cam[0], cam[1]  # the camera planes are spent: reuse them
        np.multiply(d[0], d[0], out=norm)
        norm += np.multiply(d[1], d[1], out=tmp)
        norm += np.multiply(d[2], d[2], out=tmp)
        d /= np.sqrt(norm, out=norm)
        out[3:6] = d
        c0, c1, c2 = center  # moment k is c_a*d_i - c_b*d_j, as np.cross forms it
        for k, (ca, di, cb, dj) in enumerate(((c1, d[2], c2, d[1]), (c2, d[0], c0, d[2]),
                                              (c0, d[1], c1, d[0]))):
            np.subtract(np.multiply(di, ca, out=norm), np.multiply(dj, cb, out=tmp), out=out[k])
    except FloatingPointError as e:
        raise CamTrajError(f"Plucker map out of float range: {e}") from None


def plucker_frames(traj: Trajectory, pixel_origin: str = "center",
                   stack: bool = False) -> Iterator[np.ndarray]:
    """Yield each frame's (6, h, w) float32 Plucker map, in order, computed into
    one reused buffer, or with ``stack`` into its slot of one (n, 6, h, w) array.
    :func:`convert_extrinsics` names the first frame whose camera center overflows
    float64, before the buffer is allocated; an allocation failure names its shape."""
    off = _pixel_offset(pixel_origin)  # validate before any work
    r, c = convert_extrinsics(traj.rotations, traj.translations, traj.convention,
                              Convention.CAMERA_TO_WORLD, "camera center")
    shape = (len(traj), 6, traj.height, traj.width)
    try:
        buf = np.empty(shape if stack else shape[1:], dtype=np.float32)
    except (MemoryError, ValueError):  # ValueError: past numpy's size limit
        raise CamTrajError(f"cannot allocate a float32 embedding of shape {shape}") from None
    for i in range(len(traj)):
        frame = buf[i] if stack else buf
        try:
            _fill_map(frame, traj.intrinsics[i], r[i], c[i], off)
        except CamTrajError as e:
            raise CamTrajError(f"frame {i}: {e}") from None
        yield frame


def plucker_sequence(traj: Trajectory, pixel_origin: str = "center") -> np.ndarray:
    """Dense (n, 6, h, w) float32 Plucker maps, one per frame: row v, column u
    of channel block 3..5 holds the unit direction through pixel (u, v); block
    0..2 holds o x d, which is invariant to sliding the origin along the ray."""
    return [*plucker_frames(traj, pixel_origin, stack=True)][-1].base


def _block_deviations(frame: np.ndarray) -> tuple[float, float]:
    """max |norm(d) - 1| and max |m . d| / max(1, |m|) of one (6, h, w) block, in float64."""
    f = np.asarray(frame, dtype=np.float64)
    m, d = f[0:3], f[3:6]
    s = d[0] * d[0]
    s += d[1] * d[1]
    s += d[2] * d[2]
    np.sqrt(s, out=s)
    s -= 1.0
    norm_dev = np.abs(s, out=s).max()
    m_norm = np.maximum(np.sqrt(m[0] * m[0] + m[1] * m[1] + m[2] * m[2]), 1.0)
    np.multiply(m[0], d[0], out=s)
    s += m[1] * d[1]
    s += m[2] * d[2]
    s /= m_norm
    return norm_dev, np.abs(s, out=s).max()


def verify_plucker(arr: np.ndarray) -> dict:
    """Check Plucker invariants on a (..., 6, h, w) array.

    Returns max deviations {"direction_norm": ..., "moment_dot": ...} and
    whether both are below VERIFY_TOL. The moment term is |m . d| / max(1, |m|)
    per pixel, as float32 rounding of m leaves |m . d| near 2e-7 * |m|. Computed
    in float64 on blocks of rows of about 16K pixels, which stay in cache and
    keep memory beyond ``arr`` near 1 MB; a NaN anywhere fails the check.
    """
    a = np.asarray(arr)
    if a.ndim < 3 or a.shape[-3] != 6 or a.size == 0:
        raise ShapeMismatch(f"expected non-empty (..., 6, h, w) array, got shape {a.shape}")
    rows = max(1, (1 << 14) // a.shape[-1])  # blocks of 16K pixels stay in cache
    devs = np.array([_block_deviations(a[i][:, r:r + rows]) for i in np.ndindex(a.shape[:-3])
                     for r in range(0, a.shape[-2], rows)])
    norm_dev, dot_dev = (float(v) for v in devs.max(axis=0))
    return {
        "direction_norm": norm_dev,
        "moment_dot": dot_dev,
        "ok": norm_dev < VERIFY_TOL and dot_dev < VERIFY_TOL,
    }
