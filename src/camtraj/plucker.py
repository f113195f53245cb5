"""Pixel-wise Plucker ray embeddings.

Each pixel of a posed camera gets the 6-vector (m, d): d is the unit
world-space viewing direction through the pixel and m = o x d is the ray
moment about the world origin, o being the camera center. Channel layout is
moments first (0..2), directions last (3..5). Maps are float32; all
intermediate math runs in float64.

Rays are sampled at pixel centers by default (u + 0.5, v + 0.5); pass
``pixel_origin="corner"`` to sample the integer grid instead.
"""

from __future__ import annotations

import numpy as np

from .geometry import CameraPose, Convention, Extrinsics, Trajectory, convert_extrinsics

PIXEL_ORIGINS = ("center", "corner")


def _pixel_offset(pixel_origin: str) -> float:
    if pixel_origin not in PIXEL_ORIGINS:
        raise ValueError(f"pixel_origin must be one of {PIXEL_ORIGINS}, got {pixel_origin!r}")
    return 0.5 if pixel_origin == "center" else 0.0


def _c2w(e: Extrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Camera-to-world rotation and camera center of one extrinsics value."""
    return convert_extrinsics(e.rotation, e.translation, e.convention,
                              Convention.CAMERA_TO_WORLD)


def camera_center(e: Extrinsics) -> np.ndarray:
    """World-space camera center: t itself for camera-to-world, -R.T @ t
    for world-to-camera."""
    return np.array(_c2w(e)[1])


def ray_direction(pose: CameraPose, u: float, v: float,
                  pixel_origin: str = "center") -> np.ndarray:
    """Unit world-space direction through pixel (u, v), fractional allowed."""
    off = _pixel_offset(pixel_origin)
    kinv = pose.intrinsics.inverse_matrix()
    d_cam = kinv @ np.array([u + off, v + off, 1.0])
    d_world = _c2w(pose.extrinsics)[0] @ d_cam
    return d_world / np.linalg.norm(d_world)


def _fill_map(out: np.ndarray, intrinsics, r_c2w: np.ndarray, center: np.ndarray,
              off: float) -> None:
    """Write the (6, h, w) Plucker map of one camera into ``out``."""
    fx, fy, cx, cy = intrinsics
    height, width = out.shape[1:]
    u = (np.arange(width, dtype=np.float64) + off - cx) / fx
    v = (np.arange(height, dtype=np.float64) + off - cy) / fy
    d_cam = np.empty((height, width, 3))
    d_cam[..., 0] = u[None, :]
    d_cam[..., 1] = v[:, None]
    d_cam[..., 2] = 1.0
    d_world = d_cam @ r_c2w.T
    d_world /= np.linalg.norm(d_world, axis=-1, keepdims=True)
    m = np.cross(np.broadcast_to(center, d_world.shape), d_world)
    out[0:3] = np.moveaxis(m, -1, 0)
    out[3:6] = np.moveaxis(d_world, -1, 0)


def plucker_map(pose: CameraPose, width: int, height: int,
                pixel_origin: str = "center") -> np.ndarray:
    """Dense (6, height, width) float32 Plucker map for one pose.

    Row v, column u of channel block 3..5 holds the unit direction through
    pixel (u, v); block 0..2 holds o x d. The moment is invariant to sliding
    the origin along the ray.
    """
    off = _pixel_offset(pixel_origin)
    intr = pose.intrinsics
    out = np.empty((6, height, width), dtype=np.float32)
    _fill_map(out, (intr.fx, intr.fy, intr.cx, intr.cy), *_c2w(pose.extrinsics), off)
    return out


def plucker_sequence(traj: Trajectory, pixel_origin: str = "center") -> np.ndarray:
    """Stack per-frame maps into an (n, 6, h, w) float32 tensor.

    Frames are computed one at a time, so float64 temporaries stay at one
    frame's size; frame i equals ``plucker_map`` of pose i bit for bit.
    """
    off = _pixel_offset(pixel_origin)  # validate before any work
    r, c = convert_extrinsics(traj.rotations, traj.translations, traj.convention,
                              Convention.CAMERA_TO_WORLD)
    out = np.empty((len(traj), 6, traj.height, traj.width), dtype=np.float32)
    for i in range(len(traj)):
        _fill_map(out[i], traj.intrinsics[i], r[i], c[i], off)
    return out


def verify_plucker(arr: np.ndarray, tol: float = 1e-6) -> dict:
    """Check Plucker invariants on a (..., 6, h, w) array.

    Returns max deviations {"direction_norm": ..., "moment_dot": ...} and
    whether both clear ``tol``. Computed in float64.
    """
    a = np.asarray(arr, dtype=np.float64)
    if a.ndim < 3 or a.shape[-3] != 6:
        raise ValueError(f"expected (..., 6, h, w) array, got shape {a.shape}")
    m = np.moveaxis(a[..., 0:3, :, :], -3, -1)
    d = np.moveaxis(a[..., 3:6, :, :], -3, -1)
    norm_dev = float(np.abs(np.linalg.norm(d, axis=-1) - 1.0).max())
    dot_dev = float(np.abs((m * d).sum(axis=-1)).max())
    return {
        "direction_norm": norm_dev,
        "moment_dot": dot_dev,
        "ok": norm_dev < tol and dot_dev < tol,
    }
