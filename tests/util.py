"""Shared random-input builders and small references for the test suite.

Rotations are generated from random unit quaternions, independently of the
library's own rotation construction, so library code never feeds its own
test inputs.
"""

import numpy as np

from camtraj.geometry import (
    CameraPose,
    Convention,
    Extrinsics,
    Intrinsics,
    Trajectory,
    convert_extrinsics,
)
from camtraj.plucker import plucker_sequence
from camtraj.synth import MotionDirective, compose_motions


def quat_to_matrix(q):
    """Unit quaternion (w, x, y, z) to rotation matrix."""
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def random_rotation(rng):
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    return quat_to_matrix(q)


def random_unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def random_extrinsics(rng, convention=Convention.WORLD_TO_CAMERA, t_scale=1.0):
    return Extrinsics(random_rotation(rng), t_scale * rng.standard_normal(3), convention)


def random_intrinsics(rng, width=64, height=48):
    fx = rng.uniform(0.5, 2.0) * width
    fy = rng.uniform(0.5, 2.0) * height
    cx = rng.uniform(0.3, 0.7) * width
    cy = rng.uniform(0.3, 0.7) * height
    return Intrinsics(fx, fy, cx, cy)


def random_pose(rng, convention=Convention.WORLD_TO_CAMERA, width=64, height=48):
    return CameraPose(random_intrinsics(rng, width, height),
                      random_extrinsics(rng, convention))


def random_trajectory(rng, n=8, convention=Convention.WORLD_TO_CAMERA,
                      width=64, height=48):
    poses = tuple(random_pose(rng, convention, width, height) for _ in range(n))
    return Trajectory(poses, width, height)


# --- small references ---------------------------------------------------------

def compose_rt(a, b):
    """Rigid maps as plain (R, t) pairs, b applied first, then a:
    (R_a @ R_b, R_a @ t_b + t_a)."""
    (ra, ta), (rb, tb) = a, b
    return ra @ rb, ra @ tb + ta


def as_rt(e, convention):
    """(R, t) of Extrinsics ``e`` expressed under ``convention``."""
    return convert_extrinsics(e.rotation, e.translation, e.convention, convention)


def unshuffle_inverse(y, r):
    """Channel-to-space rearrangement undoing ``pixel_unshuffle(x, r)``."""
    b, n, c, h, w = y.shape
    x = y.reshape(b, n, c // (r * r), r, r, h, w).transpose(0, 1, 2, 5, 3, 6, 4)
    return x.reshape(b, n, c // (r * r), h * r, w * r)


def plucker_frame(pose, width, height, pixel_origin="center"):
    """(6, height, width) float32 Plucker map of one pose."""
    return plucker_sequence(Trajectory((pose,), width, height), pixel_origin)[0]


def one_motion(kind, n, intrinsics, width, height, **fields):
    """Trajectory of a single motion directive of ``kind`` over ``n`` frames."""
    return compose_motions((MotionDirective(kind, n, **fields),), n, intrinsics,
                           width, height)
