"""Trajectory fidelity metrics: rotation and translation error.

Per-frame rotation error is the geodesic angle of R_gen @ R_gt.T, summed
over frames without averaging. Translation error sums SQUARED Euclidean
distances between translation vectors; the unsquared sum is also reported
for cross-comparison with implementations that read the norm unsquared.

The full pipeline in :func:`evaluate` converts both trajectories to the
world-to-camera convention, re-expresses them relative to their first
frame, removes the reconstruction scale ambiguity by matching
first-interval translation magnitudes, and only then measures errors.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import CamTrajError, DegenerateBaseline, LengthMismatch
from .geometry import Convention, Trajectory, relativize, rotation_angle

BASELINE_EPS = 1e-8

# Empirical floor for SfM re-extraction noise on the RealEstate10K test set:
# re-running pose estimation on ground-truth clips and scoring against the
# dataset poses cannot do better than this. Context for absolute numbers,
# deliberately not reproduced by any test (reproduction needs COLMAP runs).
REALESTATE10K_TRANS_ERR_LOWER_BOUND = 6.93
REALESTATE10K_ROT_ERR_LOWER_BOUND = 1.02


@dataclass(frozen=True)
class AlignmentReport:
    """Evaluation result for one trajectory pair.

    Totals are ``math.fsum`` sums of the per-frame lists; rotation errors
    are radians in [0, pi], translation errors squared scene units.
    """

    rot_err_total: float
    trans_err_total: float
    trans_err_unsquared_total: float
    per_frame_rot: tuple[float, ...]
    per_frame_trans: tuple[float, ...]
    rescale_factor: float
    frames_compared: int

    def to_dict(self) -> dict:
        return {
            "rot_err": self.rot_err_total,
            "trans_err": self.trans_err_total,
            "trans_err_unsquared": self.trans_err_unsquared_total,
            "rescale_factor": self.rescale_factor,
            "frames_compared": self.frames_compared,
            "per_frame": [
                {"rot": r, "trans": t}
                for r, t in zip(self.per_frame_rot, self.per_frame_trans)
            ],
        }


def _check_lengths(gt: Trajectory, gen: Trajectory) -> None:
    if len(gt) != len(gen):
        raise LengthMismatch(f"gt has {len(gt)} frames, gen has {len(gen)}")


@contextmanager
def _naming(name: str):
    """Prefix ``name`` to a CamTrajError raised inside, telling gt from gen."""
    try:
        yield
    except CamTrajError as e:
        raise CamTrajError(f"{name}: {e}") from None


def rot_err(gt: Trajectory, gen: Trajectory) -> tuple[float, list[float]]:
    """Summed geodesic rotation error between matching frames.

    Each frame contributes the angle of R_gen @ R_gt.T in radians, from
    :func:`~camtraj.geometry.rotation_angle` (atan2, so identical inputs
    score ~0). Inputs are compared as stored: relativize first if absolute
    poses would be meaningless to compare.

    Raises:
        LengthMismatch: on different frame counts.
    """
    _check_lengths(gt, gen)
    per_frame = rotation_angle(
        gen.rotations @ np.swapaxes(gt.rotations, -1, -2)).tolist()
    return math.fsum(per_frame), per_frame


def trans_err(gt: Trajectory, gen: Trajectory) -> tuple[float, list[float]]:
    """Summed squared distance between matching translation vectors.

    Callers wanting the scale-ambiguity handled should go through
    :func:`evaluate`, which normalizes gen before calling this.

    Raises:
        LengthMismatch: on different frame counts.
    """
    _check_lengths(gt, gen)
    diff = gt.translations - gen.translations  # batched dot: the bits of diff @ diff
    per_frame = (diff[:, None, :] @ diff[:, :, None])[:, 0, 0].tolist()
    return math.fsum(per_frame), per_frame


def normalize_scale(gt: Trajectory, gen: Trajectory) -> tuple[Trajectory, float]:
    """Rescale gen so its first-interval translation matches gt's.

    Both inputs must already be relative (frame 0 identity), so frame 1's
    translation IS the first-interval gap. The factor
    ``|t_gt[1]| / |t_gen[1]|`` multiplies every generated translation;
    rotations are untouched.

    Raises:
        LengthMismatch: on different frame counts.
        DegenerateBaseline: if either trajectory has fewer than 2 frames or
            a first-interval norm below 1e-8 or overflowing float64.
    """
    _check_lengths(gt, gen)
    if len(gt) < 2:
        raise DegenerateBaseline("need at least 2 frames to measure the first interval")
    with np.errstate(over="ignore"):  # an overflowing norm is inf, and fails below
        gap_gt = float(np.linalg.norm(gt.translations[1]))
        gap_gen = float(np.linalg.norm(gen.translations[1]))
    norms = f"first-interval norms gt={gap_gt:.3e} gen={gap_gen:.3e}"
    if gap_gt < BASELINE_EPS or gap_gen < BASELINE_EPS:
        raise DegenerateBaseline(f"{norms} below {BASELINE_EPS}")
    if not (math.isfinite(gap_gt) and math.isfinite(gap_gen)):  # then the factor is finite
        raise DegenerateBaseline(f"{norms} overflow float64")
    factor = gap_gt / gap_gen
    with np.errstate(over="ignore"), _naming("gen"):  # an overflowing product fails in _derive
        return gen._derive(gen.rotations, factor * gen.translations, gen.convention), factor


def evaluate(gt: Trajectory, gen: Trajectory) -> AlignmentReport:
    """Full comparison pipeline for a ground-truth / generated pair.

    Convert both to world-to-camera once, relativize, match first-interval
    translation scale, then sum rotation and translation errors over all
    frames (frame 0 contributes exactly zero by construction). The same
    poses score the same bits whichever convention stores them.

    Raises:
        LengthMismatch, DegenerateBaseline, CamTrajError (an overflow, naming gt or gen).
    """
    _check_lengths(gt, gen)
    with _naming("gt"):
        rel_gt = relativize(gt._to(Convention.WORLD_TO_CAMERA))
    with _naming("gen"):
        rel_gen = relativize(gen._to(Convention.WORLD_TO_CAMERA))
    rel_gen, factor = normalize_scale(rel_gt, rel_gen)
    r_total, r_frames = rot_err(rel_gt, rel_gen)
    t_total, t_frames = trans_err(rel_gt, rel_gen)
    unsquared = math.fsum(math.sqrt(v) for v in t_frames)
    return AlignmentReport(
        rot_err_total=r_total,
        trans_err_total=t_total,
        trans_err_unsquared_total=unsquared,
        per_frame_rot=tuple(r_frames),
        per_frame_trans=tuple(t_frames),
        rescale_factor=factor,
        frames_compared=len(gt),
    )
