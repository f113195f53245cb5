"""Synthetic camera trajectories built from simple motion directives.

All synthesized trajectories are relative: frame 0 is the identity pose and
extrinsics carry the camera-to-world convention, so the translation of frame
i is directly the camera center. Rotation directives spin the camera in
place about a fixed center.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from enum import Enum

import numpy as np

from .errors import (CamTrajError, EmptyDirectives, MotionOverflow, NonPositiveScale,
                     NonUnitAxis, NonUnitDirection)
from .geometry import (
    Convention,
    Intrinsics,
    Trajectory,
    rotation_about_axis,
    unit_vector,
)


class MotionKind(Enum):
    PAN = "pan"
    ZOOM = "zoom"
    ROTATE = "rotate"
    PRINCIPAL_SHIFT = "principal_shift"
    FOCAL_ZOOM = "focal_zoom"


# The fields each motion kind requires, in plan parse order: (plan JSON key,
# MotionDirective field, vector length or None for a single number).
MOTION_FIELDS = {
    MotionKind.PAN: (("direction", "direction", 3), ("interval", "interval", None)),
    MotionKind.ZOOM: (("interval", "interval", None),),
    MotionKind.ROTATE: (("axis", "direction", 3), ("degrees", "interval", None)),
    MotionKind.PRINCIPAL_SHIFT: (("per_frame", "shift", 2),),
    MotionKind.FOCAL_ZOOM: (("scale", "interval", None),),
}


@dataclass(frozen=True)
class MotionDirective:
    """One validated motion primitive.

    Field use depends on kind: PAN needs a unit ``direction`` plus per-frame
    ``interval`` (scene units); ZOOM is a pan along the view axis (0,0,1)
    with a signed ``interval``; ROTATE stores the unit axis in ``direction``
    and total degrees in ``interval``; PRINCIPAL_SHIFT stores per-frame pixel
    deltas in ``shift``; FOCAL_ZOOM stores its per-frame factor in
    ``interval``. :data:`MOTION_FIELDS` lists the fields each kind requires.
    Every number must be finite, and a single-frame ROTATE must turn by 0
    degrees.
    """

    kind: MotionKind
    frames: int
    direction: tuple[float, float, float] | None = None
    interval: float | None = None
    shift: tuple[float, float] | None = None

    def __post_init__(self):
        if self.frames < 1:
            raise CamTrajError(f"frames must be >= 1, got {self.frames}")
        fields = MOTION_FIELDS[self.kind]
        for _, name, size in fields:
            v = getattr(self, name)
            if v is None or (size is not None and np.shape(v) != (size,)):
                raise CamTrajError(f"{self.kind.value} needs "
                                   + " and ".join(key for key, _, _ in fields))
        if self.kind in (MotionKind.PAN, MotionKind.ROTATE):
            unit_vector(self.direction,
                        NonUnitDirection if self.kind is MotionKind.PAN else NonUnitAxis)
        elif self.kind is MotionKind.FOCAL_ZOOM:
            if not (self.interval > 0 and math.isfinite(self.interval)):
                raise NonPositiveScale(f"focal factor must be positive, got {self.interval}")
            try:
                last = self.interval ** (self.frames - 1)
            except OverflowError:
                last = math.inf
            if not 0.0 < last < math.inf:
                raise NonPositiveScale(f"focal factor {self.interval} over {self.frames} frames "
                                       f"reaches {last}, outside the positive float64 range")
        numbers = self.shift if self.kind is MotionKind.PRINCIPAL_SHIFT else (self.interval,)
        if not all(map(math.isfinite, numbers)):
            raise CamTrajError(f"{self.kind.value} values must be finite, got "
                               f"{', '.join(map(str, numbers))}")
        if self.kind is MotionKind.ROTATE and self.frames == 1 and self.interval != 0.0:
            raise CamTrajError("single-frame trajectory cannot spread a nonzero angle")


@dataclass(frozen=True)
class SynthesisPlan:
    """A validated synthesis request: frame count, image dims, base
    intrinsics, and the directives to apply in order."""

    frames: int
    width: int
    height: int
    intrinsics: Intrinsics
    directives: tuple[MotionDirective, ...]


def synth_rotation(axis, total_degrees: float, n: int,
                   intrinsics: Intrinsics, width: int, height: int) -> Trajectory:
    """Rotate the camera in place about a fixed unit axis.

    The total angle is spread uniformly: frame i carries
    ``i * total_degrees / (n - 1)``, so the last frame reaches the total
    exactly. Camera center stays at the origin.

    Raises:
        NonUnitAxis: if ``axis`` is not unit length within 1e-9.
        CamTrajError: if n == 1 with a nonzero total (no increment exists).
    """
    d = MotionDirective(MotionKind.ROTATE, n, direction=axis, interval=total_degrees)
    return compose_motions((d,), n, intrinsics, width, height)


def _raise_first(bad: np.ndarray, values: np.ndarray, idx: int, d: MotionDirective,
                 names, error=MotionOverflow, bound: str = "float64") -> None:
    """Raise ``error`` naming directive ``idx`` at the first (frame, column) of ``bad``."""
    if bad.any():
        j, c = np.argwhere(bad)[0]
        raise error(f"{d.kind.value} directive {idx} takes {names[c]} to {values[j, c]} "
                    f"at frame {j}, outside the {bound} range")


def compose_motions(directives, n: int, intrinsics: Intrinsics,
                    width: int, height: int) -> Trajectory:
    """Compose several directives into one trajectory.

    Each directive is applied once, in list order: ROTATE multiplies frame
    i's rotation (from the identity) by its own, PAN and ZOOM add their step
    turned by that rotation to the center (from zero), so the extrinsic is
    the left-associative product of the directives' frame-i transforms;
    intrinsic directives apply their shifts and factors. :func:`synth_rotation`
    and :func:`synthesize` are calls to this function.

    Raises:
        EmptyDirectives: on an empty list.
        MotionOverflow: if a camera center or principal point leaves the
            float64 range at some frame, naming the first directive, in list
            order, that took it there.
        NonPositiveScale: if the focal_zoom factors, applied in order, take
            fx or fy to infinity or to 0 at some frame.
        CamTrajError: if any directive's frame count disagrees with n.
    """
    directives = tuple(directives)
    if not directives:
        raise EmptyDirectives("no motion directives given")
    i = np.arange(n, dtype=np.float64)
    r = np.tile(np.eye(3), (n, 1, 1))
    c = np.zeros((n, 3))  # +0.0, so centers never come out as -0.0
    k = np.tile(np.array(astuple(intrinsics), dtype=np.float64), (n, 1))
    centers = ("center x", "center y", "center z")
    # overflow shows up as inf/nan in the checks below, not as numpy warnings
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for idx, d in enumerate(directives):
            if d.frames != n:
                raise CamTrajError(f"directive frame count {d.frames} != {n}")
            if d.kind is MotionKind.ROTATE:
                angle = 0.0 if n == 1 else math.radians(d.interval) / (n - 1)
                r = r @ rotation_about_axis(d.direction, i * angle)
            elif d.kind in (MotionKind.PAN, MotionKind.ZOOM):
                if d.kind is MotionKind.PAN:
                    step = (i * d.interval)[:, None] * np.asarray(d.direction, dtype=np.float64)
                else:  # a z column, not a (0, 0, 1) product, which turns inf into nan
                    step = np.column_stack((np.zeros((n, 2)), i * d.interval))
                # the step first: in r @ step an inf meets 0 * inf and reads as nan
                _raise_first(~np.isfinite(step), step, idx, d, centers)
                c += (r @ step[..., None])[..., 0]
                _raise_first(~np.isfinite(c), c, idx, d, centers)
            elif d.kind is MotionKind.PRINCIPAL_SHIFT:
                k[:, 2:] += i[:, None] * np.asarray(d.shift, dtype=np.float64)
                _raise_first(~np.isfinite(k[:, 2:]), k[:, 2:], idx, d, ("cx", "cy"))
            else:  # FOCAL_ZOOM; Python's pow, not np.power, which rounds differently
                focal = k[:, :2]
                focal *= np.array([d.interval ** j for j in range(n)], dtype=np.float64)[:, None]
                _raise_first(~((focal > 0.0) & (focal < math.inf)), focal, idx, d, ("fx", "fy"),
                             NonPositiveScale, "positive float64")
    return Trajectory.from_arrays(r, c, k, Convention.CAMERA_TO_WORLD, width, height)


def synthesize(plan: SynthesisPlan) -> Trajectory:
    """Run a full synthesis plan through compose_motions."""
    return compose_motions(plan.directives, plan.frames, plan.intrinsics,
                           plan.width, plan.height)


def scale_intensity(traj: Trajectory, k: float) -> Trajectory:
    """Scale camera centers by k about frame 0's center.

    Rotations, intrinsics, dims, and the convention tag are untouched;
    ``k = 0`` legitimately collapses every center onto frame 0's. Scaling by
    a then b equals scaling once by a*b up to roundoff.
    """
    if not math.isfinite(k):
        raise CamTrajError(f"scale factor must be finite, got {k}")
    c2w = traj._to(Convention.CAMERA_TO_WORLD)
    c = c2w.translations
    with np.errstate(over="ignore", invalid="ignore"):  # overflow fails in _derive
        c = c[0] + k * (c - c[0])
    return c2w._derive(c2w.rotations, c, c2w.convention)._to(traj.convention)
