"""Synthetic camera trajectories built from simple motion directives.

All synthesized trajectories are relative: frame 0 is the identity pose and
extrinsics carry the camera-to-world convention, so the translation of frame
i is directly the camera center. Rotation directives spin the camera in
place about a fixed center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (CamTrajError, EmptyDirectives, MotionOverflow, NonPositiveScale,
                     NonUnitAxis, NonUnitDirection)
from .geometry import (
    Convention,
    Intrinsics,
    Trajectory,
    convert_extrinsics,
    rotation_about_axis,
    unit_vector,
)


class MotionKind(Enum):
    PAN = "pan"
    ZOOM = "zoom"
    ROTATE = "rotate"
    PRINCIPAL_SHIFT = "principal_shift"
    FOCAL_ZOOM = "focal_zoom"


@dataclass(frozen=True)
class MotionDirective:
    """One validated motion primitive.

    Field use depends on kind: PAN needs a unit ``direction`` plus per-frame
    ``interval`` (scene units); ZOOM is a pan along the view axis (0,0,1)
    with a signed ``interval``; ROTATE stores the unit axis in ``direction``
    and total degrees in ``interval``; PRINCIPAL_SHIFT stores per-frame pixel
    deltas in ``shift``; FOCAL_ZOOM stores its per-frame factor in
    ``interval``. Every number must be finite, and a single-frame ROTATE
    must turn by 0 degrees.
    """

    kind: MotionKind
    frames: int
    direction: tuple[float, float, float] | None = None
    interval: float | None = None
    shift: tuple[float, float] | None = None

    def __post_init__(self):
        if self.frames < 1:
            raise CamTrajError(f"frames must be >= 1, got {self.frames}")
        if self.kind is MotionKind.PAN:
            if self.direction is None or self.interval is None:
                raise CamTrajError("pan needs direction and interval")
            unit_vector(self.direction, NonUnitDirection)
        elif self.kind is MotionKind.ZOOM:
            if self.interval is None:
                raise CamTrajError("zoom needs interval")
        elif self.kind is MotionKind.ROTATE:
            if self.direction is None or self.interval is None:
                raise CamTrajError("rotate needs axis and degrees")
            unit_vector(self.direction, NonUnitAxis)
        elif self.kind is MotionKind.PRINCIPAL_SHIFT:
            if self.shift is None or len(self.shift) != 2:
                raise CamTrajError("principal_shift needs a (dx, dy) pair")
        elif self.kind is MotionKind.FOCAL_ZOOM:
            if self.interval is None:
                raise CamTrajError("focal_zoom needs scale")
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
    intrinsics, and the directives to compose in order."""

    frames: int
    width: int
    height: int
    intrinsics: Intrinsics
    directives: tuple[MotionDirective, ...]


def synth_pan(direction, interval: float, n: int,
              intrinsics: Intrinsics, width: int, height: int) -> Trajectory:
    """Translate the camera along a fixed unit direction.

    Frame i keeps the identity rotation and sits at center
    ``i * interval * direction``; intrinsics are constant.

    Raises:
        NonUnitDirection: if ``direction`` is not unit length within 1e-9.
    """
    d = MotionDirective(MotionKind.PAN, n, direction=direction, interval=interval)
    return compose_motions((d,), n, intrinsics, width, height)


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


def synth_intrinsic_motion(kind: MotionKind, param, n: int,
                           intrinsics: Intrinsics, width: int, height: int) -> Trajectory:
    """Animate intrinsics while every frame keeps the identity extrinsics.

    PRINCIPAL_SHIFT moves the principal point by ``param = (dx, dy)`` pixels
    per frame; FOCAL_ZOOM multiplies both focals by ``param ** i`` at frame
    i. The principal point may leave the image bounds.

    Raises:
        NonPositiveScale: for a FOCAL_ZOOM factor <= 0, or one whose power
            ``param ** (n - 1)`` overflows to infinity or underflows to 0.
        CamTrajError: for any other kind.
    """
    if kind is MotionKind.PRINCIPAL_SHIFT:
        d = MotionDirective(kind, n, shift=tuple(param))
    elif kind is MotionKind.FOCAL_ZOOM:
        d = MotionDirective(kind, n, interval=float(param))
    else:
        raise CamTrajError(f"not an intrinsic motion kind: {kind}")
    return compose_motions((d,), n, intrinsics, width, height)


def _directive_extrinsics(d: MotionDirective, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Camera-to-world (n, 3, 3) rotations and (n, 3) translations that one
    directive contributes at frames 0..n-1."""
    i = np.arange(n, dtype=np.float64)
    r = np.tile(np.eye(3), (n, 1, 1))
    t = np.zeros((n, 3))
    if d.kind is MotionKind.PAN:
        t = (i * d.interval)[:, None] * np.asarray(d.direction, dtype=np.float64)
    elif d.kind is MotionKind.ZOOM:
        t[:, 2] = i * d.interval
    elif d.kind is MotionKind.ROTATE:
        step = 0.0 if d.frames == 1 else math.radians(d.interval) / (d.frames - 1)
        r = rotation_about_axis(d.direction, i * step)
    return r, t


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

    Frame i's extrinsic is the matrix product of each directive's frame-i
    transform taken in list order (left-associative); intrinsic directives
    apply their shifts and factors in the same order. The single-directive
    primitives above are calls to this function.

    Raises:
        EmptyDirectives: on an empty list.
        MotionOverflow: if a camera center or principal point leaves the
            float64 range at some frame, naming the directive that took it there.
        NonPositiveScale: if the focal_zoom factors, applied in order, take
            fx or fy to infinity or to 0 at some frame.
        CamTrajError: if any directive's frame count disagrees with n.
    """
    directives = tuple(directives)
    if not directives:
        raise EmptyDirectives("no motion directives given")
    for d in directives:
        if d.frames != n:
            raise CamTrajError(f"directive frame count {d.frames} != {n}")
    i = np.arange(n, dtype=np.float64)
    k = np.tile(np.array([intrinsics.fx, intrinsics.fy, intrinsics.cx, intrinsics.cy],
                         dtype=np.float64), (n, 1))
    # overflow shows up as inf/nan in the checks below, not as numpy warnings
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for idx, d in enumerate(directives):
            dr, dt = _directive_extrinsics(d, n)
            r, t = (dr, dt) if idx == 0 else (r @ dr, (r @ dt[..., None])[..., 0] + t)
            _raise_first(~np.isfinite(t), t, idx, d, ("center x", "center y", "center z"))
        for idx, d in enumerate(directives):
            if d.kind is MotionKind.PRINCIPAL_SHIFT:
                k[:, 2:] += i[:, None] * np.asarray(d.shift, dtype=np.float64)
                _raise_first(~np.isfinite(k[:, 2:]), k[:, 2:], idx, d, ("cx", "cy"))
            elif d.kind is MotionKind.FOCAL_ZOOM:
                focal = k[:, :2]
                focal *= np.array([d.interval ** j for j in range(n)], dtype=np.float64)[:, None]
                _raise_first(~((focal > 0.0) & (focal < math.inf)), focal, idx, d, ("fx", "fy"),
                             NonPositiveScale, "positive float64")
    return Trajectory.from_arrays(r, t, k, Convention.CAMERA_TO_WORLD, width, height)


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
    c2w = Convention.CAMERA_TO_WORLD
    r, c = convert_extrinsics(traj.rotations, traj.translations, traj.convention, c2w)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow fails in _derive
        r, t = convert_extrinsics(r, c[0] + k * (c - c[0]), c2w, traj.convention)
    return traj._derive(r, t, traj.convention)
