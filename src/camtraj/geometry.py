"""Rigid-body camera geometry: intrinsics, extrinsics, trajectories.

Extrinsics are explicitly tagged with their convention (world-to-camera or
camera-to-world) and every operation checks the tag instead of guessing.
Rotations are validated on construction: ``R.T @ R == I`` and ``det R == 1``
within 1e-6, max-abs elementwise.

A :class:`Trajectory` holds its frames as arrays. Outside arrays are
validated in one pass by :meth:`Trajectory.from_arrays`. A trajectory
derived from a checked one (:func:`relativize` and the like) is checked
only for overflowing translations, as a product or transpose of rotations
within the tolerance may miss it. :func:`convert_extrinsics` is the one
place that switches w2c and c2w, and the one place such a switch fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CamTrajError, ConventionMismatch, NonUnitAxis, RotationInvalid, ShapeMismatch

ORTHO_TOL = 1e-6
UNIT_TOL = 1e-9
INTRINSICS_FIELDS = ("fx", "fy", "cx", "cy")


class Convention(Enum):
    """Direction of the rigid map stored in an Extrinsics value."""

    WORLD_TO_CAMERA = "w2c"
    CAMERA_TO_WORLD = "c2w"


def _frozen_array(x, shape) -> np.ndarray:
    a = np.array(x, dtype=np.float64)
    if a.shape != shape:
        raise ShapeMismatch(f"expected array of shape {shape}, got {a.shape}")
    a.setflags(write=False)
    return a


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields``, unchecked."""
    obj = cls.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def check_finite_frames(a: np.ndarray, what: str) -> None:
    """Raise a CamTrajError naming the first frame of (..., 3) ``a`` that is not finite:
    the one check of rigid maps computed from checked ones, which only overflow can break."""
    finite = np.isfinite(a).all(axis=-1)
    if not finite.all():
        raise CamTrajError(f"frame {np.argmin(finite)}: {what} overflows float64")


def unit_vector(vec, exc: type[Exception]) -> np.ndarray:
    """``vec`` as a float array; raises ``exc`` unless it is a 3-vector of
    unit length within UNIT_TOL."""
    v = np.asarray(vec, dtype=np.float64)
    if v.shape != (3,):
        raise exc(f"expected a 3-vector, got shape {v.shape}")
    with np.errstate(over="ignore"):  # an overflowing norm is inf, and fails below
        n = float(np.linalg.norm(v))
    if not abs(n - 1.0) <= UNIT_TOL:  # also NaN
        raise exc(f"norm {n:.12f} deviates from 1 by more than {UNIT_TOL}")
    return v


def first_bad_frame(rotations: np.ndarray, translations: np.ndarray,
                    intrinsics: np.ndarray) -> tuple[int, str, Exception] | None:
    """First invalid frame as (index, "intrinsics" or "extrinsics", error),
    or None. All frames are checked at once, each in this order: intrinsics
    (n, 4) finite, then fx, fy > 0 (CamTrajError); rotations (n, 3, 3) and
    translations (n, 3) finite (CamTrajError); R.T @ R == I, then det R == 1,
    within ORTHO_TOL (RotationInvalid). The two stacks may differ in length,
    as when a parser has read a frame's intrinsics but not its extrinsics."""
    k = intrinsics
    finite_k = np.isfinite(k)
    finite = np.isfinite(rotations).all(axis=(1, 2)) & np.isfinite(translations).all(axis=1)
    r = np.where(finite[:, None, None], rotations, np.eye(3))
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries fail the checks below
        dev = np.abs(np.swapaxes(r, -1, -2) @ r - np.eye(3)).max(axis=(-2, -1))
        det = np.linalg.det(r)
    masks = [~finite_k.all(axis=1), (k[:, 0] <= 0) | (k[:, 1] <= 0), ~finite,
             dev >= ORTHO_TOL, np.abs(det - 1.0) >= ORTHO_TOL]
    found = [(int(np.argmax(m)), rank) for rank, m in enumerate(masks) if m.any()]
    if not found:
        return None
    i, rank = min(found)
    if rank == 0:
        j = int(np.argmin(finite_k[i]))
        err = CamTrajError(f"{INTRINSICS_FIELDS[j]} must be finite, got {k[i, j]}")
    elif rank == 1:
        err = CamTrajError(f"focal lengths must be positive, got fx={k[i, 0]} fy={k[i, 1]}")
    elif rank == 2:
        err = CamTrajError("array contains non-finite entries")
    elif rank == 3:
        err = RotationInvalid(f"R.T @ R deviates from identity by {dev[i]:.3e}")
    else:
        err = RotationInvalid(f"det(R) = {det[i]:.9f}, expected 1")
    return i, "intrinsics" if rank < 2 else "extrinsics", err


def convert_extrinsics(rotations: np.ndarray, translations: np.ndarray,
                       src: Convention, dst: Convention,
                       what: str = "translation") -> tuple[np.ndarray, np.ndarray]:
    """Re-express (..., 3, 3) rotations and (..., 3) translations, one frame
    or a whole trajectory, from convention ``src`` in ``dst``: as given when
    the two agree, else each rigid map inverted, (R, t) -> (R.T, -R.T @ t),
    with R.T a transposed view. Raises CamTrajError("frame i: <what>
    overflows float64") naming the first frame whose -R.T @ t overflows."""
    if src is dst:
        return rotations, translations
    rt = np.swapaxes(rotations, -1, -2)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing frame fails below
        t = (-rt @ translations[..., None])[..., 0]
    check_finite_frames(t, what)
    return rt, t


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsics in pixel units.

    Principal point is unconstrained: synthesized principal-point motion may
    legitimately leave the image bounds.
    """

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        bad = first_bad_frame(np.empty((0, 3, 3)), np.empty((0, 3)),
                              np.array([[self.fx, self.fy, self.cx, self.cy]], dtype=np.float64))
        if bad is not None:
            raise bad[2]

    def matrix(self) -> np.ndarray:
        """3x3 calibration matrix K."""
        return np.array([
            [self.fx, 0.0, self.cx],
            [0.0, self.fy, self.cy],
            [0.0, 0.0, 1.0],
        ])


@dataclass(frozen=True)
class Extrinsics:
    """A rigid transform (R, t) tagged with its convention.

    Under WORLD_TO_CAMERA the map sends world points x to camera coordinates
    R @ x + t; under CAMERA_TO_WORLD it is the inverse map and t is the camera
    center. Arrays are copied and frozen on construction.
    """

    rotation: np.ndarray
    translation: np.ndarray
    convention: Convention

    def __post_init__(self):
        r = _frozen_array(self.rotation, (3, 3))
        t = _frozen_array(self.translation, (3,))
        bad = first_bad_frame(r[None], t[None], np.empty((0, 4)))
        if bad is not None:
            raise bad[2]
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        if not isinstance(self.convention, Convention):
            raise TypeError(f"convention must be a Convention, got {self.convention!r}")

    @classmethod
    def identity(cls, convention: Convention) -> "Extrinsics":
        return cls(np.eye(3), np.zeros(3), convention)


def rotation_about_axis(axis, angle_rad) -> np.ndarray:
    """Rodrigues rotation matrix about a unit axis.

    An array of angles gives one (3, 3) matrix per angle, stacked along the
    leading axes.

    Raises:
        NonUnitAxis: if ``axis`` deviates from unit length by more than 1e-9.
    """
    x, y, z = unit_vector(axis, NonUnitAxis)
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    angle = np.asarray(angle_rad, dtype=np.float64)[..., None, None]
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def rotation_angle(r: np.ndarray) -> np.ndarray:
    """Geodesic angle in radians, in [0, pi], of each (..., 3, 3) rotation.

    The cosine is (tr R - 1) / 2 and the sine is read off the skew part of
    R. atan2(sin, cos) keeps full precision near zero angle, where arccos
    of the clamped trace loses half its digits, and never NaNs for
    floating-point traces marginally outside [-1, 3].
    """
    cos = (np.trace(r, axis1=-2, axis2=-1) - 1.0) / 2.0
    sin = 0.5 * np.sqrt((r[..., 2, 1] - r[..., 1, 2]) ** 2
                        + (r[..., 0, 2] - r[..., 2, 0]) ** 2
                        + (r[..., 1, 0] - r[..., 0, 1]) ** 2)
    return np.arctan2(sin, cos)


@dataclass(frozen=True)
class CameraPose:
    """One frame: intrinsics plus tagged extrinsics."""

    intrinsics: Intrinsics
    extrinsics: Extrinsics


@dataclass(frozen=True, eq=False, init=False)
class Trajectory:
    """An ordered pose sequence with shared image dimensions and convention.

    Frames are stored as read-only float64 arrays: ``rotations`` (n, 3, 3),
    ``translations`` (n, 3) and ``intrinsics`` (n, 4) holding fx, fy, cx,
    cy. ``Trajectory(poses, width, height)`` stacks CameraPose values of one
    convention; :meth:`from_arrays` takes the arrays. Both validate them.
    """

    rotations: np.ndarray
    translations: np.ndarray
    intrinsics: np.ndarray
    convention: Convention
    width: int
    height: int

    def __init__(self, poses, width: int, height: int):
        poses = tuple(poses)
        if not poses:
            raise CamTrajError("trajectory needs at least one pose")
        conv = poses[0].extrinsics.convention
        for i, p in enumerate(poses):
            if p.extrinsics.convention is not conv:
                raise ConventionMismatch(
                    f"pose {i} is {p.extrinsics.convention.value}, pose 0 is {conv.value}")
        traj = Trajectory.from_arrays(
            [p.extrinsics.rotation for p in poses], [p.extrinsics.translation for p in poses],
            [[getattr(p.intrinsics, f) for f in INTRINSICS_FIELDS] for p in poses],
            conv, width, height)
        self.__dict__.update(traj.__dict__)

    @classmethod
    def from_arrays(cls, rotations, translations, intrinsics, convention: Convention,
                    width: int, height: int) -> "Trajectory":
        """Build from (n, 3, 3), (n, 3) and (n, 4) arrays, which are copied;
        raises CamTrajError, or its subclass RotationInvalid, on invalid input."""
        r = np.array(rotations, dtype=np.float64)
        t = np.array(translations, dtype=np.float64)
        k = np.array(intrinsics, dtype=np.float64)
        n = len(r) if r.ndim else 0
        if r.shape[1:] != (3, 3) or t.shape != (n, 3) or k.shape != (n, 4):
            raise ShapeMismatch("expected rotations (n, 3, 3), translations (n, 3) and "
                                f"intrinsics (n, 4), got {r.shape}, {t.shape}, {k.shape}")
        if n < 1:
            raise CamTrajError("trajectory needs at least one pose")
        bad = first_bad_frame(r, t, k)
        if bad is not None:
            raise bad[2]
        if width < 1 or height < 1:
            raise CamTrajError(f"image dims must be positive, got {width}x{height}")
        if not isinstance(convention, Convention):
            raise TypeError(f"convention must be a Convention, got {convention!r}")
        return cls._wrap(r, t, k, convention, width, height)

    @classmethod
    def _wrap(cls, r, t, k, convention: Convention, width: int, height: int) -> "Trajectory":
        """Wrap float64 arrays that passed :func:`first_bad_frame`, read-only, uncopied."""
        for a in (r, t, k):
            a.setflags(write=False)
        return _unchecked(cls, rotations=r, translations=t, intrinsics=k,
                          convention=convention, width=width, height=height)

    def _derive(self, r: np.ndarray, t: np.ndarray, convention: Convention) -> "Trajectory":
        """Frames computed from this trajectory's by rigid maps, wrapped with its
        intrinsics and dims once :func:`check_finite_frames` passes."""
        check_finite_frames(t, "translation")
        return self._wrap(r, t, self.intrinsics, convention, self.width, self.height)

    def _to(self, convention: Convention) -> "Trajectory":
        """This trajectory re-expressed in ``convention`` by :func:`convert_extrinsics`."""
        return self._derive(*convert_extrinsics(self.rotations, self.translations,
                                                self.convention, convention), convention)

    def __len__(self) -> int:
        return len(self.rotations)

    @property
    def poses(self) -> tuple[CameraPose, ...]:
        """Per-frame CameraPose values, built on each access without re-checks."""
        return tuple(CameraPose(_unchecked(Intrinsics, **dict(zip(INTRINSICS_FIELDS, k))),
                                _unchecked(Extrinsics, rotation=_frozen_array(r, (3, 3)),
                                           translation=_frozen_array(t, (3,)),
                                           convention=self.convention))
                     for k, r, t in zip(self.intrinsics.tolist(), self.rotations,
                                        self.translations))


def relativize(traj: Trajectory) -> Trajectory:
    """Re-express every frame relative to frame 0.

    Works in world-to-camera convention, where the relative transform is
    E_i @ E_0^-1, then converts back so the output carries the input's
    convention. Frame 0 of the result is exactly the identity, and a
    trajectory whose first frame is already the identity comes back
    unchanged up to roundoff.
    """
    w2c = traj._to(Convention.WORLD_TO_CAMERA)
    r, t = w2c.rotations, w2c.translations
    inv_r, inv_t = convert_extrinsics(r[0], t[0], w2c.convention, Convention.CAMERA_TO_WORLD)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow fails in _derive
        rel_r, rel_t = r @ inv_r, r @ inv_t + t
    rel_r[0], rel_t[0] = np.eye(3), 0.0
    return w2c._derive(rel_r, rel_t, w2c.convention)._to(traj.convention)
