"""Reading and writing camera pose data.

Two text formats live here:

* the 19-field whitespace-separated pose-list format (one URL line, then one
  line per frame: timestamp, normalized intrinsics, two zero distortion
  coefficients, and a row-major 3x4 world-to-camera matrix);
* JSON documents for full trajectories and for synthesis plans.

Parsing is strict and every failure carries a 1-based line number or a
/-separated JSON path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    FieldCountError,
    IndexOutOfRange,
    IntrinsicsInvalid,
    NonMonotonicTimestamp,
    NonPositiveScale,
    NonUnitAxis,
    NonUnitDirection,
    NonZeroDistortion,
    NumericError,
    RotationInvalid,
    SchemaError,
)
from .geometry import (
    INTRINSICS_FIELDS,
    Convention,
    Intrinsics,
    Trajectory,
    first_bad_frame,
)
from .synth import MotionDirective, MotionKind, SynthesisPlan

POSE_FIELDS = 19


@dataclass(frozen=True)
class PoseRecord:
    """One data line: timestamp in microseconds, normalized intrinsics,
    and a row-major 3x4 world-to-camera matrix."""

    timestamp: int
    fx_n: float
    fy_n: float
    cx_n: float
    cy_n: float
    w2c: np.ndarray  # (3, 4), read-only


@dataclass(frozen=True)
class PoseFile:
    url: str
    records: tuple[PoseRecord, ...]


def _parse_record(line_no: int, fields: list[str]) -> tuple[int, list[float]]:
    """Timestamp and the 18 numeric fields of one data line; every check
    but the rotation one, which runs over all lines at once."""
    if len(fields) != POSE_FIELDS:
        raise FieldCountError(line_no, len(fields))
    try:
        timestamp = int(fields[0])
    except ValueError:
        raise NumericError(line_no, 1, fields[0]) from None
    values = []
    for col, text in enumerate(fields[1:], start=2):
        try:
            v = float(text)
        except ValueError:
            raise NumericError(line_no, col, text) from None
        if not math.isfinite(v):
            raise NumericError(line_no, col, text)
        values.append(v)
    fx_n, fy_n, cx_n, cy_n, k1, k2 = values[:6]
    if k1 != 0.0 or k2 != 0.0:
        raise NonZeroDistortion(line_no, k1, k2)
    if fx_n <= 0 or fy_n <= 0:
        raise IntrinsicsInvalid(f"normalized focals must be positive, got {fx_n} {fy_n}", line_no)
    if not (0.0 <= cx_n <= 1.0 and 0.0 <= cy_n <= 1.0):
        raise IntrinsicsInvalid(
            f"normalized principal point must lie in [0,1], got {cx_n} {cy_n}", line_no)
    return timestamp, values


def _checked_w2c(parsed: list[tuple[int, int, list[float]]]) -> np.ndarray:
    """Read-only (n, 3, 4) world-to-camera matrices of the parsed (line,
    timestamp, fields) rows; RotationInvalid names the first bad line."""
    w2c = np.array([v[6:] for _, _, v in parsed], dtype=np.float64).reshape(-1, 3, 4)
    bad = first_bad_frame(w2c[:, :, :3], w2c[:, :, 3], np.empty((0, 4)))
    if bad is not None:
        raise RotationInvalid(str(bad[2]), parsed[bad[0]][0])
    w2c.setflags(write=False)
    return w2c


def parse_pose_file(data: bytes | str) -> PoseFile:
    """Parse the pose-list text format.

    Line 1 is an opaque URL. Each following non-empty line must hold exactly
    19 whitespace-separated fields; timestamps must strictly increase.

    Raises:
        FieldCountError, NumericError, NonZeroDistortion, IntrinsicsInvalid,
        RotationInvalid, NonMonotonicTimestamp: all carrying the offending
        1-based line number.
        ValueError: on an empty document (no URL line).
    """
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    lines = text.split("\n")
    if not lines or lines[0].strip() == "" and len(lines) == 1:
        raise ValueError("empty pose file: missing URL line")
    url = lines[0].strip()
    parsed: list[tuple[int, int, list[float]]] = []
    try:
        for line_no, raw in enumerate(lines[1:], start=2):
            if not raw.strip():
                continue
            timestamp, values = _parse_record(line_no, raw.split())
            parsed.append((line_no, timestamp, values))
            if len(parsed) > 1 and timestamp <= parsed[-2][1]:
                raise NonMonotonicTimestamp(line_no, timestamp, parsed[-2][1])
    finally:  # also after a parse error: a bad rotation on an earlier line comes first
        w2c = _checked_w2c(parsed)
    return PoseFile(url, tuple(PoseRecord(ts, *v[:4], m) for (_, ts, v), m in zip(parsed, w2c)))


def serialize_pose_file(pf: PoseFile) -> str:
    """Render a PoseFile back to text.

    Floats use 17 significant digits, which reparses to the same float64
    exactly; fields are single-space separated, lines newline-terminated.
    """
    out = [pf.url]
    for r in pf.records:
        nums = [r.fx_n, r.fy_n, r.cx_n, r.cy_n, 0.0, 0.0, *r.w2c.reshape(-1)]
        out.append(" ".join([str(r.timestamp)] + [f"{v:.17g}" for v in nums]))
    return "\n".join(out) + "\n"


def to_trajectory(pf: PoseFile, width: int, height: int,
                  frame_indices) -> Trajectory:
    """Select records by index and denormalize intrinsics to pixels.

    fx and cx scale by width, fy and cy by height. Indices must be in range
    and the selection non-empty; order is taken as given.

    Raises:
        IndexOutOfRange: on an empty selection or an out-of-range index.
    """
    indices = list(frame_indices)
    if not indices:
        raise IndexOutOfRange("frame selection is empty")
    n = len(pf.records)
    out_of_range = [i for i in indices if not 0 <= i < n]
    if out_of_range:
        raise IndexOutOfRange(f"index {out_of_range[0]} out of range for {n} records")
    records = [pf.records[i] for i in indices]
    w2c = np.array([r.w2c for r in records])
    normalized = np.array([(r.fx_n, r.fy_n, r.cx_n, r.cy_n) for r in records])
    return Trajectory.from_arrays(w2c[:, :, :3], w2c[:, :, 3],
                                  normalized * [width, height, width, height],
                                  Convention.WORLD_TO_CAMERA, width, height)


# --- trajectory JSON --------------------------------------------------------

_CONVENTION_NAMES = {c.value: c for c in Convention}


def trajectory_to_json(traj: Trajectory) -> str:
    """Serialize a trajectory to the canonical JSON interchange form."""
    doc = {
        "convention": traj.convention.value,
        "width": traj.width,
        "height": traj.height,
        "poses": [
            {**dict(zip(INTRINSICS_FIELDS, k)), "R": r, "t": t}
            for k, r, t in zip(traj.intrinsics.tolist(),
                               traj.rotations.reshape(-1, 9).tolist(),
                               traj.translations.tolist())
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise SchemaError(f"{path}/{key}", "required key missing")
    return obj[key]


def _as_number(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(path, f"expected a number, got {type(v).__name__}")
    return float(v)


def _as_int(v, path: str, minimum: int | None = None) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(path, f"expected an integer, got {type(v).__name__}")
    if minimum is not None and v < minimum:
        raise SchemaError(path, f"must be >= {minimum}, got {v}")
    return v


def _as_vector(v, n: int, path: str) -> list[float]:
    if not isinstance(v, list) or len(v) != n:
        raise SchemaError(path, f"expected a list of {n} numbers")
    return [_as_number(x, f"{path}/{i}") for i, x in enumerate(v)]


def _intrinsics_fields(obj, path: str) -> list[float]:
    """fx, fy, cx, cy of the object at ``path``; values are checked by the
    caller (a plan's one set, or every pose's at once)."""
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    return [_as_number(_require(obj, k, path), f"{path}/{k}") for k in INTRINSICS_FIELDS]


def _check_pose_values(intrinsics: list[list[float]], extrinsics: list[list[float]]) -> None:
    """Raise SchemaError at /poses/{i} (intrinsics) or /poses/{i}/R (R or t
    values) for the first invalid pose read so far. ``extrinsics`` holds R
    then t, 12 numbers a pose, and may lag ``intrinsics`` by one pose."""
    e = np.array(extrinsics, dtype=np.float64).reshape(-1, 12)
    bad = first_bad_frame(e[:, :9].reshape(-1, 3, 3), e[:, 9:],
                          np.array(intrinsics, dtype=np.float64).reshape(-1, 4))
    if bad is not None:
        i, part, err = bad
        raise SchemaError(f"/poses/{i}" + ("/R" if part == "extrinsics" else ""), str(err))


def trajectory_from_json(text: str) -> Trajectory:
    """Parse the canonical trajectory JSON form.

    Raises:
        SchemaError: with a /-separated path on any structural problem,
        including rotation blocks that fail the orthonormality check.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError("/", f"invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise SchemaError("/", "top level must be an object")
    conv_name = _require(doc, "convention", "")
    if not isinstance(conv_name, str) or conv_name not in _CONVENTION_NAMES:
        raise SchemaError("/convention", f"must be one of {sorted(_CONVENTION_NAMES)}")
    conv = _CONVENTION_NAMES[conv_name]
    width = _as_int(_require(doc, "width", ""), "/width", minimum=1)
    height = _as_int(_require(doc, "height", ""), "/height", minimum=1)
    raw_poses = _require(doc, "poses", "")
    if not isinstance(raw_poses, list) or not raw_poses:
        raise SchemaError("/poses", "expected a non-empty list")
    intrinsics: list[list[float]] = []
    extrinsics: list[list[float]] = []
    try:
        for i, rp in enumerate(raw_poses):
            path = f"/poses/{i}"
            intrinsics.append(_intrinsics_fields(rp, path))
            extrinsics.append(_as_vector(_require(rp, "R", path), 9, f"{path}/R")
                              + _as_vector(_require(rp, "t", path), 3, f"{path}/t"))
    finally:  # also after a schema error: an earlier bad value comes first
        _check_pose_values(intrinsics, extrinsics)
    e = np.array(extrinsics)
    return Trajectory.from_arrays(e[:, :9].reshape(-1, 3, 3), e[:, 9:], intrinsics,
                                  conv, width, height)


# --- synthesis plan JSON ----------------------------------------------------

_MOTION_KINDS = {k.value: k for k in MotionKind}

# Plan keys of each motion kind, in parse order: (JSON key, MotionDirective
# field, vector length or None for a single number).
_MOTION_FIELDS = {
    MotionKind.PAN: (("direction", "direction", 3), ("interval", "interval", None)),
    MotionKind.ZOOM: (("interval", "interval", None),),
    MotionKind.ROTATE: (("axis", "direction", 3), ("degrees", "interval", None)),
    MotionKind.PRINCIPAL_SHIFT: (("per_frame", "shift", 2),),
    MotionKind.FOCAL_ZOOM: (("scale", "interval", None),),
}


def _parse_motion(rm, path: str, frames: int) -> MotionDirective:
    if not isinstance(rm, dict):
        raise SchemaError(path, "expected an object")
    kind_name = _require(rm, "kind", path)
    if not isinstance(kind_name, str) or kind_name not in _MOTION_KINDS:
        raise SchemaError(f"{path}/kind", f"must be one of {sorted(_MOTION_KINDS)}")
    kind = _MOTION_KINDS[kind_name]
    fields = {}
    for key, name, n in _MOTION_FIELDS[kind]:
        v = _require(rm, key, path)
        fields[name] = (_as_number(v, f"{path}/{key}") if n is None
                        else tuple(_as_vector(v, n, f"{path}/{key}")))
    try:
        return MotionDirective(kind=kind, frames=frames, **fields)
    except (NonUnitDirection, NonUnitAxis, NonPositiveScale, ValueError) as e:
        raise SchemaError(path, str(e)) from None


def parse_trajectory_spec(text: str) -> SynthesisPlan:
    """Parse a synthesis-plan JSON document.

    The document carries frames/width/height/intrinsics plus either a single
    "motion" object or a "motions" list to be composed in order.

    Raises:
        SchemaError: with a /-separated path on any structural problem.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError("/", f"invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise SchemaError("/", "top level must be an object")
    frames = _as_int(_require(doc, "frames", ""), "/frames", minimum=1)
    width = _as_int(_require(doc, "width", ""), "/width", minimum=1)
    height = _as_int(_require(doc, "height", ""), "/height", minimum=1)
    fields = _intrinsics_fields(_require(doc, "intrinsics", ""), "/intrinsics")
    try:
        intr = Intrinsics(*fields)
    except ValueError as e:
        raise SchemaError("/intrinsics", str(e)) from None
    if "motion" in doc and "motions" in doc:
        raise SchemaError("/", "give either 'motion' or 'motions', not both")
    if "motion" in doc:
        directives = (_parse_motion(doc["motion"], "/motion", frames),)
    elif "motions" in doc:
        raw = doc["motions"]
        if not isinstance(raw, list) or not raw:
            raise SchemaError("/motions", "expected a non-empty list")
        directives = tuple(_parse_motion(m, f"/motions/{i}", frames)
                           for i, m in enumerate(raw))
    else:
        raise SchemaError("/", "missing 'motion' or 'motions'")
    return SynthesisPlan(frames=frames, width=width, height=height,
                         intrinsics=intr, directives=directives)
