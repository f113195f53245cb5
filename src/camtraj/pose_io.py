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

import array
import itertools
import json
import math
import operator
import struct
from collections.abc import Iterator
from dataclasses import dataclass, replace
from typing import BinaryIO

import numpy as np

from .errors import (
    CamTrajError,
    FieldCountError,
    IndexOutOfRange,
    IntrinsicsInvalid,
    NonMonotonicTimestamp,
    NonZeroDistortion,
    NumericError,
    PoseParseError,
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
from .metrics import AlignmentReport
from .synth import MOTION_FIELDS, MotionDirective, MotionKind, SynthesisPlan

POSE_FIELDS = FieldCountError.expected

_CHUNK = 1024  # list items per piece of written JSON text


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


@dataclass(frozen=True, eq=False, init=False)
class PoseFile:
    """A pose list: the URL line, then per data line a timestamp, its
    normalized intrinsics (fx, fy, cx, cy) and its world-to-camera matrix.

    Lines are stored as ``timestamps`` and read-only float64 arrays
    ``normalized`` (n, 4) and ``w2c`` (n, 3, 4). :meth:`from_arrays` is the
    one constructor and does not validate: :func:`parse_pose_file` does.
    """

    url: str
    timestamps: tuple[int, ...]
    normalized: np.ndarray
    w2c: np.ndarray

    @classmethod
    def from_arrays(cls, url: str, timestamps, normalized, w2c) -> "PoseFile":
        """Build from n timestamps and (n, 4) and (n, 3, 4) arrays, which
        are copied."""
        k = np.array(normalized, dtype=np.float64).reshape(-1, 4)
        m = np.array(w2c, dtype=np.float64).reshape(-1, 3, 4)
        timestamps = tuple(timestamps)
        if not len(timestamps) == len(k) == len(m):
            raise CamTrajError(f"got {len(timestamps)} timestamps, {len(k)} intrinsics rows "
                               f"and {len(m)} matrices")
        k.setflags(write=False)
        m.setflags(write=False)
        pf = cls.__new__(cls)
        pf.__dict__.update(url=url, timestamps=timestamps, normalized=k, w2c=m)
        return pf

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def records(self) -> tuple[PoseRecord, ...]:
        """Per-line PoseRecord values, built on each access."""
        return tuple(PoseRecord(ts, *k, m) for ts, k, m in
                     zip(self.timestamps, self.normalized.tolist(), self.w2c))


def _conversion_error(line_no: int, fields: list[str]) -> PoseParseError:
    """The error of a data line that does not convert to a finite row: a
    wrong field count, or the first column that is not an int (the
    timestamp) or a finite float."""
    if len(fields) != POSE_FIELDS:
        return FieldCountError(line_no, len(fields))
    col = 1
    try:
        int(fields[0])
        for col, text in enumerate(fields[1:], start=2):
            if not math.isfinite(float(text)):
                break
    except ValueError:
        pass
    return NumericError(line_no, col, fields[col - 1])


def parse_pose_file(data: bytes | str) -> PoseFile:
    """Parse the pose-list text format.

    Line 1 is an opaque URL. Each following non-empty line must hold exactly
    19 whitespace-separated fields; timestamps must strictly increase.

    Lines are converted one call each until one does not convert, then
    every check runs once over all lines read. The first bad line is
    reported; on one line the checks run in this order: the line converts
    to finite numbers, zero distortion, positive focals, a principal point
    in [0, 1], a valid rotation, an increasing timestamp.

    Raises:
        FieldCountError, NumericError, NonZeroDistortion, IntrinsicsInvalid,
        RotationInvalid, NonMonotonicTimestamp: all carrying the offending
        1-based line number; PoseParseError on bytes that are not UTF-8.
        CamTrajError: on an empty document (no URL line).
    """
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as e:
        raise PoseParseError(f"not UTF-8 text: {e.reason}", data.count(b"\n", 0, e.start) + 1)
    lines = text.split("\n")
    if not lines or lines[0].strip() == "" and len(lines) == 1:
        raise CamTrajError("empty pose file: missing URL line")
    line_nos: list[int] = []  # one past the rows of v if a line did not convert
    stamps: list[int] = []
    values = array.array("d")  # float64s, not a float object per value
    for line_no, raw in enumerate(lines[1:], start=2):
        fields = raw.split()
        if not fields:
            continue
        line_nos.append(line_no)
        try:  # a wrong field count or a field that does not convert stops here
            if len(fields) != POSE_FIELDS:
                raise ValueError
            stamp, row = int(fields[0]), list(map(float, fields[1:]))
        except ValueError:
            break
        stamps.append(stamp)
        values.extend(row)
    v = np.frombuffer(values, dtype=np.float64).reshape(-1, POSE_FIELDS - 1)
    k, w2c = v[:, :4], v[:, 6:].reshape(-1, 3, 4)
    # (row, rank) of each check's first failure. On one row the checks rank 0
    # converts to finite numbers, 1 distortion, 2 focals, 3 principal point,
    # 4 rotation, 5 timestamp order.
    masks = [~np.isfinite(v).all(axis=1), (v[:, 4:6] != 0.0).any(axis=1),
             (k[:, :2] <= 0).any(axis=1), ~((k[:, 2:] >= 0.0) & (k[:, 2:] <= 1.0)).all(axis=1)]
    faults = [(len(v), 0)] if len(line_nos) > len(v) else []
    faults += [(int(np.argmax(m)), rank) for rank, m in enumerate(masks) if m.any()]
    bad_rotation = first_bad_frame(w2c[:, :, :3], w2c[:, :, 3], np.empty((0, 4)))
    if bad_rotation is not None:
        faults.append((bad_rotation[0], 4))
    not_increasing = list(map(operator.le, stamps[1:], stamps[:-1]))
    if True in not_increasing:
        faults.append((not_increasing.index(True) + 1, 5))
    if not faults:
        return PoseFile.from_arrays(lines[0].strip(), stamps, k, w2c)
    i, rank = min(faults)
    line_no = line_nos[i]
    if rank == 0:
        raise _conversion_error(line_no, lines[line_no - 1].split())
    fx_n, fy_n, cx_n, cy_n, k1, k2 = v[i, :6].tolist()
    if rank == 1:
        raise NonZeroDistortion(line_no, k1, k2)
    if rank == 2:
        raise IntrinsicsInvalid(f"normalized focals must be positive, got {fx_n} {fy_n}", line_no)
    if rank == 3:
        raise IntrinsicsInvalid(
            f"normalized principal point must lie in [0,1], got {cx_n} {cy_n}", line_no)
    if rank == 4:
        raise RotationInvalid(str(bad_rotation[2]), line_no)
    raise NonMonotonicTimestamp(line_no, stamps[i], stamps[i - 1])


_POSE_LINE = "%s" + " %.17g" * (POSE_FIELDS - 1)


def serialize_pose_file(pf: PoseFile) -> str:
    """Render a PoseFile back to text.

    Floats use 17 significant digits, which reparses to the same float64
    exactly; fields are single-space separated, lines newline-terminated.
    """
    n = len(pf)
    rows = np.concatenate([pf.normalized, np.zeros((n, 2)), pf.w2c.reshape(n, 12)], axis=1)
    lines = [_POSE_LINE % (ts, *row) for ts, row in zip(pf.timestamps, rows.tolist())]
    return "\n".join([pf.url, *lines]) + "\n"


def to_trajectory(pf: PoseFile, width: int, height: int,
                  frame_indices) -> Trajectory:
    """Select records by index and denormalize intrinsics to pixels.

    fx and cx scale by width, fy and cy by height. ``frame_indices``, any
    iterable of ints, is read once and lazily, in the order given, so a huge
    range fails at its first index outside ``[0, len(pf))``.

    Raises:
        IndexOutOfRange: at that index, or on an empty selection.
    """
    n = len(pf)
    indices = []
    for i in frame_indices:
        if not 0 <= i < n:
            raise IndexOutOfRange(f"index {i} out of range for {n} records")
        indices.append(i)
    if not indices:
        raise IndexOutOfRange("frame selection is empty")
    w2c = pf.w2c[indices]
    with np.errstate(over="ignore"):  # an overflowing focal is inf, and fails in from_arrays
        k = pf.normalized[indices] * [width, height, width, height]
    return Trajectory.from_arrays(w2c[:, :, :3], w2c[:, :, 3], k,
                                  Convention.WORLD_TO_CAMERA, width, height)


# --- JSON documents ---------------------------------------------------------
# The trajectory and report writers give the exact text of
# json.dumps(doc, indent=2) + "\n". That call runs the json module's
# pure-Python encoder (its C encoder serves only indent=None), one call per
# value; here list items are rendered a chunk at a time from a template made once.

_CONVENTION_NAMES = {c.value: c for c in Convention}
_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}
_POSE_ITEM = {**dict.fromkeys(INTRINSICS_FIELDS, "%s"), "R": ["%s"] * 9, "t": ["%s"] * 3}


def _dumps_listing(doc: dict, item: dict, n: int, values) -> Iterator[str]:
    """The text of ``json.dumps(doc, indent=2) + "\\n"``, whose last value is an
    empty list, with ``n`` copies of ``item`` in that list, in pieces of at most
    ``_CHUNK`` copies. The "%s" strings of copies i to j take ``values(i, j)``
    in order: each value's JSON text, or a finite float, which ``%s`` prints."""
    template = ("\n" + json.dumps(item, indent=2)).replace('"%s"', "%s").replace("\n", "\n    ")
    yield json.dumps(doc, indent=2)[:-3]  # up to '[]\n}', which ends the list empty
    for i in range(0, n, _CHUNK):
        j = min(i + _CHUNK, n)
        yield ("," if i else "") + ",".join([template] * (j - i)) % tuple(values(i, j))
    yield "\n  ]\n}\n" if n else "]\n}\n"


def _emit(pieces: Iterator[str], sink: BinaryIO | None) -> str | None:
    """The joined pieces, or None once they are written to a binary sink as UTF-8."""
    return "".join(pieces) if sink is None else sink.writelines(p.encode() for p in pieces)


def _json_numbers(values) -> list:
    """The JSON text of each number in ``values``: shortest repr for a float,
    Infinity, -Infinity or NaN for a non-finite one, as the json module
    writes them."""
    try:
        text = map(float.__repr__, values)
        return [_NON_FINITE.get(s, s) for s in text]
    except TypeError:  # not all floats
        return list(map(json.dumps, values))


def trajectory_to_json(traj: Trajectory, sink: BinaryIO | None = None) -> str | None:
    """Serialize a trajectory to the canonical JSON interchange form: its
    text, or, given a binary ``sink``, None once the text is written to it."""
    def values(i, j):
        return np.concatenate([traj.intrinsics[i:j], traj.rotations[i:j].reshape(-1, 9),
                               traj.translations[i:j]], axis=1).ravel().tolist()
    doc = {"convention": traj.convention.value, "width": traj.width, "height": traj.height,
           "poses": []}
    return _emit(_dumps_listing(doc, _POSE_ITEM, len(traj), values), sink)


def report_to_json(report: AlignmentReport, sink: BinaryIO | None = None) -> str | None:
    """Render an evaluation report: the text of ``json.dumps(report.to_dict(),
    indent=2) + "\\n"``, or, given a binary ``sink``, None once it is written there."""
    doc = replace(report, per_frame_rot=(), per_frame_trans=()).to_dict()  # per_frame: []
    rot, trans = report.per_frame_rot, report.per_frame_trans

    def values(i, j):  # rot, then trans, of each frame
        return [*itertools.chain(*zip(_json_numbers(rot[i:j]), _json_numbers(trans[i:j])))]
    n = min(len(rot), len(trans))
    return _emit(_dumps_listing(doc, {"rot": "%s", "trans": "%s"}, n, values), sink)


def _load_object(text: str, object_hook=None) -> dict:
    """The top-level object of a JSON document, nested objects passed through ``object_hook``."""
    last = [None, None]  # the object hooked last and what the hook made of it

    def hook(obj):
        last[:] = obj, object_hook(obj)
        return last[1]
    try:
        doc = json.loads(text, object_hook=object_hook and hook)
    except (ValueError, RecursionError) as e:  # also an integer past the digit limit, deep nesting
        raise SchemaError("/", f"invalid JSON: {e}") from None
    if doc is last[1]:  # the top-level object, hooked last, stays as read
        doc = last[0]
    if not isinstance(doc, dict):
        raise SchemaError("/", "top level must be an object")
    return doc


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise SchemaError(f"{path}/{key}", "required key missing")
    return obj[key]


def _type_name(v) -> str:  # a pose row (bytes, see _pose_row) stands for its object
    return "dict" if type(v) is bytes else type(v).__name__


def _as_number(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(path, f"expected a number, got {_type_name(v)}")
    try:
        return float(v)
    except OverflowError:
        raise SchemaError(path, "integer too large for a float64") from None


def _as_int(v, path: str, minimum: int | None = None, maximum: int | None = None) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(path, f"expected an integer, got {_type_name(v)}")
    if minimum is not None and v < minimum:
        raise SchemaError(path, f"must be >= {minimum}, got {v}")
    if maximum is not None and v > maximum:
        raise SchemaError(path, f"must be <= {maximum}, got {v}")
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


def _pose_row(obj: dict):
    """The trajectory reader's object hook: an object with keys fx, fy, cx, cy,
    R and t (others allowed), R and t lists of 9 and 3 values and each value an
    int or float (not bool) in float64 range becomes the bytes of those 16
    float64s, a row; any other object stays as it is."""
    try:
        r, t = obj["R"], obj["t"]
        row = [obj["fx"], obj["fy"], obj["cx"], obj["cy"], *r, *t]
        if (type(r) is list and type(t) is list and len(r) == 9 and len(t) == 3
                and set(map(type, row)) <= {int, float}):
            return struct.pack("16d", *row)
    except (KeyError, TypeError, struct.error):  # struct.error: an int past float64
        pass
    return obj


def _pose_fault(rp, path: str) -> tuple[list, SchemaError]:
    """Intrinsics and error of a pose that is not a row:
    ``[[fx, fy, cx, cy]]`` if those read cleanly, else ``[]``, and the
    SchemaError of its first structural fault."""
    intrinsics = []
    try:
        intrinsics.append(_intrinsics_fields(rp, path))
        _as_vector(_require(rp, "R", path), 9, f"{path}/R")
        _as_vector(_require(rp, "t", path), 3, f"{path}/t")
    except SchemaError as e:
        return intrinsics, e


def trajectory_from_json(text: str) -> Trajectory:
    """Parse the canonical trajectory JSON form.

    Each structurally sound pose becomes a row of 16 floats as the JSON is
    decoded. The rows up to the first pose that is structurally bad, and
    the intrinsics of that pose if they read, are validated at once. The
    first bad pose is reported: a bad value in an earlier pose comes before
    a structural fault in a later one, and within a pose the intrinsics
    come before R, and R before t.

    Raises:
        SchemaError: with a /-separated path on any structural problem,
        including rotation blocks that fail the orthonormality check.
    """
    doc = _load_object(text, _pose_row)
    conv_name = _require(doc, "convention", "")
    if not isinstance(conv_name, str) or conv_name not in _CONVENTION_NAMES:
        raise SchemaError("/convention", f"must be one of {sorted(_CONVENTION_NAMES)}")
    conv = _CONVENTION_NAMES[conv_name]
    width = _as_int(_require(doc, "width", ""), "/width", minimum=1)
    height = _as_int(_require(doc, "height", ""), "/height", minimum=1)
    raw_poses = _require(doc, "poses", "")
    if not isinstance(raw_poses, list) or not raw_poses:
        raise SchemaError("/poses", "expected a non-empty list")
    rows = itertools.takewhile(lambda rp: type(rp) is bytes, raw_poses)  # the leading rows
    values = np.frombuffer(b"".join(rows), dtype=np.float64).reshape(-1, 16)
    m = len(values)
    intrinsics, fault = [], None
    if m < len(raw_poses):
        intrinsics, fault = _pose_fault(raw_poses[m], f"/poses/{m}")
    del doc, raw_poses  # the rows, now copied into values
    r, t = values[:, 4:13].reshape(-1, 3, 3), values[:, 13:]
    bad = first_bad_frame(r, t, np.concatenate([values[:, :4], np.reshape(intrinsics, (-1, 4))]))
    if bad is not None:
        i, part, err = bad
        raise SchemaError(f"/poses/{i}" + ("/R" if part == "extrinsics" else ""), str(err))
    if fault is not None:
        raise fault
    return Trajectory._wrap(r, t, values[:, :4], conv, width, height)


# --- synthesis plan JSON ----------------------------------------------------

_MOTION_KINDS = {k.value: k for k in MotionKind}

# Upper bounds of a plan's frame count and image sides, checked before any
# allocation. The memory of `camtraj synth` grows with the frame count
# (about 80 MB of RSS at 100,000 frames, 29 MB of it the interpreter and numpy).
MAX_PLAN_FRAMES = 1_000_000
MAX_PLAN_SIDE = 65_536


def _parse_motion(rm, path: str, frames: int) -> MotionDirective:
    if not isinstance(rm, dict):
        raise SchemaError(path, "expected an object")
    kind_name = _require(rm, "kind", path)
    if not isinstance(kind_name, str) or kind_name not in _MOTION_KINDS:
        raise SchemaError(f"{path}/kind", f"must be one of {sorted(_MOTION_KINDS)}")
    kind = _MOTION_KINDS[kind_name]
    fields = {}
    for key, name, n in MOTION_FIELDS[kind]:
        v = _require(rm, key, path)
        fields[name] = (_as_number(v, f"{path}/{key}") if n is None
                        else tuple(_as_vector(v, n, f"{path}/{key}")))
    try:
        return MotionDirective(kind=kind, frames=frames, **fields)
    except CamTrajError as e:  # any fault of the directive's values
        raise SchemaError(path, str(e)) from None


def parse_trajectory_spec(text: str) -> SynthesisPlan:
    """Parse a synthesis-plan JSON document.

    The document carries frames/width/height/intrinsics plus either a single
    "motion" object or a "motions" list to be composed in order.

    Raises:
        SchemaError: with a /-separated path on any structural problem.
    """
    doc = _load_object(text)
    frames = _as_int(_require(doc, "frames", ""), "/frames", 1, MAX_PLAN_FRAMES)
    width = _as_int(_require(doc, "width", ""), "/width", 1, MAX_PLAN_SIDE)
    height = _as_int(_require(doc, "height", ""), "/height", 1, MAX_PLAN_SIDE)
    fields = _intrinsics_fields(_require(doc, "intrinsics", ""), "/intrinsics")
    try:
        intr = Intrinsics(*fields)
    except CamTrajError as e:
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
