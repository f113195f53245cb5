"""Property tests for the bulk text I/O of pose_io (Hypothesis).

The writers must print exactly what ``json.dumps(doc, indent=2)`` prints,
and the bulk readers must accept and reject exactly what the per-field
references below do, with the same exception type, message and JSON path or
line. The references read one value at a time, as the parsers did before
they read whole documents at once.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camtraj.errors import (
    FieldCountError,
    IntrinsicsInvalid,
    NonMonotonicTimestamp,
    NonZeroDistortion,
    NumericError,
    RotationInvalid,
    SchemaError,
)
from camtraj.geometry import INTRINSICS_FIELDS, Convention, Trajectory, first_bad_frame
from camtraj.metrics import AlignmentReport
from camtraj.pose_io import (
    PoseFile,
    parse_pose_file,
    report_to_json,
    serialize_pose_file,
    trajectory_from_json,
    trajectory_to_json,
)
from util import quat_to_matrix

# derandomized so a tier-1 run is reproducible; raise max_examples to explore
checked = settings(max_examples=60, deadline=None, derandomize=True)
mutated = settings(max_examples=300, deadline=None, derandomize=True)

EDGE = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -2.0, 384.0, 1e16, 0.1, 1e-7]
finite = st.one_of(st.sampled_from(EDGE), st.floats(allow_nan=False, allow_infinity=False))
positive = st.one_of(st.sampled_from([5e-324, 1e308, 1.0, 384.0, 0.1]),
                     st.floats(min_value=5e-324, allow_infinity=False))
unit_interval = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 0.5, 1.0]), st.floats(0.0, 1.0))
quats = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: sum(v * v for v in q) > 0.01)


@st.composite
def rotations(draw):
    """A rotation from a quaternion, or a signed permutation whose zeros
    are all 0.0 or all -0.0 (exact, det +1)."""
    if draw(st.booleans()):
        q = np.array(draw(quats))
        return quat_to_matrix(q / np.linalg.norm(q))
    m = np.full((3, 3), draw(st.sampled_from([0.0, -0.0])))
    signs = draw(st.tuples(*[st.sampled_from([1.0, -1.0])] * 3))
    for row, (col, sign) in enumerate(zip(draw(st.permutations(range(3))), signs)):
        m[row, col] = sign
    if np.linalg.det(m) < 0:
        m[0] = -m[0]
    return m


@st.composite
def trajectories(draw, max_frames=6):
    n = draw(st.integers(1, max_frames))
    r = [draw(rotations()) for _ in range(n)]
    t = [draw(st.tuples(finite, finite, finite)) for _ in range(n)]
    k = [draw(st.tuples(positive, positive, finite, finite)) for _ in range(n)]
    return Trajectory.from_arrays(r, t, k, draw(st.sampled_from(Convention)),
                                  draw(st.integers(1, 10 ** 6)), draw(st.integers(1, 10 ** 6)))


@st.composite
def pose_files(draw, min_lines=0):
    stamps = sorted(set(draw(st.lists(st.integers(-10 ** 20, 10 ** 20),
                                      min_size=min_lines, max_size=6))))
    n = len(stamps)
    k = [(draw(positive), draw(positive), draw(unit_interval), draw(unit_interval))
         for _ in range(n)]
    w2c = [np.hstack([draw(rotations()), np.array(draw(st.tuples(finite, finite, finite)))[:, None]])
           for _ in range(n)]
    url = draw(st.from_regex(r"[a-z0-9:/.?=_-]{0,24}", fullmatch=True))
    return PoseFile.from_arrays(url, stamps, np.reshape(k, (n, 4)), np.reshape(w2c, (n, 3, 4)))


# --- writers ------------------------------------------------------------------

def reference_trajectory_json(traj):
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


@checked
@given(trajectories())
def test_trajectory_text_matches_json_dumps(traj):
    text = trajectory_to_json(traj)
    assert text == reference_trajectory_json(traj)
    back = trajectory_from_json(text)
    for name in ("rotations", "translations", "intrinsics"):
        assert getattr(back, name).tobytes() == getattr(traj, name).tobytes()


def test_trajectory_text_edge_values():
    r = np.array([[1.0, -0.0, 0.0], [0.0, 1.0, -0.0], [-0.0, 0.0, 1.0]])
    traj = Trajectory.from_arrays([r, r], [[-0.0, 5e-324, 1e308], [3.0, -1e16, 0.1]],
                                  [[5e-324, 1e308, -0.0, 2.0], [384.0, 1.0, 1e-7, -5e-324]],
                                  Convention.WORLD_TO_CAMERA, 384, 256)
    text = trajectory_to_json(traj)
    assert text == reference_trajectory_json(traj)
    for literal in ('"fx": 5e-324', '"fy": 1e+308', '"cx": -0.0', '"fx": 384.0', "-1e+16"):
        assert literal in text


any_float = st.one_of(st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324]),
                      st.floats())


@checked
@given(st.lists(any_float, max_size=8), st.lists(any_float, max_size=8),
       st.tuples(any_float, any_float, any_float, any_float), st.integers(0, 10 ** 6))
def test_report_text_matches_json_dumps(rot, trans, totals, frames):
    report = AlignmentReport(totals[0], totals[1], totals[2], tuple(rot), tuple(trans),
                             totals[3], frames)
    assert report_to_json(report) == json.dumps(report.to_dict(), indent=2) + "\n"


def test_report_text_non_finite_and_non_float_values():
    report = AlignmentReport(math.inf, math.nan, 1.5, (0.0, math.inf, -math.inf, math.nan),
                             (math.nan, 2.0, 1, True), -math.inf, 4)
    text = report_to_json(report)
    assert text == json.dumps(report.to_dict(), indent=2) + "\n"
    assert '"rot": -Infinity' in text and '"trans": NaN' in text and '"trans": true' in text


# --- pose text round trip -----------------------------------------------------

@checked
@given(pose_files())
def test_pose_text_round_trip_is_exact(pf):
    text = serialize_pose_file(pf)
    back = parse_pose_file(text)
    assert back.url == pf.url and back.timestamps == pf.timestamps
    assert back.normalized.tobytes() == pf.normalized.tobytes()
    assert back.w2c.tobytes() == pf.w2c.tobytes()
    assert serialize_pose_file(back) == text


# --- trajectory JSON faults -----------------------------------------------------

def _require(obj, key, path):
    if key not in obj:
        raise SchemaError(f"{path}/{key}", "required key missing")
    return obj[key]


def _number(v, path):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(path, f"expected a number, got {type(v).__name__}")
    try:
        return float(v)
    except OverflowError:
        raise SchemaError(path, "integer too large for a float64") from None


def _vector(v, n, path):
    if not isinstance(v, list) or len(v) != n:
        raise SchemaError(path, f"expected a list of {n} numbers")
    return [_number(x, f"{path}/{i}") for i, x in enumerate(v)]


def reference_trajectory_from_json(text):
    """Per-field reading of a document whose header is valid."""
    doc = json.loads(text)
    intrinsics, extrinsics = [], []
    try:
        for i, rp in enumerate(doc["poses"]):
            path = f"/poses/{i}"
            if not isinstance(rp, dict):
                raise SchemaError(path, "expected an object")
            intrinsics.append([_number(_require(rp, k, path), f"{path}/{k}")
                               for k in INTRINSICS_FIELDS])
            extrinsics.append(_vector(_require(rp, "R", path), 9, f"{path}/R")
                              + _vector(_require(rp, "t", path), 3, f"{path}/t"))
    finally:  # a bad value read before a structural fault comes first
        e = np.array(extrinsics, dtype=np.float64).reshape(-1, 12)
        bad = first_bad_frame(e[:, :9].reshape(-1, 3, 3), e[:, 9:],
                              np.array(intrinsics, dtype=np.float64).reshape(-1, 4))
        if bad is not None:
            i, part, err = bad
            raise SchemaError(f"/poses/{i}" + ("/R" if part == "extrinsics" else ""), str(err))
    e = np.array(extrinsics)
    return Trajectory.from_arrays(e[:, :9].reshape(-1, 3, 3), e[:, 9:], intrinsics,
                                  Convention(doc["convention"]), doc["width"], doc["height"])


def outcome(parse, text):
    """What ``parse`` makes of ``text``: its arrays, or its error's type,
    message and path or line."""
    try:
        out = parse(text)
    except Exception as e:
        return type(e), str(e), getattr(e, "path", None), getattr(e, "line", None)
    if isinstance(out, Trajectory):
        return tuple(a.tobytes() for a in (out.rotations, out.translations, out.intrinsics))
    return out.url, out.timestamps, out.normalized.tobytes(), out.w2c.tobytes()


BAD_VALUES = {"bool": True, "string": "1.0", "null": None, "huge": 10 ** 400,
              "nan": math.nan, "inf": -math.inf, "list": [1.0]}
POSE_KEYS = (*INTRINSICS_FIELDS, "R", "t")


def _bad_rotation(pose, how):
    r = pose["R"]
    if how == "scale":
        pose["R"] = [v * 1.5 for v in r]
    else:  # det -1: negate the first row
        pose["R"] = [-v for v in r[:3]] + r[3:]


@st.composite
def faulty_trajectory_texts(draw):
    doc = json.loads(trajectory_to_json(draw(trajectories())))
    poses = doc["poses"]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(poses) - 1))
        pose = poses[i]
        kind = draw(st.sampled_from(["value", "short", "missing", "rotation", "not_object"]))
        key = draw(st.sampled_from(POSE_KEYS))
        if kind == "not_object":
            poses[i] = draw(st.sampled_from([[1.0], "pose", None, 3]))
        elif not isinstance(pose, dict):
            continue
        elif kind == "missing":
            pose.pop(key, None)
        elif kind == "short":
            pose[draw(st.sampled_from(["R", "t"]))] = [1.0, 0.0]
        elif kind == "rotation":
            r = pose.get("R")
            if isinstance(r, list) and len(r) == 9 and all(type(v) is float for v in r):
                _bad_rotation(pose, draw(st.sampled_from(["scale", "flip"])))
        else:
            value = BAD_VALUES[draw(st.sampled_from(sorted(BAD_VALUES)))]
            if key in ("R", "t") and isinstance(pose.get(key), list) and pose[key]:
                pose[key][draw(st.integers(0, len(pose[key]) - 1))] = value
            else:
                pose[key] = value
    return json.dumps(doc, indent=draw(st.sampled_from([None, 2])))


@mutated
@given(faulty_trajectory_texts())
def test_faulty_trajectory_json_fails_like_per_field_reading(text):
    assert outcome(trajectory_from_json, text) == outcome(reference_trajectory_from_json, text)


@checked
@given(trajectories(max_frames=8).filter(lambda t: len(t) >= 2), st.data())
def test_bad_rotation_before_later_structural_fault(traj, data):
    doc = json.loads(trajectory_to_json(traj))
    n = len(doc["poses"])
    i = data.draw(st.integers(0, n - 2))
    j = data.draw(st.integers(i + 1, n - 1))
    _bad_rotation(doc["poses"][i], data.draw(st.sampled_from(["scale", "flip"])))
    doc["poses"][j][data.draw(st.sampled_from(POSE_KEYS))] = data.draw(
        st.sampled_from([True, "x", None, 10 ** 400]))
    text = json.dumps(doc)
    got = outcome(trajectory_from_json, text)
    assert got == outcome(reference_trajectory_from_json, text)
    assert got[0] is SchemaError and got[2] == f"/poses/{i}/R"


# --- pose text faults -----------------------------------------------------------

def _reference_record(line_no, fields):
    if len(fields) != 19:
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


def _reference_rotations(parsed):
    w2c = np.array([v[6:] for _, _, v in parsed], dtype=np.float64).reshape(-1, 3, 4)
    bad = first_bad_frame(w2c[:, :, :3], w2c[:, :, 3], np.empty((0, 4)))
    if bad is not None:
        raise RotationInvalid(str(bad[2]), parsed[bad[0]][0])
    return w2c


def reference_parse_pose_file(text):
    """Line by line, every check of a line in turn; rotations are checked
    over the lines read so far, also after a later line failed."""
    lines = text.split("\n")
    parsed = []
    try:
        for line_no, raw in enumerate(lines[1:], start=2):
            if not raw.strip():
                continue
            timestamp, values = _reference_record(line_no, raw.split())
            parsed.append((line_no, timestamp, values))
            if len(parsed) > 1 and timestamp <= parsed[-2][1]:
                raise NonMonotonicTimestamp(line_no, timestamp, parsed[-2][1])
    finally:
        w2c = _reference_rotations(parsed)
    return PoseFile.from_arrays(lines[0].strip(), [ts for _, ts, _ in parsed],
                                [v[:4] for _, _, v in parsed], w2c)


TOKENS = ["abc", "nan", "inf", "-inf", "1e999", "1_0", "0x10", "1.5", "-1", "0", "-0",
          "9" * 30, "9" * 5000, "1e-400", "0.25", "1.5e0"]


@st.composite
def faulty_pose_texts(draw):
    lines = serialize_pose_file(draw(pose_files(min_lines=1))).split("\n")
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(1, len(lines) - 1))
        fields = lines[i].split()
        kind = draw(st.sampled_from(["token", "drop", "add", "rotation", "blank", "stamp",
                                     "separators", "intrinsics"]))
        if kind == "blank":
            lines.insert(i, draw(st.sampled_from(["", " \t", "\r"])))
            continue
        if not fields:
            continue
        if kind == "token":
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(TOKENS))
        elif kind == "intrinsics" and len(fields) == 19:  # fx fy cx cy k1 k2
            fields[draw(st.integers(1, 6))] = draw(st.sampled_from(["-1", "0", "1.5", "-0.1", "0.25"]))
        elif kind == "drop":
            del fields[draw(st.integers(0, len(fields) - 1))]
        elif kind == "add":
            fields.insert(draw(st.integers(0, len(fields))), "0")
        elif kind == "rotation" and len(fields) == 19:
            scale = draw(st.sampled_from([1.5, -1.0]))  # -1 on one row flips det
            for col in range(7, 11 if scale < 0 else 19):
                if col % 4 != 2:  # keep the translation column
                    try:
                        fields[col] = repr(float(fields[col]) * scale)
                    except ValueError:  # an earlier mutation left no number here
                        pass
        elif kind == "stamp" and i > 1 and lines[i - 1].split():
            fields[0] = draw(st.sampled_from([lines[i - 1].split()[0], "1.0", "-" + "9" * 25]))
        lines[i] = (draw(st.sampled_from([" ", "\t", "  "])).join(fields)
                    if kind == "separators" else " ".join(fields))
    return "\n".join(lines)


@mutated
@given(faulty_pose_texts())
def test_faulty_pose_text_fails_like_line_by_line_reading(text):
    assert outcome(parse_pose_file, text) == outcome(reference_parse_pose_file, text)


GOOD = "5 0.5 0.75 0.5 0.5 0 0 1 0 0 0 0 1 0 0 0 0 1 0"


def _edit(line, col, text):
    fields = line.split()
    fields[col] = text
    return " ".join(fields)


FLIPPED = GOOD.replace("1 0 0 0 0 1 0 0 0 0 1 0", "-1 0 0 0 0 1 0 0 0 0 1 0")


@pytest.mark.parametrize("lines", [
    [GOOD, _edit(GOOD, 0, "9"), _edit(GOOD, 1, "-1")],  # focal
    [GOOD, _edit(GOOD, 0, "9"), _edit(GOOD, 3, "1.5")],  # principal point
    [GOOD, _edit(GOOD, 0, "9"), _edit(GOOD, 6, "0.25")],  # distortion
    [GOOD, _edit(_edit(GOOD, 0, "9"), 1, "-1"), GOOD + " 0"],  # value before count
    [GOOD, _edit(FLIPPED, 0, "9"), GOOD + " 0"],  # rotation before count
    [GOOD, GOOD + " 0", _edit(FLIPPED, 0, "9")],  # count before rotation
    [GOOD, _edit(FLIPPED, 0, "4")],  # rotation before order on one line
    [GOOD, _edit(_edit(FLIPPED, 0, "9"), 1, "-1")],  # value before rotation on one line
    [GOOD, _edit(GOOD, 0, "4"), _edit(FLIPPED, 0, "9")],  # order before a later rotation
    [_edit(GOOD, 0, "-" + "9" * 30), GOOD, _edit(GOOD, 0, "9" * 30)],  # no fault
])
def test_line_faults_fail_like_line_by_line_reading(lines):
    text = "\n".join(["url", *lines]) + "\n"
    assert outcome(parse_pose_file, text) == outcome(reference_parse_pose_file, text)
