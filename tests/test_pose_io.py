"""Pose-file text format, trajectory JSON, and synthesis-plan JSON."""

import itertools
import json

import numpy as np
import pytest

from camtraj.errors import (
    CamTrajError,
    FieldCountError,
    IndexOutOfRange,
    IntrinsicsInvalid,
    NonMonotonicTimestamp,
    NonZeroDistortion,
    NumericError,
    RotationInvalid,
    SchemaError,
)
from camtraj.geometry import Convention
from camtraj.pose_io import (
    MAX_PLAN_FRAMES,
    MAX_PLAN_SIDE,
    PoseFile,
    PoseRecord,
    parse_pose_file,
    parse_trajectory_spec,
    serialize_pose_file,
    to_trajectory,
    trajectory_from_json,
    trajectory_to_json,
)
from camtraj.synth import MOTION_FIELDS, MotionKind
from util import random_rotation, random_trajectory

IDENTITY_LINE = "0 0.5 0.889 0.5 0.5 0 0 1 0 0 0 0 1 0 0 0 0 1 0"


def make_record(rng, ts):
    r = random_rotation(rng)
    t = rng.standard_normal(3)
    w2c = np.hstack([r, t[:, None]])
    return PoseRecord(ts, rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0),
                      rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), w2c)


def make_pose_file(rng, n=8):
    ts = np.cumsum(rng.integers(1, 100000, size=n))
    records = [make_record(rng, int(t)) for t in ts]
    return PoseFile.from_arrays("https://example.com/video", [r.timestamp for r in records],
                                [(r.fx_n, r.fy_n, r.cx_n, r.cy_n) for r in records],
                                [r.w2c for r in records])


class TestParse:
    def test_identity_line(self):
        pf = parse_pose_file(f"url\n{IDENTITY_LINE}\n")
        assert pf.url == "url"
        assert len(pf.records) == 1
        r = pf.records[0]
        assert r.timestamp == 0
        assert (r.fx_n, r.fy_n, r.cx_n, r.cy_n) == (0.5, 0.889, 0.5, 0.5)
        np.testing.assert_array_equal(r.w2c, np.hstack([np.eye(3), np.zeros((3, 1))]))

    def test_accepts_bytes(self):
        pf = parse_pose_file(f"url\n{IDENTITY_LINE}\n".encode())
        assert len(pf.records) == 1

    def test_skips_blank_lines(self):
        pf = parse_pose_file(f"url\n\n{IDENTITY_LINE}\n\n")
        assert len(pf.records) == 1

    def test_any_whitespace_separates(self):
        pf = parse_pose_file("url\n" + IDENTITY_LINE.replace(" ", "\t ") + "\n")
        assert len(pf.records) == 1

    def test_field_count_error_carries_line(self):
        text = f"url\n{IDENTITY_LINE}\n1 2 3\n"
        with pytest.raises(FieldCountError) as exc:
            parse_pose_file(text)
        assert exc.value.line == 3
        assert exc.value.found == 3
        assert "line 3" in str(exc.value)

    def test_numeric_error_carries_line_and_column(self):
        bad = IDENTITY_LINE.split()
        bad[4] = "oops"
        with pytest.raises(NumericError) as exc:
            parse_pose_file("url\n" + " ".join(bad) + "\n")
        assert exc.value.line == 2
        assert exc.value.column == 5

    def test_non_integer_timestamp(self):
        bad = IDENTITY_LINE.split()
        bad[0] = "0.5"
        with pytest.raises(NumericError) as exc:
            parse_pose_file("url\n" + " ".join(bad) + "\n")
        assert exc.value.column == 1

    def test_non_finite_field_rejected(self):
        bad = IDENTITY_LINE.split()
        bad[10] = "nan"
        with pytest.raises(NumericError):
            parse_pose_file("url\n" + " ".join(bad) + "\n")

    def test_nonzero_distortion(self):
        bad = IDENTITY_LINE.split()
        bad[5] = "0.01"
        with pytest.raises(NonZeroDistortion) as exc:
            parse_pose_file("url\n" + " ".join(bad) + "\n")
        assert exc.value.line == 2

    def test_rotation_invalid_carries_line(self):
        bad = IDENTITY_LINE.split()
        bad[7] = "0.5"  # breaks orthonormality of row 1
        with pytest.raises(RotationInvalid) as exc:
            parse_pose_file("url\n" + " ".join(bad) + "\n")
        assert exc.value.line == 2
        assert str(exc.value).startswith("line 2: ")

    def test_non_monotonic_timestamp(self):
        line2 = IDENTITY_LINE.split()
        line2[0] = "5"
        line3 = IDENTITY_LINE.split()
        line3[0] = "5"
        text = "url\n" + " ".join(line2) + "\n" + " ".join(line3) + "\n"
        with pytest.raises(NonMonotonicTimestamp) as exc:
            parse_pose_file(text)
        assert exc.value.line == 3

    def test_intrinsics_out_of_range(self):
        bad = IDENTITY_LINE.split()
        bad[3] = "1.5"  # cx_n > 1
        with pytest.raises(IntrinsicsInvalid) as exc:
            parse_pose_file("url\n" + " ".join(bad) + "\n")
        assert exc.value.line == 2
        bad = IDENTITY_LINE.split()
        bad[1] = "-0.5"  # fx_n <= 0
        with pytest.raises(IntrinsicsInvalid):
            parse_pose_file("url\n" + " ".join(bad) + "\n")

    def test_empty_document(self):
        with pytest.raises(ValueError):
            parse_pose_file("")


class TestSerialize:
    def test_identity_record_rendering(self):
        pf = parse_pose_file(f"url\n{IDENTITY_LINE}\n")
        text = serialize_pose_file(pf)
        line = text.splitlines()[1]
        assert line.endswith("1 0 0 0 0 1 0 0 0 0 1 0")
        assert line.startswith("0 0.5 ")
        assert "  " not in line  # single spaces only

    def test_round_trip_value_equality(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            pf = make_pose_file(rng, n=int(rng.integers(1, 12)))
            back = parse_pose_file(serialize_pose_file(pf))
            assert back.url == pf.url
            assert len(back.records) == len(pf.records)
            for a, b in zip(pf.records, back.records):
                assert a.timestamp == b.timestamp
                for f in ("fx_n", "fy_n", "cx_n", "cy_n"):
                    assert abs(getattr(a, f) - getattr(b, f)) < 1e-9
                assert np.abs(a.w2c - b.w2c).max() < 1e-9


class TestToTrajectory:
    def test_denormalization(self):
        pf = parse_pose_file(f"url\n{IDENTITY_LINE}\n")
        traj = to_trajectory(pf, 384, 256, [0])
        intr = traj.poses[0].intrinsics
        assert intr.fx == 0.5 * 384
        assert intr.fy == 0.889 * 256
        assert intr.cx == 0.5 * 384
        assert intr.cy == 0.5 * 256
        assert traj.convention is Convention.WORLD_TO_CAMERA
        assert (traj.width, traj.height) == (384, 256)

    def test_selection_order_preserved(self):
        rng = np.random.default_rng(4)
        pf = make_pose_file(rng, 10)
        traj = to_trajectory(pf, 64, 48, [7, 2, 2])
        assert len(traj) == 3
        np.testing.assert_array_equal(traj.poses[0].extrinsics.rotation,
                                      pf.records[7].w2c[:, :3])
        np.testing.assert_array_equal(traj.poses[1].extrinsics.rotation,
                                      traj.poses[2].extrinsics.rotation)

    def test_empty_selection(self):
        pf = parse_pose_file(f"url\n{IDENTITY_LINE}\n")
        with pytest.raises(IndexOutOfRange):
            to_trajectory(pf, 10, 10, [])

    def test_out_of_range_index(self):
        pf = parse_pose_file(f"url\n{IDENTITY_LINE}\n")
        with pytest.raises(IndexOutOfRange):
            to_trajectory(pf, 10, 10, [1])
        with pytest.raises(IndexOutOfRange):
            to_trajectory(pf, 10, 10, [-1])

    def test_selection_is_read_lazily(self):
        pf = parse_pose_file(f"url\n{IDENTITY_LINE}\n1 {IDENTITY_LINE[2:]}\n")
        for selection in (range(0, 10 ** 12), itertools.count()):
            with pytest.raises(IndexOutOfRange) as exc:
                to_trajectory(pf, 64, 48, selection)
            assert str(exc.value) == "index 2 out of range for 2 records"
        traj = to_trajectory(pf, 64, 48, (i for i in (1, 0, 1)))
        assert traj.rotations.shape == (3, 3, 3)

    def test_from_arrays_rejects_length_mismatch(self):
        with pytest.raises(CamTrajError) as exc:
            PoseFile.from_arrays("u", [0, 1], np.ones((1, 4)), np.zeros((1, 3, 4)))
        assert str(exc.value) == "got 2 timestamps, 1 intrinsics rows and 1 matrices"


class TestErrorPosition:
    """The rotation check runs over all lines at once; the error reported
    must still be the one on the earliest line."""

    BAD_ROTATION = "1.1 0 0 0 1 0 0 0 1"

    def lines(self, bad_rotation_line, short_line):
        out = ["url"]
        for line_no in range(2, 9):
            rot = self.BAD_ROTATION if line_no == bad_rotation_line else "1 0 0 0 1 0 0 0 1"
            r = rot.split()
            text = (f"{line_no * 1000} 0.5 0.8 0.5 0.5 0 0 "
                    f"{r[0]} {r[1]} {r[2]} 0 {r[3]} {r[4]} {r[5]} 0 {r[6]} {r[7]} {r[8]} 0")
            out.append(" ".join(text.split()[:7]) if line_no == short_line else text)
        return "\n".join(out) + "\n"

    def test_bad_rotation_before_field_count_error(self):
        with pytest.raises(RotationInvalid) as exc:
            parse_pose_file(self.lines(bad_rotation_line=5, short_line=7))
        assert exc.value.line == 5

    def test_field_count_error_before_bad_rotation(self):
        with pytest.raises(FieldCountError) as exc:
            parse_pose_file(self.lines(bad_rotation_line=7, short_line=5))
        assert exc.value.line == 5

    def test_bad_rotation_alone(self):
        with pytest.raises(RotationInvalid) as exc:
            parse_pose_file(self.lines(bad_rotation_line=6, short_line=None))
        assert exc.value.line == 6

    def test_bad_rotation_on_a_non_monotonic_line(self):
        text = f"url\n{IDENTITY_LINE}\n0 0.5 0.8 0.5 0.5 0 0 2 0 0 0 0 1 0 0 0 0 1 0\n"
        with pytest.raises(RotationInvalid) as exc:
            parse_pose_file(text)
        assert exc.value.line == 3


class TestTrajectoryJson:
    def test_round_trip(self):
        rng = np.random.default_rng(77)
        for conv in Convention:
            traj = random_trajectory(rng, 5, conv)
            back = trajectory_from_json(trajectory_to_json(traj))
            assert back.convention is conv
            assert (back.width, back.height) == (traj.width, traj.height)
            for a, b in zip(traj.poses, back.poses):
                assert np.abs(a.extrinsics.rotation - b.extrinsics.rotation).max() < 1e-15
                assert np.abs(a.extrinsics.translation - b.extrinsics.translation).max() < 1e-15
                assert a.intrinsics == b.intrinsics

    def test_schema_paths(self):
        with pytest.raises(SchemaError) as exc:
            trajectory_from_json("{}")
        assert exc.value.path == "/convention"
        with pytest.raises(SchemaError) as exc:
            trajectory_from_json('{"convention": "w2c", "width": 1}')
        assert exc.value.path == "/height"
        doc = {"convention": "sideways", "width": 1, "height": 1, "poses": []}
        with pytest.raises(SchemaError) as exc:
            trajectory_from_json(json.dumps(doc))
        assert exc.value.path == "/convention"
        doc["convention"] = "w2c"
        with pytest.raises(SchemaError) as exc:
            trajectory_from_json(json.dumps(doc))
        assert (exc.value.path, exc.value.reason) == ("/poses", "expected a non-empty list")

    def test_bad_rotation_reports_pose_path(self):
        doc = {
            "convention": "w2c", "width": 4, "height": 4,
            "poses": [{"fx": 1, "fy": 1, "cx": 0, "cy": 0,
                       "R": [2, 0, 0, 0, 1, 0, 0, 0, 1], "t": [0, 0, 0]}],
        }
        with pytest.raises(SchemaError) as exc:
            trajectory_from_json(json.dumps(doc))
        assert exc.value.path == "/poses/0/R"

    def test_bad_rotation_at_pose_3_reports_its_path(self):
        good = {"fx": 10.0, "fy": 10.0, "cx": 5.0, "cy": 5.0,
                "R": [1, 0, 0, 0, 1, 0, 0, 0, 1], "t": [0, 0, 0]}
        poses = [good] * 6
        poses[3] = dict(good, R=[1, 0, 0, 0, 1, 0, 0, 0, -1])  # a reflection
        doc = {"convention": "c2w", "width": 10, "height": 10, "poses": poses}
        with pytest.raises(SchemaError) as exc:
            trajectory_from_json(json.dumps(doc))
        assert exc.value.path == "/poses/3/R"
        assert "det(R)" in exc.value.reason

    @pytest.mark.parametrize("faults, path, reason", [
        ({4: {"R": [2, 0, 0, 0, 1, 0, 0, 0, 1]}, 2: {"R": [1, 0, 0, 0, 1, 0, 0, 0, -1]}},
         "/poses/2/R", "det(R)"),
        ({3: {"R": [2, 0, 0, 0, 1, 0, 0, 0, 1]}, 1: {"fy": -1.0}}, "/poses/1", "focal"),
        ({1: {"t": [0, 0, float("nan")]}, 3: {"cx": float("inf")}}, "/poses/1/R", "non-finite"),
        ({2: {"fx": 0.0, "R": [2, 0, 0, 0, 1, 0, 0, 0, 1]}}, "/poses/2", "focal"),
    ])
    def test_first_bad_pose_reported(self, faults, path, reason):
        good = {"fx": 10.0, "fy": 10.0, "cx": 5.0, "cy": 5.0,
                "R": [1, 0, 0, 0, 1, 0, 0, 0, 1], "t": [0, 0, 0]}
        poses = [dict(good, **faults.get(i, {})) for i in range(6)]
        doc = {"convention": "w2c", "width": 10, "height": 10, "poses": poses}
        with pytest.raises(SchemaError) as exc:
            trajectory_from_json(json.dumps(doc))
        assert exc.value.path == path
        assert reason in exc.value.reason

    def test_earliest_pose_error_wins(self):
        # a value error at pose 1 outranks a structural error at pose 2, and
        # a pose's bad intrinsics outrank its own missing R
        good = {"fx": 10.0, "fy": 10.0, "cx": 5.0, "cy": 5.0,
                "R": [1, 0, 0, 0, 1, 0, 0, 0, 1], "t": [0, 0, 0]}
        doc = {"convention": "w2c", "width": 10, "height": 10,
               "poses": [good, dict(good, R=[2, 0, 0, 0, 1, 0, 0, 0, 1]), {"fx": 1.0}]}
        with pytest.raises(SchemaError) as exc:
            trajectory_from_json(json.dumps(doc))
        assert exc.value.path == "/poses/1/R"
        no_r = {k: v for k, v in good.items() if k != "R"}
        doc["poses"] = [good, dict(no_r, fx=0.0)]
        with pytest.raises(SchemaError) as exc:
            trajectory_from_json(json.dumps(doc))
        assert exc.value.path == "/poses/1"
        assert "focal lengths must be positive" in exc.value.reason

    @pytest.mark.parametrize("key", ["convention", "kind"])
    def test_non_string_names_are_schema_errors(self, key):
        if key == "convention":
            with pytest.raises(SchemaError) as exc:
                trajectory_from_json(json.dumps(
                    {"convention": ["w2c"], "width": 1, "height": 1, "poses": []}))
            assert exc.value.path == "/convention"
        else:
            plan = {"frames": 2, "width": 4, "height": 4,
                    "intrinsics": {"fx": 1, "fy": 1, "cx": 0, "cy": 0},
                    "motion": {"kind": {"pan": 1}}}
            with pytest.raises(SchemaError) as exc:
                parse_trajectory_spec(json.dumps(plan))
            assert exc.value.path == "/motion/kind"

    def test_wrong_vector_length(self):
        doc = {
            "convention": "w2c", "width": 4, "height": 4,
            "poses": [{"fx": 1, "fy": 1, "cx": 0, "cy": 0,
                       "R": [1, 0, 0], "t": [0, 0, 0]}],
        }
        with pytest.raises(SchemaError) as exc:
            trajectory_from_json(json.dumps(doc))
        assert "/poses/0/R" in exc.value.path

    def test_invalid_json(self):
        with pytest.raises(SchemaError):
            trajectory_from_json("not json{")


class TestTrajectorySpec:
    PAN_SPEC = json.dumps({
        "frames": 16, "width": 384, "height": 256,
        "motion": {"kind": "pan", "direction": [-1, 0, 0], "interval": 0.1},
        "intrinsics": {"fx": 192, "fy": 228, "cx": 192, "cy": 128},
    })

    def test_pan_spec(self):
        plan = parse_trajectory_spec(self.PAN_SPEC)
        assert plan.frames == 16
        assert (plan.width, plan.height) == (384, 256)
        assert plan.intrinsics.fx == 192
        assert len(plan.directives) == 1
        d = plan.directives[0]
        assert d.kind is MotionKind.PAN
        assert d.direction == (-1, 0, 0)
        assert d.interval == 0.1
        assert d.frames == 16

    def test_motions_list(self):
        doc = {
            "frames": 4, "width": 8, "height": 8,
            "motions": [
                {"kind": "rotate", "axis": [0, 1, 0], "degrees": 30},
                {"kind": "zoom", "interval": -0.05},
                {"kind": "focal_zoom", "scale": 1.02},
                {"kind": "principal_shift", "per_frame": [2.0, 0.0]},
            ],
            "intrinsics": {"fx": 4, "fy": 4, "cx": 4, "cy": 4},
        }
        plan = parse_trajectory_spec(json.dumps(doc))
        kinds = [d.kind for d in plan.directives]
        assert kinds == [MotionKind.ROTATE, MotionKind.ZOOM,
                         MotionKind.FOCAL_ZOOM, MotionKind.PRINCIPAL_SHIFT]

    def test_missing_key_paths(self):
        with pytest.raises(SchemaError) as exc:
            parse_trajectory_spec("{}")
        assert exc.value.path == "/frames"
        doc = json.loads(self.PAN_SPEC)
        del doc["motion"]["direction"]
        with pytest.raises(SchemaError) as exc:
            parse_trajectory_spec(json.dumps(doc))
        assert exc.value.path == "/motion/direction"

    @pytest.mark.parametrize("kind", list(MotionKind))
    def test_each_motion_key_required(self, kind):
        motion = {"kind": kind.value}
        for key, _, n in MOTION_FIELDS[kind]:
            motion[key] = 1.0 if n is None else [1.0] + [0.0] * (n - 1)
        doc = json.loads(self.PAN_SPEC)
        doc["motion"] = motion
        assert parse_trajectory_spec(json.dumps(doc)).directives[0].kind is kind
        for key in motion.keys() - {"kind"}:
            doc["motion"] = {k: v for k, v in motion.items() if k != key}
            with pytest.raises(SchemaError) as exc:
                parse_trajectory_spec(json.dumps(doc))
            assert (exc.value.path, exc.value.reason) == (f"/motion/{key}", "required key missing")

    @pytest.mark.parametrize("edit, path, reason", [
        ({"motion": [1]}, "/motion", "expected an object"),
        ({"motions": []}, "/motions", "expected a non-empty list"),
        ({"motions": [{"kind": "zoom", "interval": 0.1}, "zoom"]}, "/motions/1",
         "expected an object")])
    def test_motion_shape_faults(self, edit, path, reason):
        doc = json.loads(self.PAN_SPEC)
        del doc["motion"]
        with pytest.raises(SchemaError) as exc:
            parse_trajectory_spec(json.dumps({**doc, **edit}))
        assert (exc.value.path, exc.value.reason) == (path, reason)

    def test_motion_and_motions_conflict(self):
        doc = json.loads(self.PAN_SPEC)
        doc["motions"] = [doc["motion"]]
        with pytest.raises(SchemaError):
            parse_trajectory_spec(json.dumps(doc))

    def test_unknown_kind(self):
        doc = json.loads(self.PAN_SPEC)
        doc["motion"]["kind"] = "wobble"
        with pytest.raises(SchemaError) as exc:
            parse_trajectory_spec(json.dumps(doc))
        assert exc.value.path == "/motion/kind"

    def test_non_unit_direction_is_schema_error(self):
        doc = json.loads(self.PAN_SPEC)
        doc["motion"]["direction"] = [1, 1, 0]
        with pytest.raises(SchemaError) as exc:
            parse_trajectory_spec(json.dumps(doc))
        assert exc.value.path == "/motion"


HUGE = 10 ** 400  # an integer literal no float64 can hold


class TestHugeIntegers:
    @pytest.mark.parametrize("field, path", [
        (("fx",), "/poses/1/fx"), (("R", 4), "/poses/1/R/4"), (("t", 2), "/poses/1/t/2")])
    def test_trajectory_value_path(self, field, path):
        doc = json.loads(trajectory_to_json(random_trajectory(np.random.default_rng(5), 3)))
        node = doc["poses"][1]
        for key in field[:-1]:
            node = node[key]
        node[field[-1]] = HUGE
        with pytest.raises(SchemaError) as exc:
            trajectory_from_json(json.dumps(doc))
        assert exc.value.path == path
        assert "too large" in exc.value.reason

    @pytest.mark.parametrize("edit, path", [
        (lambda d: d["intrinsics"].update(fx=HUGE), "/intrinsics/fx"),
        (lambda d: d["motions"][0].update(interval=HUGE), "/motions/0/interval"),
        (lambda d: d["motions"][1]["axis"].__setitem__(2, HUGE), "/motions/1/axis/2")])
    def test_plan_value_path(self, edit, path):
        doc = json.loads(TestTrajectorySpec.PAN_SPEC)
        doc["motions"] = [doc.pop("motion"), {"kind": "rotate", "axis": [0, 1, 0], "degrees": 9}]
        edit(doc)
        with pytest.raises(SchemaError) as exc:
            parse_trajectory_spec(json.dumps(doc))
        assert exc.value.path == path

    def test_focal_zoom_overflow_is_schema_error(self):
        doc = json.loads(TestTrajectorySpec.PAN_SPEC)
        doc["frames"] = 100
        doc["motions"] = [doc.pop("motion"), {"kind": "focal_zoom", "scale": 1e10}]
        with pytest.raises(SchemaError) as exc:
            parse_trajectory_spec(json.dumps(doc))
        assert exc.value.path == "/motions/1"

    @pytest.mark.parametrize("key, value", [
        ("frames", MAX_PLAN_FRAMES + 1), ("frames", 10 ** 20), ("frames", HUGE),
        ("width", MAX_PLAN_SIDE + 1), ("height", 10 ** 20)])
    def test_plan_size_above_bound_is_schema_error(self, key, value):
        doc = json.loads(TestTrajectorySpec.PAN_SPEC)
        doc[key] = value
        with pytest.raises(SchemaError) as exc:
            parse_trajectory_spec(json.dumps(doc))
        bound = MAX_PLAN_FRAMES if key == "frames" else MAX_PLAN_SIDE
        assert exc.value.path == f"/{key}"
        assert exc.value.reason == f"must be <= {bound}, got {value}"

    def test_plan_size_at_bound_parses(self):
        doc = json.loads(TestTrajectorySpec.PAN_SPEC)
        doc.update(frames=MAX_PLAN_FRAMES, width=MAX_PLAN_SIDE, height=MAX_PLAN_SIDE)
        plan = parse_trajectory_spec(json.dumps(doc))
        assert (plan.frames, plan.width, plan.height) == (MAX_PLAN_FRAMES, MAX_PLAN_SIDE,
                                                          MAX_PLAN_SIDE)
