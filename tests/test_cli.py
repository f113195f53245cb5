"""End-to-end subcommand tests driving main() directly."""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camtraj import cli, geometry, plucker, pose_io
from camtraj.cli import main
from camtraj.encoder import EncoderConfig
from camtraj.errors import IndexOutOfRange
from camtraj.geometry import Convention
from camtraj.npyio import read_npy_file, write_npy, write_npy_file
from camtraj.plucker import camera_center, plucker_sequence, verify_plucker
from camtraj.pose_io import trajectory_from_json, trajectory_to_json
from util import random_trajectory


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def pose_line(i):
    return (f"{i * 1000} 0.5 0.889 0.5 0.5 0 0 "
            f"1 0 0 {i * 0.01} 0 1 0 0 0 0 1 0")


def write_pose_file(path, n=128):
    lines = ["https://example.com/video"] + [pose_line(i) for i in range(n)]
    path.write_text("\n".join(lines) + "\n")


PAN_SPEC = {
    "frames": 16, "width": 384, "height": 256,
    "motion": {"kind": "pan", "direction": [-1, 0, 0], "interval": 0.1},
    "intrinsics": {"fx": 192, "fy": 228, "cx": 192, "cy": 128},
}


def no_temp_litter(directory):
    return not [f for f in os.listdir(directory) if f.startswith(".tmp-")]


def run_limited(*argv, limit=600 << 20):
    """main(argv) in a child process whose address space alone is capped at ``limit``."""
    resource = pytest.importorskip("resource")
    code = (f"import resource, sys; resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit})); "
            "from camtraj.cli import main; sys.exit(main(sys.argv[1:]))")
    pkg = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, (pkg, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code, *argv],
                         env=env, capture_output=True, text=True)
    assert resource.getrlimit(resource.RLIMIT_AS)[0] != limit  # untouched here
    return out


class TestParse:
    def test_stride_eight(self, tmp_path, capsys):
        src = tmp_path / "poses.txt"
        write_pose_file(src, 128)
        out = tmp_path / "traj.json"
        code, stdout, _ = run(capsys, "parse", "--input", str(src),
                              "--width", "384", "--height", "256",
                              "--frames", "0:128:8", "--out", str(out))
        assert code == 0
        assert "parsed 16 frames (w2c)" in stdout
        traj = trajectory_from_json(out.read_text())
        assert len(traj) == 16
        assert traj.convention is Convention.WORLD_TO_CAMERA
        assert traj.poses[1].extrinsics.translation[0] == pytest.approx(0.08)

    def test_default_all_frames(self, tmp_path, capsys):
        src = tmp_path / "poses.txt"
        write_pose_file(src, 5)
        out = tmp_path / "traj.json"
        code, stdout, _ = run(capsys, "parse", "--input", str(src),
                              "--width", "64", "--height", "48",
                              "--out", str(out))
        assert code == 0
        assert "parsed 5 frames" in stdout

    def test_frame_list(self, tmp_path, capsys):
        src = tmp_path / "poses.txt"
        write_pose_file(src, 10)
        out = tmp_path / "traj.json"
        code, _, _ = run(capsys, "parse", "--input", str(src),
                         "--width", "64", "--height", "48",
                         "--frames", "0,3,7", "--out", str(out))
        assert code == 0
        assert len(trajectory_from_json(out.read_text())) == 3

    def test_malformed_line_reports_number(self, tmp_path, capsys):
        src = tmp_path / "poses.txt"
        lines = ["url", pose_line(0), pose_line(1),
                 pose_line(2).replace("0.889", "oops"), pose_line(3)]
        src.write_text("\n".join(lines) + "\n")
        out = tmp_path / "traj.json"
        code, _, stderr = run(capsys, "parse", "--input", str(src),
                              "--width", "64", "--height", "48",
                              "--out", str(out))
        assert code == 2
        assert "line 4" in stderr
        assert not out.exists()
        assert no_temp_litter(tmp_path)

    def test_missing_file(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "parse", "--input",
                              str(tmp_path / "absent.txt"),
                              "--width", "64", "--height", "48",
                              "--out", str(tmp_path / "t.json"))
        assert code == 3
        assert stderr

    def test_bad_frame_spec(self, tmp_path, capsys):
        src = tmp_path / "poses.txt"
        write_pose_file(src, 4)
        code, _, _ = run(capsys, "parse", "--input", str(src),
                         "--width", "64", "--height", "48",
                         "--frames", "0:x", "--out", str(tmp_path / "t.json"))
        assert code == 1

    def test_out_of_range_frame(self, tmp_path, capsys):
        src = tmp_path / "poses.txt"
        write_pose_file(src, 4)
        code, _, _ = run(capsys, "parse", "--input", str(src),
                         "--width", "64", "--height", "48",
                         "--frames", "0,9", "--out", str(tmp_path / "t.json"))
        assert code == 2


class TestSynth:
    def test_pan_left_monotone_centers(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(PAN_SPEC))
        out = tmp_path / "traj.json"
        code, stdout, _ = run(capsys, "synth", "--spec", str(spec),
                              "--out", str(out))
        assert code == 0
        assert "synthesized 16 frames" in stdout
        traj = trajectory_from_json(out.read_text())
        xs = [float(camera_center(p.extrinsics)[0]) for p in traj.poses]
        assert all(b < a for a, b in zip(xs, xs[1:]))

    def test_vertical_rotation_summary_angle(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "frames": 16, "width": 64, "height": 64,
            "motion": {"kind": "rotate", "axis": [0, 1, 0], "degrees": 100},
            "intrinsics": {"fx": 32, "fy": 32, "cx": 32, "cy": 32},
        }))
        out = tmp_path / "traj.json"
        code, stdout, _ = run(capsys, "synth", "--spec", str(spec),
                              "--out", str(out))
        assert code == 0
        line = next(l for l in stdout.splitlines() if "rotation angle" in l)
        angle = float(line.split("rotation angle ")[1].split(" deg")[0])
        assert abs(angle - 100.0) < 1e-9

    def test_tiny_rotation_summary_angle(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "frames": 8, "width": 64, "height": 64,
            "motion": {"kind": "rotate", "axis": [0, 1, 0], "degrees": 1e-5},
            "intrinsics": {"fx": 32, "fy": 32, "cx": 32, "cy": 32},
        }))
        code, stdout, _ = run(capsys, "synth", "--spec", str(spec),
                              "--out", str(tmp_path / "traj.json"))
        assert code == 0
        line = next(l for l in stdout.splitlines() if "rotation angle" in l)
        angle = float(line.split("rotation angle ")[1].split(" deg")[0])
        assert abs(angle - 1e-5) < 1e-9

    def test_invalid_spec_reports_path(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        bad = dict(PAN_SPEC)
        bad["motion"] = {"kind": "pan", "direction": [1, 1, 0], "interval": 0.1}
        spec.write_text(json.dumps(bad))
        out = tmp_path / "traj.json"
        code, _, stderr = run(capsys, "synth", "--spec", str(spec),
                              "--out", str(out))
        assert code == 2
        assert "/motion" in stderr
        assert not out.exists()

    def test_focal_zoom_overflow_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**PAN_SPEC, "frames": 100,
                                    "motion": {"kind": "focal_zoom", "scale": 1e10}}))
        out = tmp_path / "traj.json"
        code, _, stderr = run(capsys, "synth", "--spec", str(spec), "--out", str(out))
        assert code == 2
        assert stderr.startswith("error: /motion: focal factor")
        assert not out.exists() and no_temp_litter(tmp_path)

    @pytest.mark.filterwarnings("error")
    def test_composed_focal_zoom_overflow_exits_2(self, tmp_path, capsys):
        # each factor fits alone; their product at frame 1 does not
        spec = tmp_path / "spec.json"
        zoom = {"kind": "focal_zoom", "scale": 1e200}
        plan = {k: v for k, v in PAN_SPEC.items() if k != "motion"}
        spec.write_text(json.dumps({**plan, "frames": 2, "motions": [zoom, zoom]}))
        out = tmp_path / "traj.json"
        code, stdout, stderr = run(capsys, "synth", "--spec", str(spec), "--out", str(out))
        assert code == 2 and stdout == ""
        assert stderr == ("error: focal_zoom directive 1 takes fx to inf at frame 1, "
                          "outside the positive float64 range\n")
        assert not out.exists() and no_temp_litter(tmp_path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("motion, message", [
        ({"kind": "pan", "direction": [1, 0, 0], "interval": 1e308},
         "pan directive 0 takes center x to inf at frame 2"),
        ({"kind": "zoom", "interval": 1e308}, "zoom directive 0 takes center z to inf at frame 2"),
        ({"kind": "principal_shift", "per_frame": [1e308, 0]},
         "principal_shift directive 0 takes cx to inf at frame 2")])
    def test_motion_overflow_exits_2(self, tmp_path, capsys, motion, message):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**PAN_SPEC, "frames": 3, "motion": motion}))
        out = tmp_path / "traj.json"
        code, stdout, stderr = run(capsys, "synth", "--spec", str(spec), "--out", str(out))
        assert code == 2 and stdout == ""
        assert stderr == f"error: {message}, outside the float64 range\n"
        assert not out.exists() and no_temp_litter(tmp_path)

    @pytest.mark.parametrize("frames, motion, message", [
        (4, {"kind": "rotate", "axis": [0, 1, 0], "degrees": math.nan},
         "rotate values must be finite, got nan"),
        (4, {"kind": "pan", "direction": [1, 0, 0], "interval": math.inf},
         "pan values must be finite, got inf"),
        (4, {"kind": "pan", "direction": [math.nan, 0, 0], "interval": 0.1},
         "norm nan deviates from 1 by more than 1e-09"),
        (1, {"kind": "rotate", "axis": [0, 1, 0], "degrees": 5},
         "single-frame trajectory cannot spread a nonzero angle")])
    def test_bad_motion_values_report_path(self, tmp_path, capsys, frames, motion, message):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**PAN_SPEC, "frames": frames, "motion": motion}))
        out = tmp_path / "traj.json"
        code, stdout, stderr = run(capsys, "synth", "--spec", str(spec), "--out", str(out))
        assert code == 2 and stdout == ""
        assert stderr == f"error: /motion: {message}\n"
        assert not out.exists() and no_temp_litter(tmp_path)

    @pytest.mark.parametrize("key, value", [("frames", 10 ** 20), ("width", 10 ** 6)])
    def test_plan_size_above_bound_exits_2(self, tmp_path, capsys, key, value):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**PAN_SPEC, key: value}))
        out = tmp_path / "traj.json"
        code, _, stderr = run(capsys, "synth", "--spec", str(spec), "--out", str(out))
        assert code == 2
        assert stderr.startswith(f"error: /{key}: must be <= ")
        assert not out.exists() and no_temp_litter(tmp_path)

    def test_missing_spec_file(self, tmp_path, capsys):
        code, _, _ = run(capsys, "synth", "--spec", str(tmp_path / "no.json"),
                         "--out", str(tmp_path / "t.json"))
        assert code == 3


def synth_traj_json(tmp_path, capsys, spec_dict, name="traj.json"):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(spec_dict))
    out = tmp_path / name
    code, _, _ = run(capsys, "synth", "--spec", str(spec), "--out", str(out))
    assert code == 0
    return out


def far_center_json(tmp_path, capsys, convention):
    """A 2-frame trajectory whose frame 0 (R a 45-degree turn about z,
    t = (1.5e308, 1.5e308, 0)) overflows float64 when converted to the
    other convention."""
    doc = json.loads(synth_traj_json(tmp_path, capsys, {**PAN_SPEC, "frames": 2}).read_text())
    c = math.sqrt(0.5)
    doc["convention"] = convention
    doc["poses"][0].update(R=[c, -c, 0, c, c, 0, 0, 0, 1], t=[1.5e308, 1.5e308, 0])
    path = tmp_path / f"far_{convention}.json"
    path.write_text(json.dumps(doc))
    return path


class TestEmbed:
    def test_reference_shape(self, tmp_path, capsys):
        traj = synth_traj_json(tmp_path, capsys, PAN_SPEC)
        out = tmp_path / "plucker.npy"
        code, stdout, _ = run(capsys, "embed", "--traj", str(traj),
                              "--out", str(out))
        assert code == 0
        assert "(16, 6, 256, 384)" in stdout
        arr = read_npy_file(out)
        assert arr.shape == (16, 6, 256, 384)
        assert arr.dtype == np.float32

    def test_identity_trajectory_verify(self, tmp_path, capsys):
        spec = {
            "frames": 4, "width": 32, "height": 24,
            "motion": {"kind": "pan", "direction": [1, 0, 0], "interval": 0.0},
            "intrinsics": {"fx": 16, "fy": 16, "cx": 16, "cy": 12},
        }
        traj = synth_traj_json(tmp_path, capsys, spec)
        out = tmp_path / "plucker.npy"
        code, stdout, _ = run(capsys, "embed", "--traj", str(traj),
                              "--out", str(out), "--verify")
        assert code == 0
        assert "verify ok" in stdout
        arr = read_npy_file(out)
        np.testing.assert_array_equal(arr[:, :3], 0.0)

    def test_non_divisible_dims_allowed(self, tmp_path, capsys):
        spec = dict(PAN_SPEC)
        spec.update(width=100, height=50, frames=2,
                    intrinsics={"fx": 50, "fy": 50, "cx": 50, "cy": 25})
        traj = synth_traj_json(tmp_path, capsys, spec)
        out = tmp_path / "p.npy"
        code, _, _ = run(capsys, "embed", "--traj", str(traj), "--out", str(out))
        assert code == 0
        assert read_npy_file(out).shape == (2, 6, 50, 100)

    def test_pixel_origin_flag(self, tmp_path, capsys):
        spec = dict(PAN_SPEC)
        spec.update(frames=2, width=32, height=32,
                    intrinsics={"fx": 16, "fy": 16, "cx": 16, "cy": 16})
        traj = synth_traj_json(tmp_path, capsys, spec)
        a = tmp_path / "a.npy"
        b = tmp_path / "b.npy"
        assert run(capsys, "embed", "--traj", str(traj), "--out", str(a),
                   "--pixel-origin", "center")[0] == 0
        assert run(capsys, "embed", "--traj", str(traj), "--out", str(b),
                   "--pixel-origin", "corner")[0] == 0
        assert np.abs(read_npy_file(a) - read_npy_file(b)).max() > 0

    def test_bad_pixel_origin(self, tmp_path, capsys):
        code, _, _ = run(capsys, "embed", "--traj", "x.json", "--out", "y.npy",
                         "--pixel-origin", "middle")
        assert code == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("intrinsics, motion, frame", [
        ({}, {"direction": [1, 0, 0], "interval": 1e39}, 1),  # moments past float32
        ({"fx": 1e-320}, {}, 0),  # directions past float64
        ({"cx": 1e308}, {}, 0),  # finite map, but d0^2 overflows the norm
    ])
    def test_rays_out_of_float_range_exit_2(self, tmp_path, capsys, intrinsics, motion, frame):
        spec = {"frames": 3, "width": 16, "height": 8,
                "intrinsics": {"fx": 8, "fy": 8, "cx": 8, "cy": 4, **intrinsics},
                "motion": {"kind": "pan", "direction": [1, 0, 0], "interval": 0.1, **motion}}
        traj = synth_traj_json(tmp_path, capsys, spec)
        out = tmp_path / "p.npy"
        code, stdout, stderr = run(capsys, "embed", "--traj", str(traj), "--out", str(out),
                                   "--verify")
        assert (code, stdout) == (2, "")
        assert stderr.startswith(f"error: frame {frame}: Plucker map out of float range: ")
        assert not out.exists() and no_temp_litter(tmp_path)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_camera_center_exits_2(self, tmp_path, capsys):
        # checked before the map is allocated, with no RuntimeWarning
        out = tmp_path / "p.npy"
        code, stdout, stderr = run(capsys, "embed", "--traj",
                                   str(far_center_json(tmp_path, capsys, "w2c")), "--out", str(out))
        assert (code, stdout) == (2, "")
        assert stderr == "error: frame 0: camera center overflows float64\n"
        assert not out.exists() and no_temp_litter(tmp_path)

    def test_verify_accepts_far_camera_centers(self, tmp_path, capsys):
        # centers 140 from the origin: float32 rounding leaves |m.d| at 3e-6
        spec = {"frames": 8, "width": 64, "height": 32,
                "intrinsics": {"fx": 32, "fy": 32, "cx": 32, "cy": 16},
                "motions": [{"kind": "pan", "direction": [0.6, 0, 0.8], "interval": 20},
                            {"kind": "rotate", "axis": [0, 1, 0], "degrees": 30}]}
        traj = synth_traj_json(tmp_path, capsys, spec)
        code, stdout, _ = run(capsys, "embed", "--traj", str(traj),
                              "--out", str(tmp_path / "p.npy"), "--verify")
        assert code == 0
        assert "verify ok: max |norm(d)-1| = " in stdout
        assert ", max |m.d|/max(1,|m|) = " in stdout


class TestEmbedStream:
    """embed computes, writes and verifies one frame at a time: its file and
    its verify line are those of the whole-array library path."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), frames=st.integers(1, 5),
           height=st.integers(1, 9), width=st.integers(1, 9),
           pixel_origin=st.sampled_from(plucker.PIXEL_ORIGINS),
           convention=st.sampled_from(list(Convention)))
    def test_stream_matches_whole_array(self, seed, frames, height, width, pixel_origin,
                                        convention):
        text = trajectory_to_json(random_trajectory(np.random.default_rng(seed), frames,
                                                    convention, width, height))
        whole = plucker_sequence(trajectory_from_json(text), pixel_origin)
        expected = io.BytesIO()
        write_npy(whole, expected)
        report = verify_plucker(whole)
        verify_line = (f"verify {'ok' if report['ok'] else 'FAILED'}: "
                       f"max |norm(d)-1| = {report['direction_norm']:.3e}, "
                       f"max |m.d|/max(1,|m|) = {report['moment_dot']:.3e}")
        with tempfile.TemporaryDirectory() as tmp:
            traj, out = os.path.join(tmp, "traj.json"), os.path.join(tmp, "p.npy")
            with open(traj, "w", encoding="utf-8") as f:
                f.write(text)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = main(["embed", "--traj", traj, "--out", out,
                             "--pixel-origin", pixel_origin, "--verify"])
            with open(out, "rb") as f:
                written = f.read()
        assert code == (0 if report["ok"] else 2)
        assert written == expected.getvalue()
        assert stdout.getvalue().splitlines() == [
            f"embedded {whole.shape} -> {out}", verify_line]

    def test_memory_does_not_scale_with_frames(self, tmp_path, capsys):
        spec = {"frames": 16, "width": 256, "height": 160,
                "intrinsics": {"fx": 128, "fy": 128, "cx": 128, "cy": 80},
                "motions": [{"kind": "pan", "direction": [1, 0, 0], "interval": 0.1},
                            {"kind": "rotate", "axis": [0, 1, 0], "degrees": 20}]}
        traj = synth_traj_json(tmp_path, capsys, spec)
        out = tmp_path / "p.npy"
        tracemalloc.start()
        try:
            code = main(["embed", "--traj", str(traj), "--out", str(out), "--verify"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert "verify ok" in capsys.readouterr().out
        # the whole map is 16 frames; one frame's float32 map and float64 planes are 3
        assert peak < out.stat().st_size / 4

    def test_failed_verify_exits_2(self, tmp_path, capsys, monkeypatch):
        real_fill = plucker._fill_map

        def long_directions(out, *args):
            real_fill(out, *args)
            out[3:6] *= 2  # |d| = 2

        monkeypatch.setattr(plucker, "_fill_map", long_directions)
        traj = synth_traj_json(tmp_path, capsys, {**PAN_SPEC, "frames": 3})
        code, stdout, stderr = run(capsys, "embed", "--traj", str(traj),
                                   "--out", str(tmp_path / "p.npy"), "--verify")
        assert code == 2
        assert stdout.splitlines()[1].startswith("verify FAILED: max |norm(d)-1| = 1.000e+00")
        assert stderr == "error: written embedding failed invariant check\n"
        assert "Traceback" not in stdout + stderr


class TestEval:
    def test_identical_files(self, tmp_path, capsys):
        traj = synth_traj_json(tmp_path, capsys, PAN_SPEC)
        out = tmp_path / "report.json"
        code, stdout, _ = run(capsys, "eval", "--gt", str(traj),
                              "--gen", str(traj), "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert abs(report["rot_err"]) < 1e-9
        assert abs(report["trans_err"]) < 1e-9
        assert abs(report["rescale_factor"] - 1.0) < 1e-12
        assert report["frames_compared"] == 16
        assert "rot_err 0.000000000 rad" in stdout

    def test_scaled_gen_zero_trans_err(self, tmp_path, capsys):
        gt = synth_traj_json(tmp_path, capsys, PAN_SPEC, "gt.json")
        scaled_spec = dict(PAN_SPEC)
        scaled_spec["motion"] = {"kind": "pan", "direction": [-1, 0, 0],
                                 "interval": 0.7}
        gen = synth_traj_json(tmp_path, capsys, scaled_spec, "gen.json")
        out = tmp_path / "report.json"
        code, _, _ = run(capsys, "eval", "--gt", str(gt), "--gen", str(gen),
                         "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["trans_err"] < 1e-6
        assert abs(report["rescale_factor"] - 0.1 / 0.7) < 1e-9

    def test_length_mismatch(self, tmp_path, capsys):
        gt = synth_traj_json(tmp_path, capsys, PAN_SPEC, "gt.json")
        short_spec = dict(PAN_SPEC)
        short_spec["frames"] = 8
        gen = synth_traj_json(tmp_path, capsys, short_spec, "gen.json")
        out = tmp_path / "report.json"
        code, _, stderr = run(capsys, "eval", "--gt", str(gt), "--gen", str(gen),
                              "--out", str(out))
        assert code == 2
        assert stderr
        assert not out.exists()

    def test_huge_integer_exits_2(self, tmp_path, capsys):
        traj = synth_traj_json(tmp_path, capsys, PAN_SPEC)
        bad = tmp_path / "bad.json"
        bad.write_text(traj.read_text().replace('"fx": 192.0', '"fx": 1' + "0" * 400, 1))
        out = tmp_path / "report.json"
        for argv in (("eval", "--gt", str(traj), "--gen", str(bad), "--out", str(out)),
                     ("embed", "--traj", str(bad), "--out", str(out))):
            code, _, stderr = run(capsys, *argv)
            assert code == 2
            assert stderr.startswith("error: /poses/0/fx: ")
            assert not out.exists()

    def test_near_tolerance_rotations_score_zero(self, tmp_path, capsys):
        # each rotation passes R.T @ R == I by 9.0e-7; relative to frame 0 it is off by 1.8e-6
        src = tmp_path / "poses.txt"
        lines = [f"{ts} 0.5 0.75 0.5 0.5 0 0 1.00000045 0 0 {tx} 0 0.99999955 0 0 0 0 1 0"
                 for ts, tx in ((0, 0), (1000, 0.1))]
        src.write_text("\n".join(["https://example.com/clip", *lines]) + "\n")
        traj = tmp_path / "traj.json"
        code, _, _ = run(capsys, "parse", "--input", str(src), "--width", "32",
                         "--height", "16", "--out", str(traj))
        assert code == 0
        code, stdout, stderr = run(capsys, "eval", "--gt", str(traj), "--gen", str(traj),
                                   "--out", str(tmp_path / "report.json"))
        assert (code, stderr) == (0, "")
        assert stdout.startswith("rot_err 0.000000000 rad (0.000000000 deg)\n"
                                 "trans_err 0.000000000 (unsquared 0.000000000), ")

    def test_each_input_checked_once(self, tmp_path, capsys, monkeypatch):
        traj = synth_traj_json(tmp_path, capsys, PAN_SPEC)
        calls, check = [], geometry.first_bad_frame

        def counted(*arrays):
            calls.append(len(arrays[0]))
            return check(*arrays)

        monkeypatch.setattr(geometry, "first_bad_frame", counted)
        monkeypatch.setattr(pose_io, "first_bad_frame", counted)
        code, _, _ = run(capsys, "eval", "--gt", str(traj), "--gen", str(traj),
                         "--out", str(tmp_path / "report.json"))
        assert code == 0
        assert calls == [16, 16]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("far", ["gt", "gen"])
    def test_overflowing_translation_names_input_and_frame(self, tmp_path, capsys, far):
        traj = synth_traj_json(tmp_path, capsys, {**PAN_SPEC, "frames": 2})
        paths = {"gt": traj, "gen": traj, far: far_center_json(tmp_path, capsys, "c2w")}
        out = tmp_path / "report.json"
        code, stdout, stderr = run(capsys, "eval", "--gt", str(paths["gt"]),
                                   "--gen", str(paths["gen"]), "--out", str(out))
        assert (code, stdout) == (2, "")
        assert stderr == f"error: {far}: frame 0: translation overflows float64\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_frame_0_named_in_either_convention(self, tmp_path, capsys):
        # the c2w file's frame 0 overflows when converted to w2c; its w2c twin's
        # frame 0 inverse, which relativize applies to every frame, does
        traj = synth_traj_json(tmp_path, capsys, {**PAN_SPEC, "frames": 2})
        for convention in ("c2w", "w2c"):
            out = tmp_path / f"report_{convention}.json"
            code, stdout, stderr = run(capsys, "eval", "--gt", str(traj), "--gen",
                                       str(far_center_json(tmp_path, capsys, convention)),
                                       "--out", str(out))
            assert (code, stdout) == (2, "")
            assert stderr == "error: gen: frame 0: translation overflows float64\n"
            assert not out.exists()

    def test_missing_input(self, tmp_path, capsys):
        code, _, _ = run(capsys, "eval", "--gt", str(tmp_path / "no.json"),
                         "--gen", str(tmp_path / "no.json"),
                         "--out", str(tmp_path / "r.json"))
        assert code == 3


ENCODE_FLAGS = ["--channels", "8,16,16,16", "--heads", "2",
                "--mlp-ratio", "2", "--unshuffle", "2"]


class TestEncode:
    @staticmethod
    def encode_config(*flags):
        args = cli.build_parser().parse_args(
            ["encode", "--plucker", "p.npy", "--out-dir", "feats", *flags])
        return {f.name: getattr(args, f.name) for f in dataclasses.fields(EncoderConfig)}

    def test_flag_defaults_are_encoder_config_defaults(self):
        assert self.encode_config("--seed", "0") == dataclasses.asdict(EncoderConfig())

    def test_flags_set_encoder_config_fields(self):
        got = self.encode_config("--seed", "7", "--channels", "8,16,16,32", "--heads", "2",
                                 "--mlp-ratio", "3", "--unshuffle", "2", "--no-posemb")
        assert EncoderConfig(**got) == EncoderConfig(2, (8, 16, 16, 32), 2, 3, 7, False)

    def test_four_scale_files(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        src = tmp_path / "p.npy"
        write_npy_file(rng.standard_normal((2, 6, 16, 32)).astype(np.float32), src)
        out_dir = tmp_path / "feats"
        code, stdout, _ = run(capsys, "encode", "--plucker", str(src),
                              "--seed", "0", "--out-dir", str(out_dir),
                              *ENCODE_FLAGS)
        assert code == 0
        shapes = [read_npy_file(out_dir / f"scale{i}.npy").shape
                  for i in range(1, 5)]
        assert shapes == [(1, 2, 8, 8, 16), (1, 2, 16, 4, 8),
                          (1, 2, 16, 2, 4), (1, 2, 16, 1, 2)]
        assert "scale4" in stdout

    def test_same_seed_byte_identical(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        src = tmp_path / "p.npy"
        write_npy_file(rng.standard_normal((1, 6, 16, 16)).astype(np.float32), src)
        d1, d2, d3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        for d, seed in ((d1, "5"), (d2, "5"), (d3, "6")):
            assert run(capsys, "encode", "--plucker", str(src), "--seed", seed,
                       "--out-dir", str(d), *ENCODE_FLAGS)[0] == 0
        for i in range(1, 5):
            a = (d1 / f"scale{i}.npy").read_bytes()
            assert a == (d2 / f"scale{i}.npy").read_bytes()
        assert ((d1 / "scale1.npy").read_bytes()
                != (d3 / "scale1.npy").read_bytes())

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_plucker_from_fifo(self, tmp_path, capsys):
        # a FIFO cannot seek, so the input is read in pieces; the features match a file's
        rng = np.random.default_rng(3)
        src, fifo = tmp_path / "p.npy", tmp_path / "p.fifo"
        write_npy_file(rng.standard_normal((4, 6, 64, 64)).astype(np.float32), src)
        os.mkfifo(fifo)
        feeder = threading.Thread(target=lambda: fifo.write_bytes(src.read_bytes()), daemon=True)
        feeder.start()
        flags = ("--seed", "0", "--channels", "8,8,8,8", "--unshuffle", "2")
        assert run(capsys, "encode", "--plucker", str(fifo), *flags,
                   "--out-dir", str(tmp_path / "pipe"))[0] == 0
        feeder.join(timeout=60)
        assert not feeder.is_alive()
        assert run(capsys, "encode", "--plucker", str(src), *flags,
                   "--out-dir", str(tmp_path / "file"))[0] == 0
        for i in range(1, 5):
            assert ((tmp_path / "pipe" / f"scale{i}.npy").read_bytes()
                    == (tmp_path / "file" / f"scale{i}.npy").read_bytes())

    def test_indivisible_height(self, tmp_path, capsys):
        src = tmp_path / "p.npy"
        write_npy_file(np.zeros((1, 6, 20, 32), dtype=np.float32), src)
        code, _, stderr = run(capsys, "encode", "--plucker", str(src),
                              "--seed", "0", "--out-dir", str(tmp_path / "f"),
                              *ENCODE_FLAGS)
        assert code == 2
        assert stderr

    def test_non_finite_input_rejected(self, tmp_path, capsys):
        src = tmp_path / "p.npy"
        write_npy_file(np.full((2, 6, 16, 32), np.nan, dtype=np.float32), src)
        out_dir = tmp_path / "f"
        code, _, stderr = run(capsys, "encode", "--plucker", str(src),
                              "--seed", "0", "--out-dir", str(out_dir),
                              *ENCODE_FLAGS)
        assert code == 2
        assert "non-finite" in stderr
        assert not out_dir.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value, stage", [(3e38, "the stem"), (1e30, "scale 1 attention")])
    def test_overflowing_forward_exits_2(self, tmp_path, capsys, value, stage):
        src = tmp_path / "p.npy"
        write_npy_file(np.full((2, 6, 16, 32), value, dtype=np.float32), src)
        out_dir = tmp_path / "f"
        code, stdout, stderr = run(capsys, "encode", "--plucker", str(src), "--seed", "0",
                                   "--out-dir", str(out_dir), *ENCODE_FLAGS)
        assert (code, stdout) == (2, "")
        assert stderr == ("error: the forward pass of input shape (1, 2, 6, 16, 32) "
                          f"overflows float32 in {stage}\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("shape", [(0, 6, 16, 32), (2, 6, 0, 32), (2, 6, 16, 0)])
    def test_empty_dims_rejected(self, tmp_path, capsys, shape):
        src = tmp_path / "p.npy"
        write_npy_file(np.zeros(shape, dtype=np.float32), src)
        code, _, stderr = run(capsys, "encode", "--plucker", str(src),
                              "--seed", "0", "--out-dir", str(tmp_path / "f"),
                              *ENCODE_FLAGS)
        assert code == 2
        assert "empty" in stderr

    def test_huge_declared_shape_rejected(self, tmp_path, capsys):
        # a 70-byte file whose header declares 16 TB of payload
        text = b"{'descr': '<f4', 'fortran_order': False, 'shape': (4000000000000,), }\n"
        src = tmp_path / "p.npy"
        src.write_bytes(b"\x93NUMPY\x01\x00" + len(text).to_bytes(2, "little") + text)
        out_dir = tmp_path / "f"
        code, stdout, stderr = run(capsys, "encode", "--plucker", str(src),
                                   "--seed", "0", "--out-dir", str(out_dir), *ENCODE_FLAGS)
        assert code == 2
        assert "payload truncated" in stderr
        assert "Traceback" not in stdout + stderr
        assert not out_dir.exists()

    def test_failed_write_keeps_previous_set(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(2)
        src = tmp_path / "p.npy"
        write_npy_file(rng.standard_normal((2, 6, 16, 32)).astype(np.float32), src)
        out_dir = tmp_path / "feats"
        args = ("encode", "--plucker", str(src), "--out-dir", str(out_dir), *ENCODE_FLAGS)
        assert run(capsys, *args, "--seed", "5")[0] == 0
        before = {i: (out_dir / f"scale{i}.npy").read_bytes() for i in range(1, 5)}

        real_write = cli.npyio.write_npy
        calls = []

        def write_fails_on_scale3(arr, sink):
            calls.append(arr.shape)
            if len(calls) == 3:
                raise OSError("disk full")
            real_write(arr, sink)

        monkeypatch.setattr(cli.npyio, "write_npy", write_fails_on_scale3)
        code, _, stderr = run(capsys, *args, "--seed", "6")
        assert code == 3
        assert "disk full" in stderr
        assert len(calls) == 3
        for i in range(1, 5):
            assert (out_dir / f"scale{i}.npy").read_bytes() == before[i]
        assert no_temp_litter(out_dir)

    def test_heads_not_dividing_width_exits_2(self, tmp_path, capsys):
        src = tmp_path / "p.npy"
        write_npy_file(np.zeros((2, 6, 16, 32), dtype=np.float32), src)
        out_dir = tmp_path / "feats"
        code, stdout, stderr = run(capsys, "encode", "--plucker", str(src), "--seed", "0",
                                   "--out-dir", str(out_dir), "--channels", "8,16,16,16",
                                   "--heads", "7", "--unshuffle", "2")
        assert code == 2 and stdout == ""
        assert stderr == "error: heads=7 must divide channel width 8\n"
        assert not out_dir.exists()

    def test_out_of_memory_exits_2(self, tmp_path):
        # the child alone runs under a 600 MB address-space limit; the stem
        # fits, the first residual block at 128 channels of 256x256 does not
        src = tmp_path / "p.npy"
        write_npy_file(np.zeros((4, 6, 256, 256), dtype=np.float32), src)
        out_dir = tmp_path / "feats"
        out = run_limited("encode", "--plucker", str(src), "--seed", "0", "--unshuffle", "1",
                          "--channels", "128,64,64,64", "--heads", "1", "--out-dir", str(out_dir))
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr.startswith(
            "error: cannot allocate the forward pass of input shape (1, 4, 6, 256, 256): ")
        assert "Traceback" not in out.stderr
        assert not out_dir.exists()

    def test_row_tiled_attention_fits_600_mb(self, tmp_path):
        # at 160x160 the scale 1 attention block, run on all token rows at once,
        # did not fit under the child's 600 MB address-space limit; in row tiles
        # the whole forward does
        src = tmp_path / "p.npy"
        write_npy_file(np.zeros((4, 6, 160, 160), dtype=np.float32), src)
        out_dir = tmp_path / "feats"
        out = run_limited("encode", "--plucker", str(src), "--seed", "0", "--unshuffle", "1",
                          "--channels", "128,64,64,64", "--heads", "1", "--out-dir", str(out_dir))
        assert (out.returncode, out.stderr) == (0, "")
        feats = [read_npy_file(out_dir / f"scale{i}.npy") for i in range(1, 5)]
        assert [f.shape for f in feats] == [(1, 4, 128, 160, 160), (1, 4, 64, 80, 80),
                                            (1, 4, 64, 40, 40), (1, 4, 64, 20, 20)]
        assert all(np.isfinite(f).all() for f in feats)

    def test_bad_channels(self, tmp_path, capsys):
        code, _, _ = run(capsys, "encode", "--plucker", "p.npy", "--seed", "0",
                         "--out-dir", "d", "--channels", "1,2")
        assert code == 1
        code, stdout, stderr = run(capsys, "encode", "--plucker", "p.npy", "--seed", "0",
                                   "--out-dir", "d", "--channels", "8,x,16,16")
        assert (code, stdout) == (1, "")
        assert stderr == "camtraj encode: argument --channels: bad channel list '8,x,16,16'\n"

    def test_seed_required(self, tmp_path, capsys):
        code, _, _ = run(capsys, "encode", "--plucker", "p.npy", "--out-dir", "d")
        assert code == 1


class TestTopLevel:
    @pytest.mark.parametrize("header, argv", [
        (None, ("parse", "--input", "{src}", "--width", "8", "--height", "8", "--out", "{out}")),
        ((256, 6, 512, 512), ("encode", "--plucker", "{src}", "--seed", "0", "--out-dir", "{out}")),
    ], ids=["parse", "encode"])
    def test_input_past_memory_exits_2(self, tmp_path, header, argv):
        # sparse inputs past the child's 600 MB address space: parse's text
        # read fails, and so does the payload array numpy allocates for encode
        src, out = tmp_path / "input", tmp_path / "out"
        with open(src, "wb") as f:
            if header:
                np.lib.format.write_array_header_1_0(
                    f, {"descr": "<f4", "fortran_order": False, "shape": header})
            f.truncate(f.tell() + (4 * math.prod(header) if header else 1 << 30))
        got = run_limited(*(a.format(src=src, out=out) for a in argv))
        assert (got.returncode, got.stdout) == (2, "")
        assert got.stderr.startswith("error: out of memory")
        assert "Traceback" not in got.stderr
        assert not out.exists() and no_temp_litter(tmp_path)

    def test_no_subcommand(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["parse", "--nope"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["embed", "--traj", "x.json"]) == 1


class TestErrorContract:
    """Every data fault exits 2 with its message, a bad flag exits 1, and
    neither writes anything or warns."""

    def two_line_pose_file(self, tmp_path, fy_n="0.889"):
        src = tmp_path / "poses.txt"
        src.write_text(f"url\n{pose_line(0).replace('0.889', fy_n)}\n{pose_line(1)}\n")
        return src

    @pytest.mark.parametrize("flag", ["--width", "--height"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_parse_side_below_one_is_usage_error(self, tmp_path, capsys, flag, value):
        sides = {"--width": "64", "--height": "48", flag: value}
        out = tmp_path / "t.json"
        code, stdout, stderr = run(capsys, "parse", "--input",
                                   str(self.two_line_pose_file(tmp_path)),
                                   *[a for kv in sides.items() for a in kv], "--out", str(out))
        assert (code, stdout) == (1, "")
        assert stderr == f"camtraj parse: argument {flag}: must be >= 1, got {value}\n"
        assert not out.exists()

    def test_side_past_float64_is_usage_error(self, tmp_path, capsys):
        src = str(self.two_line_pose_file(tmp_path))
        out = tmp_path / "t.json"
        code, stdout, stderr = run(capsys, "parse", "--input", src, "--width", "1" + "0" * 400,
                                   "--height", "48", "--out", str(out))
        assert (code, stdout) == (1, "")
        assert stderr == "camtraj parse: argument --width: integer too large for a float64\n"
        assert not out.exists()
        code, _, _ = run(capsys, "parse", "--input", src, "--width", str(10 ** 308),
                         "--height", "48", "--out", str(out))
        assert code == 0

    def test_non_integer_side_keeps_argparse_wording(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "parse", "--input", "p.txt", "--width", "x",
                              "--height", "4", "--out", str(tmp_path / "t.json"))
        assert code == 1
        assert stderr == "camtraj parse: argument --width: invalid int value: 'x'\n"

    @pytest.mark.parametrize("cmd, flag", [("parse", "--input"), ("synth", "--spec"),
                                           ("embed", "--traj"), ("eval", "--gt")])
    def test_non_utf8_input_exits_2(self, tmp_path, capsys, cmd, flag):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b'{"a":\xff}\n')
        argv = [cmd, flag, str(bad), "--out", str(tmp_path / "out")]
        if cmd == "parse":
            argv += ["--width", "8", "--height", "8"]
        if cmd == "eval":
            argv += ["--gen", str(bad)]
        code, stdout, stderr = run(capsys, *argv)
        assert (code, stdout) == (2, "")
        assert stderr == f"error: {bad}: not UTF-8 text: invalid start byte at byte 5\n"
        assert sorted(os.listdir(tmp_path)) == ["bad.txt"]

    def test_embed_past_numpy_size_limit_exits_2(self, tmp_path, capsys):
        traj = synth_traj_json(tmp_path, capsys, {**PAN_SPEC, "frames": 2})
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps({**json.loads(traj.read_text()), "width": 10 ** 30}))
        out = tmp_path / "p.npy"
        code, stdout, stderr = run(capsys, "embed", "--traj", str(wide), "--out", str(out))
        assert (code, stdout) == (2, "")
        assert stderr == ("error: cannot allocate a float32 embedding of shape "
                          f"(2, 6, 256, {10 ** 30})\n")
        assert not out.exists() and no_temp_litter(tmp_path)

    def test_embed_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        traj = synth_traj_json(tmp_path, capsys, {**PAN_SPEC, "frames": 2})

        def no_memory(shape, dtype):
            raise MemoryError

        monkeypatch.setattr(cli.plucker.np, "empty", no_memory)
        out = tmp_path / "p.npy"
        code, _, stderr = run(capsys, "embed", "--traj", str(traj), "--out", str(out))
        assert code == 2
        assert stderr == "error: cannot allocate a float32 embedding of shape (2, 6, 256, 384)\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (("--heads", "0"), "heads must be >= 1, got 0"),
        (("--heads", "-1"), "heads must be >= 1, got -1"),
        (("--seed", "-1"), "seed must be >= 0, got -1")])
    def test_encode_heads_and_seed_exit_2(self, tmp_path, capsys, flags, message):
        src = tmp_path / "p.npy"
        write_npy_file(np.zeros((2, 6, 16, 32), dtype=np.float32), src)
        out_dir = tmp_path / "feats"
        code, stdout, stderr = run(capsys, "encode", "--plucker", str(src), "--seed", "0",
                                   "--out-dir", str(out_dir), "--channels", "8,16,16,16",
                                   "--unshuffle", "2", *flags)
        assert (code, stdout) == (2, "")
        assert stderr == f"error: {message}\n"
        assert not out_dir.exists()

    def test_encode_weights_past_memory_exit_2(self, tmp_path, capsys):
        # numpy refuses the 233 TiB draw up front, without touching memory
        src = tmp_path / "p.npy"
        write_npy_file(np.zeros((2, 6, 16, 32), dtype=np.float32), src)
        out_dir = tmp_path / "feats"
        code, stdout, stderr = run(capsys, "encode", "--plucker", str(src), "--seed", "0",
                                   "--out-dir", str(out_dir), "--channels", "8,8,8,8",
                                   "--heads", "1", "--unshuffle", "2",
                                   "--mlp-ratio", "1000000000000")
        assert (code, stdout) == (2, "")
        assert stderr == "error: cannot allocate float32 weights of shape (8, 8000000000000)\n"
        assert not out_dir.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("far", ["gt", "gen"])
    def test_overflowing_first_interval_exits_2_without_warning(self, tmp_path, capsys, far):
        traj = synth_traj_json(tmp_path, capsys, {**PAN_SPEC, "frames": 2})
        doc = json.loads(traj.read_text())
        doc["poses"][1]["t"] = [1e300, 0, 0]
        paths = {"gt": traj, "gen": traj, far: tmp_path / "far.json"}
        paths[far].write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        code, stdout, stderr = run(capsys, "eval", "--gt", str(paths["gt"]),
                                   "--gen", str(paths["gen"]), "--out", str(out))
        assert (code, stdout) == (2, "")
        norms = {"gt": "1.000e-01", "gen": "1.000e-01", far: "inf"}
        assert stderr == (f"error: first-interval norms gt={norms['gt']} gen={norms['gen']} "
                          "overflow float64\n")
        assert not out.exists()

    def test_huge_frame_range_reports_first_missing_index(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        code, _, stderr = run(capsys, "parse", "--input", str(self.two_line_pose_file(tmp_path)),
                              "--width", "64", "--height", "48",
                              "--frames", "0:1000000000000", "--out", str(out))
        assert code == 2
        assert stderr == "error: index 2 out of range for 2 records\n"
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["--1:2", "²:3", "9" * 5000 + ":1", "1:2:3:4"])
    def test_unreadable_frame_range_is_usage_error(self, tmp_path, capsys, spec):
        code, _, stderr = run(capsys, "parse", "--input", str(self.two_line_pose_file(tmp_path)),
                              "--width", "64", "--height", "48",
                              f"--frames={spec}", "--out", str(tmp_path / "t.json"))
        assert code == 1
        assert stderr == f"bad frame range {spec!r}\n"

    def test_frame_ranges_end_at_first_missing_index(self):
        steps = [s for s in range(-3, 4) if s]
        for count in range(4):
            pf = pose_io.parse_pose_file("\n".join(["url", *map(pose_line, range(count))]))
            for start in range(-5, 7):
                for stop in range(-5, 7):
                    for step in steps:
                        full = list(range(start, stop, step))
                        bad = [i for i in full if not 0 <= i < count]
                        frames = cli._parse_frames(f"{start}:{stop}:{step}", count)
                        if bad or not full:
                            message = (f"index {bad[0]} out of range for {count} records"
                                       if bad else "frame selection is empty")
                            with pytest.raises(IndexOutOfRange, match=f"^{message}$"):
                                pose_io.to_trajectory(pf, 4, 4, frames)
                        else:
                            traj = pose_io.to_trajectory(pf, 4, 4, frames)
                            assert traj.translations.tobytes() == pf.w2c[full, :, 3].tobytes()

    @pytest.mark.parametrize("spec, message", [
        ("0:4:0", "frame range step cannot be 0"), ("0,x", "bad frame list '0,x'")])
    def test_bad_frame_spec_message(self, tmp_path, capsys, spec, message):
        out = tmp_path / "t.json"
        code, stdout, stderr = run(capsys, "parse", "--input",
                                   str(self.two_line_pose_file(tmp_path)), "--width", "64",
                                   "--height", "48", "--frames", spec, "--out", str(out))
        assert (code, stdout, stderr) == (1, "", f"{message}\n")
        assert not out.exists()

    def test_bad_rotation_names_its_line(self, tmp_path, capsys):
        src = tmp_path / "poses.txt"
        src.write_text(f"url\n{pose_line(0).replace(' 1 0 0 0 ', ' 0 0 0 0 ', 1)}\n")
        out = tmp_path / "t.json"
        code, stdout, stderr = run(capsys, "parse", "--input", str(src), "--width", "64",
                                   "--height", "48", "--out", str(out))
        assert (code, stdout) == (2, "")
        assert stderr == "error: line 2: R.T @ R deviates from identity by 1.000e+00\n"
        assert not out.exists()

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_outputs_take_the_umask(self, tmp_path, capsys, umask, mode):
        spec, traj, feats = tmp_path / "plan.json", tmp_path / "t.json", tmp_path / "feats"
        spec.write_text(json.dumps({**PAN_SPEC, "frames": 2, "width": 32, "height": 16}))
        traj.write_text("")
        os.chmod(traj, 0o600 if mode == 0o644 else 0o644)  # overwriting sets the mode too
        src = tmp_path / "p.npy"
        write_npy_file(np.zeros((2, 6, 16, 32), dtype=np.float32), src)
        old = os.umask(umask)
        try:
            assert run(capsys, "synth", "--spec", str(spec), "--out", str(traj))[0] == 0
            assert run(capsys, "encode", "--plucker", str(src), "--seed", "0",
                       "--out-dir", str(feats), *ENCODE_FLAGS)[0] == 0
        finally:
            os.umask(old)
        outputs = [traj, *(feats / f"scale{i}.npy" for i in range(1, 5))]
        assert [oct(os.stat(p).st_mode & 0o777) for p in outputs] == [oct(mode)] * 5

    @pytest.mark.filterwarnings("error")
    def test_overflowing_focal_exits_2_without_warning(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        code, _, stderr = run(capsys, "parse", "--input",
                              str(self.two_line_pose_file(tmp_path, fy_n="1e308")),
                              "--width", "64", "--height", "48", "--out", str(out))
        assert code == 2
        assert stderr == "error: fy must be finite, got inf\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_rotation_exits_2_without_warning(self, tmp_path, capsys):
        traj = synth_traj_json(tmp_path, capsys, {**PAN_SPEC, "frames": 2})
        doc = json.loads(traj.read_text())
        doc["poses"][0]["R"][0] = 1e200
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, stderr = run(capsys, "embed", "--traj", str(bad), "--out", str(tmp_path / "p"))
        assert code == 2
        assert stderr == "error: /poses/0/R: R.T @ R deviates from identity by inf\n"

    @pytest.mark.parametrize("text", ["[" * 100_000, '{"width": ' + "1" * 5000 + "}"])
    def test_json_past_parser_limits_exits_2(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        for argv in (("synth", "--spec", str(bad)), ("embed", "--traj", str(bad))):
            code, _, stderr = run(capsys, *argv, "--out", str(tmp_path / "out"))
            assert code == 2
            assert stderr.startswith("error: /: invalid JSON: ")
