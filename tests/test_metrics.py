"""Rotation/translation error metrics against quaternion and
extended-precision oracles."""

import math

import numpy as np
import pytest

from camtraj.errors import DegenerateBaseline, LengthMismatch
from camtraj.geometry import (
    CameraPose,
    Convention,
    Extrinsics,
    Intrinsics,
    Trajectory,
    convert_extrinsics,
    first_bad_frame,
    invert_extrinsics,
    relativize,
    rotation_about_axis,
)
from camtraj.metrics import (
    REALESTATE10K_ROT_ERR_LOWER_BOUND,
    REALESTATE10K_TRANS_ERR_LOWER_BOUND,
    AlignmentReport,
    evaluate,
    normalize_scale,
    rot_err,
    trans_err,
)
from util import random_extrinsics, random_rotation, random_trajectory

INTR = Intrinsics(10.0, 10.0, 5.0, 5.0)


def matrix_to_quat(m):
    """Shepperd's method; returns (w, x, y, z) with no sign convention."""
    t = np.trace(m)
    if t > 0:
        s = math.sqrt(t + 1.0) * 2.0
        return np.array([0.25 * s,
                         (m[2, 1] - m[1, 2]) / s,
                         (m[0, 2] - m[2, 0]) / s,
                         (m[1, 0] - m[0, 1]) / s])
    if m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        return np.array([(m[2, 1] - m[1, 2]) / s, 0.25 * s,
                         (m[0, 1] + m[1, 0]) / s,
                         (m[0, 2] + m[2, 0]) / s])
    if m[1, 1] > m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        return np.array([(m[0, 2] - m[2, 0]) / s,
                         (m[0, 1] + m[1, 0]) / s, 0.25 * s,
                         (m[1, 2] + m[2, 1]) / s])
    s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
    return np.array([(m[1, 0] - m[0, 1]) / s,
                     (m[0, 2] + m[2, 0]) / s,
                     (m[1, 2] + m[2, 1]) / s, 0.25 * s])


def quat_angle_oracle(r_gt, r_gen):
    """Axis-angle magnitude of the relative rotation via quaternions."""
    q = matrix_to_quat(r_gen @ r_gt.T)
    return 2.0 * math.atan2(np.linalg.norm(q[1:]), abs(q[0]))


def traj_from_extrinsics(exts, width=8, height=8):
    return Trajectory(tuple(CameraPose(INTR, e) for e in exts), width, height)


class TestQuatOracleItself:
    def test_against_scipy(self):
        # validate the hand-rolled oracle against an unrelated implementation
        from scipy.spatial.transform import Rotation
        rng = np.random.default_rng(0)
        for _ in range(300):
            r = random_rotation(rng)
            got = quat_angle_oracle(np.eye(3), r)
            ref = Rotation.from_matrix(r).magnitude()
            assert abs(got - ref) < 1e-9


class TestRotErr:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(1)
        t = random_trajectory(rng, 6)
        total, per_frame = rot_err(t, t)
        assert abs(total) < 1e-9
        assert all(abs(v) < 1e-9 for v in per_frame)

    def test_quarter_turn(self):
        ident = Extrinsics.identity(Convention.WORLD_TO_CAMERA)
        quarter = Extrinsics(rotation_about_axis([0.0, 0.0, 1.0], math.pi / 2),
                             np.zeros(3), Convention.WORLD_TO_CAMERA)
        total, _ = rot_err(traj_from_extrinsics([ident]),
                           traj_from_extrinsics([quarter]))
        assert abs(total - math.pi / 2) < 1e-9

    def test_quaternion_oracle_1000_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            a = random_extrinsics(rng)
            b = random_extrinsics(rng)
            _, per_frame = rot_err(traj_from_extrinsics([a]),
                                   traj_from_extrinsics([b]))
            oracle = quat_angle_oracle(a.rotation, b.rotation)
            assert abs(per_frame[0] - oracle) < 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a = random_trajectory(rng, 5)
        b = random_trajectory(rng, 5)
        assert abs(rot_err(a, b)[0] - rot_err(b, a)[0]) < 1e-12

    def test_left_invariance(self):
        rng = np.random.default_rng(4)
        q = random_rotation(rng)
        for _ in range(100):
            a = random_extrinsics(rng)
            b = random_extrinsics(rng)
            base = rot_err(traj_from_extrinsics([a]), traj_from_extrinsics([b]))[0]
            qa = Extrinsics(q @ a.rotation, a.translation, a.convention)
            qb = Extrinsics(q @ b.rotation, b.translation, b.convention)
            moved = rot_err(traj_from_extrinsics([qa]), traj_from_extrinsics([qb]))[0]
            assert abs(base - moved) < 1e-9

    def test_no_nan_on_noisy_rotations(self):
        # orthonormal up to construction tolerance; trace may leave [-1, 3]
        rng = np.random.default_rng(5)
        for _ in range(200):
            r = random_rotation(rng)
            noisy = r + 5e-8 * rng.standard_normal((3, 3))
            e = Extrinsics(noisy, np.zeros(3), Convention.WORLD_TO_CAMERA)
            total, per = rot_err(traj_from_extrinsics([e]), traj_from_extrinsics([e]))
            assert math.isfinite(total)
            assert 0.0 <= per[0] <= math.pi

    def test_range_is_zero_to_pi(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            a = random_extrinsics(rng)
            b = random_extrinsics(rng)
            _, per = rot_err(traj_from_extrinsics([a]), traj_from_extrinsics([b]))
            assert 0.0 <= per[0] <= math.pi

    def test_length_mismatch(self):
        rng = np.random.default_rng(7)
        with pytest.raises(LengthMismatch):
            rot_err(random_trajectory(rng, 3), random_trajectory(rng, 4))


class TestTransErr:
    def test_three_four_five(self):
        a = Extrinsics(np.eye(3), np.zeros(3), Convention.WORLD_TO_CAMERA)
        b = Extrinsics(np.eye(3), np.array([3.0, 4.0, 0.0]), Convention.WORLD_TO_CAMERA)
        total, per = trans_err(traj_from_extrinsics([a]), traj_from_extrinsics([b]))
        assert total == 25.0
        assert per == [25.0]

    def test_identical_is_zero(self):
        rng = np.random.default_rng(8)
        t = random_trajectory(rng, 5)
        assert trans_err(t, t)[0] == 0.0

    def test_extended_precision_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            a = random_trajectory(rng, n)
            b = random_trajectory(rng, n)
            total, _ = trans_err(a, b)
            oracle = math.fsum(
                math.fsum((float(x) - float(y)) ** 2
                          for x, y in zip(pa.extrinsics.translation,
                                          pb.extrinsics.translation))
                for pa, pb in zip(a.poses, b.poses))
            assert abs(total - oracle) < 1e-9

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(10)
        a = random_extrinsics(rng)
        shifted = Extrinsics(a.rotation, a.translation + 1e-6, a.convention)
        total, _ = trans_err(traj_from_extrinsics([a]), traj_from_extrinsics([shifted]))
        assert total > 0

    def test_length_mismatch(self):
        rng = np.random.default_rng(11)
        with pytest.raises(LengthMismatch):
            trans_err(random_trajectory(rng, 2), random_trajectory(rng, 3))


def relative_random_trajectory(rng, n=6, conv=Convention.WORLD_TO_CAMERA):
    """Random trajectory with an identity first frame and a usable baseline."""
    exts = [Extrinsics.identity(conv)]
    for _ in range(n - 1):
        t = rng.standard_normal(3)
        while np.linalg.norm(t) < 1e-3:
            t = rng.standard_normal(3)
        exts.append(Extrinsics(random_rotation(rng), t, conv))
    return traj_from_extrinsics(exts)


class TestNormalizeScale:
    def test_double_translations_halves_factor(self):
        rng = np.random.default_rng(12)
        gt = relative_random_trajectory(rng)
        doubled = traj_from_extrinsics([
            Extrinsics(p.extrinsics.rotation, 2.0 * p.extrinsics.translation,
                       p.extrinsics.convention) for p in gt.poses])
        normalized, factor = normalize_scale(gt, doubled)
        assert abs(factor - 0.5) < 1e-12
        for a, b in zip(gt.poses, normalized.poses):
            np.testing.assert_allclose(b.extrinsics.translation,
                                       a.extrinsics.translation, atol=1e-9)
            np.testing.assert_array_equal(b.extrinsics.rotation,
                                          a.extrinsics.rotation)

    def test_identity_factor(self):
        rng = np.random.default_rng(13)
        gt = relative_random_trajectory(rng)
        _, factor = normalize_scale(gt, gt)
        assert factor == 1.0

    def test_static_baseline_degenerate(self):
        rng = np.random.default_rng(14)
        gt = relative_random_trajectory(rng)
        static = traj_from_extrinsics(
            [Extrinsics.identity(Convention.WORLD_TO_CAMERA)] * len(gt))
        with pytest.raises(DegenerateBaseline):
            normalize_scale(gt, static)
        with pytest.raises(DegenerateBaseline):
            normalize_scale(static, gt)

    def test_single_frame_degenerate(self):
        rng = np.random.default_rng(15)
        one = traj_from_extrinsics([random_extrinsics(rng)])
        with pytest.raises(DegenerateBaseline):
            normalize_scale(one, one)


class TestEvaluate:
    def test_self_evaluation(self):
        rng = np.random.default_rng(16)
        t = random_trajectory(rng, 8)
        report = evaluate(t, t)
        assert abs(report.rot_err_total) < 1e-9
        assert report.trans_err_total < 1e-18
        assert abs(report.rescale_factor - 1.0) < 1e-12
        assert report.frames_compared == 8

    def test_report_invariants(self):
        rng = np.random.default_rng(17)
        report = evaluate(random_trajectory(rng, 6), random_trajectory(rng, 6))
        assert abs(report.rot_err_total - sum(report.per_frame_rot)) < 1e-12
        assert abs(report.trans_err_total - sum(report.per_frame_trans)) < 1e-12
        assert all(0.0 <= r <= math.pi for r in report.per_frame_rot)
        assert report.rescale_factor > 0

    def test_scale_invariance(self):
        rng = np.random.default_rng(18)
        for s in (0.1, 2.0, 10.0):
            gt = random_trajectory(rng, 6)
            gen = random_trajectory(rng, 6)
            base = evaluate(gt, gen)
            scaled = Trajectory(tuple(
                CameraPose(p.intrinsics,
                           Extrinsics(p.extrinsics.rotation,
                                      s * p.extrinsics.translation,
                                      p.extrinsics.convention))
                for p in gen.poses), gen.width, gen.height)
            moved = evaluate(gt, scaled)
            assert abs(moved.rot_err_total - base.rot_err_total) < 1e-6
            assert abs(moved.trans_err_total - base.trans_err_total) < 1e-6

    def test_uniformly_scaled_self_zero_error(self):
        rng = np.random.default_rng(19)
        t = random_trajectory(rng, 6)
        scaled = Trajectory(tuple(
            CameraPose(p.intrinsics,
                       Extrinsics(p.extrinsics.rotation,
                                  3.0 * p.extrinsics.translation,
                                  p.extrinsics.convention))
            for p in t.poses), t.width, t.height)
        report = evaluate(t, scaled)
        assert report.rot_err_total < 1e-9
        assert report.trans_err_total < 1e-9

    def test_convention_agnostic(self):
        # same underlying motion expressed in both conventions evaluates equal
        rng = np.random.default_rng(20)
        gt = random_trajectory(rng, 6, Convention.WORLD_TO_CAMERA)
        gen = random_trajectory(rng, 6, Convention.WORLD_TO_CAMERA)
        gen_c2w = Trajectory(tuple(
            CameraPose(p.intrinsics, invert_extrinsics(p.extrinsics))
            for p in gen.poses), gen.width, gen.height)
        a = evaluate(gt, gen)
        b = evaluate(gt, gen_c2w)
        assert abs(a.rot_err_total - b.rot_err_total) < 1e-9
        assert abs(a.trans_err_total - b.trans_err_total) < 1e-9

    def test_stored_convention_does_not_move_the_score(self):
        # six-decimal rotations, as RealEstate10K prints them, are orthonormal to
        # about 1e-6 only, so each c2w <-> w2c round trip moves their translations
        rng = np.random.default_rng(0)
        rots = [r for r in np.round([random_rotation(rng) for _ in range(1000)], 6)
                if all(first_bad_frame(m[None], np.zeros((1, 3)), np.empty((0, 4))) is None
                       for m in (r, r.T))]
        n, c2w, w2c = 200, Convention.CAMERA_TO_WORLD, Convention.WORLD_TO_CAMERA
        assert len(rots) >= 2 * n
        k = np.tile([10.0, 10.0, 5.0, 5.0], (n, 1))
        gt = Trajectory.from_arrays(rots[:n], rng.standard_normal((n, 3)), k, c2w, 8, 8)
        r, t = rots[n:2 * n], rng.standard_normal((n, 3))
        gen = Trajectory.from_arrays(r, t, k, c2w, 8, 8)
        as_w2c = Trajectory.from_arrays(*convert_extrinsics(np.array(r), t, c2w, w2c), k, w2c,
                                        8, 8)
        a, b = evaluate(gt, gen), evaluate(gt, as_w2c)
        for name in ("rot_err_total", "trans_err_total", "trans_err_unsquared_total",
                     "rescale_factor"):
            assert getattr(a, name) == pytest.approx(getattr(b, name), rel=1e-12, abs=0)

    def test_propagates_length_mismatch(self):
        rng = np.random.default_rng(21)
        with pytest.raises(LengthMismatch):
            evaluate(random_trajectory(rng, 4), random_trajectory(rng, 5))

    def test_unsquared_total(self):
        rng = np.random.default_rng(22)
        report = evaluate(random_trajectory(rng, 6), random_trajectory(rng, 6))
        oracle = math.fsum(math.sqrt(v) for v in report.per_frame_trans)
        assert abs(report.trans_err_unsquared_total - oracle) < 1e-12

    def test_totals_are_exact_sums(self):
        # math.fsum, not sum(), which rounds differently from Python 3.12 on
        rng = np.random.default_rng(24)
        for _ in range(5):
            report = evaluate(random_trajectory(rng, 200), random_trajectory(rng, 200))
            assert report.rot_err_total == math.fsum(report.per_frame_rot)
            assert report.trans_err_total == math.fsum(report.per_frame_trans)
            assert report.trans_err_unsquared_total == math.fsum(
                math.sqrt(v) for v in report.per_frame_trans)

    def test_to_dict_schema(self):
        rng = np.random.default_rng(23)
        d = evaluate(random_trajectory(rng, 4), random_trajectory(rng, 4)).to_dict()
        assert set(d) == {"rot_err", "trans_err", "trans_err_unsquared",
                          "rescale_factor", "frames_compared", "per_frame"}
        assert len(d["per_frame"]) == 4
        assert set(d["per_frame"][0]) == {"rot", "trans"}


class TestReferenceConstants:
    def test_shipped_values(self):
        assert REALESTATE10K_TRANS_ERR_LOWER_BOUND == 6.93
        assert REALESTATE10K_ROT_ERR_LOWER_BOUND == 1.02
