"""Trajectory synthesis primitives and composition."""

import math

import numpy as np
import pytest

from camtraj.errors import (
    CamTrajError,
    EmptyDirectives,
    MotionOverflow,
    NonPositiveScale,
    NonUnitAxis,
    NonUnitDirection,
)
from camtraj.geometry import Convention, Intrinsics
from camtraj.plucker import camera_center
from camtraj.pose_io import trajectory_to_json
from camtraj.synth import (
    MOTION_FIELDS,
    MotionDirective,
    MotionKind,
    SynthesisPlan,
    compose_motions,
    scale_intensity,
    synth_rotation,
    synthesize,
)
from util import one_motion, random_trajectory

INTR = Intrinsics(192.0, 228.0, 192.0, 128.0)
PAN, SHIFT, FOCAL = MotionKind.PAN, MotionKind.PRINCIPAL_SHIFT, MotionKind.FOCAL_ZOOM


def centers(traj):
    return np.array([camera_center(p.extrinsics) for p in traj.poses])


def assert_identity(e):
    np.testing.assert_array_equal(e.rotation, np.eye(3))
    np.testing.assert_array_equal(e.translation, np.zeros(3))


class TestPan:
    def test_linear_centers(self):
        traj = one_motion(PAN, 16, INTR, 384, 256, direction=(-1.0, 0.0, 0.0), interval=0.1)
        assert traj.convention is Convention.CAMERA_TO_WORLD
        c = centers(traj)
        expected = np.outer(0.1 * np.arange(16), [-1.0, 0.0, 0.0])
        np.testing.assert_allclose(c, expected, atol=1e-15)
        for p in traj.poses:
            np.testing.assert_array_equal(p.extrinsics.rotation, np.eye(3))

    def test_frame_zero_identity(self):
        traj = one_motion(PAN, 4, INTR, 8, 8, direction=(0.0, 1.0, 0.0), interval=-2.5)
        assert_identity(traj.poses[0].extrinsics)

    def test_non_unit_direction(self):
        with pytest.raises(NonUnitDirection):
            one_motion(PAN, 4, INTR, 8, 8, direction=(1.0, 1.0, 0.0), interval=0.1)


class TestRotation:
    def test_uniform_spread(self):
        total = 100.0
        n = 16
        traj = synth_rotation([0.0, 1.0, 0.0], total, n, INTR, 8, 8)
        for i, p in enumerate(traj.poses):
            tr = float(np.trace(p.extrinsics.rotation))
            expected = 1.0 + 2.0 * math.cos(math.radians(i * total / (n - 1)))
            assert abs(tr - expected) < 1e-9
            np.testing.assert_array_equal(p.extrinsics.translation, np.zeros(3))

    def test_last_frame_reaches_total(self):
        traj = synth_rotation([1.0, 0.0, 0.0], 150.0, 16, INTR, 8, 8)
        tr = float(np.trace(traj.poses[-1].extrinsics.rotation))
        assert abs(tr - (1.0 + 2.0 * math.cos(math.radians(150.0)))) < 1e-9

    def test_single_frame_zero_total_ok(self):
        traj = synth_rotation([0.0, 0.0, 1.0], 0.0, 1, INTR, 8, 8)
        assert_identity(traj.poses[0].extrinsics)

    def test_single_frame_nonzero_total_rejected(self):
        with pytest.raises(ValueError):
            synth_rotation([0.0, 0.0, 1.0], 10.0, 1, INTR, 8, 8)

    def test_non_unit_axis(self):
        with pytest.raises(NonUnitAxis):
            synth_rotation([1.0, 1.0, 0.0], 10.0, 4, INTR, 8, 8)


class TestIntrinsicMotion:
    def test_principal_shift(self):
        traj = one_motion(SHIFT, 5, INTR, 8, 8, shift=(2.0, -1.0))
        for i, p in enumerate(traj.poses):
            assert p.intrinsics.cx == INTR.cx + 2.0 * i
            assert p.intrinsics.cy == INTR.cy - 1.0 * i
            assert p.intrinsics.fx == INTR.fx
            assert_identity(p.extrinsics)

    def test_principal_point_may_leave_image(self):
        traj = one_motion(SHIFT, 4, INTR, 8, 8, shift=(500.0, 0.0))
        assert traj.poses[-1].intrinsics.cx > 8

    def test_focal_zoom_powers(self):
        traj = one_motion(FOCAL, 5, INTR, 8, 8, interval=1.1)
        for i, p in enumerate(traj.poses):
            assert abs(p.intrinsics.fx - INTR.fx * 1.1 ** i) < 1e-9
            assert abs(p.intrinsics.fy - INTR.fy * 1.1 ** i) < 1e-9
            assert p.intrinsics.cx == INTR.cx

    def test_focal_zoom_rejects_non_positive(self):
        with pytest.raises(NonPositiveScale):
            one_motion(FOCAL, 4, INTR, 8, 8, interval=0.0)
        with pytest.raises(NonPositiveScale):
            one_motion(FOCAL, 4, INTR, 8, 8, interval=-2.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scales, frame, value", [
        ((1e200, 1e200), 1, "inf"), ((1e-200, 1e-200), 1, "0.0"), ((1e160, 1.0, 1e160), 1, "inf")])
    def test_composed_focal_zoom_must_stay_in_float_range(self, scales, frame, value):
        zooms = [MotionDirective(MotionKind.FOCAL_ZOOM, 2, interval=s) for s in scales]
        with pytest.raises(NonPositiveScale) as exc:
            compose_motions(zooms, 2, INTR, 8, 8)
        assert str(exc.value) == (f"focal_zoom directive {len(scales) - 1} takes fx to {value} "
                                  f"at frame {frame}, outside the positive float64 range")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("directives, message", [
        ([MotionDirective(MotionKind.PAN, 3, direction=(1.0, 0.0, 0.0), interval=1e308)],
         "pan directive 0 takes center x to inf at frame 2"),
        ([MotionDirective(MotionKind.ZOOM, 3, interval=1e308)],
         "zoom directive 0 takes center z to inf at frame 2"),
        ([MotionDirective(MotionKind.PRINCIPAL_SHIFT, 3, shift=(1e308, 0.0))],
         "principal_shift directive 0 takes cx to inf at frame 2"),
        # each fits alone; their composition overflows at frame 2
        ([MotionDirective(MotionKind.ROTATE, 3, direction=(0.0, 1.0, 0.0), interval=10.0),
          MotionDirective(MotionKind.ZOOM, 3, interval=-0.6e308),
          MotionDirective(MotionKind.ZOOM, 3, interval=-0.6e308)],
         "zoom directive 2 takes center z to -inf at frame 2"),
        ([MotionDirective(MotionKind.PRINCIPAL_SHIFT, 3, shift=(0.0, -0.6e308)),
          MotionDirective(MotionKind.PRINCIPAL_SHIFT, 3, shift=(0.0, -0.6e308))],
         "principal_shift directive 1 takes cy to -inf at frame 2")])
    def test_overflow_names_directive_and_frame(self, directives, message):
        with pytest.raises(MotionOverflow) as exc:
            compose_motions(directives, 3, INTR, 8, 8)
        assert str(exc.value) == f"{message}, outside the float64 range"

    @pytest.mark.filterwarnings("error")
    def test_overflow_names_first_directive_in_list_order(self):
        shift = MotionDirective(MotionKind.PRINCIPAL_SHIFT, 3, shift=(1e308, 0.0))
        pan = MotionDirective(MotionKind.PAN, 3, direction=(1.0, 0.0, 0.0), interval=1e308)
        for directives, message in (((shift, pan), "principal_shift directive 0 takes cx"),
                                    ((pan, shift), "pan directive 0 takes center x")):
            with pytest.raises(MotionOverflow) as exc:
                compose_motions(directives, 3, INTR, 8, 8)
            assert str(exc.value).startswith(f"{message} to inf at frame 2")


class TestCompose:
    def test_center_zeros_do_not_depend_on_directive_order(self):
        # a negative direction component times frame 0's 0.0 is -0.0; centers
        # start at +0.0 and are only added to, so they come out as 0.0
        pan = MotionDirective(MotionKind.PAN, 3, direction=(-0.6, 0.0, 0.8), interval=0.5)
        shift = MotionDirective(MotionKind.PRINCIPAL_SHIFT, 3, shift=(0.0, 0.0))
        alone = trajectory_to_json(compose_motions((pan,), 3, INTR, 8, 8))
        assert trajectory_to_json(compose_motions((shift, pan), 3, INTR, 8, 8)) == alone
        assert "-0.0" not in alone

    def test_singleton_matches_primitive(self):
        n = 6
        d = MotionDirective(MotionKind.PAN, n, direction=(-0.6, 0.0, 0.8), interval=0.25)
        composed = compose_motions([d], n, INTR, 8, 8)
        # a pan alone is the closed form: identity rotations, centers i * interval * d
        np.testing.assert_array_equal(composed.rotations, np.tile(np.eye(3), (n, 1, 1)))
        np.testing.assert_array_equal(composed.translations,
                                      (0.25 * np.arange(n))[:, None] * np.array(d.direction))

    def test_matches_explicit_matrix_product(self):
        n = 5
        rot = MotionDirective(MotionKind.ROTATE, n, direction=(0.0, 1.0, 0.0),
                              interval=40.0)
        pan = MotionDirective(MotionKind.PAN, n, direction=(1.0, 0.0, 0.0),
                              interval=0.5)
        composed = compose_motions([rot, pan], n, INTR, 8, 8)
        rot_traj = synth_rotation([0.0, 1.0, 0.0], 40.0, n, INTR, 8, 8)
        pan_traj = one_motion(PAN, n, INTR, 8, 8, direction=(1.0, 0.0, 0.0), interval=0.5)
        for i in range(n):
            a = np.eye(4)
            a[:3, :3] = rot_traj.poses[i].extrinsics.rotation
            a[:3, 3] = rot_traj.poses[i].extrinsics.translation
            b = np.eye(4)
            b[:3, :3] = pan_traj.poses[i].extrinsics.rotation
            b[:3, 3] = pan_traj.poses[i].extrinsics.translation
            oracle = a @ b  # list order: first directive on the left
            got = composed.poses[i].extrinsics
            np.testing.assert_allclose(got.rotation, oracle[:3, :3], atol=1e-9)
            np.testing.assert_allclose(got.translation, oracle[:3, 3], atol=1e-9)

    def test_motion_with_inverse_cancels(self):
        n = 5
        fwd = MotionDirective(MotionKind.ROTATE, n, direction=(0.0, 0.0, 1.0),
                              interval=70.0)
        back = MotionDirective(MotionKind.ROTATE, n, direction=(0.0, 0.0, 1.0),
                               interval=-70.0)
        traj = compose_motions([fwd, back], n, INTR, 8, 8)
        for p in traj.poses:
            np.testing.assert_allclose(p.extrinsics.rotation, np.eye(3), atol=1e-12)
            np.testing.assert_allclose(p.extrinsics.translation, 0.0, atol=1e-12)

    def test_intrinsic_directives_apply_in_order(self):
        n = 3
        zoom = MotionDirective(MotionKind.FOCAL_ZOOM, n, interval=2.0)
        shift = MotionDirective(MotionKind.PRINCIPAL_SHIFT, n, shift=(1.0, 0.0))
        traj = compose_motions([zoom, shift], n, INTR, 8, 8)
        p2 = traj.poses[2]
        assert p2.intrinsics.fx == INTR.fx * 4.0
        assert p2.intrinsics.cx == INTR.cx + 2.0
        assert_identity(p2.extrinsics)

    def test_empty_rejected(self):
        with pytest.raises(EmptyDirectives):
            compose_motions([], 4, INTR, 8, 8)

    def test_frame_count_mismatch_rejected(self):
        d = MotionDirective(MotionKind.ZOOM, 4, interval=0.1)
        with pytest.raises(ValueError):
            compose_motions([d], 5, INTR, 8, 8)

    def test_synthesize_plan(self):
        plan = SynthesisPlan(
            frames=4, width=8, height=8, intrinsics=INTR,
            directives=(MotionDirective(MotionKind.ZOOM, 4, interval=0.2),))
        traj = synthesize(plan)
        np.testing.assert_allclose(centers(traj)[:, 2], 0.2 * np.arange(4), atol=1e-15)


class TestScaleIntensity:
    def test_scales_centers_about_frame0(self):
        traj = one_motion(PAN, 6, INTR, 8, 8, direction=(0.0, 0.0, 1.0), interval=0.5)
        scaled = scale_intensity(traj, 4.0)
        np.testing.assert_allclose(centers(scaled), 4.0 * centers(traj), atol=1e-12)

    def test_rotations_and_intrinsics_untouched(self):
        rng = np.random.default_rng(20)
        traj = random_trajectory(rng, 5, Convention.CAMERA_TO_WORLD)
        scaled = scale_intensity(traj, 0.25)
        for a, b in zip(traj.poses, scaled.poses):
            np.testing.assert_array_equal(a.extrinsics.rotation, b.extrinsics.rotation)
            assert a.intrinsics == b.intrinsics

    def test_nonzero_frame0_center(self):
        rng = np.random.default_rng(21)
        traj = random_trajectory(rng, 5, Convention.CAMERA_TO_WORLD)
        k = 3.0
        scaled = scale_intensity(traj, k)
        c = centers(traj)
        expected = c[0] + k * (c - c[0])
        np.testing.assert_allclose(centers(scaled), expected, atol=1e-10)

    def test_w2c_trajectory(self):
        rng = np.random.default_rng(22)
        traj = random_trajectory(rng, 5, Convention.WORLD_TO_CAMERA)
        k = 2.0
        scaled = scale_intensity(traj, k)
        assert scaled.convention is Convention.WORLD_TO_CAMERA
        c = centers(traj)
        expected = c[0] + k * (c - c[0])
        np.testing.assert_allclose(centers(scaled), expected, atol=1e-10)

    def test_zero_collapses_onto_frame0(self):
        rng = np.random.default_rng(23)
        traj = random_trajectory(rng, 5, Convention.CAMERA_TO_WORLD)
        collapsed = scale_intensity(traj, 0.0)
        c = centers(collapsed)
        np.testing.assert_allclose(c, np.broadcast_to(c[0], c.shape), atol=1e-12)

    def test_composition_of_factors(self):
        rng = np.random.default_rng(24)
        traj = random_trajectory(rng, 5, Convention.CAMERA_TO_WORLD)
        once = scale_intensity(traj, 6.0)
        twice = scale_intensity(scale_intensity(traj, 2.0), 3.0)
        np.testing.assert_allclose(centers(twice), centers(once), atol=1e-9)

    def test_rejects_non_finite(self):
        traj = one_motion(PAN, 3, INTR, 8, 8, direction=(1.0, 0.0, 0.0), interval=0.1)
        with pytest.raises(ValueError):
            scale_intensity(traj, float("inf"))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_centers_fail_typed(self):
        traj = one_motion(PAN, 3, INTR, 8, 8, direction=(1.0, 0.0, 0.0), interval=10.0)
        with pytest.raises(CamTrajError, match="^array contains non-finite entries$"):
            scale_intensity(traj, 1e308)


class TestDirectiveValidation:
    def test_every_kind_has_fields(self):
        assert list(MOTION_FIELDS) == list(MotionKind)
        assert all(MOTION_FIELDS[k] for k in MotionKind)

    @pytest.mark.parametrize("kind", list(MotionKind))
    def test_missing_field_names_plan_keys(self, kind):
        keys = " and ".join(key for key, _, _ in MOTION_FIELDS[kind])
        with pytest.raises(CamTrajError, match=f"^{kind.value} needs {keys}$"):
            MotionDirective(kind, 4)

    def test_wrong_vector_length_rejected(self):
        with pytest.raises(CamTrajError, match="^principal_shift needs per_frame$"):
            MotionDirective(MotionKind.PRINCIPAL_SHIFT, 4, shift=(1.0, 2.0, 3.0))

    def test_pan_requires_unit_direction(self):
        with pytest.raises(NonUnitDirection):
            MotionDirective(MotionKind.PAN, 4, direction=(2.0, 0.0, 0.0), interval=0.1)

    def test_rotate_requires_unit_axis(self):
        with pytest.raises(NonUnitAxis):
            MotionDirective(MotionKind.ROTATE, 4, direction=(0.0, 0.0, 0.5), interval=10.0)

    def test_focal_zoom_positive(self):
        with pytest.raises(NonPositiveScale):
            MotionDirective(MotionKind.FOCAL_ZOOM, 4, interval=-1.0)

    def test_focal_zoom_power_must_stay_in_float_range(self):
        MotionDirective(MotionKind.FOCAL_ZOOM, 30, interval=1e10)  # 1e290 fits
        for scale, frames in ((1e10, 100), (1e-10, 100), (2.0, 1100)):
            with pytest.raises(NonPositiveScale) as exc:
                MotionDirective(MotionKind.FOCAL_ZOOM, frames, interval=scale)
            assert f"over {frames} frames" in str(exc.value)

    def test_frames_minimum(self):
        with pytest.raises(ValueError):
            MotionDirective(MotionKind.ZOOM, 0, interval=0.1)

    @pytest.mark.parametrize("kind, fields, shown", [
        (MotionKind.PAN, {"direction": (1.0, 0.0, 0.0), "interval": math.inf}, "inf"),
        (MotionKind.ZOOM, {"interval": -math.inf}, "-inf"),
        (MotionKind.ROTATE, {"direction": (0.0, 1.0, 0.0), "interval": math.nan}, "nan"),
        (MotionKind.PRINCIPAL_SHIFT, {"shift": (1.0, math.nan)}, "1.0, nan")])
    def test_non_finite_values_rejected(self, kind, fields, shown):
        with pytest.raises(ValueError) as exc:
            MotionDirective(kind, 4, **fields)
        assert str(exc.value) == f"{kind.value} values must be finite, got {shown}"

    def test_single_frame_rotation_rejected_on_construction(self):
        MotionDirective(MotionKind.ROTATE, 1, direction=(0.0, 0.0, 1.0), interval=0.0)
        with pytest.raises(ValueError, match="single-frame trajectory cannot spread"):
            MotionDirective(MotionKind.ROTATE, 1, direction=(0.0, 0.0, 1.0), interval=10.0)
