"""Geometry core: tagged extrinsics, composition, relativization."""

import math

import numpy as np
import pytest

from camtraj import geometry
from camtraj.errors import (CamTrajError, ConventionMismatch, NonUnitAxis, NonUnitDirection,
                            RotationInvalid, ShapeMismatch)
from camtraj.geometry import (
    CameraPose,
    Convention,
    Extrinsics,
    Intrinsics,
    Trajectory,
    as_convention,
    compose,
    first_bad_frame,
    invert_extrinsics,
    orthonormalize,
    relativize,
    rotation_about_axis,
    unit_vector,
)
from util import random_extrinsics, random_rotation, random_trajectory


def homog(r, t):
    """Independent 4x4 oracle for rigid transforms."""
    m = np.eye(4)
    m[:3, :3] = r
    m[:3, 3] = t
    return m


class TestExtrinsics:
    def test_rejects_non_rotation(self):
        with pytest.raises(RotationInvalid):
            Extrinsics(np.eye(3) * 1.1, np.zeros(3), Convention.WORLD_TO_CAMERA)

    def test_rejects_reflection(self):
        r = np.diag([1.0, 1.0, -1.0])  # orthogonal but det = -1
        with pytest.raises(RotationInvalid):
            Extrinsics(r, np.zeros(3), Convention.WORLD_TO_CAMERA)

    def test_rejects_non_finite(self):
        t = np.array([0.0, np.nan, 0.0])
        with pytest.raises(ValueError):
            Extrinsics(np.eye(3), t, Convention.WORLD_TO_CAMERA)

    def test_tolerates_sub_tolerance_noise(self):
        rng = np.random.default_rng(11)
        r = random_rotation(rng) + 1e-8 * rng.standard_normal((3, 3))
        Extrinsics(r, np.zeros(3), Convention.WORLD_TO_CAMERA)

    def test_arrays_frozen(self):
        e = Extrinsics(np.eye(3), np.zeros(3), Convention.WORLD_TO_CAMERA)
        with pytest.raises(ValueError):
            e.rotation[0, 0] = 2.0
        with pytest.raises(ValueError):
            e.translation[0] = 1.0

    def test_source_mutation_does_not_leak(self):
        r = np.eye(3)
        e = Extrinsics(r, np.zeros(3), Convention.WORLD_TO_CAMERA)
        r[0, 1] = 5.0
        assert e.rotation[0, 1] == 0.0


class TestIntrinsics:
    def test_matrix_layout(self):
        k = Intrinsics(100.0, 120.0, 32.0, 24.0).matrix()
        assert np.array_equal(k, [[100, 0, 32], [0, 120, 24], [0, 0, 1]])

    def test_rejects_non_positive_focal(self):
        with pytest.raises(ValueError):
            Intrinsics(0.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            Intrinsics(1.0, -2.0, 0.0, 0.0)

    def test_principal_point_unconstrained(self):
        Intrinsics(1.0, 1.0, -100.0, 1e6)


class TestInvertCompose:
    def test_invert_round_trip(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            e = random_extrinsics(rng)
            back = invert_extrinsics(invert_extrinsics(e))
            assert back.convention is e.convention
            np.testing.assert_allclose(back.rotation, e.rotation, atol=1e-12)
            np.testing.assert_allclose(back.translation, e.translation, atol=1e-12)

    def test_invert_matches_matrix_inverse(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            e = random_extrinsics(rng)
            inv = invert_extrinsics(e)
            oracle = np.linalg.inv(homog(e.rotation, e.translation))
            np.testing.assert_allclose(homog(inv.rotation, inv.translation),
                                       oracle, atol=1e-10)

    def test_invert_flips_tag(self):
        e = random_extrinsics(np.random.default_rng(0), Convention.WORLD_TO_CAMERA)
        assert invert_extrinsics(e).convention is Convention.CAMERA_TO_WORLD

    def test_compose_matches_matrix_product(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            a = random_extrinsics(rng)
            b = random_extrinsics(rng)
            c = compose(a, b)
            oracle = homog(a.rotation, a.translation) @ homog(b.rotation, b.translation)
            np.testing.assert_allclose(homog(c.rotation, c.translation),
                                       oracle, atol=1e-12)

    def test_compose_with_inverse_is_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            e = random_extrinsics(rng)
            inv = invert_extrinsics(e)
            retagged = Extrinsics(inv.rotation, inv.translation, e.convention)
            ident = compose(e, retagged)
            np.testing.assert_allclose(ident.rotation, np.eye(3), atol=1e-12)
            np.testing.assert_allclose(ident.translation, 0.0, atol=1e-12)

    def test_compose_rejects_mixed_conventions(self):
        rng = np.random.default_rng(5)
        a = random_extrinsics(rng, Convention.WORLD_TO_CAMERA)
        b = random_extrinsics(rng, Convention.CAMERA_TO_WORLD)
        with pytest.raises(ConventionMismatch):
            compose(a, b)

    def test_as_convention_round_trip(self):
        rng = np.random.default_rng(17)
        e = random_extrinsics(rng)
        same = as_convention(e, e.convention)
        assert same is e
        flipped = as_convention(e, Convention.CAMERA_TO_WORLD)
        assert flipped.convention is Convention.CAMERA_TO_WORLD
        np.testing.assert_allclose(flipped.rotation, e.rotation.T, atol=1e-15)

    def test_compose_near_tolerance(self):
        # R.T @ R of the product deviates by 1.8e-6, past ORTHO_TOL, though
        # each factor passes; a derived map is not re-checked
        r = np.diag([1.00000045, 0.99999955, 1.0])
        e = Extrinsics(r, [1.0, 2.0, 3.0], Convention.WORLD_TO_CAMERA)
        c = compose(e, e)
        np.testing.assert_array_equal(c.rotation, r @ r)
        np.testing.assert_array_equal(c.translation, r @ e.translation + e.translation)

    def test_derived_from_near_tolerance_rotations(self):
        # R @ R.T and R.T @ R deviate differently, so an accepted R may have
        # an inverse (or a square) that the constructor would reject
        rng = np.random.default_rng(60)
        accepted = 0
        for _ in range(1000):
            r = random_rotation(rng) + rng.uniform(-6e-7, 6e-7, (3, 3))
            try:
                e = Extrinsics(r, rng.standard_normal(3), Convention.WORLD_TO_CAMERA)
            except RotationInvalid:
                continue
            accepted += 1
            inv = as_convention(e, Convention.CAMERA_TO_WORLD)
            assert inv.convention is Convention.CAMERA_TO_WORLD
            np.testing.assert_array_equal(inv.rotation, e.rotation.T)
            np.testing.assert_array_equal(inv.translation, -e.rotation.T @ e.translation)
            c = compose(e, e)
            np.testing.assert_array_equal(c.rotation, e.rotation @ e.rotation)
        assert accepted > 400

    def test_derived_arrays_copied_and_frozen(self):
        e = random_extrinsics(np.random.default_rng(61))
        for d in (invert_extrinsics(e), compose(e, e)):
            for a in (d.rotation, d.translation):
                assert not a.flags.writeable
                assert not np.shares_memory(a, e.rotation)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_compose_fails_typed(self):
        e = Extrinsics(np.eye(3), [1e308, 0.0, 0.0], Convention.WORLD_TO_CAMERA)
        with pytest.raises(CamTrajError, match="^array contains non-finite entries$"):
            compose(e, e)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_invert_fails_typed(self):
        c = math.sqrt(0.5)
        r = np.array([[c, -c, 0.0], [c, c, 0.0], [0.0, 0.0, 1.0]])
        e = Extrinsics(r, [1.5e308, 1.5e308, 0.0], Convention.CAMERA_TO_WORLD)
        with pytest.raises(CamTrajError, match="^array contains non-finite entries$"):
            invert_extrinsics(e)


class TestRotationAboutAxis:
    def test_zero_angle_is_identity(self):
        np.testing.assert_array_equal(rotation_about_axis([0, 0, 1], 0.0), np.eye(3))

    def test_quarter_turn_about_z(self):
        r = rotation_about_axis([0.0, 0.0, 1.0], math.pi / 2)
        np.testing.assert_allclose(r @ [1, 0, 0], [0, 1, 0], atol=1e-15)
        np.testing.assert_allclose(r @ [0, 1, 0], [-1, 0, 0], atol=1e-15)

    def test_matches_quaternion_construction(self):
        rng = np.random.default_rng(31)
        from util import quat_to_matrix, random_unit
        for _ in range(300):
            axis = random_unit(rng)
            angle = rng.uniform(-2 * math.pi, 2 * math.pi)
            q = np.array([math.cos(angle / 2), *(math.sin(angle / 2) * axis)])
            np.testing.assert_allclose(rotation_about_axis(axis, angle),
                                       quat_to_matrix(q), atol=1e-12)

    def test_rejects_non_unit_axis(self):
        with pytest.raises(NonUnitAxis):
            rotation_about_axis([1.0, 1.0, 0.0], 0.5)
        with pytest.raises(NonUnitAxis):
            rotation_about_axis([0.0, 0.0], 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_axis(self, bad):
        # NaN compares false both ways, so the norm test must not pass it
        for axis in ([bad, 0.0, 0.0], [0.0, 1.0, bad]):
            with pytest.raises(NonUnitAxis):
                rotation_about_axis(axis, 0.1)
            with pytest.raises(NonUnitDirection):
                unit_vector(axis, NonUnitDirection)


class TestOrthonormalize:
    def test_repairs_noisy_rotation(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            clean = random_rotation(rng)
            noisy = clean + 1e-4 * rng.standard_normal((3, 3))
            e = Extrinsics.__new__(Extrinsics)  # bypass validation to feed noise
            object.__setattr__(e, "rotation", noisy)
            object.__setattr__(e, "translation", np.zeros(3))
            object.__setattr__(e, "convention", Convention.WORLD_TO_CAMERA)
            fixed = orthonormalize(e)
            assert np.abs(fixed.rotation.T @ fixed.rotation - np.eye(3)).max() < 1e-12
            assert abs(np.linalg.det(fixed.rotation) - 1) < 1e-12
            assert np.abs(fixed.rotation - clean).max() < 1e-3

    def test_identity_fixed_point(self):
        e = Extrinsics.identity(Convention.WORLD_TO_CAMERA)
        fixed = orthonormalize(e)
        np.testing.assert_allclose(fixed.rotation, np.eye(3), atol=1e-15)


class TestTrajectory:
    def test_rejects_mixed_conventions(self):
        rng = np.random.default_rng(1)
        intr = Intrinsics(10, 10, 5, 5)
        a = CameraPose(intr, random_extrinsics(rng, Convention.WORLD_TO_CAMERA))
        b = CameraPose(intr, random_extrinsics(rng, Convention.CAMERA_TO_WORLD))
        with pytest.raises(ConventionMismatch):
            Trajectory((a, b), 10, 10)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Trajectory((), 10, 10)

    def test_rejects_bad_dims(self):
        rng = np.random.default_rng(2)
        p = CameraPose(Intrinsics(10, 10, 5, 5), random_extrinsics(rng))
        with pytest.raises(ValueError):
            Trajectory((p,), 0, 10)

    def test_poses_do_not_recheck_frames(self, monkeypatch):
        traj = random_trajectory(np.random.default_rng(4), 100)
        calls = []
        check = geometry.first_bad_frame
        monkeypatch.setattr(geometry, "first_bad_frame", lambda *a: calls.append(a) or check(*a))
        poses = traj.poses
        assert calls == []
        for i, p in enumerate(poses):
            assert p.intrinsics == Intrinsics(*traj.intrinsics[i])
            assert np.array_equal(p.extrinsics.rotation, traj.rotations[i])
            assert np.array_equal(p.extrinsics.translation, traj.translations[i])

    def test_faults_are_typed(self):
        rng = np.random.default_rng(3)
        p = CameraPose(Intrinsics(10, 10, 5, 5), random_extrinsics(rng))
        for make in (lambda: Trajectory((), 10, 10), lambda: Trajectory((p,), 0, 10),
                     lambda: Trajectory.from_arrays(np.eye(3), [0, 0, 0], [1, 1, 0, 0],
                                                    Convention.CAMERA_TO_WORLD, 4, 4)):
            with pytest.raises(CamTrajError):
                make()
        with pytest.raises(ShapeMismatch):
            Extrinsics(np.eye(2), np.zeros(3), Convention.WORLD_TO_CAMERA)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_rotation_fails_without_warning(self):
        r = np.tile(np.eye(3), (2, 1, 1))
        r[1, 0, 0] = 1e200
        i, part, err = first_bad_frame(r, np.zeros((2, 3)), np.empty((0, 4)))
        assert (i, part) == (1, "extrinsics")
        assert isinstance(err, RotationInvalid) and str(err).endswith("by inf")


class TestRelativize:
    def test_poses_of_near_tolerance_result(self):
        # each input rotation passes the 1e-6 check by a hair; the relative
        # ones do not, yet .poses wraps the derived frames without re-checking
        r = np.diag([1.00000045, 0.99999955, 1.0])
        traj = Trajectory.from_arrays(np.stack([r] * 3), np.eye(3), np.ones((3, 4)),
                                      Convention.CAMERA_TO_WORLD, 8, 8)
        rel = relativize(traj)
        poses = rel.poses
        assert len(poses) == 3
        for p, rot, t in zip(poses, rel.rotations, rel.translations):
            np.testing.assert_array_equal(p.extrinsics.rotation, rot)
            np.testing.assert_array_equal(p.extrinsics.translation, t)
            assert p.extrinsics.convention is Convention.CAMERA_TO_WORLD
            assert not p.extrinsics.rotation.flags.writeable

    def test_first_frame_exact_identity(self):
        rng = np.random.default_rng(50)
        for conv in Convention:
            rel = relativize(random_trajectory(rng, 6, conv))
            e0 = rel.poses[0].extrinsics
            assert np.array_equal(e0.rotation, np.eye(3))
            assert np.array_equal(e0.translation, np.zeros(3))
            assert rel.convention is conv

    def test_matches_matrix_oracle_w2c(self):
        rng = np.random.default_rng(51)
        traj = random_trajectory(rng, 8, Convention.WORLD_TO_CAMERA)
        rel = relativize(traj)
        e0 = homog(traj.poses[0].extrinsics.rotation, traj.poses[0].extrinsics.translation)
        inv0 = np.linalg.inv(e0)
        for p_in, p_out in zip(traj.poses, rel.poses):
            oracle = homog(p_in.extrinsics.rotation, p_in.extrinsics.translation) @ inv0
            got = homog(p_out.extrinsics.rotation, p_out.extrinsics.translation)
            np.testing.assert_allclose(got, oracle, atol=1e-10)

    def test_matches_matrix_oracle_c2w(self):
        # c2w relativization must agree with converting to w2c, relativizing
        # there, and converting back: E_rel_c2w = inv(E_w2c_i @ inv(E_w2c_0))
        rng = np.random.default_rng(52)
        traj = random_trajectory(rng, 8, Convention.CAMERA_TO_WORLD)
        rel = relativize(traj)
        mats = [np.linalg.inv(homog(p.extrinsics.rotation, p.extrinsics.translation))
                for p in traj.poses]  # w2c oracles
        inv0 = np.linalg.inv(mats[0])
        for m, p_out in zip(mats, rel.poses):
            oracle = np.linalg.inv(m @ inv0)
            got = homog(p_out.extrinsics.rotation, p_out.extrinsics.translation)
            np.testing.assert_allclose(got, oracle, atol=1e-10)

    def test_idempotent(self):
        rng = np.random.default_rng(53)
        for conv in Convention:
            rel = relativize(random_trajectory(rng, 5, conv))
            rel2 = relativize(rel)
            for a, b in zip(rel.poses, rel2.poses):
                np.testing.assert_allclose(b.extrinsics.rotation,
                                           a.extrinsics.rotation, atol=1e-12)
                np.testing.assert_allclose(b.extrinsics.translation,
                                           a.extrinsics.translation, atol=1e-12)

    def test_identity_first_frame_unchanged(self):
        rng = np.random.default_rng(54)
        for conv in Convention:
            intr = Intrinsics(10, 10, 5, 5)
            poses = [CameraPose(intr, Extrinsics.identity(conv))]
            poses += [CameraPose(intr, random_extrinsics(rng, conv)) for _ in range(4)]
            traj = Trajectory(tuple(poses), 10, 10)
            rel = relativize(traj)
            for a, b in zip(traj.poses, rel.poses):
                np.testing.assert_allclose(b.extrinsics.rotation,
                                           a.extrinsics.rotation, atol=1e-12)
                np.testing.assert_allclose(b.extrinsics.translation,
                                           a.extrinsics.translation, atol=1e-12)

    def test_preserves_intrinsics_and_dims(self):
        rng = np.random.default_rng(55)
        traj = random_trajectory(rng, 4)
        rel = relativize(traj)
        assert (rel.width, rel.height) == (traj.width, traj.height)
        for a, b in zip(traj.poses, rel.poses):
            assert a.intrinsics == b.intrinsics

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("conv", list(Convention))
    def test_overflowing_translation_fails_typed(self, conv):
        traj = Trajectory.from_arrays(np.tile(np.eye(3), (2, 1, 1)),
                                      [[-1e308, 0, 0], [1e308, 0, 0]], [[10, 10, 5, 5]] * 2,
                                      conv, 10, 10)
        with pytest.raises(CamTrajError, match="^array contains non-finite entries$"):
            relativize(traj)

    def test_result_wraps_source_intrinsics(self):
        traj = random_trajectory(np.random.default_rng(56), 3)
        rel = relativize(traj)
        assert rel.intrinsics is traj.intrinsics
        for a in (rel.rotations, rel.translations):
            assert not a.flags.writeable
