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
    convert_extrinsics,
    first_bad_frame,
    relativize,
    rotation_about_axis,
    unit_vector,
)
from util import compose_rt, random_extrinsics, random_rotation, random_trajectory

W2C, C2W = Convention.WORLD_TO_CAMERA, Convention.CAMERA_TO_WORLD


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
    """Inversion is convert_extrinsics between conventions; composition with an
    inverse is what relativize does to every frame."""

    def test_invert_round_trip(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            e = random_extrinsics(rng)
            back = convert_extrinsics(*convert_extrinsics(e.rotation, e.translation, W2C, C2W),
                                      C2W, W2C)
            np.testing.assert_allclose(back[0], e.rotation, atol=1e-12)
            np.testing.assert_allclose(back[1], e.translation, atol=1e-12)

    def test_invert_matches_matrix_inverse(self):
        rng = np.random.default_rng(7)
        es = [random_extrinsics(rng) for _ in range(200)]
        r, t = convert_extrinsics(np.array([e.rotation for e in es]),
                                  np.array([e.translation for e in es]), W2C, C2W)
        for e, ri, ti in zip(es, r, t):
            oracle = np.linalg.inv(homog(e.rotation, e.translation))
            np.testing.assert_allclose(homog(ri, ti), oracle, atol=1e-10)

    def test_invert_flips_tag(self):
        # the converted arrays tagged c2w map each camera's points back to the world
        rng = np.random.default_rng(0)
        traj = random_trajectory(rng, 8, W2C)
        flipped = Trajectory.from_arrays(
            *convert_extrinsics(traj.rotations, traj.translations, W2C, C2W),
            traj.intrinsics, C2W, traj.width, traj.height)
        x = rng.standard_normal(3)
        for a, b in zip(traj.poses, flipped.poses):
            assert b.extrinsics.convention is C2W
            cam = a.extrinsics.rotation @ x + a.extrinsics.translation
            np.testing.assert_allclose(b.extrinsics.rotation @ cam + b.extrinsics.translation,
                                       x, atol=1e-12)

    def test_compose_matches_matrix_product(self):
        # the (R, t) reference the property tests compose with
        rng = np.random.default_rng(13)
        for _ in range(200):
            a = random_extrinsics(rng)
            b = random_extrinsics(rng)
            c = compose_rt((a.rotation, a.translation), (b.rotation, b.translation))
            oracle = homog(a.rotation, a.translation) @ homog(b.rotation, b.translation)
            np.testing.assert_allclose(homog(*c), oracle, atol=1e-12)

    def test_compose_with_inverse_is_identity(self):
        rng = np.random.default_rng(21)
        for conv in Convention:
            for _ in range(100):
                e = random_extrinsics(rng, conv)
                traj = Trajectory.from_arrays([e.rotation] * 2, [e.translation] * 2,
                                              [[10, 10, 5, 5]] * 2, conv, 10, 10)
                rel = relativize(traj)
                np.testing.assert_allclose(rel.rotations[1], np.eye(3), atol=1e-12)
                np.testing.assert_allclose(rel.translations[1], 0.0, atol=1e-12)

    def test_as_convention_round_trip(self):
        rng = np.random.default_rng(17)
        e = random_extrinsics(rng)
        r, t = convert_extrinsics(e.rotation, e.translation, W2C, W2C)
        assert r is e.rotation and t is e.translation
        flipped, _ = convert_extrinsics(e.rotation, e.translation, W2C, C2W)
        np.testing.assert_allclose(flipped, e.rotation.T, atol=1e-15)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("src, dst", [(W2C, C2W), (C2W, W2C)])
    def test_overflowing_invert_names_frame(self, src, dst):
        # only frame 1's inverse, -R.T @ t of a 45-degree turn, overflows
        c = math.sqrt(0.5)
        r = np.array([np.eye(3), [[c, -c, 0.0], [c, c, 0.0], [0.0, 0.0, 1.0]], np.eye(3)])
        t = np.array([[1e308, 0.0, 0.0], [1.5e308, 1.5e308, 0.0], [0.0, -1e308, 0.0]])
        with pytest.raises(CamTrajError, match="^frame 1: translation overflows float64$"):
            convert_extrinsics(r, t, src, dst)

    def test_compose_near_tolerance(self):
        # R.T @ R of the relative rotation deviates by 1.8e-6, past ORTHO_TOL,
        # though each frame passes; a derived trajectory is not re-checked
        r = np.diag([1.00000045, 0.99999955, 1.0])
        a, b = np.array([1.0, 2.0, 3.0]), np.array([-2.0, 0.5, 1.0])
        traj = Trajectory.from_arrays([r, r], [a, b], [[10, 10, 5, 5]] * 2, W2C, 10, 10)
        rel = relativize(traj)
        np.testing.assert_array_equal(rel.rotations[1], r @ r)
        np.testing.assert_array_equal(rel.translations[1], r @ (-r @ a) + b)

    def test_derived_from_near_tolerance_rotations(self):
        # R @ R.T and R.T @ R deviate differently, so an accepted R may have
        # an inverse (or a product with one) that the constructor would reject
        rng = np.random.default_rng(60)
        accepted = 0
        for _ in range(1000):
            r = random_rotation(rng) + rng.uniform(-6e-7, 6e-7, (3, 3))
            try:
                e = Extrinsics(r, rng.standard_normal(3), W2C)
            except RotationInvalid:
                continue
            accepted += 1
            inv_r, inv_t = convert_extrinsics(e.rotation, e.translation, W2C, C2W)
            np.testing.assert_array_equal(inv_r, e.rotation.T)
            np.testing.assert_array_equal(inv_t, -e.rotation.T @ e.translation)
            traj = Trajectory.from_arrays([e.rotation] * 2, [e.translation] * 2,
                                          [[10, 10, 5, 5]] * 2, W2C, 10, 10)
            np.testing.assert_array_equal(relativize(traj).rotations[1],
                                          e.rotation @ e.rotation.T)
        assert accepted > 400

    def test_derived_arrays_copied_and_frozen(self):
        for conv in Convention:
            traj = random_trajectory(np.random.default_rng(61), 4, conv)
            rel = relativize(traj)
            for a in (rel.rotations, rel.translations):
                assert not a.flags.writeable
                assert not np.shares_memory(a, traj.rotations)
                assert not np.shares_memory(a, traj.translations)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_compose_fails_typed(self):
        # frame 1 composed with frame 0's inverse overflows; each alone is finite
        c = math.sqrt(0.5)
        r = np.array([[c, -c, 0.0], [c, c, 0.0], [0.0, 0.0, 1.0]])
        traj = Trajectory.from_arrays([np.eye(3), r], [[-1.2e308, 0.0, 0.0], [1.2e308] * 3],
                                      [[10, 10, 5, 5]] * 2, W2C, 10, 10)
        with pytest.raises(CamTrajError, match="^frame 1: translation overflows float64$"):
            relativize(traj)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_invert_fails_typed(self):
        # frame 0's c2w -> w2c inverse overflows inside relativize; it is named,
        # though relativize then sets frame 0 to the identity
        c = math.sqrt(0.5)
        r = np.array([[c, -c, 0.0], [c, c, 0.0], [0.0, 0.0, 1.0]])
        traj = Trajectory.from_arrays([r, np.eye(3)], [[1.5e308, 1.5e308, 0.0], [0.0] * 3],
                                      [[10, 10, 5, 5]] * 2, C2W, 10, 10)
        with pytest.raises(CamTrajError, match="^frame 0: translation overflows float64$"):
            relativize(traj)


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
        with pytest.raises(CamTrajError, match="^frame 1: translation overflows float64$"):
            relativize(traj)

    def test_result_wraps_source_intrinsics(self):
        traj = random_trajectory(np.random.default_rng(56), 3)
        rel = relativize(traj)
        assert rel.intrinsics is traj.intrinsics
        for a in (rel.rotations, rel.translations):
            assert not a.flags.writeable
