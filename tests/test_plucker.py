"""Plucker embeddings against independent unprojection oracles."""

import numpy as np
import pytest

from camtraj.geometry import CameraPose, Convention, Extrinsics, Intrinsics, Trajectory
from camtraj.plucker import (
    camera_center,
    plucker_map,
    plucker_sequence,
    ray_direction,
    verify_plucker,
)
from util import random_extrinsics, random_pose, random_trajectory


def center_oracle(e):
    """Independent center: solve the 4x4 system instead of the closed form."""
    m = np.eye(4)
    m[:3, :3] = e.rotation
    m[:3, 3] = e.translation
    if e.convention is Convention.CAMERA_TO_WORLD:
        m = np.linalg.inv(m)
    # center is the world point mapping to camera origin
    return np.linalg.solve(m, [0.0, 0.0, 0.0, 1.0])[:3]


def direction_oracle(pose, u, v, off):
    """Unproject a depth-1 point through generic 4x4 algebra and normalize."""
    k = pose.intrinsics.matrix()
    pc = np.linalg.solve(k, [u + off, v + off, 1.0])
    m = np.eye(4)
    m[:3, :3] = pose.extrinsics.rotation
    m[:3, 3] = pose.extrinsics.translation
    c2w = m if pose.extrinsics.convention is Convention.CAMERA_TO_WORLD else np.linalg.inv(m)
    pw = (c2w @ [*pc, 1.0])[:3]
    d = pw - c2w[:3, 3]
    return d / np.linalg.norm(d)


class TestCameraCenter:
    def test_matches_oracle_both_conventions(self):
        rng = np.random.default_rng(1)
        for conv in Convention:
            for _ in range(200):
                e = random_extrinsics(rng, conv)
                np.testing.assert_allclose(camera_center(e), center_oracle(e),
                                           atol=1e-10)

    def test_w2c_maps_center_to_origin(self):
        rng = np.random.default_rng(2)
        e = random_extrinsics(rng, Convention.WORLD_TO_CAMERA)
        c = camera_center(e)
        np.testing.assert_allclose(e.rotation @ c + e.translation, 0.0, atol=1e-12)


class TestRayDirection:
    def test_identity_corner_origin(self):
        pose = CameraPose(Intrinsics(2.0, 2.0, 0.0, 0.0),
                          Extrinsics.identity(Convention.CAMERA_TO_WORLD))
        np.testing.assert_array_equal(ray_direction(pose, 0.0, 0.0, "corner"),
                                      [0.0, 0.0, 1.0])

    def test_principal_point_looks_along_view_axis(self):
        rng = np.random.default_rng(3)
        pose = random_pose(rng, Convention.WORLD_TO_CAMERA)
        intr = pose.intrinsics
        d = ray_direction(pose, intr.cx, intr.cy, "corner")
        view = pose.extrinsics.rotation.T @ [0.0, 0.0, 1.0]
        np.testing.assert_allclose(d, view, atol=1e-12)

    def test_matches_unprojection_oracle(self):
        rng = np.random.default_rng(4)
        for conv in Convention:
            for _ in range(100):
                pose = random_pose(rng, conv)
                u, v = rng.uniform(0, 64), rng.uniform(0, 48)
                for origin, off in (("center", 0.5), ("corner", 0.0)):
                    got = ray_direction(pose, u, v, origin)
                    np.testing.assert_allclose(
                        got, direction_oracle(pose, u, v, off), atol=1e-9)

    def test_rejects_unknown_origin(self):
        pose = random_pose(np.random.default_rng(0))
        with pytest.raises(ValueError):
            ray_direction(pose, 0, 0, "middle")


class TestPluckerMap:
    def test_shape_and_dtype(self):
        pose = random_pose(np.random.default_rng(5))
        m = plucker_map(pose, 64, 48)
        assert m.shape == (6, 48, 64)
        assert m.dtype == np.float32

    def test_channels_match_per_pixel_oracle(self):
        rng = np.random.default_rng(6)
        for conv in Convention:
            pose = random_pose(rng, conv)
            pmap = plucker_map(pose, 16, 12)
            o = center_oracle(pose.extrinsics)
            for _ in range(25):
                u = int(rng.integers(0, 16))
                v = int(rng.integers(0, 12))
                d = direction_oracle(pose, u, v, 0.5)
                np.testing.assert_allclose(pmap[3:6, v, u], d, atol=1e-6)
                np.testing.assert_allclose(pmap[0:3, v, u], np.cross(o, d), atol=1e-6)

    def test_invariants_random_poses(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            pose = random_pose(rng)
            report = verify_plucker(plucker_map(pose, 32, 24))
            assert report["ok"], report

    def test_origin_shift_leaves_moments(self):
        # moments are origin-independent along the ray: (o + t*d) x d == o x d
        rng = np.random.default_rng(8)
        pose = random_pose(rng)
        pmap = np.asarray(plucker_map(pose, 16, 12), dtype=np.float64)
        o = center_oracle(pose.extrinsics)
        d = np.moveaxis(pmap[3:6], 0, -1)
        for lam in (0.5, -2.0, 10.0):
            shifted = np.cross(o + lam * d, d)
            np.testing.assert_allclose(np.moveaxis(pmap[0:3], 0, -1), shifted,
                                       atol=1e-6)

    def test_identity_pose_zero_moments(self):
        pose = CameraPose(Intrinsics(10, 10, 8, 6),
                          Extrinsics.identity(Convention.WORLD_TO_CAMERA))
        pmap = plucker_map(pose, 16, 12)
        assert np.abs(pmap[0:3]).max() == 0.0

    def test_horizontal_flip_permutes_channels(self):
        # mirroring the scene across x (M = diag(-1,1,1)) with mirrored
        # intrinsics cx' = w - cx flips the image left-right; moments pick up
        # (+,-,-), directions (-,+,+) relative to the column-reversed original
        rng = np.random.default_rng(9)
        mirror = np.diag([-1.0, 1.0, 1.0])
        w, h = 16, 12
        for _ in range(20):
            pose = random_pose(rng, Convention.WORLD_TO_CAMERA, w, h)
            e = pose.extrinsics
            intr = pose.intrinsics
            mirrored = CameraPose(
                Intrinsics(intr.fx, intr.fy, w - intr.cx, intr.cy),
                Extrinsics(mirror @ e.rotation @ mirror, mirror @ e.translation,
                           e.convention))
            a = np.asarray(plucker_map(pose, w, h), dtype=np.float64)
            b = np.asarray(plucker_map(mirrored, w, h), dtype=np.float64)
            flipped = a[:, :, ::-1]
            signs = np.array([1.0, -1.0, -1.0, -1.0, 1.0, 1.0])
            np.testing.assert_allclose(b, signs[:, None, None] * flipped, atol=1e-9)


class TestPluckerSequence:
    def test_stacks_per_frame_maps(self):
        rng = np.random.default_rng(10)
        traj = random_trajectory(rng, 5, width=16, height=12)
        seq = plucker_sequence(traj)
        assert seq.shape == (5, 6, 12, 16)
        for i, pose in enumerate(traj.poses):
            np.testing.assert_array_equal(seq[i], plucker_map(pose, 16, 12))

    def test_pixel_origin_changes_values(self):
        rng = np.random.default_rng(12)
        traj = random_trajectory(rng, 2, width=16, height=12)
        a = plucker_sequence(traj, pixel_origin="center")
        b = plucker_sequence(traj, pixel_origin="corner")
        assert np.abs(a - b).max() > 0

    def test_reference_configuration_shapes(self):
        rng = np.random.default_rng(13)
        t2v = random_trajectory(rng, 16, width=384, height=256)
        assert plucker_sequence(t2v).shape == (16, 6, 256, 384)
        i2v = random_trajectory(rng, 14, width=576, height=320)
        assert plucker_sequence(i2v).shape == (14, 6, 320, 576)


class TestVerify:
    def test_rejects_wrong_channel_count(self):
        with pytest.raises(ValueError):
            verify_plucker(np.zeros((4, 8, 8), dtype=np.float32))

    def test_flags_broken_norms(self):
        rng = np.random.default_rng(14)
        pmap = plucker_map(random_pose(rng), 8, 8).copy()
        pmap[3:6] *= 2.0
        assert not verify_plucker(pmap)["ok"]
