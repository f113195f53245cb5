"""Plucker embeddings against independent unprojection oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camtraj.errors import CamTrajError, ShapeMismatch
from camtraj.geometry import (
    CameraPose,
    Convention,
    Extrinsics,
    Intrinsics,
    Trajectory,
    convert_extrinsics,
)
from camtraj.plucker import (
    VERIFY_TOL,
    _fill_map,
    camera_center,
    plucker_sequence,
    ray_direction,
    verify_plucker,
)
from util import (plucker_frame, quat_to_matrix, random_extrinsics, random_pose,
                  random_trajectory)


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

    @pytest.mark.filterwarnings("error")
    def test_overflowing_center_fails_typed(self):
        # -R.T @ t of a 45-degree turn sums two 1.06e308 terms
        c = math.sqrt(0.5)
        e = Extrinsics([[c, -c, 0.0], [c, c, 0.0], [0.0, 0.0, 1.0]], [1.5e308, 1.5e308, 0.0],
                       Convention.WORLD_TO_CAMERA)
        with pytest.raises(CamTrajError, match="^frame 0: camera center overflows float64$"):
            camera_center(e)
        with pytest.raises(CamTrajError, match="^frame 0: camera center overflows float64$"):
            ray_direction(CameraPose(Intrinsics(8.0, 8.0, 4.0, 4.0), e), 0, 0)


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

    @pytest.mark.parametrize("intr", [(1e-320, 8.0, 8.0, 4.0), (8.0, 8.0, 1e308, 4.0)])
    def test_out_of_float_range_is_typed(self, intr):
        pose = CameraPose(Intrinsics(*intr), Extrinsics.identity(Convention.CAMERA_TO_WORLD))
        with pytest.raises(CamTrajError, match="^Plucker map out of float range: "):
            ray_direction(pose, 0, 0)
        with pytest.raises(CamTrajError, match="^frame 0: Plucker map out of float range: "):
            plucker_frame(pose, 16, 8)


class TestPluckerMap:
    def test_shape_and_dtype(self):
        pose = random_pose(np.random.default_rng(5))
        m = plucker_frame(pose, 64, 48)
        assert m.shape == (6, 48, 64)
        assert m.dtype == np.float32

    def test_channels_match_per_pixel_oracle(self):
        rng = np.random.default_rng(6)
        for conv in Convention:
            pose = random_pose(rng, conv)
            pmap = plucker_frame(pose, 16, 12)
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
            report = verify_plucker(plucker_frame(pose, 32, 24))
            assert report["ok"], report

    def test_origin_shift_leaves_moments(self):
        # moments are origin-independent along the ray: (o + t*d) x d == o x d
        rng = np.random.default_rng(8)
        pose = random_pose(rng)
        pmap = np.asarray(plucker_frame(pose, 16, 12), dtype=np.float64)
        o = center_oracle(pose.extrinsics)
        d = np.moveaxis(pmap[3:6], 0, -1)
        for lam in (0.5, -2.0, 10.0):
            shifted = np.cross(o + lam * d, d)
            np.testing.assert_allclose(np.moveaxis(pmap[0:3], 0, -1), shifted,
                                       atol=1e-6)

    def test_identity_pose_zero_moments(self):
        pose = CameraPose(Intrinsics(10, 10, 8, 6),
                          Extrinsics.identity(Convention.WORLD_TO_CAMERA))
        pmap = plucker_frame(pose, 16, 12)
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
            a = np.asarray(plucker_frame(pose, w, h), dtype=np.float64)
            b = np.asarray(plucker_frame(mirrored, w, h), dtype=np.float64)
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
            np.testing.assert_array_equal(seq[i], plucker_frame(pose, 16, 12))

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


    def test_size_past_numpy_limit_is_typed(self):
        traj = random_trajectory(np.random.default_rng(15), 2, width=8, height=6)
        wide = Trajectory.from_arrays(traj.rotations, traj.translations, traj.intrinsics,
                                      traj.convention, 10 ** 30, 6)
        with pytest.raises(CamTrajError, match=r"^cannot allocate a float32 embedding of shape "
                                               r"\(2, 6, 6, 10{30}\)$"):
            plucker_sequence(wide)

    def test_memory_error_is_typed(self, monkeypatch):
        traj = random_trajectory(np.random.default_rng(16), 1, width=8, height=6)

        def no_memory(shape, dtype):
            raise MemoryError(f"cannot allocate {shape}")

        monkeypatch.setattr(np, "empty", no_memory)
        with pytest.raises(CamTrajError, match=r"shape \(1, 6, 6, 8\)$"):
            plucker_sequence(traj)


class TestVerify:
    def test_rejects_wrong_channel_count(self):
        with pytest.raises(ValueError):
            verify_plucker(np.zeros((4, 8, 8), dtype=np.float32))

    def test_flags_broken_norms(self):
        rng = np.random.default_rng(14)
        pmap = plucker_frame(random_pose(rng), 8, 8).copy()
        pmap[3:6] *= 2.0
        assert not verify_plucker(pmap)["ok"]

    @staticmethod
    def far_trajectory(rng, distance):
        traj = random_trajectory(rng, 4, Convention.CAMERA_TO_WORLD, width=24, height=16)
        return Trajectory.from_arrays(traj.rotations, distance * traj.translations,
                                      traj.intrinsics, traj.convention, 24, 16)

    def test_accepts_far_camera_centers(self):
        # float32 rounding of m leaves |m . d| near 2e-7 * |m| on a valid map
        seq = plucker_sequence(self.far_trajectory(np.random.default_rng(26), 200.0))
        m, d = seq[:, 0:3].astype(np.float64), seq[:, 3:6].astype(np.float64)
        assert np.abs((m * d).sum(axis=1)).max() > VERIFY_TOL  # an absolute bound fails it
        assert verify_plucker(seq)["ok"]

    @pytest.mark.parametrize("distance", [0.01, 200.0])
    def test_flags_moment_along_direction(self, distance):
        seq = plucker_sequence(self.far_trajectory(np.random.default_rng(27), distance))
        for frame, y, x in ((0, 0, 0), (3, 9, 17)):
            bad = seq.astype(np.float64)
            m, d = bad[frame, 0:3, y, x], bad[frame, 3:6, y, x]
            m += 1.5 * VERIFY_TOL * max(1.0, float(np.linalg.norm(m))) * d
            assert not verify_plucker(bad)["ok"]


# --- the pixel-major formulas the planar kernel and frame-by-frame check replace

def pixel_major_sequence(traj, off, dtype=np.float32):
    """(n, 6, h, w) maps from the (h, w, 3) matmul / norm / cross formula."""
    r, c = convert_extrinsics(traj.rotations, traj.translations, traj.convention,
                              Convention.CAMERA_TO_WORLD)
    out = np.empty((len(traj), 6, traj.height, traj.width), dtype=dtype)
    for i, (fx, fy, cx, cy) in enumerate(traj.intrinsics):
        u = (np.arange(traj.width, dtype=np.float64) + off - cx) / fx
        v = (np.arange(traj.height, dtype=np.float64) + off - cy) / fy
        d_cam = np.empty((traj.height, traj.width, 3))
        d_cam[..., 0] = u[None, :]
        d_cam[..., 1] = v[:, None]
        d_cam[..., 2] = 1.0
        d_world = d_cam @ r[i].T
        d_world /= np.linalg.norm(d_world, axis=-1, keepdims=True)
        m = np.cross(np.broadcast_to(c[i], d_world.shape), d_world)
        out[i, 0:3] = np.moveaxis(m, -1, 0)
        out[i, 3:6] = np.moveaxis(d_world, -1, 0)
    return out


def whole_array_verify(arr, tol=1e-6):
    """verify_plucker as one float64 cast of the whole array."""
    a = np.asarray(arr, dtype=np.float64)
    if a.ndim < 3 or a.shape[-3] != 6:
        raise ValueError(f"expected (..., 6, h, w) array, got shape {a.shape}")
    m = np.moveaxis(a[..., 0:3, :, :], -3, -1)
    d = np.moveaxis(a[..., 3:6, :, :], -3, -1)
    norm_dev = float(np.abs(np.linalg.norm(d, axis=-1) - 1.0).max())
    m_norm = np.maximum(np.linalg.norm(m, axis=-1), 1.0)
    dot_dev = float(np.abs((m * d).sum(axis=-1) / m_norm).max())
    return {"direction_norm": norm_dev, "moment_dot": dot_dev,
            "ok": norm_dev < tol and dot_dev < tol}


def same_report(a, b):
    """Equal floats, NaN equal to NaN."""
    return a.keys() == b.keys() and all(
        a[k] == b[k] or (isinstance(a[k], float) and math.isnan(a[k]) and math.isnan(b[k]))
        for k in a)


checked = settings(max_examples=40, deadline=None, derandomize=True)
quats = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
    lambda q: sum(v * v for v in q) > 0.01)
coords = st.floats(-100.0, 100.0, allow_nan=False)


@st.composite
def small_trajectories(draw):
    n = draw(st.integers(1, 3))
    width, height = draw(st.integers(1, 41)), draw(st.integers(1, 31))
    q = np.array(draw(st.lists(quats, min_size=n, max_size=n)))
    r = np.array([quat_to_matrix(v / np.linalg.norm(v)) for v in q])
    t = draw(st.lists(st.tuples(coords, coords, coords), min_size=n, max_size=n))
    k = draw(st.lists(st.tuples(st.floats(0.5, 5000.0), st.floats(0.5, 5000.0),
                                coords, coords), min_size=n, max_size=n))
    return Trajectory.from_arrays(r, t, k, draw(st.sampled_from(Convention)), width, height)


class TestPlanarKernel:
    @checked
    @given(small_trajectories(), st.sampled_from([("center", 0.5), ("corner", 0.0)]))
    def test_bit_exact_against_pixel_major_formula(self, traj, origin):
        name, off = origin
        seq = plucker_sequence(traj, pixel_origin=name)
        assert seq.tobytes() == pixel_major_sequence(traj, off).tobytes()
        for i, pose in enumerate(traj.poses):
            assert plucker_frame(pose, traj.width, traj.height, name).tobytes() == seq[i].tobytes()

    @staticmethod
    def float64_planes(traj, off):
        # float32 output hides most 1-ulp float64 differences; filling a
        # float64 map shows every one
        r, c = convert_extrinsics(traj.rotations, traj.translations, traj.convention,
                                  Convention.CAMERA_TO_WORLD)
        out = np.empty((len(traj), 6, traj.height, traj.width))
        for i in range(len(traj)):
            _fill_map(out[i], traj.intrinsics[i], r[i], c[i], off)
        return out

    @checked
    @given(small_trajectories())
    def test_float64_planes_bit_exact(self, traj):
        got = self.float64_planes(traj, 0.5)
        assert got.tobytes() == pixel_major_sequence(traj, 0.5, np.float64).tobytes()

    def test_bit_exact_at_clip_size(self):
        rng = np.random.default_rng(20)
        for conv in Convention:
            traj = random_trajectory(rng, 2, conv, width=385, height=257)
            assert (plucker_sequence(traj).tobytes()
                    == pixel_major_sequence(traj, 0.5).tobytes())
            assert (self.float64_planes(traj, 0.0).tobytes()
                    == pixel_major_sequence(traj, 0.0, np.float64).tobytes())


class TestRayDirectionKernel:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(small_trajectories(), st.sampled_from([("center", 0.5), ("corner", 0.0)]),
           st.data())
    def test_runs_the_map_kernel(self, traj, origin, data):
        # at integer pixels, the float64 map's direction, up to a rounding of the
        # principal point shift and BLAS's choice of kernel for one column
        name, off = origin
        planes = TestPlanarKernel.float64_planes(traj, off)
        for i, pose in enumerate(traj.poses):
            u = data.draw(st.integers(0, traj.width - 1))
            v = data.draw(st.integers(0, traj.height - 1))
            np.testing.assert_allclose(ray_direction(pose, u, v, name), planes[i, 3:6, v, u],
                                       rtol=0, atol=1e-15)


class TestVerifyFrameByFrame:
    @pytest.mark.parametrize("shape", [(6, 5, 7), (3, 6, 5, 7), (2, 3, 6, 4, 9),
                                       (2, 6, 300, 120)])  # the last: three blocks of rows
    def test_equals_whole_array_formula(self, shape):
        rng = np.random.default_rng(21)
        x = rng.standard_normal(shape).astype(np.float32)
        views = (x, x.astype(np.float64), x[..., ::2], np.swapaxes(x, -1, -2),
                 x[..., ::-1, :])
        for arr in views:
            assert verify_plucker(arr) == whole_array_verify(arr)

    def test_equals_whole_array_formula_on_real_maps(self):
        rng = np.random.default_rng(22)
        seq = plucker_sequence(random_trajectory(rng, 4, width=24, height=16))
        report = verify_plucker(seq)
        assert report["ok"] and report == whole_array_verify(seq)
        assert verify_plucker(seq[:, :, ::3]) == whole_array_verify(seq[:, :, ::3])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("frame", [0, 2, -1])
    def test_non_finite_in_any_frame_fails(self, bad, frame):
        rng = np.random.default_rng(23)
        seq = plucker_sequence(random_trajectory(rng, 5, width=8, height=6))
        seq[frame, 4, 5, 7] = bad
        report = verify_plucker(seq)
        assert report["ok"] is False
        assert same_report(report, whole_array_verify(seq))

    def test_nan_moment_in_last_frame_fails(self):
        rng = np.random.default_rng(24)
        seq = plucker_sequence(random_trajectory(rng, 3, width=8, height=6))
        seq[-1, 1, -1, -1] = np.nan
        report = verify_plucker(seq)
        assert report["ok"] is False and math.isnan(report["moment_dot"])

    @pytest.mark.parametrize("shape", [(0, 6, 4, 4), (6, 0, 4), (2, 6, 4, 0), (2, 0, 6, 3, 3)])
    def test_zero_size_raises_like_whole_array_formula(self, shape):
        # both raise a ValueError; verify_plucker's is typed and names the shape
        arr = np.zeros(shape, dtype=np.float32)
        with pytest.raises(ValueError):
            whole_array_verify(arr)
        with pytest.raises(ShapeMismatch) as got:
            verify_plucker(arr)
        assert str(got.value) == f"expected non-empty (..., 6, h, w) array, got shape {shape}"

    def test_memory_peak_is_a_few_frames(self):
        h, w = 96, 128
        arr = np.random.default_rng(25).standard_normal((8, 6, h, w)).astype(np.float32)
        frame_f64 = 6 * h * w * 8
        tracemalloc.start()
        try:
            verify_plucker(arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * frame_f64  # the whole array in float64 is 8 frames
