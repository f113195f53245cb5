"""Property tests for the array-backed Trajectory and for synthesis plans
(Hypothesis)."""

import json
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from camtraj.errors import CamTrajError
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
    relativize,
    rotation_about_axis,
)
from camtraj.metrics import BASELINE_EPS, evaluate, rot_err, trans_err
from camtraj.pose_io import parse_trajectory_spec, trajectory_from_json, trajectory_to_json
from camtraj.synth import (
    MotionDirective,
    MotionKind,
    compose_motions,
    scale_intensity,
    synthesize,
)
from util import quat_to_matrix, random_unit

W2C, C2W = Convention.WORLD_TO_CAMERA, Convention.CAMERA_TO_WORLD
# derandomized so a tier-1 run is reproducible; raise max_examples to explore
checked = settings(max_examples=60, deadline=None, derandomize=True)
mutated = settings(max_examples=300, deadline=None, derandomize=True)

coords = st.floats(-100.0, 100.0, allow_nan=False)
quats = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
    lambda q: sum(v * v for v in q) > 0.01)
frames = st.tuples(
    quats,
    st.tuples(coords, coords, coords),
    st.tuples(st.floats(1.0, 5000.0), st.floats(1.0, 5000.0), coords, coords),
)


@st.composite
def trajectories(draw, min_frames=1):
    rows = draw(st.lists(frames, min_size=min_frames, max_size=12))
    q = np.array([r[0] for r in rows])
    r = np.array([quat_to_matrix(v / np.linalg.norm(v)) for v in q])
    return Trajectory.from_arrays(r, [row[1] for row in rows], [row[2] for row in rows],
                                  draw(st.sampled_from(Convention)),
                                  draw(st.integers(1, 4096)), draw(st.integers(1, 4096)))


@checked
@given(trajectories())
def test_json_round_trip_is_exact(traj):
    back = trajectory_from_json(trajectory_to_json(traj))
    assert back.convention is traj.convention
    assert (back.width, back.height) == (traj.width, traj.height)
    for name in ("rotations", "translations", "intrinsics"):
        assert getattr(back, name).tobytes() == getattr(traj, name).tobytes()


@checked
@given(trajectories())
def test_relativize_idempotent_with_identity_first_frame(traj):
    rel = relativize(traj)
    assert rel.convention is traj.convention
    assert np.array_equal(rel.rotations[0], np.eye(3))
    assert np.array_equal(rel.translations[0], np.zeros(3))
    assert np.array_equal(rel.intrinsics, traj.intrinsics)
    again = relativize(rel)
    # w2c re-relativizes against an exact identity; c2w round-trips through
    # w2c, so it agrees up to roundoff on translations of magnitude ~100
    np.testing.assert_allclose(again.rotations, rel.rotations, rtol=0, atol=1e-12)
    np.testing.assert_allclose(again.translations, rel.translations, rtol=0, atol=1e-10)
    if traj.convention is Convention.WORLD_TO_CAMERA:
        assert np.array_equal(again.rotations, rel.rotations)
        assert np.array_equal(again.translations, rel.translations)


@checked
@given(trajectories(min_frames=2))
def test_evaluate_against_itself_is_zero(traj):
    rel = relativize(traj)
    assume(np.linalg.norm(rel.translations[1]) > 1e3 * BASELINE_EPS)
    report = evaluate(traj, traj)
    assert report.rescale_factor == 1.0
    assert report.trans_err_total == 0.0
    assert report.trans_err_unsquared_total == 0.0
    assert 0.0 <= report.rot_err_total < 1e-9
    assert report.frames_compared == len(traj)


@checked
@given(st.lists(st.tuples(quats, st.tuples(coords, coords, coords)), min_size=2, max_size=12),
       st.sampled_from(Convention))
def test_six_decimal_poses_score_zero_against_themselves(rows, convention):
    # RealEstate10K camera files print poses to six decimals, so a rotation
    # may pass the orthonormality check by a hair; a product of two such
    # rotations can miss it, and evaluate must not re-check what it computes
    r = np.round([quat_to_matrix(np.array(q) / np.linalg.norm(q)) for q, _ in rows], 6)
    t = np.round([row[1] for row in rows], 6)
    keep = [i for i in range(len(rows))
            if first_bad_frame(r[i:i + 1], t[i:i + 1], np.empty((0, 4))) is None]
    assume(len(keep) >= 2)
    traj = Trajectory.from_arrays(r[keep], t[keep], [[500.0, 500.0, 320.0, 240.0]] * len(keep),
                                  convention, 640, 480)
    assume(np.linalg.norm(relativize(traj).translations[1]) > 1e3 * BASELINE_EPS)
    report = evaluate(traj, traj)
    assert (report.rot_err_total, report.trans_err_total) == (0.0, 0.0)


@checked
@given(trajectories())
def test_pose_constructor_agrees_with_array_constructor(traj):
    poses = tuple(CameraPose(Intrinsics(*k), Extrinsics(r, t, traj.convention))
                  for k, r, t in zip(traj.intrinsics.tolist(), traj.rotations,
                                     traj.translations))
    stacked = Trajectory(poses, traj.width, traj.height)
    assert stacked.convention is traj.convention
    assert (stacked.width, stacked.height, len(stacked)) == (traj.width, traj.height, len(traj))
    for name in ("rotations", "translations", "intrinsics"):
        assert np.array_equal(getattr(stacked, name), getattr(traj, name))
    for a, b in zip(stacked.poses, poses):
        assert a.intrinsics == b.intrinsics
        assert np.array_equal(a.extrinsics.rotation, b.extrinsics.rotation)
        assert np.array_equal(a.extrinsics.translation, b.extrinsics.translation)


# --- per-frame references -----------------------------------------------------
# The array code keeps the arithmetic of the per-frame Extrinsics operations,
# so it must agree with these loops bit for bit (rotation angles excepted:
# np.arctan2 may differ from math.atan2 in the last bit).

def loop_relativize(traj):
    w2c = [as_convention(p.extrinsics, W2C) for p in traj.poses]
    inv0 = invert_extrinsics(w2c[0])
    base = Extrinsics(inv0.rotation, inv0.translation, W2C)
    return [as_convention(compose(e, base), traj.convention) for e in w2c]


@checked
@given(trajectories())
def test_relativize_matches_per_frame_loop(traj):
    rel = relativize(traj)
    for i, e in enumerate(loop_relativize(traj)[1:], start=1):
        assert np.array_equal(rel.rotations[i], e.rotation)
        assert np.array_equal(rel.translations[i], e.translation)


@checked
@given(trajectories(), trajectories())
def test_errors_match_per_frame_loop(a, b):
    n = min(len(a), len(b))
    gt = Trajectory(a.poses[:n], a.width, a.height)
    gen = Trajectory(b.poses[:n], b.width, b.height)
    total, per = trans_err(gt, gen)
    ref = [float(d @ d) for d in gt.translations - gen.translations]
    assert per == ref and total == math.fsum(ref)
    _, per = rot_err(gt, gen)
    for got, p, q in zip(per, gt.poses, gen.poses):
        m = q.extrinsics.rotation @ p.extrinsics.rotation.T
        cos = (float(np.trace(m)) - 1.0) / 2.0
        sin = 0.5 * float(np.sqrt((m[2, 1] - m[1, 2]) ** 2 + (m[0, 2] - m[2, 0]) ** 2
                                  + (m[1, 0] - m[0, 1]) ** 2))
        assert abs(got - math.atan2(sin, cos)) <= 4 * np.finfo(float).eps


@checked
@given(st.integers(1, 9), st.integers(0, 2 ** 32 - 1),
       st.floats(-180.0, 180.0), st.floats(-2.0, 2.0), st.floats(0.5, 2.0))
def test_compose_motions_matches_per_frame_loop(n, seed, degrees, interval, scale):
    rng = np.random.default_rng(seed)
    degrees = degrees if n > 1 else 0.0
    directives = (
        MotionDirective(MotionKind.ROTATE, n, direction=tuple(random_unit(rng)), interval=degrees),
        MotionDirective(MotionKind.PAN, n, direction=tuple(random_unit(rng)), interval=interval),
        MotionDirective(MotionKind.ZOOM, n, interval=-interval),
        MotionDirective(MotionKind.FOCAL_ZOOM, n, interval=scale),
        MotionDirective(MotionKind.PRINCIPAL_SHIFT, n, shift=(interval, 1.5)),
    )
    intr = Intrinsics(300.0, 310.0, 160.0, 120.0)
    traj = compose_motions(directives, n, intr, 320, 240)
    step = 0.0 if n == 1 else math.radians(degrees) / (n - 1)
    rot, pan = directives[:2]
    for i, p in enumerate(traj.poses):
        e = compose(compose(
            Extrinsics(rotation_about_axis(rot.direction, i * step), np.zeros(3), C2W),
            Extrinsics(np.eye(3), i * interval * np.asarray(pan.direction), C2W)),
            Extrinsics(np.eye(3), np.array([0.0, 0.0, i * -interval]), C2W))
        assert np.array_equal(p.extrinsics.rotation, e.rotation)
        assert np.array_equal(p.extrinsics.translation, e.translation)
        f = scale ** i
        assert p.intrinsics == Intrinsics(300.0 * f, 310.0 * f, 160.0 + i * interval,
                                          120.0 + i * 1.5)


def reference_compose(directives, n, intr):
    """compose_motions as a loop over frames, then over directives in list
    order: per-frame rotations, centers and (fx, fy, cx, cy)."""
    rotations, centers, intrinsics = [], [], []
    for i in range(n):
        r, c = np.eye(3), np.zeros(3)
        fx, fy, cx, cy = intr.fx, intr.fy, intr.cx, intr.cy
        for d in directives:
            if d.kind is MotionKind.ROTATE:
                step = 0.0 if n == 1 else math.radians(d.interval) / (n - 1)
                r = r @ rotation_about_axis(d.direction, float(i) * step)
            elif d.kind is MotionKind.PAN:
                c = c + r @ (float(i) * d.interval * np.asarray(d.direction))
            elif d.kind is MotionKind.ZOOM:
                c = c + r @ np.array([0.0, 0.0, float(i) * d.interval])
            elif d.kind is MotionKind.PRINCIPAL_SHIFT:
                cx, cy = cx + i * d.shift[0], cy + i * d.shift[1]
            else:
                fx, fy = fx * d.interval ** i, fy * d.interval ** i
        rotations.append(r)
        centers.append(c)
        intrinsics.append([fx, fy, cx, cy])
    return rotations, centers, intrinsics


@st.composite
def composed_plans(draw):
    """1-9 frames and 1-5 directives of any kinds; pans and rotations often
    lead with a negative component, whose -0.0 at frame 0 must not show."""
    n = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    directives = []
    for kind in draw(st.lists(st.sampled_from(MotionKind), min_size=1, max_size=5)):
        unit = tuple(-abs(random_unit(rng)) if draw(st.booleans()) else random_unit(rng))
        if kind is MotionKind.PAN:
            fields = {"direction": unit, "interval": draw(st.floats(-2.0, 2.0))}
        elif kind is MotionKind.ZOOM:
            fields = {"interval": draw(st.floats(-2.0, 2.0))}
        elif kind is MotionKind.ROTATE:
            fields = {"direction": unit,
                      "interval": draw(st.floats(-360.0, 360.0)) if n > 1 else 0.0}
        elif kind is MotionKind.PRINCIPAL_SHIFT:
            fields = {"shift": (draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0)))}
        else:
            fields = {"interval": draw(st.floats(0.5, 2.0))}
        directives.append(MotionDirective(kind, n, **fields))
    return n, directives


@checked
@given(composed_plans())
def test_composed_plan_matches_per_directive_loop(plan):
    n, directives = plan
    intr = Intrinsics(300.0, 310.0, 160.0, 120.0)
    traj = compose_motions(directives, n, intr, 320, 240)
    rotations, centers, intrinsics = reference_compose(directives, n, intr)
    assert np.array_equal(traj.rotations, rotations)
    assert np.array_equal(traj.translations, centers)
    assert traj.intrinsics.tolist() == intrinsics
    assert not np.signbit(traj.translations[traj.translations == 0.0]).any()


@checked
@given(trajectories(), st.floats(-3.0, 3.0))
def test_scale_intensity_matches_per_frame_loop(traj, k):
    scaled = scale_intensity(traj, k)
    c2w = [as_convention(p.extrinsics, C2W) for p in traj.poses]
    c0 = c2w[0].translation
    for i, (p, e) in enumerate(zip(traj.poses, c2w)):
        new_c = c0 + k * (e.translation - c0)
        t = new_c if traj.convention is C2W else -p.extrinsics.rotation @ new_c
        assert np.array_equal(scaled.rotations[i], p.extrinsics.rotation)
        assert np.array_equal(scaled.translations[i], t)


# --- synthesis plans ------------------------------------------------------------

PLAN_MOTIONS = {
    "pan": {"kind": "pan", "direction": [0.6, 0.0, 0.8], "interval": 0.1},
    "zoom": {"kind": "zoom", "interval": -0.2},
    "rotate": {"kind": "rotate", "axis": [0.0, 1.0, 0.0], "degrees": 30.0},
    "principal_shift": {"kind": "principal_shift", "per_frame": [1.5, -2.0]},
    "focal_zoom": {"kind": "focal_zoom", "scale": 1.1},
}
PLAN_VALUES = [math.nan, math.inf, -math.inf, 0, -1, 1e308, -1e308, 5e-324, 10 ** 400,
               True, "1"]


def _number_slots(node):
    """(container, key) of every number in a parsed plan document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _number_slots(value)
        elif isinstance(value, (int, float)):
            yield node, key


@st.composite
def mutated_plans(draw):
    """A valid plan of 1-3 motions with one number replaced by an edge
    value, or with frames set to 1."""
    motions = [json.loads(json.dumps(PLAN_MOTIONS[k]))
               for k in draw(st.lists(st.sampled_from(sorted(PLAN_MOTIONS)), min_size=1,
                                      max_size=3))]
    doc = {"frames": draw(st.integers(2, 5)), "width": 16, "height": 12,
           "intrinsics": {"fx": 16.0, "fy": 18.0, "cx": 8.0, "cy": 6.0}}
    if len(motions) == 1 and draw(st.booleans()):
        doc["motion"] = motions[0]
    else:
        doc["motions"] = motions
    if draw(st.integers(0, 9)) == 0:
        doc["frames"] = 1
    else:
        node, key = draw(st.sampled_from(list(_number_slots(doc))))
        node[key] = draw(st.sampled_from(PLAN_VALUES))
    return json.dumps(doc)


@mutated
@given(mutated_plans())
def test_mutated_plan_synthesizes_finite_or_fails_typed(text):
    try:
        traj = synthesize(parse_trajectory_spec(text))
    except CamTrajError:
        return
    for a in (traj.rotations, traj.translations, traj.intrinsics):
        assert np.isfinite(a).all()
