"""Seeded inputs, CLI steps and output checks of the benchmark workloads.

``STEPS[name](inp, out)`` lists the CLI steps of one pass of a workload;
they read inputs under ``inp`` and write only under ``out``.
``make_inputs`` writes the inputs for a seed. The seed changes the motion
parameters and noise, never the sizes, so every seed does the same amount
of work.

The benchmark process imports this module only for the step lists. Input
generation and output checks need numpy and camtraj, so they run in child
processes:

    python perfbench/workloads.py inputs WORKLOAD SEED INPUT_DIR
    python perfbench/workloads.py check WORKLOAD INPUT_DIR OUTPUT_DIR LOG_DIR

A child's ru_maxrss includes its parent's high-water mark, so a benchmark
process that loaded numpy would inflate the peak RSS of every CLI step.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ENCODE16_SHAPE = (16, 256, 384)  # frames, height, width: the paper's clip shape
EMBED_VERIFY_SHAPE = (32, 384, 640)
SCORE_FRAMES = 10_000

# Tensor each workload streams through npyio, computed from its shape, for
# comparison with the last-level cache size.
TENSOR_BYTES = {
    "encode16": 6 * 4 * math.prod(ENCODE16_SHAPE),
    "embed_verify": 6 * 4 * math.prod(EMBED_VERIFY_SHAPE),
}


@dataclass(frozen=True)
class Step:
    cmd: str                  # camtraj subcommand
    args: tuple[str, ...]     # its arguments
    outputs: tuple[str, ...]  # files it writes, relative to the pass directory
    check: str | None = None  # key into CHECKS


# --- steps --------------------------------------------------------------------

def _encode16_steps(inp: Path, out: Path) -> list[Step]:
    return [
        Step("synth", ("--spec", str(inp / "plan.json"), "--out", str(out / "traj.json")),
             ("traj.json",)),
        Step("embed", ("--traj", str(out / "traj.json"), "--out", str(out / "plucker.npy")),
             ("plucker.npy",)),
        Step("encode", ("--plucker", str(out / "plucker.npy"), "--seed", "0",
                        "--out-dir", str(out / "feats")),
             tuple(f"feats/scale{i}.npy" for i in range(1, 5)), "encode16"),
    ]


def _embed_verify_steps(inp: Path, out: Path) -> list[Step]:
    return [
        Step("synth", ("--spec", str(inp / "plan.json"), "--out", str(out / "traj.json")),
             ("traj.json",)),
        Step("embed", ("--traj", str(out / "traj.json"), "--out", str(out / "plucker.npy"),
                       "--verify"),
             ("plucker.npy",), "embed_verify"),
    ]


def _score10k_steps(inp: Path, out: Path) -> list[Step]:
    size = ("--width", "384", "--height", "256")
    return [
        Step("parse", ("--input", str(inp / "gt.txt"), *size, "--out", str(out / "gt.json")),
             ("gt.json",)),
        Step("parse", ("--input", str(inp / "gen.txt"), *size, "--out", str(out / "gen.json")),
             ("gen.json",)),
        Step("synth", ("--spec", str(inp / "plan.json"), "--out", str(out / "synth.json")),
             ("synth.json",)),
        Step("eval", ("--gt", str(out / "gt.json"), "--gen", str(out / "gen.json"),
                      "--out", str(out / "gen_report.json")),
             ("gen_report.json",), "report"),
        Step("eval", ("--gt", str(out / "gt.json"), "--gen", str(out / "synth.json"),
                      "--out", str(out / "synth_report.json")),
             ("synth_report.json",), "report"),
    ]


STEPS = {"encode16": _encode16_steps, "score10k": _score10k_steps,
         "embed_verify": _embed_verify_steps}


# --- inputs -------------------------------------------------------------------

def _unit(rng: random.Random) -> list[float]:
    v = [rng.gauss(0.0, 1.0) for _ in range(3)]
    n = math.sqrt(sum(x * x for x in v))
    return [x / n for x in v]


def _plan(rng: random.Random, frames: int, width: int, height: int, motions: list) -> dict:
    f = width * rng.uniform(0.45, 0.6)
    return {
        "frames": frames, "width": width, "height": height,
        "intrinsics": {"fx": f, "fy": f * rng.uniform(0.95, 1.05),
                       "cx": width / 2, "cy": height / 2},
        "motions": motions,
    }


def _pan_rotate(rng: random.Random) -> list:
    return [
        {"kind": "pan", "direction": _unit(rng), "interval": rng.uniform(0.02, 0.2)},
        {"kind": "rotate", "axis": _unit(rng), "degrees": rng.uniform(20.0, 120.0)},
    ]


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _rotations(yaw, pitch):
    """Camera-to-world rotations Ry(yaw) @ Rx(pitch), shape (n, 3, 3)."""
    import numpy as np
    cy, sy, cp, sp = np.cos(yaw), np.sin(yaw), np.cos(pitch), np.sin(pitch)
    r = np.zeros((len(yaw), 3, 3))
    r[:, 0, 0], r[:, 0, 1], r[:, 0, 2] = cy, sy * sp, sy * cp
    r[:, 1, 1], r[:, 1, 2] = cp, -sp
    r[:, 2, 0], r[:, 2, 1], r[:, 2, 2] = -sy, cy * sp, cy * cp
    return r


def _pose_text(yaw, pitch, centers, intr, rng) -> str:
    """Pose-list text: URL line, then one 19-field world-to-camera line per frame."""
    import numpy as np
    r_w2c = _rotations(yaw, pitch).transpose(0, 2, 1)
    t = -np.einsum("nij,nj->ni", r_w2c, centers)
    w2c = np.concatenate([r_w2c, t[:, :, None]], axis=2).reshape(len(yaw), 12)
    lines = ["https://example.invalid/clip"]
    ts = 1_000_000 + np.cumsum(rng.integers(33_000, 34_000, len(yaw)))
    for i in range(len(yaw)):
        nums = [*intr, 0.0, 0.0, *w2c[i]]
        lines.append(" ".join([str(int(ts[i]))] + [f"{v:.17g}" for v in nums]))
    return "\n".join(lines) + "\n"


def _score10k_inputs(seed: int, inp: Path) -> None:
    import numpy as np
    rng = np.random.default_rng(seed)
    n = SCORE_FRAMES
    yaw = np.cumsum(rng.normal(0.0, 0.01, n))
    pitch = 0.1 * np.sin(np.linspace(0.0, rng.uniform(2.0, 6.0), n))
    heading = yaw + rng.normal(0.0, 0.05, n)
    step = rng.uniform(0.02, 0.06, n)[:, None] * np.stack(
        [np.sin(heading), rng.normal(0.0, 0.1, n), np.cos(heading)], axis=1)
    centers = np.cumsum(step, axis=0)
    intr = (0.5, 0.75, 0.5, 0.5)
    (inp / "gt.txt").write_text(_pose_text(yaw, pitch, centers, intr, rng), encoding="utf-8")
    # the generated copy: reconstruction scale 1.7 plus per-frame pose noise
    gen_centers = 1.7 * centers + rng.normal(0.0, 0.01, (n, 3))
    (inp / "gen.txt").write_text(
        _pose_text(yaw + rng.normal(0.0, 0.005, n), pitch + rng.normal(0.0, 0.005, n),
                   gen_centers, intr, rng), encoding="utf-8")
    py = random.Random(seed)
    motions = _pan_rotate(py)
    motions.insert(1, {"kind": "zoom", "interval": py.uniform(0.01, 0.05)})
    _write_json(inp / "plan.json", _plan(py, n, 384, 256, motions))


def make_inputs(workload: str, seed: int, inp: Path) -> None:
    if workload == "score10k":
        _score10k_inputs(seed, inp)
        return
    rng = random.Random(seed)
    n, h, w = ENCODE16_SHAPE if workload == "encode16" else EMBED_VERIFY_SHAPE
    _write_json(inp / "plan.json", _plan(rng, n, w, h, _pan_rotate(rng)))


# --- output checks ------------------------------------------------------------
# A check gets the pass directory, the step and its stdout, and returns an
# error message, or None when the outputs are correct.

def _check_encode16(out: Path, step: Step, stdout: str) -> str | None:
    import numpy as np
    from camtraj.encoder import EncoderConfig, shape_schedule
    n, h, w = ENCODE16_SHAPE
    expected = shape_schedule(EncoderConfig(), 1, n, h, w)[2:]
    for name, shape in zip(step.outputs, expected):
        arr = np.load(out / name)
        if arr.shape != tuple(shape):
            return f"{name} shape {arr.shape}, expected {tuple(shape)}"
        if not np.isfinite(arr).all():
            return f"{name} has non-finite values"
    return None


def _check_embed_verify(out: Path, step: Step, stdout: str) -> str | None:
    import numpy as np
    from camtraj.plucker import verify_plucker
    if "verify ok" not in stdout:
        return "embed --verify did not print 'verify ok'"
    arr = np.load(out / step.outputs[0], mmap_mode="r")
    for i in range(0, arr.shape[0], 4):  # chunks keep the float64 copy small
        report = verify_plucker(arr[i:i + 4])
        if not report["ok"]:
            return f"re-read frames {i}..{i + 3} fail verify_plucker: {report}"
    return None


def _check_report(out: Path, step: Step, stdout: str) -> str | None:
    import numpy as np
    name = step.outputs[0]
    rep = json.loads((out / name).read_text(encoding="utf-8"))
    if rep["frames_compared"] != SCORE_FRAMES:
        return f"{name}: frames_compared {rep['frames_compared']}, expected {SCORE_FRAMES}"
    values = [rep["rot_err"], rep["trans_err"], rep["trans_err_unsquared"],
              rep["rescale_factor"]]
    values += [v for pf in rep["per_frame"] for v in (pf["rot"], pf["trans"])]
    if len(rep["per_frame"]) != SCORE_FRAMES or not np.isfinite(values).all():
        return f"{name}: per-frame list of wrong length or with non-finite values"
    return None


CHECKS = {"encode16": _check_encode16, "embed_verify": _check_embed_verify,
          "report": _check_report}


def check_outputs(workload: str, inp: Path, out: Path, logs: Path) -> list:
    """Error (or None) per step of the pass; steps without a check get None."""
    errors = []
    for i, step in enumerate(STEPS[workload](inp, out)):
        if step.check is None:
            errors.append(None)
            continue
        stdout = (logs / f"step{i}.log").read_text(encoding="utf-8", errors="replace")
        try:
            errors.append(CHECKS[step.check](out, step, stdout))
        except (OSError, ValueError, KeyError, TypeError) as e:
            errors.append(f"unreadable output: {type(e).__name__}: {e}")
    return errors


def main(argv: list[str]) -> int:
    if argv[:1] == ["inputs"] and len(argv) == 4:
        make_inputs(argv[1], int(argv[2]), Path(argv[3]))
        return 0
    if argv[:1] == ["check"] and len(argv) == 5:
        print(json.dumps(check_outputs(argv[1], *map(Path, argv[2:]))))
        return 0
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
