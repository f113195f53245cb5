"""Golden bytes of every ``camtraj`` subcommand under a pinned numeric environment.

The same seed and flags give the same bytes for the same numpy, BLAS kernel,
BLAS thread count and CPU dispatch. ``PINNED`` fixes the last three on any
x86-64 host with AVX, and ``golden.json`` holds the SHA-256 of each case's
files there, keyed by machine, numpy version and BLAS version.

- Exact tier: where this environment's key is in the table, every hash must
  match; elsewhere the test skips and prints the key.
- Tolerance tier, everywhere: the same cases run in the inherited environment
  give the pinned bytes for ``parse``, ``synth`` and ``embed``, ``eval`` values
  within 1e-12 relative (or 1e-15 absolute) and ``encode`` maps within 1e-5 relative.

A change that alters output bytes on purpose says why and records the new
hashes; ``PYTHONPATH=src python tests/test_golden.py`` prints this
environment's table entry.
"""

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import camtraj

GOLDEN = Path(__file__).with_name("golden.json")
PINNED = {"OPENBLAS_CORETYPE": "Sandybridge", "OPENBLAS_NUM_THREADS": "1",
          "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}
# name -> (frames, height, width), encode flags, _TILE_BYTES in the subprocess
ENCODE = {
    # the default widths on 2 frames of 64x64: every conv runs as one band
    "encode default": ((2, 64, 64), [], 8 << 20),
    # odd widths and head size, no position table, MLP ratio 3; 16 KiB bands
    # split the stem and scale 1 convs into several bands, scale 4's stay whole
    "encode odd widths": ((3, 32, 48), ["--no-posemb", "--channels", "21,35,49,63", "--heads",
                                        "7", "--mlp-ratio", "3", "--unshuffle", "2"], 16 << 10),
}
# (rtol, atol / max |map|) of the NPY cases in the inherited environment: encode's
# GEMMs go through the BLAS kernel; embed calls no BLAS, so its maps match bit for bit
TOLERANCE = {"encode": (1e-5, 1e-5)}
# 8 frames of 32x16: one plan per motion kind, and one of all five composed
PLAN = {"frames": 8, "width": 32, "height": 16,
        "intrinsics": {"fx": 16, "fy": 16, "cx": 16, "cy": 8}}
MOTIONS = {"pan": {"kind": "pan", "direction": [-0.6, 0, 0.8], "interval": 0.1},
           "rotate": {"kind": "rotate", "axis": [0, 0.6, 0.8], "degrees": 20},
           "zoom": {"kind": "zoom", "interval": 0.05},
           "principal_shift": {"kind": "principal_shift", "per_frame": [1, -0.5]},
           "focal_zoom": {"kind": "focal_zoom", "scale": 1.05}}
SYNTH = {f"synth {kind}": {**PLAN, "motion": m} for kind, m in MOTIONS.items()}
SYNTH["synth composed"] = {**PLAN, "motions": list(MOTIONS.values())}
# runs (tile bytes or None for the default, CLI arguments) pairs in one process;
# exits 1 if a command fails
SCRIPT = """
import json, sys
import camtraj.encoder as enc
from camtraj.cli import main
default = enc._TILE_BYTES
for tile_bytes, argv in json.loads(sys.argv[1]):
    enc._TILE_BYTES = tile_bytes or default
    if main(argv):
        sys.exit(1)
"""


def fingerprint() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except Exception:  # numpy before 1.26 has no dict form
        blas = "unknown BLAS"
    return f"{platform.machine()} numpy {np.__version__} {blas}"


def pose_list() -> str:
    """8 w2c poses of a normalized 0.5, 0.75, 0.5, 0.5 camera: rotations of exact
    Pythagorean cosines and sines about y or x, each float printed by ``repr``."""
    lines = ["https://example.com/clip"]
    for i, (a, b, c) in enumerate([(3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25),
                                   (20, 21, 29), (9, 40, 41), (12, 35, 37), (11, 60, 61)]):
        cos, sin = float(Fraction(a, c)), float(Fraction(b, c))
        r = ([cos, 0, sin], [0, 1, 0], [-sin, 0, cos]) if i % 2 else ([1, 0, 0], [0, cos, -sin],
                                                                       [0, sin, cos])
        t = [0.1 * i, -0.05 * i, 0.02 * i * i]
        rows = [v for row, ti in zip(r, t) for v in (*row, ti)]
        lines.append(" ".join(map(repr, [1000 * i, 0.5, 0.75, 0.5, 0.5, 0, 0, *rows])))
    return "\n".join(lines) + "\n"


def _run(commands: list, env: dict) -> None:
    src = str(Path(camtraj.__file__).resolve().parent.parent)
    env = dict(env, PYTHONPATH=os.pathsep.join(filter(None, (src, env.get("PYTHONPATH")))))
    subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(commands)], env=env, check=True,
                   capture_output=True)


def run_cases(root: Path, label: str, env: dict) -> dict[str, list[Path]]:
    """Run every case under ``env`` into ``root/label``, with its inputs in ``root``
    (the first call makes the encode cases' rays). Returns each case's output files."""
    out, poses, commands, files = root / label, root / "poses.txt", [], {}
    out.mkdir()
    poses.write_text(pose_list())

    def case(name: str, argv: list, suffix: str = ".json") -> str:
        """Queue ``argv --out FILE`` as case ``name``; returns FILE."""
        files[name] = [out / f"{name.replace(' ', '-')}{suffix}"]
        commands.append((None, [*argv, "--out", str(files[name][0])]))
        return str(files[name][0])
    parsed = case("parse", ["parse", "--input", str(poses), "--width", "32", "--height", "16"])
    for name, plan in SYNTH.items():  # the composed plan last
        spec = root / f"{name.replace(' ', '-')}.plan.json"
        spec.write_text(json.dumps(plan))
        synthesized = case(name, ["synth", "--spec", str(spec)])
    for convention, traj in (("w2c", parsed), ("c2w", synthesized)):
        for origin in ("center", "corner"):
            case(f"embed {convention} {origin}",
                 ["embed", "--traj", traj, "--pixel-origin", origin], ".npy")
    case("eval", ["eval", "--gt", parsed, "--gen", synthesized])
    for i, (name, ((n, h, w), flags, tile_bytes)) in enumerate(ENCODE.items()):
        plan, traj, rays = (root / f"case{i}{suffix}" for suffix in (".plan.json", ".json", ".npy"))
        if not rays.exists():
            plan.write_text(json.dumps({
                "frames": n, "width": w, "height": h,
                "intrinsics": {"fx": w / 2, "fy": w / 2, "cx": w / 2, "cy": h / 2},
                "motions": [{"kind": "pan", "direction": [0.6, 0, 0.8], "interval": 0.1},
                            {"kind": "rotate", "axis": [0, 1, 0], "degrees": 20}]}))
            commands += [(tile_bytes, ["synth", "--spec", str(plan), "--out", str(traj)]),
                         (tile_bytes, ["embed", "--traj", str(traj), "--out", str(rays)])]
        commands.append((tile_bytes, ["encode", "--plucker", str(rays), "--seed", "1",
                                      "--out-dir", str(out / f"case{i}"), *flags]))
        files[name] = [out / f"case{i}" / f"scale{k}.npy" for k in range(1, 5)]
    _run(commands, env)
    return files


def sha256s(files: dict[str, list[Path]]) -> dict[str, list[str]]:
    return {name: [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths]
            for name, paths in files.items()}


def close(a, b) -> bool:
    """Two JSON values equal but for floats within 1e-12 relative or 1e-15 absolute."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(close, a, b))
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)
    return a == b


@pytest.fixture(scope="module")
def pinned(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    return root, run_cases(root, "pinned", dict(os.environ, **PINNED))


def test_pinned_bytes_match_the_table(pinned):
    key, table = fingerprint(), json.loads(GOLDEN.read_text())
    if key not in table:
        print(f"no golden hashes for {key!r}")
        pytest.skip(f"no golden hashes for {key!r}")
    assert sha256s(pinned[1]) == table[key]


def test_inherited_environment_within_tolerance(pinned):
    root, want = pinned
    got = run_cases(root, "inherited", dict(os.environ))
    for name, paths in want.items():
        for a, b in zip(paths, got[name]):
            kind = name.split()[0]
            if kind in TOLERANCE:
                (rtol, atol), ref, value = TOLERANCE[kind], np.load(a), np.load(b)
                assert value.shape == ref.shape
                np.testing.assert_allclose(value, ref, rtol=rtol, atol=atol * np.abs(ref).max(),
                                           err_msg=name)
            elif kind == "eval":
                assert close(json.loads(a.read_text()), json.loads(b.read_text())), name
            else:
                assert a.read_bytes() == b.read_bytes(), name


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        entry = sha256s(run_cases(Path(tmp), "pinned", dict(os.environ, **PINNED)))
    print(json.dumps({fingerprint(): entry}, indent=2))
