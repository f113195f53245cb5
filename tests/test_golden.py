"""Golden bytes of ``camtraj encode`` under a pinned numeric environment.

The same seed and flags give the same bytes for the same numpy, BLAS kernel,
BLAS thread count and CPU dispatch. ``PINNED`` fixes the last three on any
x86-64 host with AVX, and ``golden.json`` holds the SHA-256 of each case's four
maps there, keyed by machine, numpy version and BLAS version.

- Exact tier: where this environment's key is in the table, every hash must
  match; elsewhere the test skips and prints the key.
- Tolerance tier, everywhere: the same cases run in the inherited environment
  give maps within 1e-5 relative of the pinned ones.

A change that alters output bytes on purpose says why and records the new
hashes; ``PYTHONPATH=src python tests/test_golden.py`` prints this
environment's table entry.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import camtraj

GOLDEN = Path(__file__).with_name("golden.json")
PINNED = {"OPENBLAS_CORETYPE": "Sandybridge", "OPENBLAS_NUM_THREADS": "1",
          "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}
# name -> (frames, height, width), encode flags, _TILE_BYTES in the subprocess
CASES = {
    # the default widths on 2 frames of 64x64: every conv runs as one band
    "encode default": ((2, 64, 64), [], 8 << 20),
    # odd widths and head size, no position table, MLP ratio 3; 16 KiB bands
    # split the stem and scale 1 convs into several bands, scale 4's stay whole
    "encode odd widths": ((3, 32, 48), ["--no-posemb", "--channels", "21,35,49,63", "--heads",
                                        "7", "--mlp-ratio", "3", "--unshuffle", "2"], 16 << 10),
}
# runs (tile bytes, CLI arguments) pairs in one process; exits 1 if a command fails
SCRIPT = """
import json, sys
import camtraj.encoder as enc
from camtraj.cli import main
for tile_bytes, argv in json.loads(sys.argv[1]):
    enc._TILE_BYTES = tile_bytes
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


def _run(commands: list, env: dict) -> None:
    src = str(Path(camtraj.__file__).resolve().parent.parent)
    env = dict(env, PYTHONPATH=os.pathsep.join(filter(None, (src, env.get("PYTHONPATH")))))
    subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(commands)], env=env, check=True,
                   capture_output=True)


def encode_cases(root: Path, label: str, env: dict) -> dict[str, list[Path]]:
    """Encode every case under ``env`` into ``root/label*``; the first call also
    makes the inputs."""
    commands, maps = [], {}
    for i, (name, ((n, h, w), flags, tile_bytes)) in enumerate(CASES.items()):
        plan, traj, rays = (root / f"case{i}{suffix}" for suffix in (".plan.json", ".json", ".npy"))
        if not rays.exists():
            plan.write_text(json.dumps({
                "frames": n, "width": w, "height": h,
                "intrinsics": {"fx": w / 2, "fy": w / 2, "cx": w / 2, "cy": h / 2},
                "motions": [{"kind": "pan", "direction": [0.6, 0, 0.8], "interval": 0.1},
                            {"kind": "rotate", "axis": [0, 1, 0], "degrees": 20}]}))
            commands += [(tile_bytes, ["synth", "--spec", str(plan), "--out", str(traj)]),
                         (tile_bytes, ["embed", "--traj", str(traj), "--out", str(rays)])]
        out = root / f"{label}{i}"
        commands.append((tile_bytes, ["encode", "--plucker", str(rays), "--seed", "1",
                                      "--out-dir", str(out), *flags]))
        maps[name] = [out / f"scale{k}.npy" for k in range(1, 5)]
    _run(commands, env)
    return maps


def sha256s(maps: dict[str, list[Path]]) -> dict[str, list[str]]:
    return {name: [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths]
            for name, paths in maps.items()}


@pytest.fixture(scope="module")
def pinned(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    return root, encode_cases(root, "pinned", dict(os.environ, **PINNED))


def test_pinned_bytes_match_the_table(pinned):
    key, table = fingerprint(), json.loads(GOLDEN.read_text())
    if key not in table:
        print(f"no golden hashes for {key!r}")
        pytest.skip(f"no golden hashes for {key!r}")
    assert sha256s(pinned[1]) == table[key]


def test_inherited_environment_within_tolerance(pinned):
    root, want = pinned
    got = encode_cases(root, "inherited", dict(os.environ))
    for name, paths in want.items():
        for a, b in zip(paths, got[name]):
            ref, value = np.load(a), np.load(b)
            assert value.shape == ref.shape
            np.testing.assert_allclose(value, ref, rtol=1e-5, atol=1e-5 * np.abs(ref).max())


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        entry = sha256s(encode_cases(Path(tmp), "pinned", dict(os.environ, **PINNED)))
    print(json.dumps({fingerprint(): entry}, indent=2))
