"""Fuzz tests of the error contract (Hypothesis, derandomized).

Every reader, given any bytes, returns a result or raises CamTrajError; the
CLI, given small mutated files and random flags, exits 0-3 and raises
nothing. Mutations replace, insert or delete single bytes, and insert no
digits, so a number in a seed document grows by at most a digit or two and
every run stays small.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camtraj.cli import main
from camtraj.errors import CamTrajError, PoseParseError
from camtraj.npyio import read_npy, write_npy
from camtraj.pose_io import (
    parse_pose_file,
    parse_trajectory_spec,
    trajectory_from_json,
    trajectory_to_json,
)
from camtraj.synth import synthesize

# derandomized so a tier-1 run is reproducible; raise max_examples to explore
readers = settings(max_examples=400, deadline=None, derandomize=True)
runs = settings(max_examples=250, deadline=None, derandomize=True)

_IDENTITY = "0.5 0.75 0.5 0.5 0 0 1 0 0 0 0 1 0 0 0 0 1 0"
POSE_TEXT = f"https://example.com/clip\n0 {_IDENTITY}\n1000 {_IDENTITY}\n".encode()
PLAN_JSON = json.dumps({
    "frames": 2, "width": 12, "height": 8,
    "intrinsics": {"fx": 6, "fy": 6, "cx": 6, "cy": 4},
    "motions": [{"kind": "pan", "direction": [1, 0, 0], "interval": 0.5},
                {"kind": "rotate", "axis": [0, 1, 0], "degrees": 9}]}).encode()
TRAJ_JSON = trajectory_to_json(synthesize(parse_trajectory_spec(PLAN_JSON.decode()))).encode()
_npy = io.BytesIO()
write_npy(np.random.default_rng(0).standard_normal((2, 6, 16, 16)).astype(np.float32), _npy)
NPY = _npy.getvalue()
SEEDS = {"pose": POSE_TEXT, "plan": PLAN_JSON, "traj": TRAJ_JSON, "npy": NPY}

# bytes a mutation writes: structure, signs, exponents, whitespace, invalid UTF-8
_INSERTED = list(b"-+.e:,[]{}()\"' \n\t") + [0x00, 0x80, 0xC3, 0xFF]
_REPLACEMENTS = _INSERTED + list(b"0123456789")


@st.composite
def mutated(draw, seed: bytes):
    """``seed`` with 1-3 single-byte replacements, insertions or deletions,
    or cut short."""
    data = bytearray(seed)
    if draw(st.integers(0, 9)) == 0:
        return bytes(data[:draw(st.integers(0, len(data)))])
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(data) - 1))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        if op == "replace":
            data[i] = draw(st.sampled_from(_REPLACEMENTS))
        elif op == "insert":
            data.insert(i, draw(st.sampled_from(_INSERTED)))
        else:
            del data[i]
    return bytes(data)


def inputs(kind: str):
    """Mutated seed documents of ``kind``, and now and then arbitrary bytes."""
    return st.one_of(mutated(SEEDS[kind]), st.binary(max_size=64))


def returns_or_fails_typed(read, data) -> None:
    try:
        read(data)
    except CamTrajError:
        pass


# --- readers --------------------------------------------------------------------

@readers
@given(inputs("pose"))
def test_pose_text_reader(data):
    returns_or_fails_typed(parse_pose_file, data)


@readers
@given(inputs("traj"))
def test_trajectory_json_reader(data):
    returns_or_fails_typed(trajectory_from_json, data.decode("latin-1"))


@readers
@given(inputs("plan"))
def test_plan_reader_and_synthesis(data):
    returns_or_fails_typed(lambda text: synthesize(parse_trajectory_spec(text)),
                           data.decode("latin-1"))


@readers
@given(inputs("npy"))
def test_npy_reader(data):
    returns_or_fails_typed(lambda raw: read_npy(io.BytesIO(raw)), data)


def test_non_utf8_pose_bytes_name_their_line():
    with pytest.raises(PoseParseError, match=r"^line 3: not UTF-8 text: invalid start byte$"):
        parse_pose_file(POSE_TEXT.replace(b"1000", b"\xff000"))


# --- the CLI --------------------------------------------------------------------

_WORK_DIR = tempfile.TemporaryDirectory(prefix="camtraj-fuzz-")  # removed at exit
_WORK = _WORK_DIR.name

ints = st.integers
FRAME_SPECS = st.one_of(
    st.sampled_from(["0", "1,0", "0:2", ":", "::-1", "0:1000000000000", "-1:2", "1:-9:-1",
                     "0:2:0", "--1:2", "0:x", ",", "", "²:3", "9" * 5000 + ":1"]),
    st.text("0123456789-:,", max_size=8))


@st.composite
def cli_runs(draw):
    """(argv, files): one subcommand's flags, some left out, and the
    contents of the input files they name."""
    cmd = draw(st.sampled_from(["parse", "synth", "embed", "eval", "encode"]))
    files = {}

    def input_file(name, kind):
        files[name] = draw(st.one_of(st.just(SEEDS[kind]), mutated(SEEDS[kind])))
        return os.path.join(_WORK, name)

    out = os.path.join(_WORK, "out." + cmd)
    if cmd == "parse":
        flags = [("--input", input_file("poses.txt", "pose")),
                 ("--width", str(draw(ints(-3, 64)))), ("--height", str(draw(ints(-3, 64)))),
                 ("--out", out)]
        if draw(st.booleans()):
            flags.append(("--frames=" + draw(FRAME_SPECS),))
    elif cmd == "synth":
        flags = [("--spec", input_file("plan.json", "plan")), ("--out", out)]
    elif cmd == "embed":
        flags = [("--traj", input_file("traj.json", "traj")), ("--out", out)]
        if draw(st.booleans()):
            flags.append(("--verify",))
        if draw(st.booleans()):
            flags.append(("--pixel-origin", draw(st.sampled_from(["center", "corner", "edge"]))))
    elif cmd == "eval":
        flags = [("--gt", input_file("gt.json", "traj")), ("--gen", input_file("gen.json", "traj")),
                 ("--out", out)]
    else:
        flags = [("--plucker", input_file("p.npy", "npy")), ("--seed", str(draw(ints(-1, 3)))),
                 ("--channels", ",".join(str(draw(ints(0, 16)))
                                         for _ in range(draw(ints(3, 4))))),
                 ("--heads", str(draw(ints(-2, 3)))), ("--mlp-ratio", str(draw(ints(0, 2)))),
                 ("--unshuffle", str(draw(ints(0, 4)))), ("--out-dir", out)]
        if draw(st.booleans()):
            flags.append(("--no-posemb",))
    if draw(st.integers(0, 9)) == 0:
        del flags[draw(st.integers(0, len(flags) - 1))]
    argv = [cmd] + [arg for flag in draw(st.permutations(flags)) for arg in flag]
    return argv, files


@runs
@given(cli_runs())
def test_cli_exits_with_a_code(run):
    argv, files = run
    for name, data in files.items():
        with open(os.path.join(_WORK, name), "wb") as f:
            f.write(data)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3)
