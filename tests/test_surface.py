"""The public surface: the names the package exports and the CLI's options.

The CLI is pinned as a table of each argparse action's option strings, dest,
default, choices and required flag, not as formatted help text, whose wording
differs between Python versions.
"""

import argparse
import importlib
import pkgutil

import pytest

import camtraj
from camtraj import cli
from camtraj.geometry import Extrinsics, Intrinsics
from camtraj.pose_io import PoseFile

REMOVED = ("fuse", "pixel_shuffle", "compose", "invert_extrinsics", "as_convention",
           "orthonormalize", "synth_pan", "synth_intrinsic_motion", "plucker_map",
           "MultiScaleCameraFeatures")
REMOVED_METHODS = ((Extrinsics, "is_identity"), (Intrinsics, "matrix"))
HELP = (("-h", "--help"), "help", argparse.SUPPRESS, None, False)

# subcommand -> (option strings, dest, default, choices, required) per action
CLI_TABLE = {
    "parse": [
        HELP,
        (("--input",), "input", None, None, True),
        (("--width",), "width", None, None, True),
        (("--height",), "height", None, None, True),
        (("--frames",), "frames", None, None, False),
        (("--out",), "out", None, None, True),
    ],
    "synth": [
        HELP,
        (("--spec",), "spec", None, None, True),
        (("--out",), "out", None, None, True),
    ],
    "embed": [
        HELP,
        (("--traj",), "traj", None, None, True),
        (("--out",), "out", None, None, True),
        (("--pixel-origin",), "pixel_origin", "center", ("center", "corner"), False),
        (("--verify",), "verify", False, None, False),
    ],
    "eval": [
        HELP,
        (("--gt",), "gt", None, None, True),
        (("--gen",), "gen", None, None, True),
        (("--out",), "out", None, None, True),
    ],
    "encode": [
        HELP,
        (("--plucker",), "plucker", None, None, True),
        (("--seed",), "seed", None, None, True),
        (("--channels",), "scale_channels", (320, 640, 1280, 1280), None, False),
        (("--heads",), "heads", 8, None, False),
        (("--mlp-ratio",), "mlp_ratio", 4, None, False),
        (("--unshuffle",), "unshuffle_factor", 8, None, False),
        (("--no-posemb",), "use_posemb", True, None, False),
        (("--out-dir",), "out_dir", None, None, True),
    ],
}


def action_table(parser):
    return [(tuple(a.option_strings), a.dest, a.default, a.choices, a.required)
            for a in parser._actions if not isinstance(a, argparse._SubParsersAction)]


def submodules():
    return [importlib.import_module(f"camtraj.{m.name}")
            for m in pkgutil.iter_modules(camtraj.__path__)]


def test_all_names_resolve():
    missing = [name for name in camtraj.__all__ if not hasattr(camtraj, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from camtraj import *", namespace)
    assert set(camtraj.__all__) <= set(namespace)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_gone(name):
    assert name not in camtraj.__all__
    for module in [camtraj, *submodules()]:
        assert not hasattr(module, name), f"{module.__name__}.{name}"


@pytest.mark.parametrize("cls, name", REMOVED_METHODS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in REMOVED_METHODS])
def test_removed_method_is_gone(cls, name):
    assert not hasattr(cls, name)


def test_pose_file_has_one_constructor():
    with pytest.raises(TypeError):
        PoseFile("u", ())


def test_cli_options_table():
    parser = cli.build_parser()
    assert action_table(parser) == [HELP]
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(CLI_TABLE)
    for name, sp in sub.choices.items():
        assert action_table(sp) == CLI_TABLE[name], name
