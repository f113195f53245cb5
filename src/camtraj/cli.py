"""Command-line interface.

Subcommands: parse, synth, embed, eval, encode. Exit codes: 0 success,
1 usage error, 2 data/validation error, 3 I/O error. Angles are degrees at
this boundary and radians inside the library. Output files are written to a
temp file in the destination directory and renamed into place, so a failed
run never leaves a partial artifact; the four feature files of ``encode``
are renamed only once all four are written.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import tempfile
from typing import BinaryIO, Callable

import numpy as np

from . import encoder, geometry, metrics, npyio, plucker, pose_io, synth
from .errors import CamTrajError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_IO = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; route through our codes instead
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _atomic_write_all(outputs: list[tuple[str, Callable[[BinaryIO], object]]]) -> None:
    """Write each (path, write) pair to a temp file beside its path, then
    rename them all into place.

    Nothing is renamed until every write has succeeded; on failure the temp
    files are removed and existing files keep their contents.
    """
    tmps = []
    try:
        for path, write in outputs:
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                       prefix=".tmp-", suffix=os.path.basename(path))
            tmps.append(tmp)
            with os.fdopen(fd, "wb") as f:
                write(f)
        for tmp, (path, _) in zip(tmps, outputs):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def _atomic_write_bytes(path: str, data: bytes) -> None:
    _atomic_write_all([(path, lambda f: f.write(data))])


def _atomic_write_text(path: str, text: str) -> None:
    _atomic_write_bytes(path, text.encode("utf-8"))


def _parse_frames(spec: str, count: int) -> list[int]:
    """Frame selection: 'i,j,k' lists or 'start:stop[:step]' ranges."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) not in (2, 3) or not all(p.strip().lstrip("-").isdigit() or p.strip() == ""
                                               for p in parts):
            raise UsageError(f"bad frame range {spec!r}")
        start = int(parts[0]) if parts[0].strip() else 0
        stop = int(parts[1]) if parts[1].strip() else count
        step = int(parts[2]) if len(parts) == 3 and parts[2].strip() else 1
        if step == 0:
            raise UsageError("frame range step cannot be 0")
        return list(range(start, stop, step))
    try:
        return [int(p) for p in spec.split(",") if p.strip() != ""]
    except ValueError:
        raise UsageError(f"bad frame list {spec!r}") from None


# --- subcommands ------------------------------------------------------------

def cmd_parse(args) -> int:
    with open(args.input, "rb") as f:
        pf = pose_io.parse_pose_file(f.read())
    if args.frames is not None:
        indices = _parse_frames(args.frames, len(pf))
    else:
        indices = list(range(len(pf)))
    traj = pose_io.to_trajectory(pf, args.width, args.height, indices)
    _atomic_write_text(args.out, pose_io.trajectory_to_json(traj))
    print(f"parsed {len(traj)} frames ({traj.convention.value}) -> {args.out}")
    return EXIT_OK


def cmd_synth(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as f:
        plan = pose_io.parse_trajectory_spec(f.read())
    traj = synth.synthesize(plan)
    _atomic_write_text(args.out, pose_io.trajectory_to_json(traj))
    angle = math.degrees(float(geometry.rotation_angle(traj.rotations[-1])))
    offset = float(np.linalg.norm(traj.translations[-1]))  # c2w: t is the center
    print(f"synthesized {len(traj)} frames -> {args.out}")
    print(f"last-frame rotation angle {angle:.9f} deg, center offset {offset:.9f}")
    return EXIT_OK


def cmd_embed(args) -> int:
    with open(args.traj, "r", encoding="utf-8") as f:
        traj = pose_io.trajectory_from_json(f.read())
    seq = plucker.plucker_sequence(traj, pixel_origin=args.pixel_origin)
    _atomic_write_all([(args.out, functools.partial(npyio.write_npy, seq))])
    print(f"embedded {seq.shape} -> {args.out}")
    if args.verify:
        back = npyio.read_npy_file(args.out)
        report = plucker.verify_plucker(back)
        status = "ok" if report["ok"] else "FAILED"
        print(f"verify {status}: max |norm(d)-1| = {report['direction_norm']:.3e}, "
              f"max |m.d| = {report['moment_dot']:.3e}")
        if not report["ok"]:
            raise CamTrajError("written embedding failed invariant check")
    return EXIT_OK


def cmd_eval(args) -> int:
    with open(args.gt, "r", encoding="utf-8") as f:
        gt = pose_io.trajectory_from_json(f.read())
    with open(args.gen, "r", encoding="utf-8") as f:
        gen = pose_io.trajectory_from_json(f.read())
    report = metrics.evaluate(gt, gen)
    _atomic_write_text(args.out, pose_io.report_to_json(report))
    print(f"rot_err {report.rot_err_total:.9f} rad "
          f"({math.degrees(report.rot_err_total):.9f} deg)")
    print(f"trans_err {report.trans_err_total:.9f} "
          f"(unsquared {report.trans_err_unsquared_total:.9f}), "
          f"rescale factor {report.rescale_factor:.9f}")
    print(f"report -> {args.out}")
    return EXIT_OK


def cmd_encode(args) -> int:
    seq = npyio.read_npy_file(args.plucker)
    cfg = encoder.EncoderConfig(
        unshuffle_factor=args.unshuffle,
        scale_channels=tuple(args.channels),
        heads=args.heads,
        mlp_ratio=args.mlp_ratio,
        seed=args.seed,
        use_posemb=not args.no_posemb,
    )
    feats = encoder.encoder_forward(seq, cfg)
    os.makedirs(args.out_dir, exist_ok=True)
    paths = [os.path.join(args.out_dir, f"scale{i}.npy") for i in range(1, len(feats) + 1)]
    _atomic_write_all([(path, functools.partial(npyio.write_npy, feat))
                       for path, feat in zip(paths, feats)])
    for i, (path, feat) in enumerate(zip(paths, feats), start=1):
        print(f"scale{i} {feat.shape} -> {path}")
    return EXIT_OK


# --- argument wiring --------------------------------------------------------

def _channels(text: str) -> list[int]:
    try:
        vals = [int(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad channel list {text!r}") from None
    if len(vals) != 4 or any(v < 1 for v in vals):
        raise argparse.ArgumentTypeError("need 4 positive channel counts")
    return vals


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="camtraj",
                description="Camera trajectory toolkit: pose parsing, Plucker "
                            "embeddings, synthesis, evaluation, encoding.")
    sub = p.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    sp = sub.add_parser("parse", help="pose-list text file to trajectory JSON")
    sp.add_argument("--input", required=True, help="pose-list text file")
    sp.add_argument("--width", type=int, required=True)
    sp.add_argument("--height", type=int, required=True)
    sp.add_argument("--frames", default=None,
                    help="comma list '0,8,16' or range '0:128:8'; default all")
    sp.add_argument("--out", required=True, help="trajectory JSON destination")
    sp.set_defaults(func=cmd_parse)

    sp = sub.add_parser("synth", help="synthesize a trajectory from a plan JSON")
    sp.add_argument("--spec", required=True, help="synthesis plan JSON")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("embed", help="trajectory JSON to Plucker NPY tensor")
    sp.add_argument("--traj", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--pixel-origin", choices=plucker.PIXEL_ORIGINS,
                    default="center", dest="pixel_origin")
    sp.add_argument("--verify", action="store_true",
                    help="re-read the written file and check ray invariants")
    sp.set_defaults(func=cmd_embed)

    sp = sub.add_parser("eval", help="compare two trajectory JSON files")
    sp.add_argument("--gt", required=True)
    sp.add_argument("--gen", required=True)
    sp.add_argument("--out", required=True, help="report JSON destination")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("encode", help="run the encoder on a Plucker NPY tensor")
    sp.add_argument("--plucker", required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--channels", type=_channels, default=[320, 640, 1280, 1280],
                    help="four scale widths, default 320,640,1280,1280")
    sp.add_argument("--heads", type=int, default=8)
    sp.add_argument("--mlp-ratio", type=int, default=4, dest="mlp_ratio")
    sp.add_argument("--unshuffle", type=int, default=8)
    sp.add_argument("--no-posemb", action="store_true", dest="no_posemb")
    sp.add_argument("--out-dir", required=True, dest="out_dir")
    sp.set_defaults(func=cmd_encode)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        return args.func(args)
    except UsageError as e:
        print(str(e), file=sys.stderr)
        return EXIT_USAGE
    except CamTrajError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
