"""Command-line interface.

Subcommands: parse, synth, embed, eval, encode. Exit codes: 0 success, 1
usage error, 2 data error (a CamTrajError) or out of memory, 3 I/O error;
any other exception is a bug. Angles are degrees at this boundary and
radians inside the library. Output files are written to a temp file in the
destination directory and renamed into place, so a failed run never leaves a
partial artifact; the four feature files of ``encode`` are renamed only once
all four are written.
"""

from __future__ import annotations

import argparse
import dataclasses
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
    """Write each (path, write) pair to a temp file beside its path, with
    mode 0666 & ~umask as open() gives, then rename them all into place.

    Nothing is renamed until every write has succeeded; on failure the temp
    files are removed and existing files keep their contents.
    """
    umask = os.umask(0o077)  # reading the umask sets it; mkstemp's files are 0600 either way
    os.umask(umask)
    tmps = []
    try:
        for path, write in outputs:
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                       prefix=".tmp-", suffix=os.path.basename(path))
            tmps.append(tmp)
            with os.fdopen(fd, "wb") as f:
                os.fchmod(fd, 0o666 & ~umask)
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


def _read_text(path: str, newline: str | None = None) -> str:
    """The text of the UTF-8 file at ``path``, ``newline`` as for open()."""
    try:
        with open(path, encoding="utf-8", newline=newline) as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise CamTrajError(f"{path}: not UTF-8 text: {e.reason} at byte {e.start}") from None


def _parse_frames(spec: str, count: int) -> range | list[int]:
    """Frame selection: 'i,j,k' lists or 'start:stop[:step]' ranges."""
    spec = spec.strip()
    if ":" in spec:
        parts = [p.strip() for p in spec.split(":")]
        try:  # int() also fails on '--1', non-ASCII digits and over-long numbers
            if len(parts) not in (2, 3) or not all(p.lstrip("-").isdigit() or not p
                                                   for p in parts):
                raise ValueError
            start, stop = int(parts[0] or 0), int(parts[1] or count)
            step = int(parts[2] or 1) if len(parts) == 3 else 1
        except ValueError:
            raise UsageError(f"bad frame range {spec!r}") from None
        if step == 0:
            raise UsageError("frame range step cannot be 0")
        return range(start, stop, step)
    try:
        return [int(p) for p in spec.split(",") if p.strip() != ""]
    except ValueError:
        raise UsageError(f"bad frame list {spec!r}") from None


# --- subcommands ------------------------------------------------------------

def cmd_parse(args) -> int:
    pf = pose_io.parse_pose_file(_read_text(args.input, newline=""))
    if args.frames is not None:
        indices = _parse_frames(args.frames, len(pf))
    else:
        indices = range(len(pf))
    traj = pose_io.to_trajectory(pf, args.width, args.height, indices)
    _atomic_write_text(args.out, pose_io.trajectory_to_json(traj))
    print(f"parsed {len(traj)} frames ({traj.convention.value}) -> {args.out}")
    return EXIT_OK


def cmd_synth(args) -> int:
    plan = pose_io.parse_trajectory_spec(_read_text(args.spec))
    traj = synth.synthesize(plan)
    _atomic_write_text(args.out, pose_io.trajectory_to_json(traj))
    angle = math.degrees(float(geometry.rotation_angle(traj.rotations[-1])))
    offset = float(np.linalg.norm(traj.translations[-1]))  # c2w: t is the center
    print(f"synthesized {len(traj)} frames -> {args.out}")
    print(f"last-frame rotation angle {angle:.9f} deg, center offset {offset:.9f}")
    return EXIT_OK


def cmd_embed(args) -> int:
    traj = pose_io.trajectory_from_json(_read_text(args.traj))
    shape = (len(traj), 6, traj.height, traj.width)
    frames = plucker.plucker_frames(traj, pixel_origin=args.pixel_origin)
    _atomic_write_all([(args.out, functools.partial(npyio.write_npy_frames, frames, shape))])
    print(f"embedded {shape} -> {args.out}")
    if args.verify:  # frame by frame, as written: maxima over frames are the whole map's
        with open(args.out, "rb") as f:
            reports = [plucker.verify_plucker(frame) for frame in npyio.read_npy_frames(f)]
        norm_dev, dot_dev = np.max([(r["direction_norm"], r["moment_dot"]) for r in reports], 0)
        ok = all(r["ok"] for r in reports)
        print(f"verify {'ok' if ok else 'FAILED'}: max |norm(d)-1| = {norm_dev:.3e}, "
              f"max |m.d|/max(1,|m|) = {dot_dev:.3e}")
        if not ok:
            raise CamTrajError("written embedding failed invariant check")
    return EXIT_OK


def cmd_eval(args) -> int:
    gt = pose_io.trajectory_from_json(_read_text(args.gt))
    gen = pose_io.trajectory_from_json(_read_text(args.gen))
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
    cfg = encoder.EncoderConfig(**{f.name: getattr(args, f.name)
                                   for f in dataclasses.fields(encoder.EncoderConfig)})
    feats = encoder.encoder_forward(npyio.read_npy_file(args.plucker), cfg)
    os.makedirs(args.out_dir, exist_ok=True)
    paths = [os.path.join(args.out_dir, f"scale{i}.npy") for i in range(1, len(feats) + 1)]
    _atomic_write_all([(path, functools.partial(npyio.write_npy, feat))
                       for path, feat in zip(paths, feats)])
    for i, (path, feat) in enumerate(zip(paths, feats), start=1):
        print(f"scale{i} {feat.shape} -> {path}")
    return EXIT_OK


# --- argument wiring --------------------------------------------------------

def _side(text: str) -> int:
    try:
        side = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if side < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {side}")
    try:
        float(side)  # pixel intrinsics are side * normalized value
    except OverflowError:
        raise argparse.ArgumentTypeError("integer too large for a float64") from None
    return side


def _channels(text: str) -> tuple[int, ...]:
    try:
        vals = [int(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad channel list {text!r}") from None
    if len(vals) != 4 or any(v < 1 for v in vals):
        raise argparse.ArgumentTypeError("need 4 positive channel counts")
    return tuple(vals)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="camtraj",
                description="Camera trajectory toolkit: pose parsing, Plucker "
                            "embeddings, synthesis, evaluation, encoding.")
    sub = p.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    sp = sub.add_parser("parse", help="pose-list text file to trajectory JSON")
    sp.add_argument("--input", required=True, help="pose-list text file")
    sp.add_argument("--width", type=_side, required=True)
    sp.add_argument("--height", type=_side, required=True)
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
    # dests are the EncoderConfig fields, whose defaults are the flags' defaults
    cfg = encoder.EncoderConfig()
    sp.add_argument("--channels", type=_channels, default=cfg.scale_channels,
                    dest="scale_channels", metavar="CHANNELS",
                    help="four scale widths, default " + ",".join(map(str, cfg.scale_channels)))
    sp.add_argument("--heads", type=int, default=cfg.heads)
    sp.add_argument("--mlp-ratio", type=int, default=cfg.mlp_ratio, dest="mlp_ratio")
    sp.add_argument("--unshuffle", type=int, default=cfg.unshuffle_factor,
                    dest="unshuffle_factor", metavar="UNSHUFFLE")
    sp.add_argument("--no-posemb", action="store_false", dest="use_posemb")
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
    except (CamTrajError, MemoryError) as e:
        if isinstance(e, MemoryError):  # numpy's text names the shape; a bare one is empty
            e = ": ".join(filter(None, ("out of memory", str(e))))
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
