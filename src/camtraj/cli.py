"""Command-line interface.

Subcommands: parse, synth, embed, eval, encode. Exit codes: 0 success, 1
usage error, 2 data error (a CamTrajError) or out of memory, 3 I/O error;
any other exception is a bug. Angles are degrees at this boundary and
radians inside the library. Output files are written to a temp file in the
destination directory and renamed into place, so a failed run, or one ended by
SIGTERM, never leaves a partial artifact; the four feature files of ``encode``
are renamed only once all four are written.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import math
import os
import pathlib
import stat
import sys
from collections.abc import Callable, Iterator
from typing import BinaryIO

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


@contextlib.contextmanager
def _atomic_writes() -> Iterator[Callable[[str, Callable[[BinaryIO], object]], str]]:
    """Yield ``put(path, write)``: it refuses a directory ``path``, else returns the new temp
    file beside it that ``write`` fills, mode 0666 & ~umask. A clean exit renames every temp
    file into place; on any exception they are removed and existing files kept."""
    tmps = []

    def put(path, write):
        with contextlib.suppress(FileNotFoundError):  # a symlink is replaced, not followed
            if stat.S_ISDIR(os.lstat(path).st_mode):
                raise IsADirectoryError(f"destination is a directory: {path}")
        head, name = os.path.split(os.path.abspath(path))
        tmp = os.path.join(head, f".tmp-{os.urandom(8).hex()}-{name}")
        with open(tmp, "xb") as f:
            tmps.append((tmp, path))
            write(f)
        return tmp
    try:
        yield put
        for tmp, path in tmps:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in tmps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


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
    with _atomic_writes() as put:
        put(args.out, functools.partial(pose_io.trajectory_to_json, traj))
    print(f"parsed {len(traj)} frames ({traj.convention.value}) -> {args.out}")
    return EXIT_OK


def cmd_synth(args) -> int:
    plan = pose_io.parse_trajectory_spec(_read_text(args.spec))
    traj = synth.synthesize(plan)
    with _atomic_writes() as put:
        put(args.out, functools.partial(pose_io.trajectory_to_json, traj))
    angle = math.degrees(float(geometry.rotation_angle(traj.rotations[-1])))
    offset = float(np.linalg.norm(traj.translations[-1]))  # c2w: t is the center
    print(f"synthesized {len(traj)} frames -> {args.out}")
    print(f"last-frame rotation angle {angle:.9f} deg, center offset {offset:.9f}")
    return EXIT_OK


def cmd_embed(args) -> int:
    traj = pose_io.trajectory_from_json(_read_text(args.traj))
    shape = (len(traj), 6, traj.height, traj.width)
    bands = plucker.plucker_bands(traj, pixel_origin=args.pixel_origin)
    lines = [f"embedded {shape} -> {args.out}"]  # printed once OUT is in place
    with _atomic_writes() as put:  # a failed check renames nothing into place
        tmp = put(args.out, functools.partial(npyio.write_npy_bands, bands, shape))
        if args.verify:  # band by band, as written: maxima over bands are the whole map's
            devs, ok = np.zeros(2), True
            with open(tmp, "rb") as f:
                for band in npyio.read_npy_bands(f, plucker.band_rows(*shape[2:])):
                    r = plucker.verify_plucker(band)
                    devs = np.maximum(devs, (r["direction_norm"], r["moment_dot"]))  # NaN stays
                    ok &= r["ok"]
            lines.append(f"verify {'ok' if ok else 'FAILED'}: max |norm(d)-1| = {devs[0]:.3e}, "
                         f"max |m.d|/max(1,|m|) = {devs[1]:.3e}")
            if not ok:
                print(lines[-1])
                raise CamTrajError("written embedding failed invariant check")
    print(*lines, sep="\n")
    return EXIT_OK


def cmd_eval(args) -> int:
    gt = pose_io.trajectory_from_json(_read_text(args.gt))
    gen = pose_io.trajectory_from_json(_read_text(args.gen))
    report = metrics.evaluate(gt, gen)
    with _atomic_writes() as put:
        put(args.out, functools.partial(pose_io.report_to_json, report))
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
    out_dir = pathlib.Path(args.out_dir).absolute()
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]  # made here, deepest first
    written = []  # (path, shape) per map

    def sink(feat):  # each map goes to its temp file as soon as the forward pass makes it
        path = os.path.join(args.out_dir, f"scale{len(written) + 1}.npy")
        os.makedirs(args.out_dir, exist_ok=True)
        put(path, functools.partial(npyio.write_npy, feat))
        written.append((path, feat.shape))
    try:
        with _atomic_writes() as put:
            encoder.encoder_forward(npyio.read_npy_file(args.plucker), cfg, sink=sink)
    except BaseException:
        for d in made:
            with contextlib.suppress(OSError):
                os.rmdir(d)
        raise
    for i, (path, shape) in enumerate(written, start=1):
        print(f"scale{i} {shape} -> {path}")
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


def run() -> None:
    """:func:`main` as a program, where SIGTERM exits 143 through a failed run's cleanup."""
    import signal  # here, as only the program needs it: importing the CLI stays as cheap
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())


if __name__ == "__main__":
    run()
