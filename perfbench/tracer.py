"""Span tracing of camtraj from outside the package.

``Tracer.install()`` replaces the public functions of each camtraj module
with wrappers that record one span per call: name, start, end, parent span
and run id, plus analytic counts (FLOPs, bytes, frames, rays) computed from
the argument and result shapes after the clock has stopped. A wrapper is
installed under every name bound to the function in any camtraj module, so
``metrics.relativize`` is traced as well as ``geometry.relativize``. A name
the package no longer has is recorded as absent instead of failing, so the
trace keeps working when later versions inline or delete a function.

Run as a script, it traces one CLI step in this process:

    python perfbench/tracer.py --spans OUT.jsonl --run RUN_ID -- encode ...

and exits with the CLI's exit code. ``layer_metrics`` turns the span
records of traced passes into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import statistics
import sys
import time

PACKAGE = "camtraj"
F32 = 4  # bytes per float32 element; byte counts below are computed, not measured


def _prod(shape) -> int:
    out = 1
    for s in shape:
        out *= int(s)
    return out


def _nbytes(x) -> int:
    return int(getattr(x, "nbytes", 0))


def _same_pad_out(size: int, k: int, stride: int) -> int:
    pad = (k - 1) // 2
    return (size + 2 * pad - k) // stride + 1


def conv2d_counts(x_shape, w_shape, stride: int) -> dict:
    """Conv FLOPs 2*N*Ho*Wo*Cout*Cin*k^2 and bytes in+weights+out."""
    n, cin, h, w = x_shape
    cout, _, kh, kw = w_shape
    ho, wo = _same_pad_out(h, kh, stride), _same_pad_out(w, kw, stride)
    return {
        "flops": 2 * n * ho * wo * cout * cin * kh * kw,
        "bytes": F32 * (n * cin * h * w + cout * cin * kh * kw + n * cout * ho * wo),
    }


def mhsa_counts(x_shape, heads: int) -> dict:
    """QKV and output projections 8*R*n*c^2, scores and weighted sum 4*R*n^2*c."""
    r, n, c = x_shape
    return {
        "flops": 8 * r * n * c * c + 4 * r * n * n * c,
        "bytes": F32 * (2 * r * n * c + 4 * c * c + r * heads * n * n),
    }


def mlp_counts(x_shape, hidden: int) -> dict:
    """The two MLP GEMMs of a temporal attention block: 4*R*n*c*hidden."""
    r, n, c = x_shape
    return {
        "flops": 4 * r * n * c * hidden,
        "bytes": F32 * (2 * r * n * c + 2 * c * hidden + r * n * hidden),
    }


def _array_bytes(obj, seen=None) -> int:
    """Total nbytes of the distinct arrays reachable from a dataclass tree."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if hasattr(obj, "nbytes") and hasattr(obj, "dtype"):
        return int(obj.nbytes)
    if isinstance(obj, (tuple, list)):
        return sum(_array_bytes(o, seen) for o in obj)
    fields = getattr(obj, "__dataclass_fields__", None)
    if fields:
        return sum(_array_bytes(getattr(obj, f), seen) for f in fields)
    return 0


# Each measure gets the bound arguments (defaults applied) and the result.
def _m_conv2d(a, out):
    return conv2d_counts(a["x"].shape, a["w"].shape, int(a.get("stride", 1)))


def _m_mhsa(a, out):
    return mhsa_counts(a["x"].shape, int(a["heads"]))


def _m_attention_block(a, out):
    return mlp_counts(a["x"].shape, int(a["p"].mlp_w1.shape[1]))


def _m_res_block(a, out):
    return {"stride": int(getattr(a["p"], "stride", 1))}


def _m_elementwise(a, out):
    return {"bytes": _nbytes(a["x"]) + _nbytes(out)}


def _m_len_result(a, out):
    return {"frames": len(out)}


TARGETS = {
    "cli": {"_atomic_write_bytes": lambda a, out: {"bytes": len(a["data"])}},
    "pose_io": {
        "parse_pose_file": lambda a, out: {"frames": len(out.records)},
        "to_trajectory": _m_len_result,
        "trajectory_to_json": lambda a, out: {"frames": len(a["traj"])},
        "trajectory_from_json": _m_len_result,
        "parse_trajectory_spec": lambda a, out: {"frames": int(out.frames)},
    },
    "geometry": {"relativize": _m_len_result},
    "synth": {"synthesize": _m_len_result},
    "metrics": {
        "evaluate": lambda a, out: {"frames": int(out.frames_compared)},
        "normalize_scale": lambda a, out: {"frames": len(a["gt"])},
        "rot_err": lambda a, out: {"frames": len(a["gt"])},
        "trans_err": lambda a, out: {"frames": len(a["gt"])},
    },
    "plucker": {
        "plucker_sequence": lambda a, out: {
            "rays": out.shape[0] * out.shape[-2] * out.shape[-1], "bytes": _nbytes(out)},
        "verify_plucker": lambda a, out: {"rays": _prod(a["arr"].shape) // 6},
    },
    "npyio": {
        "write_npy": lambda a, out: {"bytes": _nbytes(a["arr"])},
        "read_npy": lambda a, out: {"bytes": _nbytes(out)},
    },
    "encoder": {
        "encoder_forward": None,
        "build_encoder_weights": lambda a, out: {"bytes": _array_bytes(out)},
        "pixel_unshuffle": _m_elementwise,
        "conv2d": _m_conv2d,
        "res_block": _m_res_block,
        "temporal_attention_block": _m_attention_block,
        "multi_head_self_attention": _m_mhsa,
        "layer_norm": _m_elementwise,
        "silu": _m_elementwise,
        "softmax": _m_elementwise,
    },
}


class Tracer:
    """Collects spans in memory; ``write`` appends them as JSON lines."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._replaced: list[tuple] = []  # (module, attribute, original function)

    def _wrap(self, name: str, fn, measure):
        sig = inspect.signature(fn) if measure else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            error = None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                error = type(e).__name__
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                span = {"run": self.run_id, "id": sid, "parent": parent, "name": name,
                        "start": t0, "end": t1}
                if error:
                    span["error"] = error
                spans.append(span)
            if measure is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.update(measure(bound.arguments, out))
                except Exception as e:  # a changed signature must not break the traced run
                    span["measure_error"] = f"{type(e).__name__}: {e}"
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every target under each name that binds it in a loaded module."""
        modules = {}
        for mod in TARGETS:
            try:
                modules[mod] = importlib.import_module(f"{PACKAGE}.{mod}")
            except ImportError:
                modules[mod] = None
        loaded = [m for name, m in sys.modules.items()
                  if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for mod, funcs in TARGETS.items():
            for func, measure in funcs.items():
                name = f"{mod}.{func}"
                fn = getattr(modules[mod], func, None) if modules[mod] else None
                if not inspect.isfunction(fn):
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, fn, measure)
                for m in loaded:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapper)
                            self._replaced.append((m, attr, fn))

    def uninstall(self) -> None:
        """Put back every function that ``install`` replaced."""
        for m, attr, fn in reversed(self._replaced):
            setattr(m, attr, fn)
        self._replaced.clear()

    def write(self, path: str) -> None:
        with open(path, "a", encoding="utf-8") as f:
            f.write(json.dumps({"run": self.run_id, "absent": self.absent}) + "\n")
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def read_spans(path: str) -> tuple[list[dict], set[str]]:
    spans, absent = [], set()
    with open(path, encoding="utf-8") as f:
        for line in f:
            rec = json.loads(line)
            if "absent" in rec:
                absent.update(rec["absent"])
            else:
                spans.append(rec)
    return spans, absent


# --- per-layer metrics --------------------------------------------------------

# name -> unit for every metric derived from spans, in report order
SPAN_METRICS = {
    "cli.atomic_write_s": "s", "cli.bytes_written": "bytes_computed",
    "pose_io.parse_pose_file_s": "s", "pose_io.to_trajectory_s": "s",
    "pose_io.trajectory_to_json_s": "s", "pose_io.trajectory_from_json_s": "s",
    "pose_io.parse_trajectory_spec_s": "s", "pose_io.frames": "count",
    "pose_io.frames_per_s": "1/s",
    "geometry.relativize_s": "s", "synth.synthesize_s": "s", "synth.frames": "count",
    "metrics.evaluate_s": "s", "metrics.normalize_scale_s": "s",
    "metrics.rot_err_s": "s", "metrics.trans_err_s": "s", "metrics.frames_per_s": "1/s",
    "plucker.plucker_sequence_s": "s", "plucker.verify_plucker_s": "s",
    "plucker.rays": "count", "plucker.rays_per_s": "1/s",
    "npyio.write_npy_s": "s", "npyio.read_npy_s": "s",
    "npyio.bytes_written": "bytes_computed", "npyio.bytes_read": "bytes_computed",
    "npyio.write_gb_per_s": "GB/s", "npyio.read_gb_per_s": "GB/s",
    "encoder.build_encoder_weights_s": "s", "encoder.weight_bytes": "bytes_computed",
    "encoder.pixel_unshuffle_s": "s",
    "encoder.conv2d_s": "s", "encoder.conv2d_gflop": "GFLOP", "encoder.conv2d_gflop_per_s": "GFLOP/s",
    "encoder.res_block_self_s": "s", "encoder.temporal_attention_block_self_s": "s",
    "encoder.multi_head_self_attention_s": "s", "encoder.mhsa_gflop": "GFLOP",
    "encoder.layer_norm_s": "s", "encoder.silu_s": "s", "encoder.softmax_s": "s",
    "encoder.scale1_s": "s", "encoder.scale2_s": "s", "encoder.scale3_s": "s",
    "encoder.scale4_s": "s",
    "encoder.forward_s": "s", "encoder.forward_gflop": "GFLOP",
    "encoder.forward_gflop_per_s": "GFLOP/s",
}

POSE_IO_FUNCS = ("parse_pose_file", "to_trajectory", "trajectory_to_json",
                 "trajectory_from_json", "parse_trajectory_spec")


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _scale_times(spans: list[dict]) -> list[float]:
    """Seconds per encoder scale, per encoder_forward call, summed over calls.

    A scale starts at the first residual block of the forward pass and at
    every stride-2 residual block; it ends where the next one starts, or at
    the end of the last attention block.
    """
    by_parent: dict = {}
    for s in spans:
        by_parent.setdefault((s["run"], s["parent"]), []).append(s)
    totals = [0.0] * 4
    for fwd in (s for s in spans if s["name"] == "encoder.encoder_forward"):
        blocks = sorted((s for s in _descendants(fwd, by_parent)
                         if s["name"] in ("encoder.res_block",
                                          "encoder.temporal_attention_block")),
                        key=lambda s: s["start"])
        starts = [i for i, s in enumerate(blocks)
                  if s["name"] == "encoder.res_block"
                  and (i == 0 or s.get("stride", 1) != 1)]
        for k, i in enumerate(starts[:4]):
            end = blocks[starts[k + 1]]["start"] if k + 1 < len(starts) else blocks[-1]["end"]
            totals[k] += end - blocks[i]["start"]
    return totals


def _descendants(span: dict, by_parent: dict):
    todo = list(by_parent.get((span["run"], span["id"]), []))
    while todo:
        s = todo.pop()
        yield s
        todo.extend(by_parent.get((s["run"], s["id"]), []))


def pass_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics of one traced pass (all steps of one pipeline run)."""
    total: dict[str, float] = {}
    count: dict[str, float] = {}
    self_time: dict[str, float] = {}
    child_time: dict[tuple, float] = {}
    for s in spans:
        d = _dur(s)
        total[s["name"]] = total.get(s["name"], 0.0) + d
        if s["parent"] is not None:
            key = (s["run"], s["parent"])
            child_time[key] = child_time.get(key, 0.0) + d
    for s in spans:
        self_time[s["name"]] = (self_time.get(s["name"], 0.0) + _dur(s)
                                - child_time.get((s["run"], s["id"]), 0.0))
        for k in ("flops", "bytes", "frames", "rays"):
            if k in s:
                key = f"{s['name']}:{k}"
                count[key] = count.get(key, 0) + s[k]

    def t(name):
        return total.get(name, 0.0)

    def c(name):
        return count.get(name, 0)

    m = {
        "cli.atomic_write_s": t("cli._atomic_write_bytes"),
        "cli.bytes_written": c("cli._atomic_write_bytes:bytes"),
    }
    for f in POSE_IO_FUNCS:
        m[f"pose_io.{f}_s"] = t(f"pose_io.{f}")
    pose_frames = sum(c(f"pose_io.{f}:frames") for f in POSE_IO_FUNCS)
    m["pose_io.frames"] = pose_frames
    m["pose_io.frames_per_s"] = ratio(pose_frames, sum(t(f"pose_io.{f}") for f in POSE_IO_FUNCS))
    m["geometry.relativize_s"] = t("geometry.relativize")
    m["synth.synthesize_s"] = t("synth.synthesize")
    m["synth.frames"] = c("synth.synthesize:frames")
    for f in ("evaluate", "normalize_scale", "rot_err", "trans_err"):
        m[f"metrics.{f}_s"] = t(f"metrics.{f}")
    m["metrics.frames_per_s"] = ratio(c("metrics.evaluate:frames"), t("metrics.evaluate"))
    m["plucker.plucker_sequence_s"] = t("plucker.plucker_sequence")
    m["plucker.verify_plucker_s"] = t("plucker.verify_plucker")
    m["plucker.rays"] = c("plucker.plucker_sequence:rays")
    m["plucker.rays_per_s"] = ratio(m["plucker.rays"], m["plucker.plucker_sequence_s"])
    m["npyio.write_npy_s"] = t("npyio.write_npy")
    m["npyio.read_npy_s"] = t("npyio.read_npy")
    m["npyio.bytes_written"] = c("npyio.write_npy:bytes")
    m["npyio.bytes_read"] = c("npyio.read_npy:bytes")
    m["npyio.write_gb_per_s"] = ratio(m["npyio.bytes_written"] / 1e9, m["npyio.write_npy_s"])
    m["npyio.read_gb_per_s"] = ratio(m["npyio.bytes_read"] / 1e9, m["npyio.read_npy_s"])
    m["encoder.build_encoder_weights_s"] = t("encoder.build_encoder_weights")
    m["encoder.weight_bytes"] = c("encoder.build_encoder_weights:bytes")
    m["encoder.pixel_unshuffle_s"] = t("encoder.pixel_unshuffle")
    conv_gflop = c("encoder.conv2d:flops") / 1e9
    mhsa_gflop = c("encoder.multi_head_self_attention:flops") / 1e9
    mlp_gflop = c("encoder.temporal_attention_block:flops") / 1e9
    m["encoder.conv2d_s"] = t("encoder.conv2d")
    m["encoder.conv2d_gflop"] = conv_gflop
    m["encoder.conv2d_gflop_per_s"] = ratio(conv_gflop, m["encoder.conv2d_s"])
    m["encoder.res_block_self_s"] = self_time.get("encoder.res_block", 0.0)
    m["encoder.temporal_attention_block_self_s"] = self_time.get(
        "encoder.temporal_attention_block", 0.0)
    m["encoder.multi_head_self_attention_s"] = t("encoder.multi_head_self_attention")
    m["encoder.mhsa_gflop"] = mhsa_gflop
    for f in ("layer_norm", "silu", "softmax"):
        m[f"encoder.{f}_s"] = t(f"encoder.{f}")
    for k, v in enumerate(_scale_times(spans), start=1):
        m[f"encoder.scale{k}_s"] = v
    # forward time excludes weight drawing, which encoder_forward does itself
    forward_s = max(0.0, t("encoder.encoder_forward") - m["encoder.build_encoder_weights_s"])
    m["encoder.forward_s"] = forward_s
    m["encoder.forward_gflop"] = conv_gflop + mhsa_gflop + mlp_gflop
    m["encoder.forward_gflop_per_s"] = ratio(m["encoder.forward_gflop"], forward_s)
    return m


def layer_metrics(passes: list[list[dict]]) -> dict:
    """Median over traced passes of each metric in SPAN_METRICS.

    A metric no span fed reads 0: its layer was idle on this workload or the
    traced function no longer exists.
    """
    per_pass = [pass_metrics(p) for p in passes]
    return {name: statistics.median(pm[name] for pm in per_pass) for name in SPAN_METRICS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="run one camtraj CLI step with span tracing")
    ap.add_argument("--spans", required=True, help="JSON-lines file to append spans to")
    ap.add_argument("--run", required=True, help="run id stored in every span")
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    import camtraj.cli
    tracer = Tracer(args.run)
    tracer.install()
    try:
        return camtraj.cli.main(cli_args)
    finally:
        tracer.write(args.spans)


if __name__ == "__main__":
    sys.exit(main())
