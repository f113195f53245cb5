"""camtraj benchmark: the CLI pipelines end to end, and their layers traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program runs from its ``src``
directory. One closed-loop client runs one ``python -m camtraj.cli``
process at a time, with BLAS limited to min(2, nproc) threads. The seed
makes every input, written to files before any timing starts; the program
sees only those files. A pass runs the workload's whole pipeline, and a
run repeats passes until ``--seconds`` have gone by.

Workloads (BENCHMARK.json says why each was chosen):
  encode16      synth -> embed -> encode of a 16-frame 384x256 clip
  score10k      parse x2, synth and eval x2 on 10,000-frame trajectories
  embed_verify  synth -> embed --verify of a 32-frame 640x384 clip

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
wall_s (median over passes of the summed spawn-to-exit times of the
pipeline's CLI processes), peak_rss_mb (median over passes of the highest
ru_maxrss of any step) and setup_s (median time to spawn an interpreter and
import camtraj.cli, sampled before and after the passes). A step fails on a non-zero
exit or a failed output check; ``failed`` counts them and fail_ratio =
failed / attempted is printed above. With ``--trace 1`` the run alternates
untraced passes, which give the cli.* metrics, with traced passes, which
run each step through perfbench/tracer.py and give the other per-layer
metrics; trace.overhead_frac compares the two. A metric of a layer that the
workload leaves idle, or of a function the program no longer has, reads 0
and is listed as absent.

Every pass hashes its output files (SHA-256). They must match the first
pass of the run and the first run of the same workload and seed of the same
code in this checkout, recorded under .perfbench_out/hashes. The record is
keyed by a digest of the program's sources and the benchmark's own, so a
change that alters output bits is never compared with another version's
outputs: the contract is determinism at one version. Results, spans and logs go
to .perfbench_out/. Seeds 1-10 were used while writing the benchmark; seed
101 is held out for checking later claims.

This process imports no numpy: a child's ru_maxrss includes its parent's
high-water mark, so inputs, output checks and the machine probe run in
child processes and the parent stays smaller than any CLI step.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_BUDGET_S = 170.0  # a run must end within 180 s; children are killed past this
SETUP_BATCH = 12  # spawns of a bare "import camtraj.cli" before and after the passes
CLI_COMMANDS = ("parse", "synth", "embed", "eval", "encode")


@dataclass
class StepResult:
    cmd: str
    wall_s: float
    rss_mb: float
    rc: int
    error: str | None = None


@dataclass
class Pass:
    traced: bool
    steps: list[StepResult] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.steps)

    @property
    def peak_rss_mb(self) -> float:
        return max(s.rss_mb for s in self.steps)


class Runner:
    """Spawns the children of one run and checks the CLI steps' outputs."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.inp, self.out, self.logs = work / "inputs", work / "out", work / "logs"
        for d in (self.inp, self.out, self.logs):
            d.mkdir(parents=True, exist_ok=True)
        self.steps = workloads.STEPS[workload](self.inp, self.out)
        self.hash_file = OUT / "hashes" / f"{workload}-seed{seed}-{_code_digest()[:16]}.json"
        self.reference = (json.loads(self.hash_file.read_text())
                          if self.hash_file.exists() else None)
        self.spans_file = OUT / "spans" / f"{workload}-seed{seed}.jsonl"
        self.passes: list[Pass] = []

    def spawn(self, argv: list[str], log: Path) -> tuple[int, float, float]:
        """Run one child to its exit: (exit code, spawn-to-exit seconds, maxrss MB)."""
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, str(log), flags, 0o644),
                   (os.POSIX_SPAWN_DUP2, 1, 2)]
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        # the child is killed if it would push the run past its budget
        timer = threading.Timer(max(1.0, self.deadline - time.perf_counter()),
                                os.kill, (pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, ru = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        return os.waitstatus_to_exitcode(status), wall, ru.ru_maxrss / 1024.0

    def helper(self, script: str, *args: str) -> str | None:
        """Run a perfbench helper script: its last output line ("" if none),
        or None if it failed."""
        log = self.logs / f"{script}.log"
        rc, _, _ = self.spawn([sys.executable, str(BENCH / script), *args], log)
        lines = log.read_text(encoding="utf-8", errors="replace").splitlines() or [""]
        return lines[-1] if rc == 0 else None

    def setup_times(self, samples: int) -> list[float]:
        argv = [sys.executable, "-c", "import camtraj.cli"]
        return [self.spawn(argv, self.logs / "setup.log")[1] for _ in range(samples)]

    def run_pass(self, traced: bool) -> Pass:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        p = Pass(traced)
        run_id = f"{self.workload}-seed{self.seed}-pass{len(self.passes)}"
        for i, step in enumerate(self.steps):
            if traced:
                argv = [sys.executable, str(BENCH / "tracer.py"), "--spans",
                        str(self.spans_file), "--run", f"{run_id}-step{i}", "--", step.cmd]
            else:
                argv = [sys.executable, "-m", "camtraj.cli", step.cmd]
            rc, wall, rss = self.spawn(argv + list(step.args), self.logs / f"step{i}.log")
            p.steps.append(StepResult(step.cmd, wall, rss, rc))
        self.check(p)
        self.passes.append(p)
        return p

    def check(self, p: Pass) -> None:
        """Fail steps that exited non-zero, or whose outputs are wrong or differ
        from the first pass of this run or the first run of this seed."""
        line = self.helper("workloads.py", "check", self.workload,
                           str(self.inp), str(self.out), str(self.logs))
        errors = _json_or_none(line)
        if not isinstance(errors, list) or len(errors) != len(self.steps):
            errors = ["output check crashed"] * len(self.steps)
        hashes = {}
        for step, res, error in zip(self.steps, p.steps, errors):
            missing = [o for o in step.outputs if not (self.out / o).is_file()]
            if res.rc != 0:
                res.error = f"exit code {res.rc}"
            elif missing:
                res.error = f"missing outputs {missing}"
            else:
                res.error = error
                hashes.update((o, _sha256(self.out / o)) for o in step.outputs)
                changed = [o for o in step.outputs
                           if self.reference is not None and hashes[o] != self.reference.get(o)]
                if res.error is None and changed:
                    res.error = f"outputs differ from the first run of this seed: {changed}"
        if self.reference is None and not any(s.error for s in p.steps):
            self.reference = hashes
            self.hash_file.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.hash_file.with_suffix(".tmp")
            tmp.write_text(json.dumps(hashes, indent=1, sort_keys=True))
            tmp.replace(self.hash_file)

    def measure(self, seconds: float, trace: bool, run_start: float) -> None:
        """Closed loop: passes back to back until ``seconds`` have gone by.

        Traced runs alternate untraced and traced passes, at least one of
        each. No pass is started that would overrun the run's budget.
        """
        t0 = time.perf_counter()
        while True:
            p = self.run_pass(traced=trace and len(self.passes) % 2 == 1)
            now = time.perf_counter()
            enough = now - t0 >= seconds and (not trace or len(self.passes) >= 2)
            if enough or now + p.wall_s * 1.5 > run_start + RUN_BUDGET_S:
                return


def _json_or_none(line: str | None):
    try:
        return json.loads(line) if line else None
    except ValueError:
        return None


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _code_digest() -> str:
    """SHA-256 over the paths and bytes of the program's sources and the benchmark's."""
    h = hashlib.sha256()
    files = [p for d in (SRC / "camtraj", BENCH) for p in d.rglob("*")
             if p.is_file() and "__pycache__" not in p.parts]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(_sha256(p).encode())
    return h.hexdigest()


def _stats(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


# --- metrics ------------------------------------------------------------------

def end_to_end(passes: list[Pass], setup: list[float]) -> tuple[dict, dict]:
    stats = {
        "wall_s": ("s", _stats([p.wall_s for p in passes])),
        "peak_rss_mb": ("MB", _stats([p.peak_rss_mb for p in passes])),
        "setup_s": ("s", _stats(setup)),
    }
    metrics = {k: {"value": s["median"], "unit": u} for k, (u, s) in stats.items()}
    return metrics, {k: s for k, (_, s) in stats.items()}


def cli_metrics(passes: list[Pass]) -> dict:
    """cli.<cmd>_s (summed per pass) and cli.<cmd>.rss_mb (max per pass), medians."""
    out = {}
    for cmd in CLI_COMMANDS:
        walls = [sum(s.wall_s for s in p.steps if s.cmd == cmd) for p in passes]
        rss = [max([s.rss_mb for s in p.steps if s.cmd == cmd], default=0.0) for p in passes]
        out[f"cli.{cmd}_s"] = {"value": statistics.median(walls), "unit": "s"}
        out[f"cli.{cmd}.rss_mb"] = {"value": statistics.median(rss), "unit": "MB"}
    return out


def per_layer(runner: Runner, ceiling: float) -> tuple[dict, list[str], list[str]]:
    """All per-layer metrics, the names of the absent ones, and the traced
    functions the program no longer has."""
    untraced = [p for p in runner.passes if not p.traced]
    traced = [p for p in runner.passes if p.traced]
    spans, absent_funcs = [], set()
    if runner.spans_file.exists():
        spans, absent_funcs = tracer.read_spans(str(runner.spans_file))
    by_pass: dict[str, list[dict]] = {}
    for s in spans:
        by_pass.setdefault(s["run"].rsplit("-step", 1)[0], []).append(s)
    values = tracer.layer_metrics(list(by_pass.values()) or [[]])
    metrics = cli_metrics(untraced)
    metrics.update({k: {"value": values[k], "unit": u} for k, u in tracer.SPAN_METRICS.items()})
    metrics["encoder.sgemm_ceiling_gflop_per_s"] = {"value": ceiling, "unit": "GFLOP/s"}
    metrics["encoder.ceiling_fraction"] = {
        "value": tracer.ratio(values["encoder.forward_gflop_per_s"], ceiling), "unit": "ratio"}
    overhead = 0.0
    if traced:
        overhead = (statistics.median(p.wall_s for p in traced)
                    / statistics.median(p.wall_s for p in untraced) - 1.0)
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    absent = sorted(k for k, m in metrics.items() if m["value"] == 0)
    return metrics, absent, sorted(absent_funcs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.STEPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    run_start = time.perf_counter()
    if not (SRC / "camtraj" / "cli.py").is_file():
        print(f"error: no camtraj sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = str(SRC)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so the cleanup below runs

    work = OUT / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        runner = Runner(args.workload, args.seed, work, run_start + RUN_BUDGET_S)
        if runner.helper("workloads.py", "inputs", args.workload, str(args.seed),
                         str(runner.inp)) is None:
            print("error: input generation failed:\n"
                  + (runner.logs / "workloads.py.log").read_text(), file=sys.stderr)
            return 2
        runner.setup_times(1)  # fills the bytecode cache; not timed
        selftest = True
        if args.trace:
            selftest = runner.helper("selftest.py") is not None
            runner.spans_file.parent.mkdir(parents=True, exist_ok=True)
            runner.spans_file.unlink(missing_ok=True)
            runner.measure(args.seconds, True, run_start)
        else:
            # set-up samples bracket the passes, so they see the run's conditions
            setup = runner.setup_times(SETUP_BATCH)
            runner.measure(args.seconds, False, run_start)
            setup += runner.setup_times(SETUP_BATCH)
        machine = _json_or_none(runner.helper("machine.py")) or {"error": "machine probe failed"}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine,
              "bench_process_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "tensor_bytes_computed": workloads.TENSOR_BYTES.get(args.workload)}
    if args.trace:
        ceiling = machine.get("sgemm_ceiling_gflop_per_s", 0.0)
        metrics, absent, absent_funcs = per_layer(runner, ceiling)
        result.update(absent_metrics=absent, absent_functions=absent_funcs,
                      spans=str(runner.spans_file.relative_to(ROOT)), selftest_ok=selftest)
    else:
        metrics, result["stats"] = end_to_end(runner.passes, setup)
    steps = [s for p in runner.passes for s in p.steps]
    failed = sum(1 for s in steps if s.error)
    result.update(metrics=metrics, fail_ratio=failed / len(steps),
                  passes=[{"traced": p.traced, "steps": [vars(s) for s in p.steps]}
                          for p in runner.passes])
    results_file = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_file.parent.mkdir(parents=True, exist_ok=True)
    results_file.write_text(json.dumps(result, indent=1) + "\n")

    print(f"machine {json.dumps(machine)}")
    if result["tensor_bytes_computed"]:
        print(f"npyio tensor {result['tensor_bytes_computed']} bytes (computed), "
              f"last-level cache {machine.get('llc_bytes')} bytes")
    if not selftest:
        print("FAILED perfbench/selftest.py: analytic FLOP counts do not match hand counts")
    for s in steps:
        if s.error:
            print(f"FAILED {s.cmd}: {s.error}")
    print(f"{args.workload} seed {args.seed}: {len(runner.passes)} passes, "
          f"{len(steps)} steps, {failed} failed, fail_ratio {result['fail_ratio']:.6g}")
    for name, st in result.get("stats", {}).items():
        print(f"{name} median {st['median']:.6g} q1 {st['q1']:.6g} q3 {st['q3']:.6g} "
              f"n {st['n']} {metrics[name]['unit']}")
    if args.trace:
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        print(f"absent {json.dumps(result['absent_metrics'])}")
    print(f"results -> {results_file.relative_to(ROOT)}")
    print(json.dumps({"correct": selftest and failed == 0, "attempted": len(steps),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
