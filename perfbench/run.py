"""Benchmark of the ``mbrep`` command-line tool.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload herz-ball --seed 1 --seconds 20 --trace 0

The seed generates the workload's inputs.  Set-up prepares them with
``mbrep normalize`` several times and reports the median.  The timed
commands then run as child processes, one at a time, in a closed loop with
one client until ``--seconds`` have passed; each end-to-end metric is the
median over those iterations.  Every command is bracketed by runs of
``perfbench/calibrate.py``, fixed reference work.  A command's wall and
CPU times are divided by the part of the calibrations around it whose speed
its own follows (interpreter-bound, BLAS-bound, or the whole), and
multiplied by that part's time on the reference host: the times are seconds
at a steady host speed.  With ``--trace 1`` the same commands also run twice
under ``perfbench/tracer.py``, which counts and times calls into the
package's public functions, and the per-layer metrics are printed instead.

Every command's exit code, stderr and outputs are checked; outputs must be
byte-identical across repetitions and between traced and untraced runs.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from tracer import PER_LAYER, counts_of
from workloads import WORKLOADS, Checks, Command, Workload

SETUP_REPEATS = 5
MIN_ITERATIONS = 3
TRACED_PASSES = 2
RUN_BUDGET_S = 170.0
HERE = Path(__file__).resolve().parent


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# Wall seconds of each part of perfbench/calibrate.py on the reference host
# (2-core x86_64, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31).  They only
# turn time ratios into seconds.
CALIB_REF_S = {"python": 0.35, "blas": 0.18, "mixed": 0.53}


@dataclass
class Sample:
    """One pass through a command sequence.  ``wall_s`` and ``cpu_s`` are
    raw; the scaled times multiply each command's times by the reference
    time of the matching part of the calibration over the geometric mean of
    that part in the calibration runs just before and after it."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    scaled_wall_s: float = 0.0
    scaled_cpu_s: float = 0.0
    calib_wall_s: float = 0.0

    def add(self, got: "Outcome", kind: str, before: Dict[str, float],
            after: Dict[str, float]) -> None:
        speed = CALIB_REF_S[kind] / (before[kind] * after[kind]) ** 0.5
        self.wall_s += got.wall_s
        self.cpu_s += got.cpu_s
        self.peak_rss_mb = max(self.peak_rss_mb, got.peak_rss_mb)
        self.scaled_wall_s += speed * got.wall_s
        self.scaled_cpu_s += speed * got.cpu_s
        self.calib_wall_s = after["python"]


@dataclass
class Outcome:
    """One child process: exit code, wall and CPU time, peak memory, and the
    bytes of what it printed and wrote."""

    rc: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str
    files: Dict[str, bytes]


class Runner:
    def __init__(self, root: Path, work: Path, params: Dict[str, str], deadline: float):
        self.work = work
        self.params = params
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)

    def spawn(self, argv: List[str], files: tuple) -> Outcome:
        """Run one child to completion; its resource use comes from wait4,
        so each command's peak memory is its own."""
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        for name in files:
            (self.work / name).unlink(missing_ok=True)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            status, usage = _wait(proc.pid, self.deadline - time.monotonic())
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        outputs = {name: (self.work / name).read_bytes()
                   for name in files if (self.work / name).is_file()}
        return Outcome(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss / 1024.0, out_path.read_text(), err_path.read_text(),
                       outputs)

    def calibrate(self) -> Dict[str, float]:
        """Run the calibration child; split its wall time into the BLAS part
        it reports and the interpreter-bound rest, and keep the whole as the
        mixed kind."""
        got = self.spawn([sys.executable, str(HERE / "calibrate.py")], ())
        if got.rc != 0:
            raise BenchError(f"the calibration exited {got.rc}: {got.stderr.strip()[-300:]}")
        blas = float(got.stdout)
        return {"python": got.wall_s - blas, "blas": blas, "mixed": got.wall_s}

    def argv(self, cmd: Command) -> List[str]:
        return [a.format(**self.params) for a in cmd.argv]

    def plain(self, cmd: Command) -> Outcome:
        return self.spawn([sys.executable, "-m", "mbrep.cli", *self.argv(cmd)], cmd.outputs)

    def traced(self, cmd: Command, counters: Path) -> Outcome:
        return self.spawn([sys.executable, str(HERE / "tracer.py"), "--counters", str(counters),
                           "--", *self.argv(cmd)], cmd.outputs)


def _wait(pid: int, timeout: float):
    """wait4 with a deadline: past it the child is killed and the run fails."""
    expired = []

    def kill(signum, frame):
        expired.append(True)
        os.kill(pid, signal.SIGKILL)

    previous = signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if expired:
        raise BenchError(f"a command ran past the {RUN_BUDGET_S:.0f} s budget of one run")
    return status, usage


def check(cmd: Command, got: Outcome, work: Path, tally: Checks) -> None:
    chk = Checks()
    chk.gate(got.rc == 0, f"{cmd.name} exited {got.rc}: {got.stderr.strip()[-300:]}")
    chk.gate("Traceback" not in got.stderr, f"{cmd.name} printed a traceback")
    if got.rc == 0:
        try:
            cmd.check(got.stdout, work, chk)
        except (ValueError, KeyError, OSError) as err:
            chk.gate(False, f"{cmd.name} output unreadable: {err}")
    tally.merge(chk)


def same_bytes(ref: Optional[Outcome], got: Outcome, what: str, tally: Checks) -> Outcome:
    """Gate that ``got`` printed and wrote exactly what ``ref`` did."""
    if ref is None:
        return got
    tally.gate(ref.stdout == got.stdout and ref.files == got.files,
               f"{what}: output differs from the first repetition")
    return ref


def environment() -> Dict[str, str]:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": str(len(os.sched_getaffinity(0))), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "numba": "present" if importlib.util.find_spec("numba") else "absent"}


def run(workload: Workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    started = time.monotonic()
    work = root / ".perfbench_work" / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(root, work, workload.make(np.random.default_rng(seed), work),
                        started + RUN_BUDGET_S)
        tally = Checks()
        setups, ref_setup = repeat(runner, workload.setup, tally, SETUP_REPEATS, 0.0)
        passes, ref = repeat(runner, workload.timed, tally, MIN_ITERATIONS, seconds)
        metrics = {"wall_s": (statistics.median(s.scaled_wall_s for s in passes), "s"),
                   "setup_s": (statistics.median(s.scaled_wall_s for s in setups), "s"),
                   "cpu_s": (statistics.median(s.scaled_cpu_s for s in passes), "s"),
                   "peak_rss_mb": (statistics.median(s.peak_rss_mb for s in passes), "MB")}
        raw_wall = statistics.median(s.wall_s for s in passes)
        q1, _, q3 = statistics.quantiles([s.scaled_wall_s for s in passes], n=4)
        calib = statistics.median(s.calib_wall_s for s in setups + passes)
        print(f"{workload.name}: seed={seed} iterations={len(passes)} "
              f"wall_s q1={q1:.4f} q3={q3:.4f} setup_repeats={SETUP_REPEATS}")
        print(f"unscaled: wall_s median={raw_wall:.4f} "
              f"setup_s median={statistics.median(s.wall_s for s in setups):.4f} "
              f"python calibration median={calib:.4f} (reference {CALIB_REF_S['python']} s)")
        if trace:
            metrics = traced_metrics(workload, runner, {**ref_setup, **ref}, tally, raw_wall)
        print(f"fail_ratio = {tally.failed / max(tally.attempted, 1):.6g} "
              f"({tally.failed} of {tally.attempted} checks failed)")
        print(f"defect_frac = {tally.defect_frac:.6g} (worst defect over its tolerance)")
        for note in tally.notes[:20]:
            print(f"check failed: {note}")
        wall = metrics.get("trace.wall_s", (0.0, "s"))[0]
        for name, (value, unit) in metrics.items():
            share = f"  ({value / wall:.1%} of traced wall)" if name.endswith(".self_s") else ""
            print(f"{name} = {value:.6g} {unit}{share}")
        return {"correct": tally.failed == 0, "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it


def repeat(runner: Runner, commands: List[Command], tally: Checks, at_least: int,
           seconds: float) -> Tuple[List[Sample], Dict[str, Outcome]]:
    """Run the command sequence, closed loop, at least ``at_least`` times and
    until ``seconds`` have passed, with a calibration run before the first
    command and after every command.  Returns the passes and each command's
    first outcome."""
    samples, ref = [], {}
    before = runner.calibrate()
    deadline = time.monotonic() + seconds
    while len(samples) < at_least or time.monotonic() < deadline:
        sample = Sample()
        for cmd in commands:
            got = runner.plain(cmd)
            after = runner.calibrate()
            check(cmd, got, runner.work, tally)
            ref[cmd.name] = same_bytes(ref.get(cmd.name), got, cmd.name, tally)
            sample.add(got, cmd.calibration, before, after)
            before = after
        samples.append(sample)
    return samples, ref


def traced_metrics(workload: Workload, runner: Runner, ref: Dict[str, Outcome], tally: Checks,
                   untraced_wall: float) -> Dict[str, Tuple[float, str]]:
    """Run set-up and timed commands under the tracer, twice; the counts must
    repeat exactly and the outputs must match the untraced run's."""
    passes = []
    counters = runner.work / "counters.json"
    for _ in range(TRACED_PASSES):
        merged: Dict[str, float] = {"trace.wall_s": 0.0}
        for cmd in workload.setup + workload.timed:
            counters.unlink(missing_ok=True)
            got = runner.traced(cmd, counters)
            check(cmd, got, runner.work, tally)
            same_bytes(ref[cmd.name], got, f"traced {cmd.name}", tally)
            if cmd not in workload.setup:
                merged["trace.wall_s"] += got.wall_s
            if counters.is_file():
                for name, value in json.loads(counters.read_text()).items():
                    merged[name] = merged.get(name, 0.0) + value
        merged["trace.overhead_s"] = merged["trace.wall_s"] - untraced_wall
        passes.append(merged)
    tally.gate(all(counts_of(p) == counts_of(passes[0]) for p in passes),
               "traced counts differ between passes")
    metrics = {name: (statistics.median(p.get(name, 0.0) for p in passes), unit)
               for name, unit in PER_LAYER}
    metrics["gate.defect_frac"] = (tally.defect_frac, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in sequence")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "mbrep" / "cli.py").is_file():
        print("perfbench: run from the root of an mbrep checkout (src/mbrep is missing)",
              file=sys.stderr)
        return 2
    print("env: " + " ".join(f"{k}={v}" for k, v in environment().items()))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), root)
                   for name in names}
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{name}.{k}": v for name, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
