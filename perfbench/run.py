#!/usr/bin/env python3
"""Benchmark of the ``negshapley`` command line, end to end and by layer.

Run from the root of a checkout (the program is read from ``src/``):

    python3 perfbench/run.py --workload ms-score --seed 3 --seconds 20 --trace 0

The load is one closed-loop client: the workload's invocations run one
child process at a time, each started after the previous one exits, and
the sequence repeats until ``--seconds`` have passed (at least once).
With ``--trace 0`` it prints the end-to-end metrics, its times scaled to
a reference host speed (see ``calibrate.py``); with ``--trace 1``
it replays the same invocations in this process through
``negshapley.cli.main`` with every layer wrapped (see ``tracer.py``) and
prints the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import calibrate
import checks
import tracer
import workloads

WORK_DIR = ".perfbench_work"
SETUP_PER_INVOCATION = 1
INVOCATION_TIMEOUT_S = 120.0
RUN_BUDGET_S = 170.0  # the whole run, set-up included, must end within this

END_TO_END_UNITS = {
    "wall_s": "s",
    "records_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# The fixed cost of every invocation: import the package and load the
# workload's inputs, then exit.
SETUP_CODE = """
import sys
from negshapley import cli
from negshapley.core import load_database
from negshapley.query import parse_query
for name in sys.argv[1:]:
    load_database(name + ".facts")
    with open(name + ".q", encoding="utf-8") as handle:
        parse_query(handle.read())
"""


@dataclass
class Outcome:
    """One invocation: its wall time, exit code (``None`` if it timed
    out), peak RSS and output."""

    wall: float
    exit_code: int | None
    rss_mb: float
    stdout: str
    stderr: str


class Launcher:
    """Runs children one at a time through ``launcher.py``, which reports
    each child's wall time and its own peak RSS from ``os.wait4``."""

    def __init__(self, env: dict, work: Path) -> None:
        self.work = work
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )

    def run(self, argv: list[str], timeout: float) -> Outcome:
        out, err = self.work / ".stdout", self.work / ".stderr"
        request = {"argv": argv, "cwd": str(self.work), "stdout": str(out),
                   "stderr": str(err), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher exited")
        reply = json.loads(line)
        return Outcome(
            wall=reply["wall"],
            exit_code=reply["exit_code"],
            rss_mb=reply["maxrss_kb"] / 1024.0,  # Linux reports KiB
            stdout=out.read_text(encoding="utf-8", errors="replace"),
            stderr=err.read_text(encoding="utf-8", errors="replace"),
        )

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class Judge:
    """Applies every check to each pass and keeps the tally."""

    def __init__(self, wl: workloads.Workload) -> None:
        self.wl = wl
        self.recorded = checks.load_digests()
        self.keys = [checks.input_key(inv, wl.instances[inv.instance])
                     for inv in wl.invocations]
        self.first: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests_checked = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def judge(self, outcomes: list[Outcome]) -> int:
        """Check one pass; returns the records it produced."""
        texts: list[str | None] = []
        notes: list[str | None] = []
        for i, (inv, out) in enumerate(zip(self.wl.invocations, outcomes)):
            note = None
            if out.exit_code is None:
                note = "timed out"
            elif out.exit_code != inv.expect_exit:
                note = (f"exit code {out.exit_code}, expected {inv.expect_exit}: "
                        f"{out.stderr.strip()[-300:]}")
            else:
                digest = checks.output_digest(out.stdout)
                want = self.recorded.get(self.keys[i])
                if want is not None:
                    self.digests_checked += 1
                if want is not None and want != digest:
                    note = "output differs from the recorded digest"
                elif self.first.setdefault(i, digest) != digest:
                    note = "output differs from the first pass"
            notes.append(note)
            texts.append(out.stdout if out.exit_code == inv.expect_exit else None)
        records, problems = checks.check_pass(self.wl, texts)
        for inv, note, problem in zip(self.wl.invocations, notes, problems):
            self.attempted += 1
            if note or problem:
                self.fail(f"{' '.join(inv.argv)}: {note or problem}")
        return sum(records)

    def result(self, metrics: dict[str, float], units) -> str:
        return json.dumps({
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": units(name)}
                        for name, value in metrics.items()},
        })


def cli_argv(inv: workloads.Invocation) -> list[str]:
    return [sys.executable, "-m", "negshapley.cli", *inv.argv]


class SpeedMeter:
    """Wall times of calibration children (``calibrate.py``), started through
    the same launcher as the program, between its invocations."""

    def __init__(self, launcher: Launcher) -> None:
        self.launcher = launcher
        self.walls: list[float] = []

    def sample(self) -> None:
        argv = [sys.executable, "-S", str(Path(__file__).with_name("calibrate.py"))]
        out = self.launcher.run(argv, INVOCATION_TIMEOUT_S)
        if out.exit_code != 0:
            raise RuntimeError(f"calibration child failed: {out.stderr.strip()[-300:]}")
        self.walls.append(out.wall)

    def scale(self) -> float:
        """The factor that brings the run's times to the reference speed.

        The program's time over a run adds up the host's slowness at each
        moment, so its speed is estimated by the mean of the samples, not
        their median, which would fall in whichever speed state held most of
        them.  Means over the passes match it."""
        return calibrate.REFERENCE_S / statistics.mean(self.walls)


def setup_walls(wl, launcher: Launcher, runs: int) -> list[float]:
    argv = [sys.executable, "-c", SETUP_CODE, *wl.instances]
    walls = []
    for _ in range(runs):
        out = launcher.run(argv, INVOCATION_TIMEOUT_S)
        if out.exit_code != 0:
            raise RuntimeError(f"set-up child failed: {out.stderr.strip()[-300:]}")
        walls.append(out.wall)
    return walls


def run_pass(wl, launcher: Launcher, deadline: float,
             between=None) -> tuple[float, list[Outcome]]:
    """One pass of the workload, calling ``between()`` before each invocation.
    Its wall time is the sum of the invocations' (child start to exit)."""
    outcomes = []
    for inv in wl.invocations:
        if between:
            between()
        outcomes.append(launcher.run(
            cli_argv(inv), min(INVOCATION_TIMEOUT_S, deadline - perf_counter())))
    return sum(o.wall for o in outcomes), outcomes


def untraced(wl, launcher, seconds, deadline, judge: Judge) -> dict[str, float]:
    setup_walls(wl, launcher, 1)  # writes the bytecode caches
    meter = SpeedMeter(launcher)
    setups: list[float] = []
    pass_walls, all_outcomes, records = [], [], 0
    start = perf_counter()

    def between() -> None:
        # Speed and set-up samples are taken between the invocations, so
        # that they see the same changes in host speed as the passes; one
        # more speed sample closes the run.
        meter.sample()
        setups.extend(setup_walls(wl, launcher, SETUP_PER_INVOCATION))

    while not pass_walls or (perf_counter() - start < seconds
                             and perf_counter() < deadline - 2 * max(pass_walls)):
        wall, outcomes = run_pass(wl, launcher, deadline, between)
        pass_walls.append(wall)
        all_outcomes.append(outcomes)
        records = judge.judge(outcomes)
    meter.sample()

    print(f"{len(pass_walls)} passes of {len(wl.invocations)} invocations "
          f"(unscaled means over the passes)")
    for i, inv in enumerate(wl.invocations):
        wall = statistics.mean(outcomes[i].wall for outcomes in all_outcomes)
        rss = max(outcomes[i].rss_mb for outcomes in all_outcomes)
        print(f"  {wall:8.3f} s {rss:7.1f} MB  negshapley {' '.join(inv.argv)}")
    pass_wall, setup_wall, scale = (statistics.mean(pass_walls), statistics.mean(setups),
                                    meter.scale())
    print(f"unscaled: pass {pass_wall:.6g} s, set-up {setup_wall:.6g} s")
    print(f"speed scale {scale:.4f} = {calibrate.REFERENCE_S} s / mean of "
          f"{len(meter.walls)} calibration children (see calibrate.py)")
    return {
        "wall_s": pass_wall * scale,
        "records_per_s": records / (pass_wall * scale),
        "peak_rss_mb": max(o.rss_mb for outs in all_outcomes for o in outs),
        "setup_s": setup_wall * scale,
    }


def traced(wl, root, work, launcher, seconds, deadline, judge: Judge) -> dict[str, float]:
    untraced_wall, outcomes = run_pass(wl, launcher, deadline)
    judge.judge(outcomes)

    sys.path.insert(0, str(root / "src"))
    from negshapley import cli

    trace = tracer.Tracer()
    trace.install()
    here = os.getcwd()
    os.chdir(work)
    walls: list[float] = []
    runs: list[dict[str, float]] = []
    try:
        start = perf_counter()
        while len(walls) < 2 or (perf_counter() - start < seconds
                                 and perf_counter() < deadline - 2 * max(walls)):
            trace.reset()
            outcomes = []
            t0 = perf_counter()
            for inv in wl.invocations:
                out, err = io.StringIO(), io.StringIO()
                t1 = perf_counter()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(list(inv.argv))
                    except SystemExit as exc:
                        code = exc.code if isinstance(exc.code, int) else 1
                    except Exception:  # an uncaught error exits 1 in a child
                        traceback.print_exc()
                        code = 1
                outcomes.append(Outcome(perf_counter() - t1, code, 0.0,
                                        out.getvalue(), err.getvalue()))
            walls.append(perf_counter() - t0)
            runs.append(trace.metrics())
            judge.judge(outcomes)
    finally:
        os.chdir(here)
        trace.uninstall()

    for name in tracer.COUNTS:
        values = {run[name] for run in runs}
        if len(values) != 1:
            judge.fail(f"count {name} differs between traced passes: {sorted(values)}")
    metrics = {name: (value if name in tracer.COUNTS or name.endswith("_ratio")
                      else statistics.median(run[name] for run in runs))
               for name, value in runs[0].items()}

    traced_wall = statistics.median(walls)
    print(f"{len(walls)} traced passes; traced wall {traced_wall:.3f} s, untraced "
          f"wall {untraced_wall:.3f} s, tracing overhead {traced_wall - untraced_wall:+.3f} s")
    print("  (traced calls run in one process, so they skip "
          f"{len(wl.invocations)} interpreter starts)")
    layer_total = sum(v for k, v in metrics.items() if k.endswith("_s"))
    print(f"  layer self times sum to {layer_total:.3f} s of {traced_wall:.3f} s")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {tracer.unit(name)}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SIZES), default="full",
                        help="input sizes; smoke is for the self-tests")
    args = parser.parse_args(argv)
    hash_seed = str(args.seed % 2**32)
    if args.trace and os.environ.get("PYTHONHASHSEED") != hash_seed:
        # Some counts depend on set iteration order (ms_shapley stops its
        # minimality test at the first removable member of a frozenset), so
        # a traced run fixes the hash seed to repeat its counts exactly.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED=hash_seed))
    deadline = perf_counter() + RUN_BUDGET_S

    root = Path.cwd()
    if not (root / "src" / "negshapley" / "cli.py").is_file():
        print(f"error: no src/negshapley/cli.py under {root}; run from the root "
              "of a negshapley checkout", file=sys.stderr)
        return 2

    wl = workloads.build(args.workload, args.seed, args.scale)
    (root / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / WORK_DIR))
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    judge = Judge(wl)
    launcher = Launcher(env, work)
    try:
        wl.write(work)
        print(f"workload {wl.name}, seed {args.seed}, scale {args.scale}, "
              f"one closed-loop client")
        if args.trace:
            metrics = traced(wl, root, work, launcher, args.seconds, deadline, judge)
            units = tracer.unit
        else:
            metrics = untraced(wl, launcher, args.seconds, deadline, judge)
            units = END_TO_END_UNITS.__getitem__
            for name, value in metrics.items():
                print(f"{name} = {value:.6g} {units(name)}")
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)

    print(f"fail_ratio = {judge.failed / judge.attempted:.6g} ratio "
          f"({judge.failed} of {judge.attempted} invocations failed; "
          f"{judge.digests_checked} outputs checked against recorded digests)")
    for problem in judge.problems[:20]:
        print(f"  FAILED {problem}")
    print(judge.result(metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
