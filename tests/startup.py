"""Start-up cost of the command line, as fresh processes pay it.

Prints the table of the README's "Start-up" section: the median wall time
and peak RSS of N fresh children of each kind, run in turn so that a burst
of load on the host falls on every row alike:

* ``python3 -c pass``, the interpreter's floor;
* ``python3 -c "import os; os._exit(0)"``, the floor less the teardown at
  exit, which ``python3 -m negshapley.cli`` skips too (`cli._end`);
* ``python3 -c "import negshapley.cli"``, with the median cumulative import
  time of ``negshapley.cli`` that ``python3 -X importtime`` reports (from
  children of its own, so that its output costs the timed ones nothing);
* ``python3 -m negshapley.cli`` on one call of each benchmark workload, on
  the workload's inputs for seed 0 (`perfbench/workloads.py`);
* the benchmark's set-up child on coalition-games' inputs for seed 0: the
  import, load and parse that ``perfbench/run.py`` times as ``setup_s``,
  its ``SETUP_CODE`` read from that file.

Below the table it prints the line count of the package modules that a
fresh ``import negshapley.cli`` loads, and the best of 30 times to
``compile()`` their sources, the part of start-up that a module moved off
it saves.

Every child runs on a copy of ``src/negshapley`` with no bytecode cache and
``PYTHONDONTWRITEBYTECODE=1``, so it compiles the package from source, as a
benchmark child does on a host that writes no bytecode.  The children are
forked as the benchmark forks its own, by ``perfbench/launcher.py``, which
reports each one's wall time and its own peak RSS.  Run from the root of the repository:

    python3 tests/startup.py [--children N]

pytest does not collect this file; it is a tool, not a test.
"""
from __future__ import annotations

import argparse
import ast
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: One call of each benchmark workload: its subcommand, instance and flags.
CALLS = {
    "coalition-games": ("score", "graph", "--measure", "drastic", "--format", "json"),
    "ms-score": ("score", "recipe", "--measure", "mps", "--format", "json"),
    "supports-scan": ("supports", "graph", "--kind", "positive"),
}


def load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def setup_code() -> str:
    """``SETUP_CODE`` of ``perfbench/run.py``, read from its syntax tree
    rather than imported, so that nothing of the benchmark runs here."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SETUP_CODE"]:
            return ast.literal_eval(node.value)
    raise SystemExit("no SETUP_CODE in perfbench/run.py")


class Launcher:
    """Children forked by ``perfbench/launcher.py``, a small ``python3 -S``
    process, as the benchmark forks its own: Linux counts the forking
    process's memory toward a child's peak RSS."""

    def __init__(self, work: Path, env: dict) -> None:
        self.work = work
        self.proc = subprocess.Popen(  # its children inherit ``env``
            [sys.executable, "-S", str(ROOT / "perfbench" / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)

    def run(self, argv: list[str], cwd: Path, timeout: float = 60) -> tuple[float, float, str]:
        """A child's wall time (s), peak RSS (MB) and standard error."""
        out, err = self.work / ".stdout", self.work / ".stderr"
        self.proc.stdin.write(json.dumps({"argv": argv, "cwd": str(cwd), "stdout": str(out),
                                          "stderr": str(err), "timeout": timeout}) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        if reply["exit_code"] != 0:
            raise SystemExit(f"{' '.join(argv)} exited {reply['exit_code']}:\n"
                             f"{err.read_text()}")
        return reply["wall"], reply["maxrss_kb"] / 1024, err.read_text()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def _import_time(stderr: str) -> float:
    """The cumulative import time (ms) of ``negshapley.cli`` in ``-X importtime`` output."""
    for line in stderr.splitlines():
        if line.endswith("| negshapley.cli"):
            return int(line.split("|")[1]) / 1000
    raise SystemExit("no import time for negshapley.cli")


def start_up_sources(env: dict) -> list[Path]:
    """The sources of the package modules that a fresh ``import negshapley.cli`` loads."""
    code = ("import sys, negshapley.cli; print(*sorted(m.__file__ for name, m in "
            "sys.modules.items() if name.split('.')[0] == 'negshapley'), sep='\\n')")
    listed = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                            text=True, check=True).stdout
    return [Path(line) for line in listed.splitlines()]


def compile_time(paths: list[Path], rounds: int = 30) -> float:
    """The best of ``rounds`` times (s) to ``compile()`` every source in ``paths``."""
    sources = [(path.read_text(encoding="utf-8"), str(path)) for path in paths]
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for text, name in sources:
            compile(text, name, "exec", dont_inherit=True)
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--children", type=int, default=41, metavar="N",
                        help="fresh children of each kind (default 41)")
    n = parser.parse_args().children
    workloads = load_workloads()
    python = sys.executable
    with tempfile.TemporaryDirectory() as tmp:
        here = Path(tmp)
        shutil.copytree(ROOT / "src" / "negshapley", here / "src" / "negshapley",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=str(here / "src"), PYTHONDONTWRITEBYTECODE="1")
        rows = [("`python3 -c pass`", [python, "-c", "pass"], here),
                ('`python3 -c "import os; os._exit(0)"`', [python, "-c", "import os; os._exit(0)"],
                 here),
                ('`python3 -c "import negshapley.cli"`', [python, "-c", "import negshapley.cli"],
                 here)]
        for name, (command, instance, *flags) in CALLS.items():
            workload = workloads.build(name, 0)
            argv = (command, "--db", f"{instance}.facts", "--query", f"{instance}.q", *flags)
            assert argv in [call.argv for call in workload.invocations], (name, argv)
            workload.write(here / name)
            rows.append((f"`negshapley {command} ... {' '.join(flags)}` ({name}, seed 0)",
                         [python, "-m", "negshapley.cli", *argv], here / name))
        games = workloads.build("coalition-games", 0)
        rows.append(("benchmark set-up child (coalition-games, seed 0)",
                     [python, "-c", setup_code(), *games.instances], here / "coalition-games"))
        sources = start_up_sources(env)
        lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in sources)
        compiled = compile_time(sources)
        runs: list[list[tuple[float, float]]] = [[] for _ in rows]
        imports = []
        launcher = Launcher(here, env)
        try:
            for _ in range(n):
                for (_, argv, cwd), values in zip(rows, runs):
                    values.append(launcher.run(argv, cwd)[:2])
                importtime = [python, "-X", "importtime", "-c", "import negshapley.cli"]
                imports.append(_import_time(launcher.run(importtime, here)[2]))
        finally:
            launcher.close()
    print(f"Medians of {n} children each, Python {platform.python_version()}, "
          f"{os.cpu_count()} CPUs, PYTHONDONTWRITEBYTECODE=1:\n")
    print("| | wall | peak RSS |\n|---|---|---|")
    for (row, _, _), values in zip(rows, runs):
        walls, rss = zip(*values)
        print(f"| {row} | {statistics.median(walls) * 1000:.1f} ms | {statistics.median(rss):.1f} MB |")
    print(f"\n`import negshapley.cli`, cumulative in `python3 -X importtime`: "
          f"{statistics.median(imports):.1f} ms")
    print(f"`import negshapley.cli` compiles {len(sources)} package modules, {lines:,} lines, "
          f"in {compiled * 1000:.1f} ms (`compile()`, best of 30)")


if __name__ == "__main__":
    main()
