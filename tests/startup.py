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
  the workload's inputs for seed 0 (`perfbench/workloads.py`).

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
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
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


if __name__ == "__main__":
    main()
