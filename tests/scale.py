"""Wall time and peak RSS of the command line on a database of many facts.

Writes the benchmark's recipe database at N stored facts,
``perfbench.workloads.recipe_instance(5, N // 5, 30, 5, "big")``: N/5
menus of 5 items each out of 30, so N/5 + 30 distinct constants, under the
query ``exists x. I(x,"iA"), !I(x,"iB")``.  Then prints the median wall
time and peak RSS of K fresh children of each call, run in turn so that a
burst of load on the host falls on both alike:

* ``negshapley supports --kind positive``, the load and one search;
* ``negshapley score --measure mps --all``, which also writes every stored
  fact's row in canonical order.

The children are forked as the benchmark forks its own, by
``perfbench/launcher.py`` (see ``tests/startup.py``), and write their
output to a file.  The results are printed as a table and then as one line
of JSON.  Run from the root of the repository:

    python3 tests/scale.py [--facts N] [--children K]

Only these two calls are run: the recipe's restricted completion holds
(N/5 + 30)^2 facts, about 4·10^10 at N = 10^6, so ``relevance``,
``compare`` or a signed ``--all`` with a raised ``--cap-signed`` would
write rows until the disk is full.

pytest does not collect this file; it is a tool, not a test.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
from pathlib import Path

from startup import ROOT, Launcher, load_workloads

#: The subcommand and flags of each call, after ``--db`` and ``--query``.
CALLS = (("supports", "--kind", "positive"), ("score", "--measure", "mps", "--all"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--facts", type=int, default=10**6, metavar="N",
                        help="stored facts, a multiple of 20 from 160 (default 10^6)")
    parser.add_argument("--children", type=int, default=3, metavar="K",
                        help="fresh children of each call (default 3)")
    args = parser.parse_args()
    if args.facts % 20 or args.facts < 160:
        parser.error("--facts must be a multiple of 20 from 160")
    if args.children < 1:
        parser.error("--children must be at least 1")
    menus = args.facts // 5
    instance = load_workloads().recipe_instance(5, menus, 30, 5, "big")
    runs: dict[tuple[str, ...], list[tuple[float, float]]] = {call: [] for call in CALLS}
    with tempfile.TemporaryDirectory() as tmp:
        here = Path(tmp)
        (here / "recipe.facts").write_text(instance.facts_text, encoding="utf-8")
        (here / "recipe.q").write_text(instance.query_text, encoding="utf-8")
        del instance  # about 100 MB at 10^6 facts, held no longer than the writing
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
        launcher = Launcher(here, env)
        try:
            for _ in range(args.children):
                for command, *flags in CALLS:
                    argv = [sys.executable, "-m", "negshapley.cli", command,
                            "--db", "recipe.facts", "--query", "recipe.q", *flags]
                    runs[(command, *flags)].append(launcher.run(argv, here, timeout=3600)[:2])
        finally:
            launcher.close()
    medians = {" ".join(call): dict(zip(("wall_s", "peak_rss_mb"), map(statistics.median,
                                                                       zip(*values))))
               for call, values in runs.items()}
    print(f"Medians of {args.children} children each, {args.facts} facts "
          f"({menus + 30} constants), Python {platform.python_version()}, "
          f"{os.cpu_count()} CPUs:\n")
    print("| call | wall | peak RSS |\n|---|---|---|")
    for call, median in medians.items():
        command, flags = call.split(" ", 1)
        print(f"| `negshapley {command} ... {flags}` | {median['wall_s']:.2f} s "
              f"| {median['peak_rss_mb']:.1f} MB |")
    print(json.dumps({"facts": args.facts, "constants": menus + 30, "children": args.children,
                      "python": platform.python_version(), "cpus": os.cpu_count(),
                      "calls": {call: {name: round(value, 4) for name, value in median.items()}
                                for call, median in medians.items()}}))


if __name__ == "__main__":
    main()
