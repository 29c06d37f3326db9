#!/usr/bin/env python3
"""Record the reference output of every workload invocation for a range
of seeds into ``digests.json``.

Run from the root of a checkout whose outputs are the reference:

    python3 perfbench/record_digests.py --seeds 0-31 [--workload NAME ...]

Each workload runs one pass per seed, checked like a benchmark pass
(including against digests already recorded); the SHA-256 of each
output is then stored under a key naming the invocation's arguments and
input files.  Afterwards the benchmark fails any invocation whose output
for those inputs differs.  Digests of inputs that no workload generates
for these seeds any more are dropped.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads
from spread import seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, required=True, help="e.g. 0-31")
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS,
                        help="record only this workload (repeatable; default all)")
    args = parser.parse_args()
    live = {
        checks.input_key(inv, wl.instances[inv.instance])
        for wl in (workloads.build(name, seed)
                   for name in workloads.WORKLOADS for seed in args.seeds)
        for inv in wl.invocations
    }

    root = Path.cwd()
    (root / run.WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=root / run.WORK_DIR))
    launcher = run.Launcher(dict(os.environ, PYTHONPATH=str(root / "src")), work)
    digests = {k: v for k, v in checks.load_digests().items() if k in live}
    try:
        for name in args.workload or workloads.WORKLOADS:
            for seed in args.seeds:
                wl = workloads.build(name, seed)
                wl.write(work)
                judge = run.Judge(wl)
                _, outcomes = run.run_pass(wl, launcher, float("inf"))
                judge.judge(outcomes)
                if judge.failed:
                    print(f"{name} seed {seed}: {judge.problems}", file=sys.stderr)
                    return 1
                for key, out in zip(judge.keys, outcomes):
                    digests[key] = checks.output_digest(out.stdout)
                print(f"{name} seed {seed}: {len(outcomes)} outputs recorded", flush=True)
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
    checks.DIGESTS_FILE.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
