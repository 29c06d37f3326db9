"""Starts the benchmark's child processes from a small process.

Linux counts the resident memory of the process that forks a child toward
that child's ``ru_maxrss``: the forked address space is the one ``exec``
replaces, and its peak is kept.  Children forked by the benchmark itself
would report at least the benchmark's own RSS.  This launcher runs under
``python3 -S`` and imports next to nothing, so the floor it passes on
stays well below what any ``negshapley`` run reaches.

Protocol: one JSON request per line on standard input,
``{"argv", "cwd", "stdout", "stderr", "timeout"}``; one JSON reply per
line on standard output, ``{"wall", "exit_code", "maxrss_kb"}``, where
``exit_code`` is null when the child was killed for running past its
timeout.  The launcher exits when its input closes.
"""
import json
import os
import signal
import sys
import time


def run(request: dict) -> dict:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    out = os.open(request["stdout"], flags, 0o600)
    err = os.open(request["stderr"], flags, 0o600)
    state = {"running": True, "timed_out": False}
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.chdir(request["cwd"])
            os.dup2(out, 1)
            os.dup2(err, 2)
            os.execv(request["argv"][0], request["argv"])
        finally:
            os._exit(127)
    os.close(out)
    os.close(err)

    def on_alarm(signum, frame):
        if state["running"]:
            state["timed_out"] = True
            os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(request["timeout"], 0.001))
    _, status, usage = os.wait4(pid, 0)
    state["running"] = False
    signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - start
    return {
        "wall": wall,
        "exit_code": None if state["timed_out"] else os.waitstatus_to_exitcode(status),
        "maxrss_kb": usage.ru_maxrss,
    }


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
