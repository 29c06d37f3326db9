#!/usr/bin/env python3
"""Host speed, measured with a fixed piece of pure-Python work.

The shared hosts the benchmark runs on change speed for minutes at a time:
the same pass of ``coalition-games`` took 4.6-5.2 s in some runs and
6.8-7.5 s in others, with CPU time equal to wall time in both.  A median
over the passes of one run cannot remove a change that lasts longer than
the run.  So a run also starts this file as a child, ``python3 -S
perfbench/calibrate.py``, before every invocation of the program, and
scales the program's times by ``REFERENCE_S`` over the mean wall time of
those children: the times are reported as they would read at the speed
the host had when ``REFERENCE_S`` was measured.

The child is started, like the program, as a fresh interpreter.  Timed
inside the long-lived benchmark process instead, the same work swung
two to three times as much as the program did over the same minutes,
while the child's mostly matched the program's (see README.md).

The work is what the program mostly does, in two parts.  The small part
builds frozensets and tuples and looks them up in small sets and dicts, as
the coalition games do.  The large part indexes tens of thousands of
facts in a set and a dict and probes them, as loading and completing a
large database do, so that it feels the host's caches and memory the way
``supports-scan`` does.  Neither imports ``negshapley``, so a change to
the program cannot move the scale.
"""
from __future__ import annotations

import sys

# Mean wall time of one calibration child on the host the baseline was
# measured on (2 cores, Python 3.11.7, x86_64); see baseline.json.
REFERENCE_S = 0.30
SMALL_REPEAT = 9  # calls of small_kernel per child
LARGE_REPEAT = 2  # calls of large_kernel per child

PLAYERS = tuple((f"v{i}", f"v{(5 * i + 3) % 12}") for i in range(12))
WANTED = frozenset(
    frozenset(p for j, p in enumerate(PLAYERS) if mask >> j & 1)
    for mask in range(0, 4096, 7)
)
NODES = 400
EDGES = tuple((f"n{i}", f"n{(i * i + 7 * k) % NODES}") for i in range(NODES) for k in range(6))
FACTS = 40000


def small_kernel() -> tuple[int, int]:
    """Builds every coalition of twelve players and counts those in
    ``WANTED``, then counts the open two-paths of ``EDGES`` (a path x-y-z
    with no edge z-x), as a triangle query's evaluation would."""
    found = 0
    for mask in range(4096):
        if frozenset([p for j, p in enumerate(PLAYERS) if mask >> j & 1]) in WANTED:
            found += 1
    edges = set(EDGES)
    successors: dict[str, list[str]] = {}
    for x, y in EDGES:
        successors.setdefault(x, []).append(y)
    paths = 0
    for x, y in EDGES:
        for z in successors.get(y, ()):
            if x != z and (z, x) not in edges:
                paths += 1
    return found, paths


def large_kernel() -> int:
    """Indexes ``FACTS`` menu-item pairs in a set and by menu, then probes
    the set once for every indexed pair, as a completion's lookups would."""
    facts = [(f"m{i % 160}", f"i{(i * 7) % 250}") for i in range(FACTS)]
    stored = set(facts)
    by_menu: dict[str, list[str]] = {}
    for menu, item in facts:
        by_menu.setdefault(menu, []).append(item)
    hits = 0
    for menu, items in by_menu.items():
        for item in items:
            if (menu, "i" + item[1:]) in stored:
                hits += 1
    return hits


def main() -> int:
    small = {small_kernel() for _ in range(SMALL_REPEAT)}
    large = {large_kernel() for _ in range(LARGE_REPEAT)}
    ok = len(small) == 1 and next(iter(small))[0] == len(WANTED) and large == {FACTS}
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
