"""Byte-identity sweep of the command line over the property corpus.

Runs `negshapley.cli.main` in process on every instance of ``corpus(500)``:
``relevance``, ``compare`` and ``analyze`` in both formats, ``supports`` of
every kind with and without ``--all``, every ``score`` measure in JSON and
at ``--cap-subset 3``, the counting measures under ``--weight constant``,
and ``score --fact`` on the first three stored facts (plain measures) and
the first three players of the restricted completion (signed measures,
also at ``--cap-subset 3``).  Then it makes the same calls, less
``--fact``, on each of `EDGE_FILES`, inputs that the corpus never writes.
It prints the number of calls and one sha256 over every call's (argv,
exit code, stdout, stderr), with the input's file paths replaced by fixed
names, so two versions of the code can be compared by their digests, and
its run time on stderr:

    PYTHONHASHSEED=0 PYTHONPATH=src python3 tests/sweep.py

`tests/sweep.digest` records what it prints under Python 3.11, and CI
checks it there.  A change that means to change the command line's output
records the new line in the same change.

pytest does not collect this file; it is a tool, not a test.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterator

sys.path.insert(0, str(Path(__file__).resolve().parent))

from corpus import corpus  # noqa: E402

from negshapley.cli import main  # noqa: E402
from negshapley.query import signed_database_restricted  # noqa: E402
from negshapley.shapley import WealthKind  # noqa: E402


#: A fact file and a query each: an arity clash with stored facts, one with
#: a relation that a header alone declares, and a file of headers, comments,
#: spaces and two facts on a line, whose query negates a header-only relation.
EDGE_FILES = {
    "stored-clash": ("I(a,b)\nJ(a)\n", "exists x. I(x), !J(x)\n"),
    "header-clash": ("@relation I/1\nJ(a)\n", 'exists x. J(x), I(x,"fish")\n'),
    "decorated": ("# a recipe\n@relation I/2\n@relation  K / 1   # no facts\n"
                  "I(mp,fish) J(mm)\n  I( mm , fish )   # spaces\n\n",
                  'exists x. I(x,"fish"), !K(x) | exists x. J(x), !I(x,"fish")\n'),
}


def _file_argvs() -> list[tuple[str, ...]]:
    """The calls made on every input, without ``--db`` and ``--query``."""
    runs = [("relevance",), ("relevance", "--format", "json"), ("compare",),
            ("compare", "--format", "json"), ("analyze",), ("analyze", "--format", "json")]
    for kind in ("signed", "positive", "dmonotone"):
        runs += [("supports", "--kind", kind), ("supports", "--kind", kind, "--all")]
    for kind in WealthKind:
        runs += [("score", "--measure", kind.value, "--format", "json"),
                 ("score", "--measure", kind.value, "--cap-subset", "3")]
    return runs + [("score", "--measure", m, "--weight", "constant", "--format", "json")
                   for m in ("ms-signed", "mps")]


def _argvs(inst) -> list[tuple[str, ...]]:
    """The calls made on one instance, without ``--db`` and ``--query``."""
    runs = _file_argvs()
    for f in inst.db.sorted_facts[:3]:
        runs += [("score", "--measure", m, f"--fact={f}") for m in ("drastic", "positive-drastic", "mps")]
    for sf in itertools.islice(signed_database_restricted(inst.db, inst.q), 3):
        runs += [("score", "--measure", "ms-signed", f"--fact={sf}"),
                 ("score", "--measure", "signed-drastic", f"--fact={sf}"),
                 ("score", "--measure", "signed-drastic", f"--fact={sf}", "--cap-subset", "3")]
    return runs


def _inputs() -> Iterator[tuple[str, str, list[tuple[str, ...]]]]:
    """Each input's fact file, query file and calls: the corpus, then `EDGE_FILES`."""
    for inst in corpus(500):
        yield "".join(f"{f}\n" for f in inst.db.sorted_facts), f"{inst.q}\n", _argvs(inst)
    for facts, query in EDGE_FILES.values():
        yield facts, query, _file_argvs()


def sweep() -> tuple[int, str]:
    digest, calls = hashlib.sha256(), 0
    with tempfile.TemporaryDirectory() as tmp:
        db_path, q_path = Path(tmp, "i.facts"), Path(tmp, "i.query")
        for facts, query, argvs in _inputs():
            db_path.write_text(facts)
            q_path.write_text(query)
            for argv in argvs:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([*argv, "--db", str(db_path), "--query", str(q_path)])
                record = [argv, code, out.getvalue(), err.getvalue()]
                digest.update(json.dumps(record).replace(tmp, "<tmp>").encode())
                calls += 1
    return calls, digest.hexdigest()


if __name__ == "__main__":
    start = time.perf_counter()
    calls, hexdigest = sweep()
    print(calls, hexdigest)
    print(f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
