"""Mutation checks: each mutant is one exact replacement in the package's
source and a pytest selection that must fail on it.

    python3 tests/mutants.py

The checkout's ``src``, ``tests``, ``perfbench``, ``README.md`` and
``pyproject.toml`` are copied once to a temporary directory.  Each distinct
selection first runs on the unchanged copy and must pass there.  Then, for
each mutant, the old text, which must occur exactly once in its file, is
replaced, ``python -m pytest -x`` runs the selection with ``PYTHONPATH`` at
the copy's ``src``, and the file is put back.  One line per mutant says
``killed`` (the selection failed), ``survived`` (it passed) or ``stale``
(the old text is not found exactly once: a change that moves the code must
move its mutant too), and the exit status is 1 unless every mutant is
killed.  A surviving mutant asks for the test that kills it, not for the
mutant to go.  Standard library only; pytest does not collect this file.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Sequence

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "README.md", "pyproject.toml")


class Mutant(NamedTuple):
    file: str  # relative to the checkout
    old: str
    new: str
    selection: tuple[str, ...]  # pytest's arguments
    why: str


def _k(path: str, expression: str) -> tuple[str, ...]:
    return (path, "-k", expression)


_KNOWN_CALLS = _k("tests/test_cli.py", "test_plain_reader_reads_as_argparse_on_every_known_call")
_SEARCH = _k("tests/test_supports.py", "assignment_search")
_ARITY = _k("tests/test_cli.py", "arity")
_D_MONOTONE = _k("tests/test_supports.py", "d_monotone or monotone_chain")
#: `supports._extend`, from grounding a step's negated atoms to yielding an assignment.
_GROUNDED = """\
        grounded = absent
        for relation, ground in checks:
            values = ground(binding)
            if (relation, values) in context if relation else values[0] == values[1]:
                break
            grounded += ((relation, values),) if relation else ()
        else:
            if last:
                yield dict(binding), frozenset(image + (f,)), grounded
"""

MUTANTS = (
    # The plain command-line reader gives up or reads as argparse does.
    Mutant("src/negshapley/cli.py", "given.get(name, default)", "given.get(name)", _KNOWN_CALLS,
           "the plain reader drops a flag's default"),
    Mutant("src/negshapley/cli.py", "        if name not in flags or name in given:\n",
           "        name = next((flag for flag in flags if flag.startswith(name)), name)\n"
           "        if name not in flags or name in given:\n", _KNOWN_CALLS,
           "the plain reader accepts an abbreviated flag"),
    Mutant("src/negshapley/cli.py",
           "    if any(required and name not in given for name, (_, _, required, _) in "
           "flags.items()):\n        return None\n", "", _KNOWN_CALLS,
           "the plain reader skips the required flags"),
    Mutant("src/negshapley/cli.py",
           "    if sum(flags[name][3] for name in given) > 1:  # exclusive flags\n"
           "        return None\n", "", _KNOWN_CALLS,
           "the plain reader accepts --fact with --all"),
    # An exit without teardown still runs the callbacks, and leaves tools their exit.
    Mutant("src/negshapley/cli.py",
           "        atexit._run_exitfuncs()  # prints and ignores a failing callback, "
           "as an exit does\n", "", _k("tests/test_cli.py", "atexit_callbacks"),
           "_end skips the atexit callbacks"),
    Mutant("src/negshapley/cli.py", "(sys.gettrace(), sys.getprofile()) != (None, None)",
           "sys.gettrace() is not None", _k("tests/test_cli.py", "traced_or_profiled"),
           "_end ignores a profiler"),
    Mutant("src/negshapley/cli.py",
           "\n            or monitoring and any(map(monitoring.get_tool, range(6)))", "",
           _k("tests/test_cli.py", "monitoring_tool_or_python_i"),
           "_end ignores a sys.monitoring tool"),
    Mutant("src/negshapley/cli.py", "sys.flags.inspect or ", "",
           _k("tests/test_cli.py", "monitoring_tool_or_python_i"), "_end ignores python -i"),
    # The search yields the negated facts it grounded, per branch.
    Mutant("src/negshapley/supports.py",
           "yield dict(binding), frozenset(image + (f,)), grounded\n",
           "yield dict(binding), frozenset(image + (f,)), grounded[:-1]\n", _SEARCH,
           "the search drops the last negated fact it grounded"),
    Mutant("src/negshapley/supports.py", _GROUNDED,
           _GROUNDED.replace("grounded = absent", "grounded = absent if isinstance(absent, list) "
                             "else list(absent)").replace("), grounded", "), tuple(grounded)"),
           _SEARCH, "sibling branches share one list of grounded negated facts"),
    # A loaded database holds each constant once, whichever path read its line.
    Mutant("src/negshapley/core.py",
           'tuple(intern(part.strip()) for part in match.group(2).split(","))',
           'tuple(part.strip() for part in match.group(2).split(","))',
           _k("tests/test_core.py", "matches_the_line_parser"),
           "the loader interns only the plain-line fast path"),
    # One arity rule.
    Mutant("src/negshapley/query.py",
           "    _check_arity_compatible(q, db.schema)\n    return signed_database(",
           "    return signed_database(", _ARITY,
           "the restricted completion skips the arity check"),
    Mutant("src/negshapley/supports.py",
           "relations = facts.schema if isinstance(facts, Database) else index.keys()",
           "relations = facts.by_relation.keys() if isinstance(facts, Database) "
           "else index.keys()", _ARITY,
           "the search checks the relations with facts, not the schema"),
    # A command's modules load once it is read, before its inputs.
    Mutant("src/negshapley/rows.py", "from .shapley import WEIGHT_FUNCTIONS, WealthKind, scores",
           "from .shapley import WEIGHT_FUNCTIONS, WealthKind, make_game, scores",
           _k("tests/test_imports.py", "traced_name"),
           "rows imports a name that the benchmark's tracer wraps"),
    Mutant("src/negshapley/cli.py",
           "            from .rows import _cmd_report, _cmd_score\n"
           "            handler = _cmd_score if args.command == \"score\" else _cmd_report\n",
           "            def handler(args, q, db):\n"
           "                from .rows import _cmd_report, _cmd_score\n"
           "                (_cmd_score if args.command == \"score\" else _cmd_report)(args, q, db)\n",
           _k("tests/test_types.py", "handler_module_before_its_inputs"),
           "rows is imported inside the handler, after the inputs are loaded"),
    # Query files: comments in the grammar, offsets in file characters, exit codes on the classes.
    Mutant("src/negshapley/query.py", r"(?P<ws>\s+|\#[^\n{LINE_BREAKS}]*)", r"(?P<ws>\s+)",
           _k("tests/test_cli.py", "comments_between_tokens or comment_ends"),
           "the lexer knows no comments"),
    Mutant("src/negshapley/query.py", 'encoding="utf-8-sig", newline=""', 'encoding="utf-8-sig"',
           _k("tests/test_cli.py", "offsets_count"),
           "a query file is read with its line breaks translated"),
    Mutant("src/negshapley/errors.py", 'size caps."""\n    exit_code = 3',
           'size caps."""\n    exit_code = 2', _k("tests/test_cli.py", "each_error_class"),
           "a refused cap exits 2"),
    # The D-monotone listing reads the drastic game's table, closed downward.
    Mutant("src/negshapley/games.py", '_LISTED = {"dMonotone": WealthKind.DRASTIC_DIRECT,',
           '_LISTED = {"dMonotone": WealthKind.POSITIVE_DRASTIC,', _D_MONOTONE,
           "the D-monotone listing reads the positive-drastic game"),
    Mutant("src/negshapley/games.py",
           '    if kind == "dMonotone":  # the winning subsets all of whose supersets win\n'
           "        for i, mask in enumerate(player_masks(len(players))):\n"
           "            table &= mask | table >> (1 << i)  # S without player i needs S with it\n",
           "", _D_MONOTONE, "the D-monotone listing does not close the table downward"),
)


def _pytest(copy: Path, selection: Sequence[str]) -> int:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def check(mutants: Sequence[Mutant], root: Path = ROOT) -> int:
    """Run ``mutants`` against a copy of ``root``, print one line each, and
    return 0 if every one is killed, else 1."""
    outcomes = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in COPIED:
            source = root / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=ignore)
            else:
                shutil.copy2(source, copy / name)
        baseline = {}
        for mutant in mutants:
            start, path = time.perf_counter(), copy / mutant.file
            text = path.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                outcome = "stale"
            else:
                if mutant.selection not in baseline:
                    baseline[mutant.selection] = _pytest(copy, mutant.selection)
                if baseline[mutant.selection] != 0:
                    outcome = "unusable (its selection fails on the unchanged source)"
                else:
                    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
                    try:
                        # 1: a test failed; 2: collection failed, as on a broken import.
                        code = _pytest(copy, mutant.selection)
                    finally:
                        path.write_text(text, encoding="utf-8")
                    outcome = ("killed" if code in (1, 2) else "survived" if code == 0
                               else f"unusable (pytest exited {code})")
            outcomes.append(outcome)
            print(f"{outcome.split()[0]:9} {time.perf_counter() - start:5.1f} s  "
                  f"{mutant.file}: {mutant.why}"
                  + (f" -- {outcome}" if outcome.startswith("unusable") else ""), flush=True)
    killed = outcomes.count("killed")
    print(f"{killed} of {len(outcomes)} mutants killed")
    return int(killed != len(outcomes))


if __name__ == "__main__":
    sys.exit(check(MUTANTS))
