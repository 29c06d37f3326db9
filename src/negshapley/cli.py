"""Command-line front end.

Subcommands: ``supports``, ``score``, ``relevance``, ``analyze``,
``compare``.  `core.load_database` reads the fact files and
`query.load_query` the query files.  Output is a table by default or JSON with
``--format json``; identical inputs always produce byte-identical output.

A command line is read from `_FLAGS`, the one description of each
subcommand's flags: in its plain form (the subcommand, then each flag in
full, once, with a valid value) straight into the namespace argparse would
make, and in any other by argparse (`negshapley.usage`), so that every
spelling argparse accepts still works, and help and usage errors are its own.
The handlers of ``score``, ``relevance`` and ``compare`` (`negshapley.rows`)
and of ``analyze`` (`negshapley.analysis`) load once it is read.

Exit codes: 0 success; an error of `negshapley.errors` exits with its
class's ``exit_code`` (1 unreadable input, a parse or usage error; 2 a
semantic error; 3 a cap exceeded); 4 standard output closed or its reader
gone, or a write to it failed (nothing more is written).
"""
from __future__ import annotations

import atexit
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Sequence

from .core import Database, load_database
from .errors import CapExceededError, InputParseError, SemanticError
from .output import _block, _bool, _columns, _dumps, _emit, _json
from .query import Query, load_query
from .shapley import (
    DEFAULT_SUBSET_CAP,
    WEIGHT_FUNCTIONS,
    WealthKind,
    ms_shapley,  # noqa: F401 - perfbench's self-test checks that the tracer rebinds this name
)
from .supports import (
    all_supports,
    minimal_d_monotone_supports,
    minimal_positive_supports,
    minimal_signed_supports,
)

if TYPE_CHECKING:
    import argparse
    from typing import Callable, TypeVar

    T = TypeVar("T")


def _read(load: Callable[[str], T], path: str, what: str) -> T:
    """``load(path)``, a file that cannot be read or decoded refused as an `InputParseError`."""
    try:
        return load(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputParseError(f"cannot read {what} file: {exc}") from exc


# -- supports --


def _cmd_supports(args: argparse.Namespace, q: Query, db: Database) -> None:
    if args.all:
        kind = "dMonotone" if args.kind == "dmonotone" else args.kind
        sets = all_supports(q, db, kind, signed_cap=args.cap_signed)
    elif args.kind == "signed":
        sets = minimal_signed_supports(q, db, cap=args.cap_signed)
    elif args.kind == "positive":
        sets = minimal_positive_supports(q, db)
    else:
        sets = minimal_d_monotone_supports(q, db)
    listed = lambda: zip(sets.sorted_elements, sets)  # each support's elements, sorted once
    document = lambda: _json({"command": "supports", "query": str(q), "kind": args.kind,
                              "supports": (_block("{}", (
        '"elements": ' + _block("[]", (_dumps(str(e)) for e in elements), 3),
        f'"size": {len(elements)}',
        f'"minimal": {_bool(s.minimal)}',
    ), 2) for elements, s in listed())})
    rows = lambda: [["support", "size", "minimal"]] + [
        ["{" + ", ".join(map(str, elements)) + "}", str(len(elements)), _bool(s.minimal)]
        for elements, s in listed()
    ]
    _emit(args, document, lambda: _columns(rows() if sets else []))


# -- Entry point --


#: Each subcommand's help line, in the order of the help.
_COMMANDS = {
    "supports": "list supports of a query",
    "score": "score facts by a responsibility measure",
    "relevance": "relevance report for every fact",
    "analyze": "structural analysis of a query",
    "compare": "relevance and scores side by side",
}


def _attach_fact_values(argv: Sequence[str]) -> list[str]:
    """Rewrite ``--fact -R(a,b)`` as ``--fact=-R(a,b)``: on its own, argparse
    reads a negative signed fact as an option and finds ``--fact`` empty."""
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1] == "--fact" and arg.startswith("-") and "(" in arg:
            joined[-1] = f"--fact={arg}"
        else:
            joined.append(arg)
    return joined


#: Every flag of the subcommands, in the order of their help: its name, the
#: subcommands that take it, its value (``str``, a tuple of choices, ``int``
#: for a cap, a non-negative integer, or ``None`` for a switch, ``True`` when
#: given), its default, whether it is required, whether it is in the
#: subcommand's one group of exclusive flags, and its help.
_FLAGS = (
    ("--db", ("supports", "score", "relevance", "compare"), str, None, True, False,
     "path to a fact file"),
    ("--db", ("analyze",), str, None, False, False, "path to a fact file"),
    ("--query", tuple(_COMMANDS), str, None, True, False, "path to a query file"),
    ("--format", tuple(_COMMANDS), ("json", "table"), "table", False, False, None),
    ("--cap-signed", tuple(_COMMANDS), int, None, False, False,
     "max size of the signed completion"),
    ("--kind", ("supports",), ("signed", "positive", "dmonotone"), "signed", False, False, None),
    ("--all", ("supports",), None, False, False, False,
     "include non-minimal supports (exponential)"),
    ("--measure", ("score",), tuple(kind.value for kind in WealthKind), "ms-signed", False,
     False, None),
    ("--weight", ("score",), tuple(sorted(WEIGHT_FUNCTIONS)), "reciprocal", False, False, None),
    ("--fact", ("score",), str, None, False, True,
     'score only this fact, e.g. "I(mm,fish)" or "-E(c,a)"'),
    ("--all", ("score",), None, False, False, True, "score every player (the default)"),
    ("--cap-subset", ("score", "compare"), int, DEFAULT_SUBSET_CAP, False, False, None),
)


def _read_plain(argv: Sequence[str]) -> SimpleNamespace | None:
    """What argparse makes of ``argv`` if it is written in the plain form, or
    ``None``: the subcommand, then its flags of `_FLAGS` in full, each once
    at most (a switch alone, any other as ``--flag value``, with no value
    starting with ``-``, or as ``--flag=value``), with non-empty values
    within their choices and caps of ASCII digits, the required flags given
    and no two exclusive ones.  argparse reads every other argv, and writes
    help and usage errors."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    command, tokens = argv[0], iter(argv[1:])
    flags = {name: (value, default, required, exclusive)
             for name, commands, value, default, required, exclusive, _ in _FLAGS
             if command in commands}
    given: dict[str, object] = {}
    for token in tokens:
        name, equals, text = token.partition("=")
        if name not in flags or name in given:
            return None
        value = flags[name][0]
        if value is None:  # a switch
            if equals:
                return None
            given[name] = True
            continue
        if not equals:
            text = next(tokens, "-")
            if text.startswith("-"):
                return None
        if value is int:  # a cap
            if not (text.isascii() and text.isdigit()):
                return None
            try:
                text = int(text)
            except ValueError:  # more digits than `int` converts
                return None
        elif not text or value is not str and text not in value:
            return None
        given[name] = text
    if any(required and name not in given for name, (_, _, required, _) in flags.items()):
        return None
    if sum(flags[name][3] for name in given) > 1:  # exclusive flags
        return None
    return SimpleNamespace(command=command, **{
        name[2:].replace("-", "_"): given.get(name, default)
        for name, (_, default, _, _) in flags.items()})


def main(argv: Sequence[str] | None = None) -> int:
    argv = _attach_fact_values(sys.argv[1:] if argv is None else argv)
    try:
        args = _read_plain(argv)
        if args is None:  # help, abbreviations and usage errors are argparse's
            from .usage import build_parser

            args = build_parser(tuple(_COMMANDS.items()), _FLAGS).parse_args(argv)
        handler = _cmd_supports  # the others load with their modules, before the inputs
        if args.command == "analyze":
            from .analysis import write_analysis as handler
        elif args.command != "supports":
            from .rows import _cmd_report, _cmd_score
            handler = _cmd_score if args.command == "score" else _cmd_report
        q = _read(load_query, args.query, "query")  # then the facts: ``analyze`` only checks them
        db = None if args.db is None else _read(load_database, args.db, "fact")
        handler(args, q, db)
        return 0
    except (InputParseError, SemanticError, CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # a failed read is an `InputParseError` by now: this is a write
        # Said by no message if stdout is closed or its reader gone; what it
        # still buffers goes to /dev/null, so that every later flush passes.
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        if sys.stdout is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 4


def _end(code: int) -> None:
    """`sys.exit(code)` less the interpreter's teardown: the `atexit` callbacks,
    a flush of the standard streams, then `os._exit`.  A failed flush, ``-i``,
    and a tracer or profiler (``-m cProfile`` writes after the module returns)
    take `sys.exit`.  `main` only returns the code, for in-process callers."""
    monitoring = getattr(sys, "monitoring", None)  # cProfile's hook from Python 3.12
    if not (sys.flags.inspect or (sys.gettrace(), sys.getprofile()) != (None, None)
            or monitoring and any(map(monitoring.get_tool, range(6)))):
        atexit._run_exitfuncs()  # prints and ignores a failing callback, as an exit does
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:
                    stream.flush()
            os._exit(code)
        except OSError:  # reported by the interpreter's own flush
            pass
    sys.exit(code)


if __name__ == "__main__":
    _end(main())
