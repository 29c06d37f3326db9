"""Command-line front end.

Subcommands: ``supports``, ``score``, ``relevance``, ``analyze``,
``compare``.  Databases are fact files (one ``R(a,b)`` per line, ``#``
comments, optional ``@relation R/2`` headers); queries are expression files
(``#`` comments allowed).  Output is a table by default or JSON with
``--format json``; identical inputs always produce byte-identical output.

A command line is read from `_FLAGS`, the one description of each
subcommand's flags.  One written in its plain form (the subcommand, then
each flag in full, once, with a valid value) is read straight into the
namespace argparse would make, without importing argparse; argparse,
with its parser built from the same table, reads any other.  So every
spelling argparse accepts still works (abbreviated flags, repeats), and
help, usage errors and their messages are argparse's own: the plain form
is only the fast route.

Exit codes: 0 success, 1 usage or parse error, 2 semantic error (unsafe
query, arity clash, bad player), 3 cap exceeded, 4 standard output closed
or its reader gone, or a write to it failed (nothing more is written).
"""
from __future__ import annotations

import os
import re
import sys
from functools import cache
from types import SimpleNamespace
from typing import TYPE_CHECKING, Sequence

from .core import Database, load_database, parse_fact, parse_signed_fact
from .errors import CapExceededError, InputParseError, SemanticError
from .output import (_block, _bool, _columns, _dumps, _emit, _json, _value_cell, _value_json,
                     _write_rows)
from .query import Query, parse_query
from .relevance import report
from .shapley import (
    DEFAULT_SUBSET_CAP,
    WEIGHT_FUNCTIONS,
    WealthKind,
    ms_shapley,  # noqa: F401 - perfbench's self-test checks that the tracer rebinds this name
    scores,
)
from .supports import (
    all_supports,
    minimal_d_monotone_supports,
    minimal_positive_supports,
    minimal_signed_supports,
)

if TYPE_CHECKING:
    import argparse


def _load_query(path: str) -> Query:
    try:
        with open(path, encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputParseError(f"cannot read query file: {exc}") from exc
    return parse_query(re.sub(r"#[^\n]*", "", text))


def _load_db(path: str) -> Database:
    try:
        return load_database(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputParseError(f"cannot read fact file: {exc}") from exc


# -- supports --


def _cmd_supports(args: argparse.Namespace) -> None:
    q = _load_query(args.query)
    db = _load_db(args.db)
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


# -- score --


def _cmd_score(args: argparse.Namespace) -> None:
    q = _load_query(args.query)
    db = _load_db(args.db)
    kind = WealthKind(args.measure)
    signed, counting = kind.signed_players, kind.support_mode is not None
    target = None if args.fact is None else (parse_signed_fact if signed else parse_fact)(args.fact)
    # A result is an `MsShapleyResult` (a counting measure), a `Fraction` (a
    # Boolean game) or a cap's message, held for the target, the support
    # members or a game's players; every other player shares ``other``.
    players, found = scores(q, db, kind, target=target, weight=WEIGHT_FUNCTIONS[args.weight],
                            subset_cap=args.cap_subset, signed_cap=args.cap_signed)
    method = "closed-form" if counting else "subset"

    def cells(result) -> tuple[str, str]:
        if isinstance(result, str):
            return "error: " + result, "-"
        return str(result.score if counting else result), method

    def record(result) -> str:
        if isinstance(result, str):
            return f',\n      "error": {_dumps(result)}\n    }}'
        value, sizes = result if counting else (result, None)
        score = _block("{}", [f'"{kind.value}": {_value_json(value)}'], 3)
        text = f',\n      "values": {score},\n      "method": "{method}"'
        if sizes is not None:
            counts = (f'"{size}": {count}' for size, count in sizes.items())
            text += f',\n      "supportsBySize": {_block("{}", counts, 3)}'
        return text + "\n    }"

    _write_rows(args, {"command": "score", "query": str(q), "measure": kind.value,
                       "weight": args.weight}, ("fact", kind.value, "method"),
                lambda: [max(len(cells(r)[0]) for r in [*found.values.values(), found.other]), 0],
                record, cells, players if target is None else target, [(found, signed)])


# -- relevance / analyze / compare --


_VERDICT_COLUMNS = ("fact", "signedRelevant", "positiveRelevant", "impact")
_COMPARED = (WealthKind.MS_SIGNED.value, WealthKind.MPS_POSITIVE.value,
             WealthKind.DRASTIC_DIRECT.value)


def _cmd_analyze(args: argparse.Namespace) -> None:
    from .analysis import analyze_query  # here: no other command needs it

    q = _load_query(args.query)
    analysis = analyze_query(q)
    payload = {
        "command": "analyze",
        "query": str(q),
        "negativeArity": analysis.negative_arity,
        "guarded": analysis.guarded,
        "negPath": analysis.has_non_hierarchical_neg_path,
        "selfJoinFreePositive": analysis.self_join_free_positive,
        "selfJoinFreeAll": analysis.self_join_free_all,
        "disjuncts": [
            {
                "selfJoinWidth": d.self_join_width,
                "mergeablePairs": [list(pair) for pair in sorted(d.mergeable_pairs)],
                "guarded": d.guarded,
                "negPath": d.has_non_hierarchical_neg_path,
            }
            for d in analysis.disjuncts
        ],
    }

    def cell(value) -> str:  # the table shows the payload's fields
        if isinstance(value, bool):
            return _bool(value)
        if isinstance(value, list):  # the mergeable pairs
            return "[" + ", ".join(f"({a},{b})" for a, b in value) + "]"
        return str(value)

    fields = lambda record: [f"{key} = {cell(value)}" for key, value in record.items()
                             if key not in ("command", "disjuncts")]
    lines = fields(payload) + [f"disjunct {i}: " + ", ".join(fields(d))
                               for i, d in enumerate(payload["disjuncts"])]
    _emit(args, lambda: [_dumps(payload, indent=2) + "\n"], lambda: (line + "\n" for line in lines))


def _cmd_report(args: argparse.Namespace) -> None:
    """``relevance``, and ``compare`` with the ms-signed, mps and drastic scores
    added: a row per fact of the restricted completion, written as it is made
    from the columns of `relevance.report`."""
    q = _load_query(args.query)
    db = _load_db(args.db)
    measures = _COMPARED if args.command == "compare" else ()
    completion, columns = report(q, db, signed_cap=args.cap_signed,
                                 subset_cap=args.cap_subset if measures else None)

    def record(in_signed, in_plain, impact, *values) -> str:
        impact = "null" if impact is None else f'"{impact}"'  # a name: nothing to escape
        text = (f',\n      "signedRelevant": {_bool(in_signed)},\n      "positiveRelevant": '
                f'{"null" if in_plain is None else _bool(in_plain)},\n      "impact": {impact}')
        if measures:  # a - row has an ms-signed score only
            shown = (f'"{m}": {_value_json(v)}' for m, v in zip(measures, values) if v is not None)
            text += f',\n      "values": {_block("{}", shown, 3)}'
        return text + "\n    }"

    def cells(in_signed, in_plain, impact, *values) -> tuple[str, ...]:
        return (_bool(in_signed), "-" if in_plain is None else _bool(in_plain), impact or "-",
                *map(_value_cell, values))

    widths = lambda: [0, 0, *(max(len(cell(v)) for v in [*values.values(), other]) for cell, (
        (values, other), _) in zip((str, _value_cell, _value_cell, _value_cell), columns[2:]))]
    _write_rows(args, {"command": args.command, "query": str(q)}, (*_VERDICT_COLUMNS, *measures),
                widths, record, cells, completion, columns)


# -- Entry point --


#: Each subcommand's help line and handler, in the order of the help.
_COMMANDS = {
    "supports": ("list supports of a query", _cmd_supports),
    "score": ("score facts by a responsibility measure", _cmd_score),
    "relevance": ("relevance report for every fact", _cmd_report),
    "analyze": ("structural analysis of a query", _cmd_analyze),
    "compare": ("relevance and scores side by side", _cmd_report),
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


@cache  # built once per process: argparse does not change a parser as it parses
def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with every subcommand, and the arguments of ``command`` only,
    or of every subcommand when it is ``None``: the others are never read.
    Its arguments are `_FLAGS`, in their order."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """argparse that signals usage errors instead of exiting with code 2."""

        def error(self, message: str) -> None:  # noqa: D401 - argparse hook
            raise InputParseError(message)

    def count(text: str) -> int:
        """The type of the caps: a non-negative integer."""
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
        return value

    parser = _Parser(
        prog="negshapley",
        description="Minimal supports and exact Shapley scores for database "
        "facts under queries with negation.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        group = None
        for flag, commands, value, default, required, exclusive, help in _FLAGS:
            if command not in (None, name) or name not in commands:
                continue
            if value is None:  # a switch
                options = {"action": "store_true"}
            else:
                options = {"default": default, "required": required}
                if value is int:
                    options.update(type=count, metavar="N")
                elif value is not str:
                    options["choices"] = value
            if exclusive:
                group = group or p.add_mutually_exclusive_group()
            (group if exclusive else p).add_argument(flag, help=help, **options)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = _attach_fact_values(sys.argv[1:] if argv is None else argv)
    try:
        args = _read_plain(argv)
        if args is None:  # help, abbreviations and usage errors are argparse's
            command = argv[0] if argv and argv[0] in _COMMANDS else None
            args = _build_parser(command).parse_args(argv)
        _COMMANDS[args.command][1](args)
        return 0
    except InputParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SemanticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a failed read is an `InputParseError` by now: this is a write
        # Said by no message if stdout is closed or its reader gone; what it
        # still buffers goes to /dev/null, so that the flush at exit passes.
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        if sys.stdout is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 4


if __name__ == "__main__":
    sys.exit(main())
