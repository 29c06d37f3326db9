"""Command-line front end.

Subcommands: ``supports``, ``score``, ``relevance``, ``analyze``,
``compare``.  Databases are fact files (one ``R(a,b)`` per line, ``#``
comments, optional ``@relation R/2`` headers); queries are expression files
(``#`` comments allowed).  Output is a table by default or JSON with
``--format json``; identical inputs always produce byte-identical output.

Exit codes: 0 success, 1 usage or parse error, 2 semantic error (unsafe
query, arity clash, bad player), 3 cap exceeded, 4 standard output closed
or its reader gone (nothing more is written).
"""
from __future__ import annotations

import argparse
import itertools
import os
import re
import sys
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Sequence

from .core import Database, Fact, load_database, negative, parse_fact, parse_signed_fact, positive
from .errors import CapExceededError, InputParseError, SemanticError
from .query import Query, analyze_query, parse_query
from .relevance import _report
from .shapley import (
    DEFAULT_SUBSET_CAP,
    WEIGHT_FUNCTIONS,
    Game,
    WealthKind,
    _ms_results,
    make_game,
    ms_scores,
    ms_shapley,
    reciprocal_weight,
    shapley_subset,
    shapley_values,
)
from .supports import (
    all_supports,
    minimal_d_monotone_supports,
    minimal_positive_supports,
    minimal_signed_supports,
)

_MEASURES = tuple(kind.value for kind in WealthKind)
_SUPPORT_KINDS = ("signed", "positive", "dmonotone")


class _Parser(argparse.ArgumentParser):
    """argparse that signals usage errors instead of exiting with code 2."""

    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        raise InputParseError(message)


def _count(text: str) -> int:
    """argparse type of the caps: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="negshapley",
        description="Minimal supports and exact Shapley scores for database "
        "facts under queries with negation.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p: argparse.ArgumentParser, db_required: bool = True) -> None:
        p.add_argument("--db", required=db_required, help="path to a fact file")
        p.add_argument("--query", required=True, help="path to a query file")
        p.add_argument("--format", choices=("json", "table"), default="table")
        p.add_argument(
            "--cap-signed",
            type=_count,
            default=None,
            metavar="N",
            help="max size of the signed completion",
        )

    p = sub.add_parser("supports", help="list supports of a query")
    common(p)
    p.add_argument("--kind", choices=_SUPPORT_KINDS, default="signed")
    p.add_argument(
        "--all",
        action="store_true",
        help="include non-minimal supports (exponential)",
    )

    p = sub.add_parser("score", help="score facts by a responsibility measure")
    common(p)
    p.add_argument("--measure", choices=_MEASURES, default="ms-signed")
    p.add_argument("--weight", choices=sorted(WEIGHT_FUNCTIONS), default="reciprocal")
    players = p.add_mutually_exclusive_group()
    players.add_argument("--fact", help='score only this fact, e.g. "I(mm,fish)" or "-E(c,a)"')
    players.add_argument("--all", action="store_true", help="score every player (the default)")
    p.add_argument("--cap-subset", type=_count, default=DEFAULT_SUBSET_CAP, metavar="N")

    p = sub.add_parser("relevance", help="relevance report for every fact")
    common(p)

    p = sub.add_parser("analyze", help="structural analysis of a query")
    common(p, db_required=False)

    p = sub.add_parser("compare", help="relevance and scores side by side")
    common(p)
    p.add_argument("--cap-subset", type=_count, default=DEFAULT_SUBSET_CAP, metavar="N")

    return parser


def _load_query(path: str) -> Query:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputParseError(f"cannot read query file: {exc}") from exc
    return parse_query(re.sub(r"#[^\n]*", "", text))


def _load_db(path: str) -> Database:
    try:
        return load_database(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputParseError(f"cannot read fact file: {exc}") from exc


def _emit(args: argparse.Namespace, document: Callable, table: Callable) -> None:
    """Write the JSON document or the table, building only the one that
    ``--format`` selects, a bounded piece at a time."""
    if sys.stdout is None:  # started with standard output closed
        raise BrokenPipeError("standard output is closed")
    sys.stdout.writelines(document() if args.format == "json" else table())
    sys.stdout.flush()


def _chunks(pieces: Iterable[str], separator: str = "") -> Iterator[str]:
    """The pieces joined by ``separator``, 1024 to a chunk."""
    pieces = iter(pieces)
    while chunk := list(itertools.islice(pieces, 1024)):
        yield separator.join(chunk)


def _block(brackets: str, items: Iterable[str], depth: int) -> str:
    """A JSON array or object (``brackets`` is ``"[]"`` or ``"{}"``) as
    ``json.dumps(..., indent=2)`` writes it ``depth`` levels down, from its
    items already written (``"key": value`` in an object)."""
    body = ",".join(f"\n{'  ' * (depth + 1)}{item}" for item in items)
    return f"{brackets[0]}{body}\n{'  ' * depth}{brackets[1]}" if body else brackets


def _dumps(value: Any, **options: Any) -> str:
    import json  # here: only ``--format json`` needs it

    return json.dumps(value, **options)


def _json(payload: dict) -> Iterator[str]:
    """``json.dumps(payload, indent=2)`` and a newline, in pieces of 1024
    items: the last entry of ``payload`` holds its items already written at
    depth 2 (see `_block`), the others plain values."""
    *head, (name, items) = payload.items()
    yield "{\n" + "".join(f'  "{k}": {_dumps(v)},\n' for k, v in head) + f'  "{name}": ['
    separator = "\n    "
    for chunk in _chunks(items, ",\n    "):
        yield separator + chunk
        separator = ",\n    "
    yield "]\n}\n" if separator == "\n    " else "\n  ]\n}\n"


def _value_json(value: Fraction | str) -> str:
    """A score, or the message of the cap that refused it, at depth 4."""
    if isinstance(value, str):
        return _block("{}", [f'"error": {_dumps(value)}'], 4)
    return _block("{}", [f'"num": "{value.numerator}"', f'"den": "{value.denominator}"'], 4)


def _value_cell(value: Fraction | str | None) -> str:
    return "-" if value is None else "error" if isinstance(value, str) else str(value)


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _columns(rows: list[Sequence[str]]) -> Iterable[str]:
    widths = [max(map(len, column)) for column in zip(*rows)]
    template = "".join(f"{{:<{w}}}  " for w in widths[:-1]) + "{}\n"
    return _chunks(itertools.starmap(template.format, rows))


# ---------------------------------------------------------------------------
# supports
# ---------------------------------------------------------------------------


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
    document = lambda: _json({"command": "supports", "query": str(q), "kind": args.kind,
                              "supports": (_block("{}", (
        '"elements": ' + _block("[]", (_dumps(str(e)) for e in s.sorted_elements), 3),
        f'"size": {len(s.elements)}',
        f'"minimal": {_bool(s.minimal)}',
    ), 2) for s in sets)})
    rows = lambda: [["support", "size", "minimal"]] + [
        [str(s), str(len(s.elements)), _bool(s.minimal)] for s in sets
    ]
    _emit(args, document, lambda: _columns(rows() if sets else []))


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


def _game_values(game: Game, cap_subset: int) -> dict:
    """Every player's value, or the message of the cap that refuses the game."""
    try:
        return shapley_values(game, cap=cap_subset)
    except CapExceededError as exc:
        return dict.fromkeys(game.players, str(exc))


def _cmd_score(args: argparse.Namespace) -> None:
    q = _load_query(args.query)
    db = _load_db(args.db)
    kind = WealthKind(args.measure)
    parse = parse_signed_fact if kind.signed_players else parse_fact
    target = None if args.fact is None else parse(args.fact)

    # The measure picks the route: a counting measure is the weighted sum over
    # its minimal supports, a Boolean game is played on its coalition table.
    # A record is (fact, value or cap message, supports by size).
    if kind.support_mode is not None:
        method = "closed-form"
        options = {"weight": WEIGHT_FUNCTIONS[args.weight], "mode": kind.support_mode,
                   "signed_cap": args.cap_signed}
        results = (ms_scores(q, db, **options) if target is None
                   else {target: ms_shapley(q, db, target, **options)})
        records = [(str(p), r.score, r.supports_by_size) for p, r in results.items()]
    else:
        method = "subset"
        game = make_game(q, db, kind, signed_cap=args.cap_signed)
        values = (_game_values(game, args.cap_subset) if target is None
                  else {target: shapley_subset(game, target, cap=args.cap_subset)})
        records = [(str(p), v, None) for p, v in values.items()]

    def record(fact: str, value: Fraction | str, sizes) -> str:
        if isinstance(value, str):
            return _block("{}", [f'"fact": {_dumps(fact)}', f'"error": {_dumps(value)}'], 2)
        score = _block("{}", [f'"{kind.value}": {_value_json(value)}'], 3)
        fields = [f'"fact": {_dumps(fact)}', f'"values": {score}', f'"method": "{method}"']
        if sizes is not None:
            counts = (f'"{size}": {count}' for size, count in sizes.items())
            fields.append(f'"supportsBySize": {_block("{}", counts, 3)}')
        return _block("{}", fields, 2)

    document = lambda: _json({"command": "score", "query": str(q), "measure": kind.value,
                              "weight": args.weight, "records": itertools.starmap(record, records)})

    rows = lambda: [["fact", kind.value, "method"]] + [
        [fact, "error: " + value, "-"] if isinstance(value, str) else [fact, str(value), method]
        for fact, value, _ in records
    ]
    _emit(args, document, lambda: _columns(rows()))


# ---------------------------------------------------------------------------
# relevance / analyze / compare
# ---------------------------------------------------------------------------


_VERDICT_COLUMNS = ("fact", "signedRelevant", "positiveRelevant", "impact")
_COMPARED = (WealthKind.MS_SIGNED.value, WealthKind.MPS_POSITIVE.value,
             WealthKind.DRASTIC_DIRECT.value)


def _cmd_analyze(args: argparse.Namespace) -> None:
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
    lines = [
        f"query = {q}",
        f"negativeArity = {analysis.negative_arity}",
        f"guarded = {_bool(analysis.guarded)}",
        f"negPath = {_bool(analysis.has_non_hierarchical_neg_path)}",
        f"selfJoinFreePositive = {_bool(analysis.self_join_free_positive)}",
        f"selfJoinFreeAll = {_bool(analysis.self_join_free_all)}",
    ]
    for i, d in enumerate(analysis.disjuncts):
        pairs = ", ".join(f"({a},{b})" for a, b in sorted(d.mergeable_pairs))
        lines.append(
            f"disjunct {i}: selfJoinWidth = {d.self_join_width}, "
            f"mergeablePairs = [{pairs}], guarded = {_bool(d.guarded)}, "
            f"negPath = {_bool(d.has_non_hierarchical_neg_path)}"
        )
    _emit(args, lambda: [_dumps(payload, indent=2) + "\n"], lambda: (line + "\n" for line in lines))


def _cmd_report(args: argparse.Namespace) -> None:
    """``relevance``, and ``compare`` with the ms-signed, mps and drastic scores
    added: a row per fact of the restricted completion, written as it is made."""
    q = _load_query(args.query)
    db = _load_db(args.db)
    # One search gives both support families for the verdict and closed-form
    # columns, and one drastic game serves the impact and drastic columns.
    # Scores are kept for support members only (ms-signed by signed fact, the
    # others by fact); every other fact shares one zero.
    signed, plain, game, impacts, positives, negatives = _report(q, db, args.cap_signed)
    scores: list[dict] = []
    if args.command == "compare":
        members = lambda family: {p for s in family for p in s.elements}
        scores = [{p: r.score for p, r in _ms_results(members(f), f, reciprocal_weight).items()}
                  for f in (signed, plain)]
        scores.append(_game_values(game, args.cap_subset))
    measures, zero = _COMPARED[:len(scores)], Fraction(0)

    def values(*players) -> dict:  # a - row has one player: ms-signed only
        return {m: by_player.get(p, zero) for m, by_player, p in zip(measures, scores, players)}

    if args.format == "json":
        from json.encoder import encode_basestring_ascii as quote  # json.dumps of a str

        opening = '{\n      "fact": '
        fact = lambda cell: opening + quote(cell)

        def tail(in_signed: bool, in_plain: bool | None, impact: str | None, values: dict) -> str:
            text = (f',\n      "signedRelevant": {_bool(in_signed)},\n      "positiveRelevant": '
                    f'{"null" if in_plain is None else _bool(in_plain)},\n      "impact": '
                    f'{"null" if impact is None else quote(impact)}')
            if measures:
                shown = (f'"{m}": {_value_json(v)}' for m, v in values.items())
                text += f',\n      "values": {_block("{}", shown, 3)}'
            return text + "\n    }"
    else:
        # The widest fact cell, with no row listed: each negated relation's
        # tuple of the longest constant is a row, as a - fact or, if stored,
        # a + fact.
        longest = max(map(len, db.active_domain), default=0)
        negated = [len(r.name) + 2 + r.arity * (longest + 1) for r, _, _ in negatives]
        widths = [
            max([len(str(f)) + 1 for f in db.facts] + (negated if longest else []), default=0),
            0, 0, max(map(len, impacts.values()), default=0),
            *(max(map(len, map(_value_cell, by_player.values())), default=0)
              for by_player in scores),
        ]
        header = (*_VERDICT_COLUMNS, *measures)
        widths = [max(len(h), w) for h, w in zip(header, widths)]
        template = "".join(f"  {{:<{w}}}" for w in widths[1:-1]) + "  {}\n"
        width = widths[0]
        fact = lambda cell: cell.ljust(width)

        def tail(in_signed: bool, in_plain: bool | None, impact: str | None, values: dict) -> str:
            cells = (_bool(in_signed), "-" if in_plain is None else _bool(in_plain), impact or "-")
            return template.format(*cells, *(_value_cell(values.get(m)) for m in measures))

    # A row is its fact's cell and a tail of the other cells.  A - row's tail
    # depends only on its ms-signed score (0 outside the signed supports), so a
    # relation's tails are few: one shared, and one interned per support member.
    def minus_rows(rel, absent: Iterator[tuple[str, ...]], relevant: set) -> Iterator[str]:
        tails = {a: sys.intern(tail(True, None, None, values(negative(Fact(rel, a)))))
                 for a in relevant}
        other, head = tail(False, None, None, values(None)), f"-{rel.name}("
        if args.format == "json":  # `fact` written out: this runs once per row
            return (opening + quote(head + ",".join(a) + ")") + tails.get(a, other)
                    for a in absent)
        return ((head + ",".join(a) + ")").ljust(width) + tails.get(a, other) for a in absent)

    rows = itertools.chain(
        (fact(f"+{f}") + tail(in_signed, in_plain, impact, values(positive(f), f, f))
         for f, in_signed, in_plain, impact in positives),
        *itertools.starmap(minus_rows, negatives),
    )
    _emit(args, lambda: _json({"command": args.command, "query": str(q), "records": rows}),
          lambda: _chunks(itertools.chain([fact(header[0]) + template.format(*header[1:])], rows)))


# ---------------------------------------------------------------------------


_DISPATCH = {
    "supports": _cmd_supports,
    "score": _cmd_score,
    "relevance": _cmd_report,
    "analyze": _cmd_analyze,
    "compare": _cmd_report,
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


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(
            _attach_fact_values(sys.argv[1:] if argv is None else argv)
        )
        _DISPATCH[args.command](args)
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
    except BrokenPipeError:
        # Standard output is closed or its reader has gone; what it still
        # buffers goes to /dev/null, so that the flush at exit passes.
        if sys.stdout is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 4


if __name__ == "__main__":
    sys.exit(main())
