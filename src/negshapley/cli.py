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
import os
import re
import sys
from fractions import Fraction
from typing import Sequence

from .core import (Database, Fact, Sign, _absent, _completion_shape, load_database, negative,
                   parse_fact, parse_signed_fact, positive)
from .errors import CapExceededError, InputParseError, SemanticError
from .output import (_block, _bool, _columns, _dumps, _emit, _fact_width, _json, _value_cell,
                     _value_json, _write_rows)
from .query import Query, analyze_query, neg_rels, parse_query
from .relevance import _report
from .shapley import (
    DEFAULT_SUBSET_CAP,
    WEIGHT_FUNCTIONS,
    WealthKind,
    _ms_results,
    _table_cap,
    make_game,
    ms_shapley,
    reciprocal_weight,
    shapley_subset,
    shapley_values,
)
from .supports import (
    _signed_supports,
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


def _cmd_score(args: argparse.Namespace) -> None:
    q = _load_query(args.query)
    db = _load_db(args.db)
    kind = WealthKind(args.measure)
    signed = kind.signed_players
    target = None if args.fact is None else (parse_signed_fact if signed else parse_fact)(args.fact)

    # The measure picks the route: a counting measure is the weighted sum over
    # its minimal supports, a Boolean game is played on its coalition table.
    # A player's data is (value or cap message, supports by size or None).
    # Scoring every player, data is held for the support members only, or for
    # a game's players, and the other players share ``other``: the rows come
    # from the database facts and the - facts' argument tuples.
    counting, weight = kind.support_mode is not None, WEIGHT_FUNCTIONS[args.weight]
    method, other = "closed-form" if counting else "subset", (Fraction(0), {})
    if target is not None:
        if counting:
            value = ms_shapley(q, db, target, weight=weight, mode=kind.support_mode,
                               signed_cap=args.cap_signed)
        else:
            game = make_game(q, db, kind, signed_cap=args.cap_signed)
            value = (shapley_subset(game, target, cap=args.cap_subset), None)
        data = {target: value}
        n, plus, minus, width = 1, [(str(target), value)], [], len(str(target))
    else:
        n, minus = len(db.facts), []
        if signed:
            base, negated, n = _completion_shape(db, neg_rels(q), q.relations, args.cap_signed)
            adom = sorted(base.active_domain)
            minus = [(rel, _absent(base, rel, adom)) for rel in negated]
        if counting:
            supports = _signed_supports(q, db) if signed else minimal_positive_supports(q, db)
            data = _ms_results({p for s in supports for p in s.elements}, supports, weight)
        else:
            try:  # the players are made within the cap only
                _table_cap(n, args.cap_subset)
                game = make_game(q, db, kind, signed_cap=args.cap_signed)
                data = {p: (v, None) for p, v in shapley_values(game, cap=args.cap_subset).items()}
            except CapExceededError as exc:
                data, other = {}, (str(exc), None)
        plus = (((f"+{f}", data.get(positive(f), other)) for f in db.sorted_facts) if signed
                else ((str(f), data.get(f, other)) for f in db.sorted_facts))
        minus = [(rel, absent, {sf.fact.args: d for sf, d in data.items()
                                if sf.sign is Sign.NEGATIVE and sf.fact.relation == rel}, other)
                 for rel, absent in minus]
        width = _fact_width(db, [rel for rel, *_ in minus], signed)

    def cells(data) -> tuple[str, str]:
        value = data[0]
        return ("error: " + value, "-") if isinstance(value, str) else (str(value), method)

    def record(data) -> str:
        value, sizes = data
        if isinstance(value, str):
            return f',\n      "error": {_dumps(value)}\n    }}'
        score = _block("{}", [f'"{kind.value}": {_value_json(value)}'], 3)
        text = f',\n      "values": {score},\n      "method": "{method}"'
        if sizes is not None:
            counts = (f'"{size}": {count}' for size, count in sizes.items())
            text += f',\n      "supportsBySize": {_block("{}", counts, 3)}'
        return text + "\n    }"

    shown = [*data.values(), other] if n > len(data) else data.values()
    _write_rows(args, {"command": "score", "query": str(q), "measure": kind.value,
                       "weight": args.weight}, ("fact", kind.value, "method"),
                lambda: [width, max((len(cells(d)[0]) for d in shown), default=0), 0],
                record, cells, plus, minus)


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
    # others by fact); every other fact shares one zero.  A row's data is
    # (signed-relevant, positive-relevant, impact, values); a - row's depends
    # only on its ms-signed score, 0 outside the signed supports.
    signed, plain, game, impacts, positives, negatives = _report(q, db, args.cap_signed)
    scores: list[dict] = []
    if args.command == "compare":
        members = lambda family: {p for s in family for p in s.elements}
        scores = [{p: r.score for p, r in _ms_results(members(f), f, reciprocal_weight).items()}
                  for f in (signed, plain)]
        try:
            scores.append(shapley_values(game, cap=args.cap_subset))
        except CapExceededError as exc:  # every player's value is the cap's message
            scores.append(dict.fromkeys(game.players, str(exc)))
    measures, zero = _COMPARED[:len(scores)], Fraction(0)

    def values(*players) -> dict:  # a - row has one player: ms-signed only
        return {m: by_player.get(p, zero) for m, by_player, p in zip(measures, scores, players)}

    def record(data) -> str:
        in_signed, in_plain, impact, values = data
        impact = "null" if impact is None else f'"{impact}"'  # a name: nothing to escape
        text = (f',\n      "signedRelevant": {_bool(in_signed)},\n      "positiveRelevant": '
                f'{"null" if in_plain is None else _bool(in_plain)},\n      "impact": {impact}')
        if measures:
            shown = (f'"{m}": {_value_json(v)}' for m, v in values.items())
            text += f',\n      "values": {_block("{}", shown, 3)}'
        return text + "\n    }"

    def cells(data) -> tuple[str, ...]:
        in_signed, in_plain, impact, values = data
        return (_bool(in_signed), "-" if in_plain is None else _bool(in_plain), impact or "-",
                *(_value_cell(values.get(m)) for m in measures))

    widths = lambda: [
        _fact_width(db, [r for r, _, _ in negatives], 1), 0, 0,
        max(map(len, impacts.values()), default=0),
        *(max(map(len, map(_value_cell, by_player.values())), default=0) for by_player in scores),
    ]
    plus = ((f"+{f}", (in_signed, in_plain, impact, values(positive(f), f, f)))
            for f, in_signed, in_plain, impact in positives)
    minus = ((rel, absent, {a: (True, None, None, values(negative(Fact(rel, a)))) for a in relevant},
              (False, None, None, values(None))) for rel, absent, relevant in negatives)
    _write_rows(args, {"command": args.command, "query": str(q)}, (*_VERDICT_COLUMNS, *measures),
                widths, record, cells, plus, minus)


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
