"""Command-line front end.

Subcommands: ``supports``, ``score``, ``relevance``, ``analyze``,
``compare``.  Databases are fact files (one ``R(a,b)`` per line, ``#``
comments, optional ``@relation R/2`` headers); queries are expression files
(``#`` comments allowed).  Output is a table by default or JSON with
``--format json``; identical inputs always produce byte-identical output.

Exit codes: 0 success, 1 usage or parse error, 2 semantic error (unsafe
query, arity clash, bad player), 3 cap exceeded.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Any, Callable, Sequence

from .core import Database, load_database, parse_fact, parse_signed_fact
from .errors import CapExceededError, InputParseError, SemanticError
from .query import Query, analyze_query, parse_query
from .relevance import RelevanceVerdict, relevance_report
from .shapley import (
    DEFAULT_PERMUTATION_CAP,
    DEFAULT_SUBSET_CAP,
    WEIGHT_FUNCTIONS,
    MsShapleyResult,
    Game,
    WealthKind,
    make_game,
    ms_scores,
    ms_shapley,
    shapley_permutation,
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
    p.add_argument(
        "--method",
        choices=("auto", "closed-form", "subset", "permutation"),
        default="auto",
    )
    p.add_argument("--fact", help='score only this fact, e.g. "I(mm,fish)" or "-E(c,a)"')
    p.add_argument("--all", action="store_true", help="score every player (the default)")
    p.add_argument("--cap-subset", type=_count, default=DEFAULT_SUBSET_CAP, metavar="N")
    p.add_argument("--cap-perm", type=_count, default=DEFAULT_PERMUTATION_CAP, metavar="N")

    p = sub.add_parser("relevance", help="relevance report for every fact")
    common(p)

    p = sub.add_parser("analyze", help="structural analysis of a query")
    common(p, db_required=False)

    p = sub.add_parser("compare", help="relevance and scores side by side")
    common(p)
    p.add_argument("--cap-subset", type=_count, default=DEFAULT_SUBSET_CAP, metavar="N")
    p.add_argument("--cap-perm", type=_count, default=DEFAULT_PERMUTATION_CAP, metavar="N")

    return parser


def _load_query(path: str) -> Query:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputParseError(f"cannot read query file: {exc}") from exc
    return parse_query(re.sub(r"#[^\n]*", "", text))


def _load_db(path: str) -> Database:
    try:
        return load_database(path)
    except OSError as exc:
        raise InputParseError(f"cannot read fact file: {exc}") from exc


def _rational(value: Fraction) -> dict[str, str]:
    return {"num": str(value.numerator), "den": str(value.denominator)}


def _emit(args: argparse.Namespace, payload: dict[str, Any], table: list[str]) -> None:
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(table) + ("\n" if table else ""))


def _columns(rows: list[Sequence[str]]) -> list[str]:
    if not rows:
        return []
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ]


# ---------------------------------------------------------------------------
# supports
# ---------------------------------------------------------------------------


def _cmd_supports(args: argparse.Namespace) -> None:
    q = _load_query(args.query)
    db = _load_db(args.db)
    if args.all:
        sets = all_supports(q, db, _canonical_kind(args.kind))
    elif args.kind == "signed":
        sets = minimal_signed_supports(q, db, cap=args.cap_signed)
    elif args.kind == "positive":
        sets = minimal_positive_supports(q, db)
    else:
        sets = minimal_d_monotone_supports(q, db)
    payload = {
        "command": "supports",
        "query": str(q),
        "kind": args.kind,
        "supports": [
            {
                "elements": [str(e) for e in s.sorted_elements],
                "size": len(s.elements),
                "minimal": s.minimal,
            }
            for s in sets
        ],
    }
    rows = [["support", "size", "minimal"]] + [
        [str(s), str(len(s.elements)), _bool(s.minimal)] for s in sets
    ]
    _emit(args, payload, _columns(rows if len(rows) > 1 else []))


def _canonical_kind(kind: str) -> str:
    return {"signed": "signed", "positive": "positive", "dmonotone": "dMonotone"}[kind]


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


def _game_method(game: Game, method: str, cap_subset: int) -> str:
    """The route of a game measure; ``auto`` takes subset while the cap allows."""
    if method == "closed-form":
        raise InputParseError(
            f"--method closed-form applies only to "
            f"{WealthKind.MS_SIGNED.value} and {WealthKind.MPS_POSITIVE.value}"
        )
    if method == "auto":
        return "subset" if len(game.players) <= cap_subset else "permutation"
    return method


def _game_records(
    game: Game, method: str, cap_subset: int, cap_perm: int
) -> list[dict[str, Any]]:
    """Records for every player of a game, from the game's one table; a cap
    that refuses the game gives every player the same ``error`` record."""
    method = _game_method(game, method, cap_subset)
    try:
        if method == "subset":
            values = shapley_values(game, cap=cap_subset)
        else:
            values = {p: shapley_permutation(game, p, cap=cap_perm) for p in game.players}
    except CapExceededError as exc:
        return [{"fact": str(p), "error": str(exc)} for p in game.players]
    return [_record(game.kind, p, v, method) for p, v in values.items()]


def _record(kind: WealthKind, target, value: Fraction, method: str) -> dict[str, Any]:
    return {
        "fact": str(target),
        "values": {kind.value: _rational(value)},
        "method": method,
    }


def _closed_form_record(
    kind: WealthKind, target, result: MsShapleyResult
) -> dict[str, Any]:
    record = _record(kind, target, result.score, "closed-form")
    sizes = result.supports_by_size.items()
    record["supportsBySize"] = {str(size): count for size, count in sizes}
    return record


def _cmd_score(args: argparse.Namespace) -> None:
    q = _load_query(args.query)
    db = _load_db(args.db)
    kind = WealthKind(args.measure)
    closed_form = kind.support_mode is not None and args.method in ("auto", "closed-form")
    weight = WEIGHT_FUNCTIONS[args.weight]
    mode, cap_signed = kind.support_mode, args.cap_signed

    if args.fact is not None:
        target = (
            parse_signed_fact(args.fact) if kind.signed_players else parse_fact(args.fact)
        )
        if closed_form:
            result = ms_shapley(
                q, db, target, weight=weight, mode=mode, signed_cap=cap_signed
            )
            records = [_closed_form_record(kind, target, result)]
        else:
            game = make_game(q, db, kind, signed_cap=cap_signed)
            method = _game_method(game, args.method, args.cap_subset)
            if method == "subset":
                value = shapley_subset(game, target, cap=args.cap_subset)
            else:
                value = shapley_permutation(game, target, cap=args.cap_perm)
            records = [_record(kind, target, value, method)]
    elif closed_form:
        scores = ms_scores(q, db, weight=weight, mode=mode, signed_cap=cap_signed)
        records = [_closed_form_record(kind, p, r) for p, r in scores.items()]
    else:
        game = make_game(q, db, kind, signed_cap=cap_signed)
        records = _game_records(game, args.method, args.cap_subset, args.cap_perm)

    payload = {
        "command": "score",
        "query": str(q),
        "measure": kind.value,
        "weight": args.weight,
        "records": records,
    }
    rows = [["fact", kind.value, "method"]]
    for record in records:
        if "error" in record:
            rows.append([record["fact"], "error: " + record["error"], "-"])
        else:
            value = record["values"][kind.value]
            rows.append([record["fact"], _render_rational(value), record["method"]])
    _emit(args, payload, _columns(rows))


def _render_rational(encoded: dict[str, str]) -> str:
    return str(Fraction(int(encoded["num"]), int(encoded["den"])))


# ---------------------------------------------------------------------------
# relevance / analyze / compare
# ---------------------------------------------------------------------------


def _verdict_record(v: RelevanceVerdict) -> dict[str, Any]:
    return {
        "fact": str(v.subject),
        "signedRelevant": v.signed_relevant,
        "positiveRelevant": v.positive_relevant,
        "impact": "skipped"
        if v.impact_skipped
        else (v.impact.value if v.impact is not None else None),
    }


def _verdict_row(v: RelevanceVerdict) -> list[str]:
    if v.impact_skipped:
        impact = "skipped"
    elif v.impact is None:
        impact = "-"
    else:
        impact = v.impact.value
    return [
        str(v.subject),
        _bool(v.signed_relevant),
        "-" if v.positive_relevant is None else _bool(v.positive_relevant),
        impact,
    ]


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _cmd_relevance(args: argparse.Namespace) -> None:
    q = _load_query(args.query)
    db = _load_db(args.db)
    verdicts = relevance_report(q, db, signed_cap=args.cap_signed)
    payload = {
        "command": "relevance",
        "query": str(q),
        "records": [_verdict_record(v) for v in verdicts],
    }
    rows = [["fact", "signedRelevant", "positiveRelevant", "impact"]]
    rows += [_verdict_row(v) for v in verdicts]
    _emit(args, payload, _columns(rows))


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
    _emit(args, payload, lines)


def _cmd_compare(args: argparse.Namespace) -> None:
    q = _load_query(args.query)
    db = _load_db(args.db)
    verdicts = relevance_report(q, db, signed_cap=args.cap_signed)

    def closed_form(kind: WealthKind) -> Callable[[Any], dict[str, str]]:
        """Cell values of a counting measure, from one pass over its supports."""
        try:
            results = ms_scores(q, db, mode=kind.support_mode, signed_cap=args.cap_signed)
        except CapExceededError as exc:
            error = {"error": str(exc)}
            return lambda player: error
        return lambda player: _rational(results[player].score)

    ms_signed = closed_form(WealthKind.MS_SIGNED)
    mps = closed_form(WealthKind.MPS_POSITIVE)
    game = make_game(q, db, WealthKind.DRASTIC_DIRECT)
    drastic = {
        r["fact"]: r["values"][game.kind.value] if "values" in r else {"error": r["error"]}
        for r in _game_records(game, "auto", args.cap_subset, args.cap_perm)
    }
    records = []
    for v in verdicts:
        entry = _verdict_record(v)
        entry["values"] = {WealthKind.MS_SIGNED.value: ms_signed(v.subject)}
        if v.positive_relevant is not None:  # a database fact
            entry["values"][WealthKind.MPS_POSITIVE.value] = mps(v.subject.fact)
            entry["values"][WealthKind.DRASTIC_DIRECT.value] = drastic[str(v.subject.fact)]
        records.append(entry)

    payload = {"command": "compare", "query": str(q), "records": records}
    rows = [
        ["fact", "signedRelevant", "positiveRelevant", "impact",
         WealthKind.MS_SIGNED.value, WealthKind.MPS_POSITIVE.value,
         WealthKind.DRASTIC_DIRECT.value]
    ]
    for record in records:
        cells = [
            record["fact"],
            _bool(record["signedRelevant"]),
            "-" if record["positiveRelevant"] is None else _bool(record["positiveRelevant"]),
            "-" if record["impact"] is None else record["impact"],
        ]
        for name in (WealthKind.MS_SIGNED.value, WealthKind.MPS_POSITIVE.value,
                     WealthKind.DRASTIC_DIRECT.value):
            value = record["values"].get(name)
            if value is None:
                cells.append("-")
            elif "error" in value:
                cells.append("error")
            else:
                cells.append(_render_rational(value))
        rows.append(cells)
    _emit(args, payload, _columns(rows))


# ---------------------------------------------------------------------------


_DISPATCH = {
    "supports": _cmd_supports,
    "score": _cmd_score,
    "relevance": _cmd_relevance,
    "analyze": _cmd_analyze,
    "compare": _cmd_compare,
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


if __name__ == "__main__":
    sys.exit(main())
