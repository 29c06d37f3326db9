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
import itertools
import json
import re
import sys
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Sequence

from .core import Database, SignedFact, load_database, parse_fact, parse_signed_fact
from .errors import CapExceededError, InputParseError, SemanticError
from .query import Query, analyze_query, neg_rels, parse_query
from .relevance import _report
from .shapley import (
    DEFAULT_PERMUTATION_CAP,
    DEFAULT_SUBSET_CAP,
    WEIGHT_FUNCTIONS,
    MsShapleyResult,
    Game,
    WealthKind,
    _ms_results,
    make_game,
    ms_scores,
    ms_shapley,
    reciprocal_weight,
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
    except (OSError, UnicodeDecodeError) as exc:
        raise InputParseError(f"cannot read query file: {exc}") from exc
    return parse_query(re.sub(r"#[^\n]*", "", text))


def _load_db(path: str) -> Database:
    try:
        return load_database(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputParseError(f"cannot read fact file: {exc}") from exc


def _rational(value: Fraction) -> dict[str, str]:
    return {"num": str(value.numerator), "den": str(value.denominator)}


def _emit(args: argparse.Namespace, payload: Callable[[], dict], table: Callable) -> None:
    """Write the JSON payload or the table lines, building only the one
    that ``--format`` selects, a bounded piece at a time."""
    sys.stdout.writelines(_json(payload()) if args.format == "json" else table())


def _json(payload: dict) -> Iterator[str]:
    """``json.dumps(payload, indent=2)`` and a newline, in pieces: the last
    entry, a list or an iterator of records, is dumped a chunk at a time and
    re-indented from the top level to one level down."""
    *head, (name, records) = payload.items()
    yield json.dumps(dict(head), indent=2)[:-2] + f",\n  {json.dumps(name)}: ["
    records, separator = iter(records), "\n"
    while chunk := list(itertools.islice(records, 1024)):
        yield separator + "  " + json.dumps(chunk, indent=2)[2:-2].replace("\n", "\n  ")
        separator = ",\n"
    yield "]\n}\n" if separator == "\n" else "\n  ]\n}\n"


def _table(header: Sequence[str], widths: Sequence[int], rows: Iterable) -> Iterator[str]:
    """The header and the rows as lines, joined 1024 at a time: every cell but
    the last is padded to its column's width, or its header's if wider."""
    widths = [max(len(h), w) for h, w in zip(header, widths)]
    template = "".join(f"{{:<{w}}}  " for w in widths[:-1]) + "{}\n"
    lines = itertools.starmap(template.format, itertools.chain([header], rows))
    while chunk := list(itertools.islice(lines, 1024)):
        yield "".join(chunk)


def _columns(rows: list[Sequence[str]]) -> Iterable[str]:
    if not rows:
        return []
    return _table(rows[0], [max(map(len, column)) for column in zip(*rows)], rows[1:])


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
    payload = lambda: {
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
    rows = lambda: [["support", "size", "minimal"]] + [
        [str(s), str(len(s.elements)), _bool(s.minimal)] for s in sets
    ]
    _emit(args, payload, lambda: _columns(rows() if sets else []))


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

    payload = lambda: {
        "command": "score",
        "query": str(q),
        "measure": kind.value,
        "weight": args.weight,
        "records": records,
    }
    rows = lambda: [["fact", kind.value, "method"]] + [
        [record["fact"], "error: " + record["error"], "-"]
        if "error" in record
        else [record["fact"], _render_rational(record["values"][kind.value]),
              record["method"]]
        for record in records
    ]
    _emit(args, payload, lambda: _columns(rows()))


def _render_rational(encoded: dict[str, str]) -> str:
    """A `_rational` encoding as `str` shows the `Fraction` it encodes."""
    num, den = encoded["num"], encoded["den"]
    return num if den == "1" else f"{num}/{den}"


# ---------------------------------------------------------------------------
# relevance / analyze / compare
# ---------------------------------------------------------------------------


_VERDICT_COLUMNS = ("fact", "signedRelevant", "positiveRelevant", "impact")
_COMPARED = (WealthKind.MS_SIGNED.value, WealthKind.MPS_POSITIVE.value,
             WealthKind.DRASTIC_DIRECT.value)


def _value_cell(value: dict[str, str] | None) -> str:
    if value is None:
        return "-"
    return "error" if "error" in value else _render_rational(value)


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _cmd_analyze(args: argparse.Namespace) -> None:
    q = _load_query(args.query)
    analysis = analyze_query(q)
    payload = lambda: {
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
    _emit(args, payload, lambda: (line + "\n" for line in lines))


def _cmd_report(args: argparse.Namespace) -> None:
    """``relevance``, and ``compare`` with the ms-signed, mps and drastic scores
    added: a row per fact of the restricted completion, written as it is made."""
    q = _load_query(args.query)
    db = _load_db(args.db)
    # One search gives both support families for the verdict columns and the
    # closed-form columns alike, and one compiled drastic game serves the
    # impact column and the drastic column.  Scores are kept for the support
    # members only, ms-signed by signed fact and the others by fact; every
    # other fact shares one zero.
    signed, positive, game, impacts, rows = _report(q, db, args.cap_signed)
    scores: list[dict] = []
    if args.command == "compare":
        scores = [
            {p: _rational(r.score) for p, r in _ms_results(
                {p for s in family for p in s.elements}, family, reciprocal_weight
            ).items()}
            for family in (signed, positive)
        ]
        records = _game_records(game, "auto", args.cap_subset, args.cap_perm)
        scores.append({
            p: r["values"][game.kind.value] if "values" in r else {"error": r["error"]}
            for p, r in zip(game.players, records)
        })
    measures, zero = _COMPARED[:len(scores)], _rational(Fraction(0))

    def values(sf: SignedFact, positive: bool | None) -> dict:
        players = (sf,) if positive is None else (sf, sf.fact, sf.fact)  # - facts: ms-signed
        return {m: by_player.get(p, zero) for m, by_player, p in zip(measures, scores, players)}

    def record(sf, signed, positive, impact) -> dict:
        shown = dict(zip(_VERDICT_COLUMNS, (str(sf), signed, positive, impact)))
        if measures:
            shown["values"] = values(sf, positive)
        return shown

    def cells(sf, signed, positive, impact) -> list[str]:
        shown = [str(sf), _bool(signed), "-" if positive is None else _bool(positive),
                 "-" if impact is None else impact]
        if measures:
            shown += map(_value_cell, map(values(sf, positive).get, measures))
        return shown

    payload = lambda: {"command": args.command, "query": str(q),
                       "records": itertools.starmap(record, rows)}
    # The widest fact cell, with no row listed: each negated relation's tuple
    # of the longest constant is a row, as a - fact or, if stored, a + fact.
    longest = max(map(len, db.active_domain), default=0)
    negated = [len(r.name) + 2 + r.arity * (longest + 1) for r in neg_rels(q)]
    fact = max([len(str(f)) + 1 for f in db.facts] + (negated if longest else []), default=0)
    widths = [fact, 0, 0, max(map(len, impacts.values()), default=0)]
    widths += [max(map(len, map(_value_cell, by_player.values())), default=0)
               for by_player in scores]
    header = (*_VERDICT_COLUMNS, *measures)
    _emit(args, payload, lambda: _table(header, widths, itertools.starmap(cells, rows)))


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


if __name__ == "__main__":
    sys.exit(main())
