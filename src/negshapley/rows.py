"""The per-fact commands, ``score``, ``relevance`` and ``compare``, and the
writer of their rows, a row per player over columns of `shapley.Scores`
keyed by facts or by signed facts.  `cli.main` imports this module when it
has read the command line, before it loads the inputs: ``supports`` and
``analyze`` never compile it, and its compilation does not add to the peak
memory of a loaded database.
"""
from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from .core import (Database, Fact, Sign, SignedDatabase, SignedFact, parse_fact,
                   parse_signed_fact, positive)
from .output import _CHUNK, _block, _bool, _chunks, _dumps, _emit, _json
from .query import Query
from .relevance import report
from .shapley import WEIGHT_FUNCTIONS, WealthKind, scores

if TYPE_CHECKING:
    import argparse
    from fractions import Fraction


def _value_json(value: Fraction | str) -> str:
    """A score, or the message of the cap that refused it, at depth 4."""
    if isinstance(value, str):
        return _block("{}", [f'"error": {_dumps(value)}'], 4)
    return _block("{}", [f'"num": "{value.numerator}"', f'"den": "{value.denominator}"'], 4)


def _value_cell(value: Fraction | str | None) -> str:
    return "-" if value is None else "error" if isinstance(value, str) else str(value)


def _cmd_score(args: argparse.Namespace, q: Query, db: Database) -> None:
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


_VERDICT_COLUMNS = ("fact", "signedRelevant", "positiveRelevant", "impact")
_COMPARED = (WealthKind.MS_SIGNED.value, WealthKind.MPS_POSITIVE.value,
             WealthKind.DRASTIC_DIRECT.value)


def _cmd_report(args: argparse.Namespace, q: Query, db: Database) -> None:
    """``relevance``, and ``compare`` with the ms-signed, mps and drastic scores
    added: a row per fact of the restricted completion, written as it is made
    from the columns of `relevance.report`."""
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


def _fact_width(db: Database, negated: Iterable) -> int:
    """The widest of ``db``'s facts and the ``negated`` relations' facts over
    its active domain (read only for those), unsigned, with no row listed
    and no fact written: a fact ``R(a,b)`` is its name, its constants, a
    comma after each but the last and two brackets, and each negated
    relation's tuple of the longest constant is a ``-`` fact or a stored one."""
    longest = max(map(len, db.active_domain), default=0) if negated else 0
    widths = [len(r.name) + 1 + max(1, r.arity + max(sum(map(len, a)) for _, a in facts))
              for r, facts in db.by_relation.items()]
    widths += [len(r.name) + 1 + r.arity * (longest + 1) for r in negated] if longest else []
    return max(widths, default=0)


def _write_rows(args: argparse.Namespace, payload: dict, header: Sequence[str],
                widths: Callable, json_tail: Callable, cells: Callable,
                players: Database | SignedDatabase | Fact | SignedFact,
                columns: Sequence[tuple[Any, bool]]) -> None:
    """Write ``payload`` with a record per row under ``"records"``, or a table
    under ``header``, a row at a time: its fact's cell, then the rest of its
    JSON record (``json_tail(*data)``) or its table ``cells(*data)``, padded
    to the fact's width and ``widths()``.  A row per player: a `Database`'s
    facts, the one target, or a `SignedDatabase`'s ``+`` facts and then each
    negated relation's ``-`` facts.  Its data is its player's value in each
    of ``columns``, (`shapley.Scores`, keyed by signed facts) pairs:
    ``values.get(key, other)``, and ``None`` in a plain column for a ``-``
    fact.  A ``+`` row that no column names shares one tail, its data never
    built, and a relation's ``-`` rows a few: one per fact that some signed
    column holds, and one shared by runs of rows."""
    if isinstance(players, SignedDatabase):
        negated, facts, mark, sign = players.negated, players.db.sorted_facts, "+", positive
        fact_width = lambda: _fact_width(players.db, negated) + 1
    elif isinstance(players, Database):
        negated, facts, mark, sign = (), players.sorted_facts, "", lambda f: f
        fact_width = lambda: _fact_width(players, ())
    else:  # the one target, keyed as it is in every column
        negated, facts, mark, sign = (), [players], "", lambda f: f
        fact_width = lambda: len(str(players))
    if args.format == "json":
        opening, separator = '{\n      "fact": ', ",\n    "
        fact, render = (lambda cell: opening + _dumps(cell)), (lambda data: json_tail(*data))
    else:
        widths = [max(len(h), w) for h, w in zip(header, [fact_width(), *widths()])]
        template = "".join(f"  {{:<{w}}}" for w in widths[1:-1]) + "  {}\n"
        width, separator = widths[0], ""
        fact = lambda cell: cell.ljust(width)
        render = lambda data: template.format(*cells(*data))
    tails: dict[tuple, str] = {}  # `columns` hold the data's objects

    def tail(data: tuple) -> str:
        """The rest of a row, rendered once for each distinct data (by identity)."""
        key = tuple(map(id, data))
        if key not in tails:
            tails[key] = render(data)
        return tails[key]

    def row(key: Any, signed_key: Any) -> tuple:  # a - fact has no key: None in a plain column
        return tuple(values.get(signed_key, other) if signed else
                     None if key is None else values.get(key, other)
                     for (values, other), signed in columns)

    domain = sorted(players.db.active_domain) if negated else []
    position = {c: i for i, c in enumerate(domain)}
    lasts: dict[int, tuple] = {}  # per pad: each last constant and ")", and the longest

    def cells_at(pad: int) -> tuple[list[str], int]:
        if pad not in lasts:
            cells = ([_dumps(c + ")")[1:] for c in domain] if args.format == "json"
                     else [(c + ")").ljust(pad) for c in domain])
            lasts[pad] = cells, max(map(len, cells), default=0)
        return lasts[pad]

    def minus_rows(rel) -> Iterator[str]:
        """The rows of ``rel``'s ``-`` members in `SignedDatabase.absent`'s order,
        walked here a prefix (all arguments but the last) at a time: a stored tuple
        splits the shared tail's run of rows, each one join of at most `_CHUNK` characters."""
        marks: dict[tuple, dict[int, str | None]] = {}  # own tail, or None if stored
        for (values, _), signed in columns:
            for sf in values if signed else ():
                (sign, (relation, a)) = sf
                if sign is Sign.NEGATIVE and relation == rel and a[-1] in position:
                    marks.setdefault(a[:-1], {})[position[a[-1]]] = tail(row(None, sf))
        for f in players.db.by_relation.get(rel, ()):
            marks.setdefault(f[1][:-1], {})[position[f[1][-1]]] = None
        other = tail(row(None, None))
        for prefix in itertools.product(domain, repeat=rel.arity - 1):
            name = f"-{rel.name}(" + "".join(c + "," for c in prefix)
            head = opening + _dumps(name)[:-1] if args.format == "json" else name
            cells, longest = cells_at(0 if args.format == "json" else width - len(name))
            joiner, start, marked = other + separator + head, 0, marks.get(prefix, {})
            step = max(1, _CHUNK // (len(joiner) + longest))
            for i in [*sorted(marked), len(cells)]:
                for j in range(start, i, step):
                    yield head + joiner.join(cells[j:min(j + step, i)]) + other
                if marked.get(i) is not None:
                    yield head + cells[i] + marked[i]
                start = i + 1

    named = {k[1] if signed and mark else k for (values, _), signed in columns for k in values}
    shared = tail(tuple(other for (_, other), _ in columns))  # for the facts no column names
    rows = itertools.chain((fact(f"{mark}{f}") + (tail(row(f, sign(f))) if f in named else shared)
                            for f in facts), *map(minus_rows, negated))
    _emit(args, lambda: _json({**payload, "records": rows}),
          lambda: _chunks(itertools.chain([fact(header[0]) + template.format(*header[1:])], rows)))
