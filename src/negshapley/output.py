"""Writing the command line's output: JSON documents and tables, made a row
at a time and written in chunks of bounded size.

Every document is byte-for-byte what ``json.dumps(..., indent=2)`` writes,
plus a newline; records are written from fixed-shape templates rather than
built as objects.  A table's columns are padded to widths worked out before
its first row is written.  A per-fact output is columns of `shapley.Scores`
keyed by facts or by signed facts, and `_write_rows` alone walks its rows.
"""
from __future__ import annotations

import itertools
import sys
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from .core import Database, Fact, Sign, SignedDatabase, SignedFact, positive

if TYPE_CHECKING:
    import argparse
    from fractions import Fraction


def _emit(args: argparse.Namespace, document: Callable, table: Callable) -> None:
    """Write the JSON document or the table, building only the one that
    ``--format`` selects, a bounded piece at a time."""
    if sys.stdout is None:  # started with standard output closed
        raise BrokenPipeError("standard output is closed")
    sys.stdout.writelines(document() if args.format == "json" else table())
    sys.stdout.flush()


#: Characters per write, unless one record is longer: output is held a chunk
#: at a time, so this bounds its memory whatever the number of records.
_CHUNK = 8192


def _chunks(pieces: Iterable[str], separator: str = "") -> Iterator[str]:
    """The pieces joined by ``separator``, each chunk as many pieces as fit
    in `_CHUNK` characters, or one piece that does not."""
    chunk, size = [], 0
    for piece in pieces:
        size += len(piece) + len(separator)
        if size > _CHUNK and chunk:
            yield separator.join(chunk)
            chunk, size = [], len(piece) + len(separator)
        chunk.append(piece)
    if chunk:
        yield separator.join(chunk)


def _block(brackets: str, items: Iterable[str], depth: int) -> str:
    """A JSON array or object (``brackets`` is ``"[]"`` or ``"{}"``) as
    ``json.dumps(..., indent=2)`` writes it ``depth`` levels down, from its
    items already written (``"key": value`` in an object)."""
    body = ",".join(f"\n{'  ' * (depth + 1)}{item}" for item in items)
    return f"{brackets[0]}{body}\n{'  ' * depth}{brackets[1]}" if body else brackets


def _dumps(value: Any, **options: Any) -> str:
    """``json.dumps(value, **options)``.  A printable ASCII string, as every
    fact, query and cap message a command writes is, is quoted here, so that
    no command but ``analyze --format json`` imports `json`."""
    if isinstance(value, str) and not options and value.isascii() and value.isprintable():
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    import json

    return json.dumps(value, **options)


def _json(payload: dict) -> Iterator[str]:
    """``json.dumps(payload, indent=2)`` and a newline, in chunks (see
    `_chunks`): the last entry of ``payload`` holds its items already written at
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
        """The rows of `SignedDatabase.absent`, a prefix (all arguments but the
        last) at a time: a stored tuple splits the shared tail's run of rows,
        each one join of at most `_CHUNK` characters, and writes nothing."""
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
