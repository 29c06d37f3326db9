"""Writing the command line's output: JSON documents and tables, made a row
at a time and written in chunks of bounded size.

Every document is byte-for-byte what ``json.dumps(..., indent=2)`` writes,
plus a newline; records are written from fixed-shape templates rather than
built as objects.  A table's columns are padded to widths worked out before
its first row is written.
"""
from __future__ import annotations

import argparse
import itertools
import sys
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Sequence

from .core import Database


def _emit(args: argparse.Namespace, document: Callable, table: Callable) -> None:
    """Write the JSON document or the table, building only the one that
    ``--format`` selects, a bounded piece at a time."""
    if sys.stdout is None:  # started with standard output closed
        raise BrokenPipeError("standard output is closed")
    sys.stdout.writelines(document() if args.format == "json" else table())
    sys.stdout.flush()


#: Characters per write, besides the piece that passes the mark: output is
#: held a chunk at a time, so this bounds its memory whatever a record's size.
_CHUNK = 8192


def _chunks(pieces: Iterable[str], separator: str = "") -> Iterator[str]:
    """The pieces joined by ``separator``, each chunk ending with the piece
    that takes it to `_CHUNK` characters."""
    chunk, size = [], 0
    for piece in pieces:
        chunk.append(piece)
        size += len(piece) + len(separator)
        if size >= _CHUNK:
            yield separator.join(chunk)
            chunk, size = [], 0
    if chunk:
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


def _fact_width(db: Database, negated: Iterable, sign: int) -> int:
    """The widest cell of ``db``'s facts (with ``sign`` characters of sign) and
    the ``negated`` relations' ``-`` facts, with no row listed: each negated
    relation's tuple of the longest constant is a ``-`` fact or a stored one."""
    longest = max(map(len, db.active_domain), default=0)
    minus = [len(r.name) + 2 + r.arity * (longest + 1) for r in negated] if longest else []
    return max([len(str(f)) + sign for f in db.facts] + minus, default=0)


def _write_rows(args: argparse.Namespace, payload: dict, header: Sequence[str],
                widths: Callable, json_tail: Callable, cells: Callable,
                plus: Iterable, minus: Iterable) -> None:
    """Write ``payload`` with a record per row under ``"records"``, or a table
    under ``header``, each row as it is made: its fact's cell and a tail made
    from its data, the rest of its JSON record (``json_tail``) or its table
    ``cells`` padded to ``widths()``.  ``plus`` holds (cell, data) pairs, and
    ``minus`` per negated relation (relation, its ``-`` facts' argument tuples,
    {args: data} for the facts with data of their own, the others' data): so a
    relation's tails are few, one interned per such fact and one shared."""
    if args.format == "json":
        from json.encoder import encode_basestring_ascii as quote  # json.dumps of a str

        opening = '{\n      "fact": '
        fact, tail = (lambda cell: opening + quote(cell)), json_tail
    else:
        widths = [max(len(h), w) for h, w in zip(header, widths())]
        template = "".join(f"  {{:<{w}}}" for w in widths[1:-1]) + "  {}\n"
        width = widths[0]
        fact, tail = (lambda cell: cell.ljust(width)), (lambda data: template.format(*cells(data)))

    def minus_rows(rel, absent: Iterator[tuple[str, ...]], own: dict, other) -> Iterator[str]:
        tails = {a: sys.intern(tail(data)) for a, data in own.items()}
        other, head = tail(other), f"-{rel.name}("
        if args.format == "json":  # `fact` written out: this runs once per row
            return (opening + quote(head + ",".join(a) + ")") + tails.get(a, other)
                    for a in absent)
        return ((head + ",".join(a) + ")").ljust(width) + tails.get(a, other) for a in absent)

    rows = itertools.chain((fact(cell) + tail(data) for cell, data in plus),
                           *itertools.starmap(minus_rows, minus))
    _emit(args, lambda: _json({**payload, "records": rows}),
          lambda: _chunks(itertools.chain([fact(header[0]) + template.format(*header[1:])], rows)))
