"""Writing the command line's output: JSON documents and tables, made a row
at a time and written in chunks of bounded size.

Every document is byte-for-byte what ``json.dumps(..., indent=2)`` writes,
plus a newline; records are written from fixed-shape templates rather than
built as objects.  A table's columns are padded to widths worked out before
its first row is written.  The per-fact rows of ``score``, ``relevance``
and ``compare`` are written by `negshapley.rows`, which only they load.
"""
from __future__ import annotations

import itertools
import sys
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    import argparse


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


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _columns(rows: list[Sequence[str]]) -> Iterable[str]:
    widths = [max(map(len, column)) for column in zip(*rows)]
    template = "".join(f"{{:<{w}}}  " for w in widths[:-1]) + "{}\n"
    return _chunks(itertools.starmap(template.format, rows))
