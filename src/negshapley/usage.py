"""argparse's reading of a command line, with its parser built from
`cli._FLAGS`: `cli.main`'s fallback for every command line that
`cli._read_plain` leaves alone (help, abbreviated or repeated flags, usage
errors).  Only such a command line imports this module, and with it argparse.
"""
from __future__ import annotations

import argparse
from functools import cache

from .errors import InputParseError


class _Parser(argparse.ArgumentParser):
    """argparse that signals usage errors instead of exiting with code 2."""

    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        raise InputParseError(message)


def _count(text: str) -> int:
    """The type of the caps: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


@cache  # built once per process: argparse does not change a parser as it parses
def build_parser(commands: tuple[tuple[str, str], ...], flags: tuple[tuple, ...]
                 ) -> argparse.ArgumentParser:
    """The parser with every subcommand, from `cli._COMMANDS`' items (each
    name and help line) and `cli._FLAGS`, their arguments in order."""
    parser = _Parser(
        prog="negshapley",
        description="Minimal supports and exact Shapley scores for database "
        "facts under queries with negation.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, text in commands:
        p = sub.add_parser(name, help=text)
        group = None
        for flag, takers, value, default, required, exclusive, help in flags:
            if name not in takers:
                continue
            if value is None:  # a switch
                options = {"action": "store_true"}
            else:
                options = {"default": default, "required": required}
                if value is int:
                    options.update(type=_count, metavar="N")
                elif value is not str:
                    options["choices"] = value
            if exclusive:
                group = group or p.add_mutually_exclusive_group()
            (group if exclusive else p).add_argument(flag, help=help, **options)
    return parser
