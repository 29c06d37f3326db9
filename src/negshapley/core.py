"""Relational basics: schemas, facts, databases, and signed completions.

A database is a finite set of ground facts over a finite schema.  Its signed
completion marks every present fact with ``+`` and every absent fact over the
active domain with ``-``.  Completions blow up as ``|adom|^arity``, so
`signed_database` takes a hard cap, checked by counting, and most callers
restrict the negative side to the relations a query negates.  The
`SignedDatabase` it returns builds nothing until asked: it counts, tests
and streams its members from the database, and compares, hashes and prints
by the database, schema and negated relations it was made from.

Facts and signed facts are named tuples, ``(relation, args)`` and ``(sign,
fact)``: they hash, compare and sort as those tuples do, and a completion
streams them straight from the active domain in that order.
`Database` and `SignedDatabase` are not tuples (they iterate over their
facts); they are equal when their class and fields are, and immutable.

A loaded database holds each distinct constant as one string object: every
constant is interned (`sys.intern`) where a line is split into facts.  Its
facts are held once, streamed from the lines into the database's
``frozenset``.  Canonical order is built per relation: `Database.sorted_facts`
sorts each relation's facts of `Database.by_relation` by argument tuple.
"""
from __future__ import annotations

import os
import re
from enum import IntEnum
from functools import cached_property
from itertools import chain, filterfalse, product, repeat
from operator import itemgetter
from sys import intern
from typing import Iterable, Iterator, NamedTuple

from .errors import ArityError, CapExceededError, FactSyntaxError

#: Upper bound on the number of signed facts a completion may contain.
DEFAULT_SIGNED_CAP = 10**6


class Relation(NamedTuple):
    """A relation symbol: a name together with a positive arity."""

    name: str
    arity: int


class Sign(IntEnum):
    """Polarity of a signed fact; positive sorts before negative."""

    POSITIVE = 0
    NEGATIVE = 1

    @property
    def symbol(self) -> str:
        return "+" if self is Sign.POSITIVE else "-"


class _FactFields(NamedTuple):
    relation: Relation
    args: tuple[str, ...]


class Fact(_FactFields):
    """A ground atom: a relation applied to a tuple of constants.

    Constants are plain strings.  A fact is the tuple ``(relation, args)``
    and equals it, so tuple order (relation name, arity, then the
    constants) is the canonical order used for all deterministic output.
    """

    __slots__ = ()

    def __new__(cls, relation: Relation, args: tuple[str, ...]) -> Fact:
        if len(args) != relation.arity:
            raise ArityError(
                f"fact {relation.name}({','.join(args)}) has {len(args)} arguments "
                f"but {relation.name} has arity {relation.arity}"
            )
        return tuple.__new__(cls, (relation, args))

    def __str__(self) -> str:
        return f"{self.relation.name}({','.join(self.args)})"


def fact(name: str, *args: str) -> Fact:
    """Build a fact, inferring the relation's arity from the arguments."""
    return Fact(Relation(name, len(args)), tuple(args))


class SignedFact(NamedTuple):
    """A fact together with a polarity, rendered as ``+R(a,b)`` / ``-R(a,b)``;
    the tuple ``(sign, fact)``, so ``+`` facts sort before ``-`` facts."""

    sign: Sign
    fact: Fact

    def __str__(self) -> str:
        sign, (relation, args) = self
        return f"{'+-'[sign]}{relation.name}({','.join(args)})"


def positive(f: Fact) -> SignedFact:
    return SignedFact(Sign.POSITIVE, f)


def negative(f: Fact) -> SignedFact:
    return SignedFact(Sign.NEGATIVE, f)


def _unique_schema(relations: Iterable[Relation]) -> frozenset[Relation]:
    """The relations, refusing a name with two arities: the first clash in
    the order given."""
    by_name: dict[str, Relation] = {}
    for rel in relations:
        seen = by_name.setdefault(rel.name, rel).arity
        if seen != rel.arity:
            raise ArityError(f"relation {rel.name} used with arities {seen} and {rel.arity}")
    return frozenset(by_name.values())


class _Record:
    """A value that is not a tuple: equal to, and hashing like, an instance
    of the same class with equal ``_fields``; ``repr`` names the fields, and
    assignment raises `AttributeError`.  ``__init__`` sets each field once
    through ``object.__setattr__``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Database(_Record):
    """An immutable set of facts whose relations all belong to the schema."""

    _fields = ("schema", "facts")
    schema: frozenset[Relation]
    facts: frozenset[Fact]

    def __init__(self, schema: Iterable[Relation], facts: Iterable[Fact]) -> None:
        schema, facts = _unique_schema(sorted(schema)), frozenset(facts)
        if stray := set(map(itemgetter(0), facts)) - schema:  # checked per relation
            f = min(f for f in facts if f[0] in stray)  # the first in canonical order
            raise ArityError(f"fact {f} does not match the schema entry for {f.relation.name}")
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "facts", facts)

    @cached_property
    def by_relation(self) -> dict[Relation, list[Fact]]:
        """Each relation's facts in no fixed order (only what is written is
        sorted), by relation in order; a relation with no facts has no
        entry.  Do not mutate."""
        groups: dict[Relation, list[Fact]] = {}
        for f in self.facts:
            groups.setdefault(f[0], []).append(f)
        return {rel: groups[rel] for rel in sorted(groups)}

    @cached_property
    def sorted_facts(self) -> tuple[Fact, ...]:
        """The facts in canonical order: by relation in order, each
        relation's facts sorted by their argument tuples."""
        return tuple(chain.from_iterable(sorted(group, key=itemgetter(1))
                                         for group in self.by_relation.values()))

    @cached_property
    def active_domain(self) -> frozenset[str]:
        """All constants occurring in some fact."""
        return frozenset(c for f in self.facts for c in f.args)

    def __contains__(self, f: Fact) -> bool:
        return f in self.facts

    def __iter__(self) -> Iterator[Fact]:
        return iter(self.sorted_facts)

    def __len__(self) -> int:
        return len(self.facts)


def database(facts: Iterable[Fact] = (), schema: Iterable[Relation] = ()) -> Database:
    """Build a database, inferring schema entries from the facts themselves."""
    facts = frozenset(facts)
    return Database(frozenset(schema) | {f.relation for f in facts}, facts)


class SignedDatabase(_Record):
    """A signed completion: the facts of the database ``db`` marked ``+`` and,
    for each ``negated`` relation of the completion's ``schema``, the tuples
    over the active domain that it lacks marked ``-``.  Made by
    `signed_database`, it builds nothing: ``len``, ``in``, ``iter`` (a stream
    in canonical order) and `absent` are read from the database, and
    ``sorted_facts`` is built on first use.  Equal, hashed and printed by
    its fields, so comparing it builds nothing either."""

    _fields = ("db", "schema", "negated")
    db: Database
    schema: frozenset[Relation]
    negated: tuple[Relation, ...]

    def __init__(self, db: Database, schema: frozenset[Relation],
                 negated: Iterable[Relation]) -> None:
        object.__setattr__(self, "db", db)
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "negated", tuple(sorted(negated)))

    @cached_property
    def size(self) -> int:
        """The number of members, counted: ``len``, also past `sys.maxsize`."""
        db = self.db
        domain, stored = len(db.active_domain), db.by_relation
        return len(db.facts) + sum(domain**rel.arity - len(stored.get(rel, ()))
                                   for rel in self.negated)

    def __len__(self) -> int:
        return self.size

    def __contains__(self, sf: object) -> bool:
        db = self.db
        return isinstance(sf, SignedFact) and (
            sf.fact in db.facts if sf.sign is Sign.POSITIVE else sf.fact not in db.facts
            and sf.fact.relation in self.negated and db.active_domain.issuperset(sf.fact.args)
        )

    def __iter__(self) -> Iterator[SignedFact]:
        # The `-` facts skip `Fact.__new__`: their arity is right by construction.
        new = tuple.__new__
        yield from map(SignedFact, repeat(Sign.POSITIVE), self.db.sorted_facts)
        for rel in self.negated:
            facts = map(new, repeat(Fact), zip(repeat(rel), self.absent(rel)))
            yield from map(new, repeat(SignedFact), zip(repeat(Sign.NEGATIVE), facts))

    def absent(self, rel: Relation) -> Iterator[tuple[str, ...]]:
        """The argument tuples of ``rel``'s ``-`` members, in order: those over
        the active domain that the database lacks, if ``rel`` is negated."""
        if rel not in self.negated:
            return iter(())
        db = self.db
        stored = {f.args for f in db.by_relation.get(rel, ())}
        return filterfalse(stored.__contains__, product(sorted(db.active_domain), repeat=rel.arity))

    @cached_property
    def sorted_facts(self) -> tuple[SignedFact, ...]:
        """Every member, built: for a table game's players and listings
        within their caps."""
        return tuple(self)


def _decimal(n: int) -> str:
    """``n`` in decimal, or ``at least 2^k`` past the interpreter's limit on
    the digits of an int-to-str conversion."""
    try:
        return str(n)
    except ValueError:
        return f"at least 2^{n.bit_length() - 1}"


def signed_database(
    db: Database,
    *,
    restrict_to: Iterable[Relation] | None = None,
    extra_relations: Iterable[Relation] = (),
    cap: int | None = DEFAULT_SIGNED_CAP,
) -> SignedDatabase:
    """The signed completion of ``db``, counted but not built.

    Negative facts range over all tuples of active-domain constants that are
    absent from ``db``; with ``restrict_to`` only the given relations get a
    negative side.  ``extra_relations`` admits relations that appear in a
    query but have no facts (their whole tuple space is then negative).
    Raises :class:`CapExceededError` if the completion would hold more than
    ``cap`` signed facts (``None`` means the default cap, not "unlimited").
    """
    schema = _unique_schema(chain(db.schema, sorted(extra_relations)))
    negated = schema
    if restrict_to is not None:
        by_name = {rel.name: rel for rel in schema}
        negated = set()
        for rel in restrict_to:
            known = by_name.get(rel.name)
            if known is None:
                raise ArityError(f"cannot restrict to unknown relation {rel.name}")
            if known.arity != rel.arity:
                raise ArityError(
                    f"relation {rel.name} has arity {known.arity}, not {rel.arity}"
                )
            negated.add(known)
    completion = SignedDatabase(db, schema, negated)
    cap, total = DEFAULT_SIGNED_CAP if cap is None else cap, completion.size
    if total > cap:
        raise CapExceededError(
            f"signed completion would hold {_decimal(total)} facts, above the cap of {cap}"
        )
    return completion


# -- Facts file ingestion --
# Format: UTF-8 text; `#` starts a comment; optional `@relation Name/arity`
# header lines declare relations (useful for relations with no facts, which
# otherwise could not contribute a negative side); fact lines hold one or
# more `Rel(c1,c2,...)` entries with bare-identifier constants.

# The patterns are compiled on first use (`re` caches them): starting up
# compiles none, and a file of plain lines needs only `_LINE`.
_HEADER = r"@relation\s+([A-Za-z][A-Za-z0-9_]*)\s*/\s*(\d+)\s*$"
_FACT = r"\s*([A-Za-z][A-Za-z0-9_]*)\s*\(\s*([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)\s*\)\s*"
#: A line: one fact and no spaces (groups 1 and 2), or any other (group 3).
_LINE = r"^(?:([A-Za-z][A-Za-z0-9_]*)\(([A-Za-z0-9_]+(?:,[A-Za-z0-9_]+)*)\)|(.*))$"
#: The line breaks of `str.splitlines` besides "\n"; each ends a comment.
LINE_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _facts_in(line: str, lineno: int | None) -> Iterator[tuple[str, tuple[str, ...]]]:
    """Each fact's relation name and arguments, in the order of the line."""
    pos = 0
    while line[pos:].strip():
        match = re.compile(_FACT).match(line, pos)
        if match is None:
            raise FactSyntaxError(f"cannot parse fact near {line[pos:].strip()!r}", lineno)
        yield match.group(1), tuple(intern(part.strip()) for part in match.group(2).split(","))
        pos = match.end()


def _parse_fact_line(line: str, lineno: int, relations: dict[str, Relation]) -> list[Fact]:
    facts = []
    for name, args in _facts_in(line, lineno):
        rel = relations.get(name) or relations.setdefault(name, Relation(name, len(args)))
        if rel.arity != len(args):
            raise ArityError(
                f"line {lineno}: relation {name} used with arity {len(args)} "
                f"but previously declared with arity {rel.arity}"
            )
        facts.append(Fact(rel, args))
    return facts


def _loaded_facts(text: str, relations: dict[str, Relation]) -> Iterator[Fact]:
    """Each fact of a facts file's ``text``, in the order of its lines; each
    relation it declares or uses goes into ``relations`` by name, once, and
    every fact of that name holds that one `Relation`."""
    new, lines = tuple.__new__, map(re.Match.groups, re.finditer(_LINE, text, re.M))
    for lineno, (name, body, raw) in enumerate(lines, 1):
        # A line of one fact and nothing else skips `Fact.__new__` once its
        # arity checks; any other line, and every error, takes `_parse_fact_line`.
        if name:
            args = tuple(map(intern, body.split(",")))
            if name not in relations:
                relations[name] = Relation(name, len(args))
            if relations[name].arity == len(args):
                yield new(Fact, (relations[name], args))
                continue
            raw = f"{name}({body})"
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("@"):
            header = re.match(_HEADER, line)
            if header is None:
                raise FactSyntaxError(f"malformed header {line!r}", lineno)
            try:
                name, arity = header.group(1), int(header.group(2))
            except ValueError:  # more digits than `int` converts
                raise FactSyntaxError(f"malformed header {line!r}", lineno) from None
            if arity < 1:
                raise FactSyntaxError(f"relation {name} declared with arity 0", lineno)
            known = relations.setdefault(name, Relation(name, arity)).arity
            if known != arity:
                raise ArityError(
                    f"line {lineno}: relation {name} declared with arity {arity} "
                    f"but previously used with arity {known}"
                )
            continue
        yield from _parse_fact_line(line, lineno, relations)


def load_database(path: str | os.PathLike) -> Database:
    """Read a facts file into a :class:`Database` (see module docstring)."""
    with open(path, encoding="utf-8-sig") as stream:
        text = stream.read()
    if any(map(text.__contains__, LINE_BREAKS)):  # one match a line, as `splitlines` counts
        text = "\n".join(text.splitlines())
    relations: dict[str, Relation] = {}
    facts = frozenset(_loaded_facts(text, relations))  # read before the schema: it fills `relations`
    return Database(relations.values(), facts)


def parse_fact(text: str) -> Fact:
    """Parse a single ``Rel(c1,...)`` string, e.g. from a command-line flag."""
    facts = list(_facts_in(text, None))
    if len(facts) != 1:
        raise FactSyntaxError(f"expected exactly one fact in {text!r}")
    ((name, args),) = facts
    return Fact(Relation(name, len(args)), args)


def parse_signed_fact(text: str) -> SignedFact:
    """Parse ``+Rel(...)`` or ``-Rel(...)``; a bare fact is taken as positive."""
    stripped = text.strip()
    sign = Sign.POSITIVE
    if stripped.startswith(("+", "-")):
        sign = Sign.POSITIVE if stripped[0] == "+" else Sign.NEGATIVE
        stripped = stripped[1:]
    return SignedFact(sign, parse_fact(stripped))


def moved(module: str, homes: dict[str, str]):
    """A module ``__getattr__`` for the names that moved out of ``module``:
    each name of ``homes`` is read from the sibling module it maps to,
    imported on first use, so that the module need not load it to start."""

    def __getattr__(name: str):
        if name not in homes:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        from importlib import import_module

        return getattr(import_module(f"{__package__}.{homes[name]}"), name)

    return __getattr__
