"""Relational basics: schemas, facts, databases, and signed completions.

A database is a finite set of ground facts over a finite schema.  Its signed
completion marks every present fact with ``+`` and every absent fact over the
active domain with ``-``.  Completions blow up as ``|adom|^arity``, so the
constructor takes a hard cap (which `completion_size` checks by counting) and
most callers restrict the negative side to the relations a query negates.

Facts and signed facts are named tuples, ``(relation, args)`` and ``(sign,
fact)``: they hash, compare and sort as those tuples do, and a completion
streams them straight from the active domain (`iter_completion`).
`Database` and `SignedDatabase` are not tuples (they iterate over their
facts); they are equal when their class and fields are, and immutable.
"""
from __future__ import annotations

import os
import re
from collections import Counter
from enum import IntEnum
from functools import cached_property
from itertools import chain, filterfalse, product, repeat
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
    by_name: dict[str, int] = {}
    for rel in relations:
        seen = by_name.setdefault(rel.name, rel.arity)
        if seen != rel.arity:
            raise ArityError(
                f"relation {rel.name} used with arities {seen} and {rel.arity}"
            )
    return frozenset(Relation(name, arity) for name, arity in by_name.items())


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
        for f in facts:
            if f.relation not in schema:
                raise ArityError(
                    f"fact {f} does not match the schema entry for {f.relation.name}"
                )
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "facts", facts)

    @cached_property
    def sorted_facts(self) -> tuple[Fact, ...]:
        return tuple(sorted(self.facts))

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
    """A completion: the base facts marked ``+`` plus absent facts marked
    ``-``, held in canonical order."""

    _fields = ("base", "sorted_facts")
    base: Database
    sorted_facts: tuple[SignedFact, ...]

    def __init__(self, base: Database, sorted_facts: tuple[SignedFact, ...]) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "sorted_facts", sorted_facts)

    @cached_property
    def signed_facts(self) -> frozenset[SignedFact]:
        return frozenset(self.sorted_facts)

    @cached_property
    def positive_part(self) -> frozenset[SignedFact]:
        return frozenset(sf for sf in self.sorted_facts if sf.sign is Sign.POSITIVE)

    @cached_property
    def negative_part(self) -> frozenset[SignedFact]:
        return frozenset(sf for sf in self.sorted_facts if sf.sign is Sign.NEGATIVE)

    def __contains__(self, sf: SignedFact) -> bool:
        return sf in self.signed_facts

    def __iter__(self) -> Iterator[SignedFact]:
        return iter(self.sorted_facts)

    def __len__(self) -> int:
        return len(self.sorted_facts)


def _completion_shape(
    db: Database,
    restrict_to: Iterable[Relation] | None,
    extra_relations: Iterable[Relation],
    cap: int | None,
) -> tuple[Database, list[Relation], int]:
    """The completion's base database, its negated relations in sorted
    order and its size, after the checks that `signed_database` makes."""
    schema = _unique_schema(chain(db.schema, sorted(extra_relations)))
    base = db if schema == db.schema else Database(schema, db.facts)
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
    stored = Counter(f.relation for f in base.facts)
    domain = len(base.active_domain)
    total = len(base.facts) + sum(domain**rel.arity - stored[rel] for rel in negated)
    cap = DEFAULT_SIGNED_CAP if cap is None else cap
    if total > cap:
        raise CapExceededError(
            f"signed completion would hold {_decimal(total)} facts, above the cap of {cap}"
        )
    return base, sorted(negated), total


def _decimal(n: int) -> str:
    """``n`` in decimal, or ``at least 2^k`` past the interpreter's limit on
    the digits of an int-to-str conversion."""
    try:
        return str(n)
    except ValueError:
        return f"at least 2^{n.bit_length() - 1}"


def completion_size(
    db: Database,
    *,
    restrict_to: Iterable[Relation] | None = None,
    extra_relations: Iterable[Relation] = (),
    cap: int | None = DEFAULT_SIGNED_CAP,
) -> int:
    """How many facts `signed_database` would hold for the same arguments,
    counted without building them; raises the same errors."""
    return _completion_shape(db, restrict_to, extra_relations, cap)[2]


def iter_completion(
    db: Database, *, restrict_to: Iterable[Relation] | None = None,
    extra_relations: Iterable[Relation] = (), cap: int | None = DEFAULT_SIGNED_CAP,
) -> Iterator[SignedFact]:
    """`signed_database`'s members in its order, made one at a time; its
    checks and cap apply at the call, before any is made."""
    base, negated, _ = _completion_shape(db, restrict_to, extra_relations, cap)
    return _completion(base, negated)


def _completion(base: Database, negated: list[Relation]) -> Iterator[SignedFact]:
    # The `-` facts skip `Fact.__new__`: their arity is right by construction.
    new = tuple.__new__
    adom = sorted(base.active_domain)
    yield from map(SignedFact, repeat(Sign.POSITIVE), base.sorted_facts)
    for rel in negated:
        facts = map(new, repeat(Fact), zip(repeat(rel), _absent(base, rel, adom)))
        yield from map(new, repeat(SignedFact), zip(repeat(Sign.NEGATIVE), facts))


def _absent(base: Database, rel: Relation, adom: list[str]) -> Iterator[tuple[str, ...]]:
    """The argument tuples over the sorted ``adom`` that ``rel`` lacks in
    ``base``, in order: the args of the completion's ``-`` facts of ``rel``."""
    stored = {f.args for f in base.facts if f.relation == rel}
    return filterfalse(stored.__contains__, product(adom, repeat=rel.arity))


def signed_database(
    db: Database,
    *,
    restrict_to: Iterable[Relation] | None = None,
    extra_relations: Iterable[Relation] = (),
    cap: int | None = DEFAULT_SIGNED_CAP,
) -> SignedDatabase:
    """Compute the signed completion of ``db``.

    Negative facts range over all tuples of active-domain constants that are
    absent from ``db``; with ``restrict_to`` only the given relations get a
    negative side.  ``extra_relations`` admits relations that appear in a
    query but have no facts (their whole tuple space is then negative).
    Raises :class:`CapExceededError` if the completion would hold more than
    ``cap`` signed facts (``None`` means the default cap, not "unlimited").
    The facts come out in canonical order with no sort: the positive ones,
    then each negated relation's tuples over the sorted active domain.
    """
    base, negated, _ = _completion_shape(db, restrict_to, extra_relations, cap)
    return SignedDatabase(base, tuple(_completion(base, negated)))


# ---------------------------------------------------------------------------
# Facts file ingestion.
#
# Format: UTF-8 text; `#` starts a comment; optional `@relation Name/arity`
# header lines declare relations (useful for relations with no facts, which
# otherwise could not contribute a negative side); fact lines hold one or
# more `Rel(c1,c2,...)` entries with bare-identifier constants.
# ---------------------------------------------------------------------------

_HEADER_RE = re.compile(r"@relation\s+([A-Za-z][A-Za-z0-9_]*)\s*/\s*(\d+)\s*$")
_FACT_RE = re.compile(
    r"\s*([A-Za-z][A-Za-z0-9_]*)\s*\(\s*([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)\s*\)\s*"
)


def _parse_fact_line(
    line: str, lineno: int | None, arities: dict[str, int]
) -> list[Fact]:
    facts = []
    pos = 0
    while pos < len(line):
        if line[pos:].strip() == "":
            break
        match = _FACT_RE.match(line, pos)
        if match is None:
            raise FactSyntaxError(f"cannot parse fact near {line[pos:].strip()!r}", lineno)
        name, body = match.group(1), match.group(2)
        args = tuple(part.strip() for part in body.split(","))
        declared = arities.setdefault(name, len(args))
        if declared != len(args):
            raise ArityError(
                f"line {lineno}: relation {name} used with arity {len(args)} "
                f"but previously declared with arity {declared}"
                if lineno is not None
                else f"relation {name} used with arities {declared} and {len(args)}"
            )
        facts.append(Fact(Relation(name, len(args)), args))
        pos = match.end()
    return facts


def load_database(path: str | os.PathLike) -> Database:
    """Read a facts file into a :class:`Database` (see module docstring)."""
    with open(path, encoding="utf-8") as stream:
        text = stream.read()
    arities: dict[str, int] = {}
    relations: dict[str, Relation] = {}
    facts: set[Fact] = set()
    plain, new = _FACT_RE.fullmatch, tuple.__new__
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # A line of one fact and nothing else skips `Fact.__new__` once its
        # arity checks; any other line, and every error, takes `_parse_fact_line`.
        if match := plain(raw):
            name, args = match[1], tuple(map(str.strip, match[2].split(",")))
            if name not in relations:
                relations[name] = Relation(name, arities.setdefault(name, len(args)))
            if relations[name].arity == len(args):
                facts.add(new(Fact, (relations[name], args)))
                continue
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("@"):
            header = _HEADER_RE.match(line)
            if header is None:
                raise FactSyntaxError(f"malformed header {line!r}", lineno)
            try:
                name, arity = header.group(1), int(header.group(2))
            except ValueError:  # more digits than `int` converts
                raise FactSyntaxError(f"malformed header {line!r}", lineno) from None
            if arity < 1:
                raise FactSyntaxError(f"relation {name} declared with arity 0", lineno)
            known = arities.setdefault(name, arity)
            if known != arity:
                raise ArityError(
                    f"line {lineno}: relation {name} declared with arity {arity} "
                    f"but previously used with arity {known}"
                )
            continue
        facts.update(_parse_fact_line(line, lineno, arities))
    schema = {Relation(name, arity) for name, arity in arities.items()}
    return Database(frozenset(schema), frozenset(facts))


def parse_fact(text: str) -> Fact:
    """Parse a single ``Rel(c1,...)`` string, e.g. from a command-line flag."""
    facts = _parse_fact_line(text, None, {})
    if len(facts) != 1:
        raise FactSyntaxError(f"expected exactly one fact in {text!r}")
    return facts[0]


def parse_signed_fact(text: str) -> SignedFact:
    """Parse ``+Rel(...)`` or ``-Rel(...)``; a bare fact is taken as positive."""
    stripped = text.strip()
    sign = Sign.POSITIVE
    if stripped.startswith(("+", "-")):
        sign = Sign.POSITIVE if stripped[0] == "+" else Sign.NEGATIVE
        stripped = stripped[1:]
    return SignedFact(sign, parse_fact(stripped))
