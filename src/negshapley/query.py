"""Boolean queries: unions of conjuncts with safe negated atoms and inequalities.

Concrete syntax::

    query    :=  disjunct { "|" disjunct }
    disjunct :=  "exists" var {"," var} "." literal {"," literal}
    literal  :=  ["!"] NAME "(" term {"," term} ")"  |  term "!=" term
    term     :=  var  |  '"' constant '"'

Variables are bare identifiers starting with a lowercase letter; constants
are always double-quoted inside queries (so no schema catalog is needed to
tell them apart).  Example::

    exists x. I(x,"fish"), !I(x,"meat")

Every disjunct must contain at least one positive atom, and every variable
of a negated atom or inequality must also occur in a positive atom of the
same disjunct (safe negation).  Queries are Boolean: there are no free
variables, and a disjunct's ``exists`` list must cover every variable it
uses.

The structural analysis (`analyze_query` and its parts) is in
`negshapley.analysis`; its names still resolve here, loading it on first use.

Atoms, inequalities, conjuncts and queries are named tuples: each equals,
and hashes like, the tuple of its fields.  Terms are not: a `Var` equals
only a `Var` of the same name and a `Const` only a `Const` of the same
value, so ``x != "x"`` compares two different terms.
"""
from __future__ import annotations

import re
from functools import cached_property
from typing import Iterable, NamedTuple, Union

from .core import Database, Relation, SignedDatabase, _Record, moved, signed_database
from .errors import ArityError, QuerySyntaxError, SafetyError, SemanticError

_RESERVED = {"exists"}


class Var(_Record):
    """A variable; never equal to a `Const`, whatever the two names."""

    __slots__ = _fields = ("name",)
    name: str

    def __init__(self, name: str) -> None:
        object.__setattr__(self, "name", name)

    def __str__(self) -> str:
        return self.name


class Const(_Record):
    """A constant; never equal to a `Var`."""

    __slots__ = _fields = ("value",)
    value: str

    def __init__(self, value: str) -> None:
        object.__setattr__(self, "value", value)

    def __str__(self) -> str:
        return f'"{self.value}"'


Term = Union[Var, Const]


class _AtomFields(NamedTuple):
    relation: Relation
    terms: tuple[Term, ...]
    negated: bool = False


class Atom(_AtomFields):
    """A relational literal, positive or negated: the tuple
    ``(relation, terms, negated)``."""

    __slots__ = ()

    def __new__(
        cls, relation: Relation, terms: tuple[Term, ...], negated: bool = False
    ) -> Atom:
        if len(terms) != relation.arity:
            raise ArityError(
                f"atom over {relation.name} has {len(terms)} terms "
                f"but arity {relation.arity}"
            )
        return tuple.__new__(cls, (relation, terms, negated))

    @property
    def variables(self) -> frozenset[str]:
        return frozenset(t.name for t in self.terms if isinstance(t, Var))

    def __str__(self) -> str:
        body = ",".join(str(t) for t in self.terms)
        return f"{'!' if self.negated else ''}{self.relation.name}({body})"


class Inequality(NamedTuple):
    left: Term
    right: Term

    @property
    def variables(self) -> frozenset[str]:
        return frozenset(t.name for t in (self.left, self.right) if isinstance(t, Var))

    def __str__(self) -> str:
        return f"{self.left} != {self.right}"


Literal = Union[Atom, Inequality]


class _ConjunctFields(NamedTuple):
    variables: tuple[str, ...]
    literals: tuple[Literal, ...]


class Conjunct(_ConjunctFields):
    """One disjunct: declared variables plus a conjunction of literals, the
    tuple ``(variables, literals)``.  No ``__slots__``: the cached
    properties keep their values in the instance ``__dict__``."""

    def __new__(cls, variables: tuple[str, ...], literals: tuple[Literal, ...]) -> Conjunct:
        if not literals:
            raise SemanticError("a disjunct needs at least one literal")
        declared = set(variables)
        if len(declared) != len(variables):
            raise SemanticError(
                f"duplicate variable in 'exists {', '.join(variables)}'"
            )
        used = frozenset(v for lit in literals for v in lit.variables)
        undeclared = used - declared
        if undeclared:
            raise SemanticError(
                f"variable {sorted(undeclared)[0]} is used but not declared by 'exists'"
            )
        positive_vars = frozenset(
            v for lit in literals if isinstance(lit, Atom) and not lit.negated
            for v in lit.variables
        )
        if not any(isinstance(lit, Atom) and not lit.negated for lit in literals):
            raise SafetyError("a disjunct needs at least one positive atom")
        for lit in literals:
            if isinstance(lit, Atom) and not lit.negated:
                continue
            for v in sorted(lit.variables - positive_vars):
                raise SafetyError(
                    f"unsafe variable {v} in {lit}: it does not occur "
                    f"in any positive atom of the disjunct"
                )
        return tuple.__new__(cls, (variables, literals))

    @cached_property
    def positive_atoms(self) -> tuple[Atom, ...]:
        return tuple(l for l in self.literals if isinstance(l, Atom) and not l.negated)

    @cached_property
    def negated_atoms(self) -> tuple[Atom, ...]:
        return tuple(l for l in self.literals if isinstance(l, Atom) and l.negated)

    @cached_property
    def inequalities(self) -> tuple[Inequality, ...]:
        return tuple(l for l in self.literals if isinstance(l, Inequality))

    @cached_property
    def used_variables(self) -> frozenset[str]:
        """Variables that actually occur in a literal (assignments bind these)."""
        return frozenset(v for lit in self.literals for v in lit.variables)

    def __str__(self) -> str:
        body = ", ".join(str(lit) for lit in self.literals)
        if not self.variables:
            # Ground conjuncts are constructible through the API but have no
            # quantifier prefix in the surface grammar; show the body alone.
            return body
        return f"exists {', '.join(self.variables)}. {body}"


def conjunct(literals: Iterable[Literal], variables: Iterable[str] | None = None) -> Conjunct:
    """Build a disjunct; without ``variables``, declare them in occurrence order."""
    literals = tuple(literals)
    if variables is None:
        seen: dict[str, None] = {}
        for lit in literals:
            terms = (lit.left, lit.right) if isinstance(lit, Inequality) else lit.terms
            for t in terms:
                if isinstance(t, Var):
                    seen.setdefault(t.name)
        variables = seen
    return Conjunct(tuple(variables), literals)


class _QueryFields(NamedTuple):
    disjuncts: tuple[Conjunct, ...]


class Query(_QueryFields):
    """A Boolean union of conjuncts: the 1-tuple ``(disjuncts,)``, with a
    ``__dict__`` for its cached property."""

    def __new__(cls, disjuncts: tuple[Conjunct, ...]) -> Query:
        if not disjuncts:
            raise SemanticError("a query needs at least one disjunct")
        self = tuple.__new__(cls, (disjuncts,))
        arities: dict[str, int] = {}
        for rel in (lit.relation for cq in disjuncts for lit in cq.literals
                    if isinstance(lit, Atom)):  # in query order
            known = arities.setdefault(rel.name, rel.arity)
            if known != rel.arity:
                raise ArityError(
                    f"relation {rel.name} used with arities {known} and {rel.arity}"
                )
        return self

    @cached_property
    def relations(self) -> frozenset[Relation]:
        """Every relation symbol occurring in some atom (negated or not)."""
        return frozenset(
            lit.relation
            for cq in self.disjuncts
            for lit in cq.literals
            if isinstance(lit, Atom)
        )

    def __str__(self) -> str:
        return " | ".join(str(cq) for cq in self.disjuncts)


# -- Parsing --

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<neq>!=)
      | (?P<bang>!)
      | (?P<pipe>\|)
      | (?P<dot>\.)
      | (?P<comma>,)
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<quoted>"[A-Za-z0-9_]+")
      | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

_VAR_RE = re.compile(r"[a-z][A-Za-z0-9_]*$")


class _Tokens:
    def __init__(self, text: str) -> None:
        self.items: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            match = _TOKEN_RE.match(text, pos)
            if match is None:
                raise QuerySyntaxError(f"unexpected character {text[pos]!r}", pos)
            if match.lastgroup != "ws":
                self.items.append((match.lastgroup, match.group(), pos))
            pos = match.end()
        self.index = 0

    def peek(self, kind: str) -> bool:
        return self.index < len(self.items) and self.items[self.index][0] == kind

    def peek2(self, kind: str) -> bool:
        return self.index + 1 < len(self.items) and self.items[self.index + 1][0] == kind

    def take(self, kind: str, what: str) -> tuple[str, int]:
        if not self.peek(kind):
            got, where = ("end of input", None)
            if self.index < len(self.items):
                got, where = f"{self.items[self.index][1]!r}", self.items[self.index][2]
            raise QuerySyntaxError(f"expected {what}, found {got}", where)
        _, value, pos = self.items[self.index]
        self.index += 1
        return value, pos

    @property
    def exhausted(self) -> bool:
        return self.index >= len(self.items)


def _take_variable(tokens: _Tokens) -> str:
    name, pos = tokens.take("ident", "a variable")
    if name in _RESERVED:
        raise QuerySyntaxError(f"{name!r} is a reserved word", pos)
    if not _VAR_RE.match(name):
        raise QuerySyntaxError(
            f"{name!r} cannot be a variable (variables start lowercase)", pos
        )
    return name


def _parse_term(tokens: _Tokens) -> Term:
    if tokens.peek("quoted"):
        value, _ = tokens.take("quoted", "a constant")
        return Const(value[1:-1])
    return Var(_take_variable(tokens))


def _parse_literal(tokens: _Tokens) -> Literal:
    if tokens.peek("bang"):
        tokens.take("bang", "'!'")
        name, _ = tokens.take("ident", "a relation name")
        terms = _parse_term_list(tokens)
        return Atom(Relation(name, len(terms)), terms, negated=True)
    if tokens.peek("ident") and tokens.peek2("lparen"):
        name, _ = tokens.take("ident", "a relation name")
        terms = _parse_term_list(tokens)
        return Atom(Relation(name, len(terms)), terms)
    left = _parse_term(tokens)
    tokens.take("neq", "'!='")
    right = _parse_term(tokens)
    return Inequality(left, right)


def _parse_term_list(tokens: _Tokens) -> tuple[Term, ...]:
    tokens.take("lparen", "'('")
    terms = [_parse_term(tokens)]
    while tokens.peek("comma"):
        tokens.take("comma", "','")
        terms.append(_parse_term(tokens))
    tokens.take("rparen", "')'")
    return tuple(terms)


def _parse_disjunct(tokens: _Tokens) -> Conjunct:
    keyword, pos = tokens.take("ident", "'exists'")
    if keyword != "exists":
        raise QuerySyntaxError(f"expected 'exists', found {keyword!r}", pos)
    variables = [_take_variable(tokens)]
    while tokens.peek("comma"):
        tokens.take("comma", "','")
        variables.append(_take_variable(tokens))
    tokens.take("dot", "'.'")
    literals = [_parse_literal(tokens)]
    while tokens.peek("comma"):
        tokens.take("comma", "','")
        literals.append(_parse_literal(tokens))
    return Conjunct(tuple(variables), tuple(literals))


def parse_query(text: str) -> Query:
    """Parse the concrete syntax above into a validated :class:`Query`."""
    tokens = _Tokens(text)
    disjuncts = [_parse_disjunct(tokens)]
    while tokens.peek("pipe"):
        tokens.take("pipe", "'|'")
        disjuncts.append(_parse_disjunct(tokens))
    if not tokens.exhausted:
        kind, value, pos = tokens.items[tokens.index]
        raise QuerySyntaxError(f"unexpected {value!r} after the query", pos)
    return Query(tuple(disjuncts))


# -- The sign transform and the negated-relation set --


def neg_rels(q: Query) -> frozenset[Relation]:
    """The relations that occur in some negated atom of ``q``."""
    return frozenset(
        atom.relation for cq in q.disjuncts for atom in cq.negated_atoms
    )


def sign_transform(q: Query) -> Query:
    """Rewrite ``q`` over the signed schema.

    Every positive atom ``R(t)`` becomes ``+R(t)`` and every negated atom
    ``!R(t)`` becomes a *positive* atom ``-R(t)``; inequalities are kept.
    The result mentions no negated atoms, so its satisfaction is monotone
    in the supplied set of signed facts.
    """
    disjuncts = []
    for cq in q.disjuncts:
        literals: list[Literal] = []
        for lit in cq.literals:
            if isinstance(lit, Inequality):
                literals.append(lit)
                continue
            prefix = "-" if lit.negated else "+"
            renamed = Relation(prefix + lit.relation.name, lit.relation.arity)
            literals.append(Atom(renamed, lit.terms))
        disjuncts.append(Conjunct(cq.variables, tuple(literals)))
    return Query(tuple(disjuncts))


def signed_database_restricted(db: Database, q: Query, *, cap: int | None = None) -> SignedDatabase:
    """The signed completion of ``db`` with negatives only over ``neg_rels(q)``,
    counted but not built: the players of the signed measures.

    Relations that ``q`` mentions but ``db`` lacks are added to the schema
    with an empty extension, so their whole tuple space over the active
    domain is negative.
    """
    return signed_database(
        db, restrict_to=neg_rels(q), extra_relations=q.relations, cap=cap
    )


__getattr__ = moved(__name__, dict.fromkeys((
    "DisjunctAnalysis", "QueryAnalysis", "_connected", "_unify_apart", "analyze_disjunct",
    "analyze_query", "gaifman_graph", "has_non_hierarchical_neg_path", "is_guarded",
    "mergeable_pairs", "negative_arity", "self_join_width"), "analysis"))
