"""Query evaluation and the support semantics built on it.

Everything here reduces to one primitive: enumerating the assignments of a
disjunct's variables that embed its positive atoms into a fact set while its
negated atoms are absent from a context set and its inequalities hold.  The
support notions differ only in what plays the role of fact set and
context:

* a *signed support* is a set of signed facts satisfying the sign-transformed
  query; the minimal ones are read off the query's assignments over the
  database itself (see `support_families`), never off the completion;
* a *positive support* is a set of plain facts whose positive atoms embed
  into it while negation is checked against the full database;
* a *D-monotone support* is a set all of whose supersets within the database
  satisfy the query outright.

The guarded reduction, the per-set support tests and the bounded
entailment check run the same search from modules no command loads
(`analysis`, `reference`), whose old names here resolve; within their caps,
the D-monotone and exhaustive listings read their Boolean game's table.

The search matches a disjunct's positive atoms in order, depth first.
Before it starts, each atom's facts are kept to those with its constants
and bucketed by their values where earlier atoms bind variables, so a match
is one dictionary lookup; negated atoms and inequalities are grounded by
`operator.itemgetter` and tested as tuples, building no fact, and the
search yields the negated ones with each assignment.  Buckets keep the
order of the index: canonical for a fact set, none for a `Database`.

`support_families` alone makes the minimal signed and positive supports, as
the minimal elements of the set of assignment images: every support contains
the image of one of its own satisfying assignments, and every image is itself
a support.

`SupportSet` is a named tuple, equal to the tuple of its fields.
"""
from __future__ import annotations

import itertools
import operator
from typing import Callable, Iterable, Iterator, Literal, NamedTuple, Sequence, Union

from .core import Database, Fact, Relation, Sign, SignedDatabase, SignedFact, moved
from .errors import CapExceededError, SemanticError
from .query import (Atom, Conjunct, Const, Query, Var, _check_arity_compatible,
                    signed_database_restricted)

#: Exhaustively checking D-monotonicity enumerates ``2^|db \ S|`` supersets.
DEFAULT_DMONOTONE_CAP = 20
#: The assignment search recurses once per positive atom of a disjunct;
#: deeper disjuncts are refused before it starts.
MAX_POSITIVE_ATOMS = 256

SupportKind = Literal["signed", "positive", "dMonotone"]

FactLike = Union[Fact, SignedFact]


class SupportSet(NamedTuple):
    """A support together with its semantics kind and a minimality flag."""

    kind: SupportKind
    elements: frozenset
    minimal: bool

    @property
    def sorted_elements(self) -> tuple:
        return tuple(sorted(self.elements))

    def __str__(self) -> str:
        inner = ", ".join(str(e) for e in self.sorted_elements)
        return "{" + inner + "}"


class Listing(list):
    """Supports in canonical order, by size and then by their sorted
    elements, which ``sorted_elements`` holds in the same order: each
    support's elements are sorted once, for the order and for printing."""

    sorted_elements: list[tuple]


def _in_order(sets: Iterable[SupportSet]) -> Listing:
    keyed = sorted(((tuple(sorted(s.elements)), s) for s in sets),
                   key=lambda pair: (len(pair[0]), pair[0]))
    listing = Listing(s for _, s in keyed)
    listing.sorted_elements = [elements for elements, _ in keyed]
    return listing


# -- Signed fact sets --
# An explicit set of signed facts (`reference.signed_satisfies`) is searched
# with the plain-fact machinery by folding the sign into the relation name:
# +R(a,b) is a fact of a relation named "+R", as `sign_transform` names the
# atoms.  Query relation names cannot start with '+' or '-', so no collision
# is possible.


def _as_plain_facts(facts: Iterable[FactLike]) -> tuple[frozenset[Fact], bool]:
    """Normalize to plain facts; report whether the input was signed."""
    if isinstance(facts, Database):
        return facts.facts, False
    collected = list(facts)
    signed = bool(collected) and isinstance(collected[0], SignedFact)
    if any(isinstance(f, SignedFact) != signed for f in collected):
        raise SemanticError("cannot mix plain and signed facts in one set")
    if signed:  # as plain facts over the renamed relations
        return frozenset(Fact(Relation(sign.symbol + rel.name, rel.arity), args)
                         for sign, (rel, args) in collected), True
    return frozenset(collected), False


# -- Assignment search --


def _grounder(terms: Sequence) -> Callable[[dict], tuple[str, ...]]:
    """A function giving the terms' values in a binding, as a tuple."""
    if all(isinstance(t, Var) for t in terms):
        get = operator.itemgetter(*[t.name for t in terms])
        return get if len(terms) > 1 else lambda binding: (get(binding),)
    return lambda binding: tuple([t.value if isinstance(t, Const) else binding[t.name]
                                  for t in terms])


def _search_steps(cq: Conjunct, index: dict[Relation, list[Fact]]) -> list[tuple]:
    """The disjunct's match plan: per positive atom, ``(key, facts, binds,
    repeats, checks)``.  ``facts`` are the relation's facts with the atom's
    constants, bucketed by the values that ``key`` reads from the binding
    (``None`` when no variable is bound yet).  ``binds`` names the variables
    the atom binds, at their first position; ``repeats`` pairs every later
    position of one with that first.  ``checks`` are the negated atoms and
    inequalities it grounds first (safety guarantees one does), as
    (relation or ``None``, `_grounder`)."""
    steps = []
    bound: set[str] = set()
    pending = [*cq.negated_atoms, *cq.inequalities]
    for atom in cq.positive_atoms:
        consts, fixed, names, binds, repeats, first = {}, [], [], [], [], {}
        for i, term in enumerate(atom.terms):
            if isinstance(term, Const):
                consts[i] = term.value
            elif term.name in bound:
                fixed.append(i)
                names.append(term.name)
            elif term.name in first:
                repeats.append((i, first[term.name]))
            else:
                first[term.name] = i
                binds.append((i, term.name))
        facts: Union[dict, list] = index.get(atom.relation, [])
        # An `itemgetter` gives one item bare, more as a tuple: both sides agree.
        if consts:
            at, values = operator.itemgetter(*consts), operator.itemgetter(*consts)(consts)
            facts = [f for f in facts if at(f[1]) == values]
        if names:
            buckets, at = {}, operator.itemgetter(*fixed)
            for f in facts:
                buckets.setdefault(at(f[1]), []).append(f)
            facts = buckets
        bound |= atom.variables
        checks = [(lit.relation if isinstance(lit, Atom) else None,
                   _grounder(lit.terms if isinstance(lit, Atom) else lit))
                  for lit in pending if lit.variables <= bound]
        pending = [lit for lit in pending if not lit.variables <= bound]
        steps.append((operator.itemgetter(*names) if names else None, facts, binds, repeats,
                      checks))
    return steps


def _extend(
    steps: list[tuple],
    depth: int,
    binding: dict[str, str],
    image: tuple[Fact, ...],
    absent: tuple[tuple, ...],
    context: frozenset[Fact],
) -> Iterator[tuple[dict[str, str], frozenset[Fact], tuple[tuple, ...]]]:
    # A module-level function rather than a closure over the steps: a
    # closure that calls itself is a reference cycle, which would keep the
    # steps' buckets alive until the next cyclic collection.  A name bound
    # here stays bound: every path rebinds it before it is read.  A fact is
    # tested and kept as the tuple ``(relation, args)``, which it equals.
    (key, facts, binds, repeats, checks), last = steps[depth], depth + 1 == len(steps)
    for f in facts.get(key(binding), ()) if key else facts:
        args = f[1]
        if repeats and any(args[i] != args[j] for i, j in repeats):
            continue
        for i, name in binds:
            binding[name] = args[i]
        grounded = absent
        for relation, ground in checks:
            values = ground(binding)
            if (relation, values) in context if relation else values[0] == values[1]:
                break
            grounded += ((relation, values),) if relation else ()
        else:
            if last:
                yield dict(binding), frozenset(image + (f,)), grounded
            else:
                yield from _extend(steps, depth + 1, binding, image + (f,), grounded, context)


def _iter_assignments(
    q: Query, facts: Iterable[FactLike], context: Iterable[Fact] | Database | None
) -> Iterator[tuple[int, dict[str, str], frozenset[Fact], tuple[tuple, ...]]]:
    plain, signed = _as_plain_facts(facts)
    if (signed or context is None) and any(cq.negated_atoms for cq in q.disjuncts):
        raise SemanticError(
            "signed fact sets must be evaluated against a sign-transformed query"
            if signed
            else "a context database is required to check negated atoms against plain facts"
        )
    index = facts.by_relation if isinstance(facts, Database) else {
        rel: list(group) for rel, group in itertools.groupby(sorted(plain), operator.itemgetter(0))}
    # A database is checked by its schema, relations without facts included.
    relations = facts.schema if isinstance(facts, Database) else index.keys()
    if isinstance(context, Database):
        relations, context = relations | context.schema, context.facts
    else:
        context = frozenset(() if signed or context is None else context)
        relations = relations | {f.relation for f in context}
    _check_arity_compatible(q, relations)
    deepest = max(len(cq.positive_atoms) for cq in q.disjuncts)
    if deepest > MAX_POSITIVE_ATOMS:
        raise CapExceededError(
            f"a disjunct with {deepest} positive atoms is deeper than the "
            f"assignment search allows (limit {MAX_POSITIVE_ATOMS})"
        )

    yield from _search(q.disjuncts, index, context)


def _search(
    disjuncts: Sequence[Conjunct], index: dict[Relation, list[Fact]], context: frozenset[Fact],
) -> Iterator[tuple[int, dict[str, str], frozenset[Fact], tuple[tuple, ...]]]:
    """Yield (disjunct index, binding, image of the positive atoms, negated
    atoms as tested), disjunct by disjunct, each atom's matches in the order
    of ``index``, depth first; the negated atoms as ``(relation, args)``, in
    the order `_search_steps` grounds them.  Nothing is checked here: an
    atom over a relation that ``index`` holds with another arity matches nothing."""
    for idx, cq in enumerate(disjuncts):
        for binding, image, absent in _extend(_search_steps(cq, index), 0, {}, (), (), context):
            yield idx, binding, image, absent


def _has_assignment(q, facts, context) -> bool:
    return next(_iter_assignments(q, facts, context), None) is not None


def satisfies(q: Query, facts: Iterable[Fact] | Database) -> bool:
    """Plain truth of the query on a fact set (negation checked on that set)."""
    plain, signed = _as_plain_facts(facts)
    if signed:
        raise SemanticError("satisfies() expects plain facts")
    facts = facts if isinstance(facts, Database) else plain
    return _has_assignment(q, facts, facts)


# -- Minimal signed and positive supports --


def minimal_signed_supports(
    q: Query, db: Database, *, cap: int | None = None
) -> Listing:
    """All subset-minimal signed supports, in canonical order.

    ``cap`` bounds the completion restricted to the negated relations, the
    players of these supports, although they are found without building it.
    """
    signed_database_restricted(db, q, cap=cap)
    return _in_order(support_families(q, db, "signed")[0])


def minimal_positive_supports(q: Query, db: Database) -> Listing:
    """All subset-minimal positive supports, in canonical order."""
    return _in_order(support_families(q, db, "positive")[0])


def support_families(q: Query, db: Database, *kinds: SupportKind) -> tuple[list[SupportSet], ...]:
    """The minimal supports of each kind named, ``signed`` or ``positive``
    (both when none is), in that order, each by size alone, from one search
    over the database with negation checked against it: by safety, the
    assignments of the sign-transformed query over the completion.  A signed
    image adds the grounded negated atoms as ``-`` facts, and is dropped when
    one leaves the active domain, and so the completion.  Only the families
    named are built."""
    kinds = kinds or ("signed", "positive")
    if not set(kinds) <= {"signed", "positive"}:
        raise SemanticError(f"minimal supports are signed or positive, not {kinds}")
    signed: set[frozenset] = set()
    plain: set[frozenset] = set()
    want_signed, want_plain = "signed" in kinds, "positive" in kinds
    in_domain, new = db.active_domain.issuperset if want_signed else None, tuple.__new__
    for _, _, image, absent in _iter_assignments(q, db, db):
        if want_plain:
            plain.add(image)
        if want_signed:  # as `core.positive` and `core.negative` build them
            members = [new(SignedFact, (Sign.POSITIVE, f)) for f in image]
            for negated in absent:
                if not in_domain(negated[1]):
                    break
                members.append(new(SignedFact, (Sign.NEGATIVE, new(Fact, negated))))
            else:
                signed.add(frozenset(members))
    return tuple(_minimal_sets(kind, signed if kind == "signed" else plain) for kind in kinds)


def _minimal_sets(kind: SupportKind, family: set[frozenset]) -> list[SupportSet]:
    """The minimal members as supports, ordered by size alone.

    Two distinct sets of one size never contain each other, so each set is
    tested only against the kept sets that are strictly smaller.
    """
    kept: list[frozenset] = []
    for _, same_size in itertools.groupby(sorted(family, key=len), key=len):
        # The list is complete before it joins `kept`, which so far holds
        # only smaller sets.
        kept += [s for s in same_size if not any(k <= s for k in kept)] if kept else same_size
    return [SupportSet(kind, s, True) for s in kept]


# -- D-monotone and exhaustive listings, read off their Boolean games' tables --


def minimal_d_monotone_supports(
    q: Query, db: Database, *, cap: int = DEFAULT_DMONOTONE_CAP
) -> Listing:
    """All subset-minimal D-monotone supports, in canonical order."""
    return _from_table(q, db, "dMonotone", cap)


def all_supports(
    q: Query, db: Database, kind: SupportKind, *, cap: int = DEFAULT_DMONOTONE_CAP,
    signed_cap: int | None = None,
) -> Listing:
    """Every support of the given kind, minimal or not (exponential); the
    players are counted against ``signed_cap``, then ``cap``, before any is built."""
    if kind not in ("signed", "positive", "dMonotone"):
        raise SemanticError(f"unknown support kind {kind!r}")
    universe = signed_database_restricted(db, q, cap=signed_cap) if kind == "signed" else db
    return _from_table(q, db, kind, cap, universe)


def _from_table(q: Query, db: Database, kind: SupportKind, cap: int,
                universe: Database | SignedDatabase | None = None) -> Listing:
    """`games.listing`, imported once the players are counted within ``cap``."""
    n = universe.size if kind == "signed" else len(db)
    if n > cap:
        raise CapExceededError(
            f"enumerating D-monotone supports over {n} facts needs 2^{n} evaluations (cap {cap})"
            if kind == "dMonotone" else
            f"listing all supports over {n} facts needs 2^{n} checks (cap {cap})")
    from .games import listing

    return listing(q, db, kind, universe)


__getattr__ = moved(__name__, {
    **dict.fromkeys(("GuardedReduction", "guarded_reduction"), "analysis"),
    **dict.fromkeys(("is_d_monotone_support", "is_positive_support", "is_signed_support",
                     "satisfying_assignments", "signed_satisfies"), "reference"),
})
