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

The bounded entailment check, the guarded reduction and the per-set
support tests run the same search from modules no command loads
(`entailment`, `analysis`, `reference`); their old names here resolve.

The search matches a disjunct's positive atoms in order, depth first.
Before it starts, each atom's facts are kept to those with its constants
and bucketed by their values where earlier atoms bind variables, so a match
is one dictionary lookup; negated atoms and inequalities are grounded by
`operator.itemgetter` and tested as tuples, building no fact.  Buckets keep
the order of the index: canonical for a fact set, none for a `Database`.

`support_families` alone makes the minimal signed and positive supports, as
the minimal elements of the set of assignment images: every support contains
the image of one of its own satisfying assignments, and every image is itself
a support.  `compile_witnesses` compiles the drastic game off the assignments;
`witness_masks` turns any game's witnesses into masks over the players they name.

`SupportSet` is a named tuple, equal to the tuple of its fields.
"""
from __future__ import annotations

import itertools
import operator
from typing import Callable, Iterable, Iterator, Literal, Mapping, NamedTuple, Sequence, Union

from .core import Database, Fact, Relation, Sign, SignedFact, moved
from .errors import ArityError, CapExceededError, SemanticError
from .query import Atom, Conjunct, Const, Query, Var, signed_database_restricted

#: Exhaustively checking D-monotonicity enumerates ``2^|db \ S|`` supersets.
DEFAULT_DMONOTONE_CAP = 20
#: The assignment search recurses once per positive atom of a disjunct;
#: deeper disjuncts are refused before it starts.
MAX_POSITIVE_ATOMS = 256

SupportKind = Literal["signed", "positive", "dMonotone"]

Assignment = Mapping[str, str]

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


def _check_arity_compatible(q: Query, relations: Iterable[Relation]) -> None:
    arities = {rel.name: rel.arity for rel in q.relations}
    for rel in sorted(relations):  # the first clash by name
        known = arities.get(rel.name)
        if known is not None and known != rel.arity:
            raise ArityError(
                f"relation {rel.name} has arity {rel.arity} in the "
                f"data but arity {known} in the query"
            )


# -- Assignment search --


def _grounder(terms: Sequence) -> Callable[[dict], tuple[str, ...]]:
    """A function giving the terms' values in a binding, as a tuple."""
    if all(isinstance(t, Var) for t in terms):
        get = operator.itemgetter(*[t.name for t in terms])
        return get if len(terms) > 1 else lambda binding: (get(binding),)
    return lambda binding: tuple([t.value if isinstance(t, Const) else binding[t.name]
                                  for t in terms])


def _negated(q: Query) -> list[list[tuple[Relation, Callable]]]:
    """Each disjunct's negated atoms as (relation, `_grounder` of the terms):
    ``(relation, grounder(binding))`` equals the atom's fact."""
    return [[(a.relation, _grounder(a.terms)) for a in cq.negated_atoms] for cq in q.disjuncts]


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
    context: frozenset[Fact],
) -> Iterator[tuple[dict[str, str], frozenset[Fact]]]:
    # A module-level function rather than a closure over the steps: a
    # closure that calls itself is a reference cycle, which would keep the
    # steps' buckets alive until the next cyclic collection.  A name bound
    # here stays bound: every path rebinds it before it is read.  A fact is
    # tested as the tuple ``(relation, args)``, which it equals and hashes as.
    (key, facts, binds, repeats, checks), last = steps[depth], depth + 1 == len(steps)
    for f in facts.get(key(binding), ()) if key else facts:
        args = f[1]
        if repeats and any(args[i] != args[j] for i, j in repeats):
            continue
        for i, name in binds:
            binding[name] = args[i]
        for relation, ground in checks:
            values = ground(binding)
            if (relation, values) in context if relation else values[0] == values[1]:
                break
        else:
            if last:
                yield dict(binding), frozenset(image + (f,))
            else:
                yield from _extend(steps, depth + 1, binding, image + (f,), context)


def _iter_assignments(
    q: Query, facts: Iterable[FactLike], context: Iterable[Fact] | Database | None
) -> Iterator[tuple[int, dict[str, str], frozenset[Fact]]]:
    plain, signed = _as_plain_facts(facts)
    if (signed or context is None) and any(cq.negated_atoms for cq in q.disjuncts):
        raise SemanticError(
            "signed fact sets must be evaluated against a sign-transformed query"
            if signed
            else "a context database is required to check negated atoms against plain facts"
        )
    index = facts.by_relation if isinstance(facts, Database) else {
        rel: list(group) for rel, group in itertools.groupby(sorted(plain), operator.itemgetter(0))}
    context = frozenset() if signed or context is None else context
    _check_arity_compatible(q, index)
    if isinstance(context, Database):
        _check_arity_compatible(q, context.by_relation)
        context = context.facts
    else:
        context = frozenset(context)
        _check_arity_compatible(q, {f.relation for f in context})
    deepest = max(len(cq.positive_atoms) for cq in q.disjuncts)
    if deepest > MAX_POSITIVE_ATOMS:
        raise CapExceededError(
            f"a disjunct with {deepest} positive atoms is deeper than the "
            f"assignment search allows (limit {MAX_POSITIVE_ATOMS})"
        )

    yield from _search(q.disjuncts, index, context)


def _search(
    disjuncts: Sequence[Conjunct], index: dict[Relation, list[Fact]], context: frozenset[Fact],
) -> Iterator[tuple[int, dict[str, str], frozenset[Fact]]]:
    """Yield (disjunct index, binding, image of the positive atoms),
    disjunct by disjunct, each atom's matches in the order of ``index``,
    depth first.  Nothing is checked here: an atom over a relation that
    ``index`` holds with another arity matches nothing."""
    for idx, cq in enumerate(disjuncts):
        for binding, image in _extend(_search_steps(cq, index), 0, {}, (), context):
            yield idx, binding, image


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
    negated, in_domain, new = _negated(q), db.active_domain.issuperset, tuple.__new__
    for idx, binding, image in _iter_assignments(q, db, db):
        if want_plain:
            plain.add(image)
        if want_signed:  # as `core.positive` and `core.negative` build them
            members = [new(SignedFact, (Sign.POSITIVE, f)) for f in image]
            for rel, ground in negated[idx]:
                args = ground(binding)
                if not in_domain(args):
                    break
                members.append(new(SignedFact, (Sign.NEGATIVE, new(Fact, (rel, args)))))
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


# -- Compiled games: players as bits, semantics as (required, forbidden) masks --

#: ``(required, forbidden)`` bit masks over a player tuple: a coalition
#: fits the witness when it holds every required player and no forbidden one.
Witness = tuple[int, int]


def compile_witnesses(q: Query, db: Database) -> set[tuple[frozenset[Fact], frozenset[Fact]]]:
    """The drastic game's witnesses as (required, forbidden) fact sets, from
    one assignment search over the database with negation checked inside
    the coalition: one per assignment, requiring its image and forbidding
    its grounded negated atoms that are stored.  The other games' witnesses
    are their minimal supports, with nothing forbidden."""
    negated, new = _negated(q), tuple.__new__
    return {
        (image, db.facts.intersection([new(Fact, (rel, ground(binding)))
                                       for rel, ground in negated[idx]]))
        for idx, binding, image in _iter_assignments(q, db, frozenset())
    }


def witness_masks(
    pairs: Iterable[tuple[frozenset, frozenset]]
) -> tuple[tuple[FactLike, ...], tuple[Witness, ...]]:
    """The witness players, those some (required, forbidden) pair names, in
    canonical order, and the pairs as masks over them.  Every other player
    is null: a coalition fits a witness by its witness players alone."""
    pairs = list(pairs)
    players = tuple(sorted({p for pair in pairs for side in pair for p in side}))
    bit = {p: 1 << i for i, p in enumerate(players)}
    mask = lambda facts: sum(map(bit.__getitem__, facts))
    return players, tuple(sorted({(mask(r), mask(f)) for r, f in pairs}))


def player_masks(n: int) -> list[int]:
    """Player i's mask in a coalition table (see `coalition_table`): the
    upper 2^i bits of every block of 2^(i+1), the coalitions that hold i."""
    masks: list[int] = []
    for i in range(n):
        masks = [m | m << (1 << i) for m in masks] + [(1 << (1 << i)) - 1 << (1 << i)]
    return masks


def coalition_sizes(n: int) -> list[int]:
    """The k-th mask: the coalitions of k players."""
    sizes = [1]
    for i in range(n):
        sizes = [low | high << (1 << i) for low, high in zip(sizes + [0], [0] + sizes)]
    return sizes


def coalition_table(n: int, witnesses: Iterable[Witness]) -> int:
    """The coalitions of ``n`` players that some witness fits, as one int
    whose bit S stands for the coalition with bit mask S: the OR over the
    witnesses (R, F) of the AND of R's players' masks and F's complements."""
    masks, table = player_masks(n), 0
    for required, forbidden in witnesses:
        fits = (1 << (1 << n)) - 1
        for i, mask in enumerate(masks):
            if required >> i & 1:
                fits &= mask
            if forbidden >> i & 1:
                fits &= ~mask
        table |= fits
    return table


def coalition_halves(table: int, n: int) -> Iterator[tuple[int, int]]:
    """Player by player, the coalitions of the others that win with the
    player and those that win without it, as tables with its bit clear."""
    for i, mask in enumerate(player_masks(n)):
        yield (table & mask) >> (1 << i), table & ~mask


def _indices(table: int) -> list[int]:
    """The set bits of ``table``, lowest first."""
    return [i for i, bit in enumerate(bin(table)[:1:-1]) if bit == "1"]


# -- D-monotone supports --


def _d_monotone_table(q: Query, db: Database, cap: int) -> tuple[tuple[Fact, ...], int]:
    """The drastic game's witness players, and which subsets of them have
    every superset within the database satisfy the query, as a coalition
    table over them."""
    if len(db.facts) > cap:
        raise CapExceededError(
            f"enumerating D-monotone supports over {len(db.facts)} facts needs "
            f"2^{len(db.facts)} evaluations (cap {cap})"
        )
    players, witnesses = witness_masks(compile_witnesses(q, db))
    table = coalition_table(len(players), witnesses)
    for i, mask in enumerate(player_masks(len(players))):
        table &= mask | table >> (1 << i)  # S without player i needs S with it
    return players, table


def _minimal_masks(table: int, n: int) -> list[int]:
    """The masks whose bit is set while no mask one player smaller has its
    bit set; these are the minimal ones when the table is closed upwards."""
    smaller = 0
    for i, mask in enumerate(player_masks(n)):
        smaller |= mask & table << (1 << i)
    return _indices(table & ~smaller)


def _members(players: Sequence, mask: int) -> frozenset:
    return frozenset(p for i, p in enumerate(players) if mask >> i & 1)


def minimal_d_monotone_supports(
    q: Query, db: Database, *, cap: int = DEFAULT_DMONOTONE_CAP
) -> Listing:
    """All subset-minimal D-monotone supports, in canonical order."""
    players, table = _d_monotone_table(q, db, cap)
    return _in_order(SupportSet("dMonotone", _members(players, S), True)
                     for S in _minimal_masks(table, len(players)))


# -- Exhaustive (non-minimal) listings, used by the command line tool --


def all_supports(
    q: Query, db: Database, kind: SupportKind, *, cap: int = DEFAULT_DMONOTONE_CAP,
    signed_cap: int | None = None,
) -> Listing:
    """Every support of the given kind, minimal or not (exponential); the
    players are counted against ``signed_cap``, then ``cap``, before any is built."""
    if kind == "dMonotone":
        universe = db
        players, table = _d_monotone_table(q, db, cap)
    elif kind in ("signed", "positive"):
        universe = signed_database_restricted(db, q, cap=signed_cap) if kind == "signed" else db
        n = universe.size if kind == "signed" else len(universe)
        if n > cap:
            raise CapExceededError(
                f"listing all supports over {n} facts needs 2^{n} checks (cap {cap})"
            )
        (family,) = support_families(q, db, kind)
        players, witnesses = witness_masks((s.elements, frozenset()) for s in family)
        table = coalition_table(len(players), witnesses)
    else:
        raise SemanticError(f"unknown support kind {kind!r}")
    named = set(players)  # every family is closed upwards: a null player doubles the table
    players += tuple(p for p in universe.sorted_facts if p not in named)
    for i in range(len(named), len(players)):
        table |= table << (1 << i)
    minimal = set(_minimal_masks(table, len(players)))
    return _in_order(SupportSet(kind, _members(players, S), S in minimal) for S in _indices(table))


__getattr__ = moved(__name__, {
    **dict.fromkeys(("GuardedReduction", "guarded_reduction"), "analysis"),
    **dict.fromkeys(("_validate_signed_subset", "is_d_monotone_support", "is_positive_support",
                     "is_signed_support", "satisfying_assignments", "signed_satisfies"),
                    "reference"),
})
