"""Query evaluation and the support semantics built on it.

Everything here reduces to one primitive: enumerating the assignments of a
disjunct's variables that embed its positive atoms into a fact set while its
negated atoms are absent from a context set and its inequalities hold.  The
four support notions differ only in what plays the role of fact set and
context:

* a *signed support* is a set of signed facts satisfying the sign-transformed
  query (no context; the transformed query has no negated atoms);
* a *positive support* is a set of plain facts whose positive atoms embed
  into it while negation is checked against the full database;
* a *D-monotone support* is a set all of whose supersets within the database
  satisfy the query outright;
* the *bounded entailment* check asks whether every database over a given
  finite domain that includes the positive part of a signed set and avoids
  its negative part satisfies the query.

Minimal signed and positive supports are computed as the minimal elements of
the set of assignment images, which coincide with the subset-minimal
supports: every support contains the image of one of its own satisfying
assignments, and every image is itself a support.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add, and_
from typing import Iterable, Iterator, Literal, Mapping, Sequence, Union

from .core import (
    Database,
    Fact,
    Relation,
    Sign,
    SignedDatabase,
    SignedFact,
    database,
    negative,
    positive,
)
from .errors import ArityError, CapExceededError, SemanticError
from .query import Atom, Conjunct, Const, Inequality, Query, Var, neg_rels
from .query import sign_transform, signed_database_restricted

#: Exhaustively checking D-monotonicity enumerates ``2^|db \ S|`` supersets.
DEFAULT_DMONOTONE_CAP = 20
#: The bounded entailment check reasons over all facts expressible in the domain.
DEFAULT_ENTAILMENT_CAP = 24
#: The assignment search recurses once per positive atom of a disjunct;
#: deeper disjuncts are refused before it starts.
MAX_POSITIVE_ATOMS = 256

SupportKind = Literal["signed", "positive", "dMonotone"]

Assignment = Mapping[str, str]

FactLike = Union[Fact, SignedFact]


@dataclass(frozen=True)
class SupportSet:
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


def _support_order(s: SupportSet) -> tuple:
    return (len(s.elements), s.sorted_elements)


# ---------------------------------------------------------------------------
# Signed facts reuse the plain-fact machinery by folding the sign into the
# relation name: +R(a,b) evaluates as a fact over a relation literally named
# "+R".  Query relation names cannot start with '+' or '-', so no collision
# is possible.
# ---------------------------------------------------------------------------


def _mangle(sf: SignedFact) -> Fact:
    rel = sf.fact.relation
    return Fact(Relation(sf.sign.symbol + rel.name, rel.arity), sf.fact.args)


def _unmangle(f: Fact) -> SignedFact:
    sign = Sign.POSITIVE if f.relation.name[0] == "+" else Sign.NEGATIVE
    return SignedFact(sign, Fact(Relation(f.relation.name[1:], f.relation.arity), f.args))


def _as_plain_facts(facts: Iterable[FactLike]) -> tuple[frozenset[Fact], bool]:
    """Normalize to plain facts; report whether the input was signed."""
    if isinstance(facts, Database):
        return facts.facts, False
    if isinstance(facts, SignedDatabase):
        return frozenset(_mangle(sf) for sf in facts.signed_facts), True
    collected = list(facts)
    if not collected:
        return frozenset(), False
    signed = isinstance(collected[0], SignedFact)
    if any(isinstance(f, SignedFact) != signed for f in collected):
        raise SemanticError("cannot mix plain and signed facts in one set")
    if signed:
        return frozenset(_mangle(sf) for sf in collected), True
    return frozenset(collected), False


def _check_arity_compatible(q: Query, facts: Iterable[Fact]) -> None:
    arities = {rel.name: rel.arity for rel in q.relations}
    for f in facts:
        known = arities.get(f.relation.name)
        if known is not None and known != f.relation.arity:
            raise ArityError(
                f"relation {f.relation.name} has arity {f.relation.arity} in the "
                f"data but arity {known} in the query"
            )


# ---------------------------------------------------------------------------
# Assignment search
# ---------------------------------------------------------------------------


def _resolve(term, binding: dict[str, str]) -> str | None:
    if isinstance(term, Const):
        return term.value
    return binding.get(term.name)


def _match_plan(cq: Conjunct) -> list[tuple[Atom, list[Union[Atom, Inequality]]]]:
    """Pair each positive atom with the checks that become ground after it.

    A negated atom or inequality is scheduled at the first point where all
    of its variables are bound; safety guarantees this point exists.
    """
    plan: list[tuple[Atom, list[Union[Atom, Inequality]]]] = []
    bound: set[str] = set()
    pending = list(cq.negated_atoms) + list(cq.inequalities)
    ready0 = [lit for lit in pending if lit.variables <= bound]
    pending = [lit for lit in pending if lit not in ready0]
    for atom in cq.positive_atoms:
        bound |= atom.variables
        ready = [lit for lit in pending if lit.variables <= bound]
        pending = [lit for lit in pending if not (lit.variables <= bound)]
        plan.append((atom, ready0 + ready))
        ready0 = []
    assert not pending
    return plan


def _ground(atom: Atom, binding: dict[str, str]) -> Fact:
    return Fact(atom.relation, tuple(_resolve(t, binding) for t in atom.terms))


def _check(lit, binding: dict[str, str], context: frozenset[Fact]) -> bool:
    if isinstance(lit, Inequality):
        return _resolve(lit.left, binding) != _resolve(lit.right, binding)
    return _ground(lit, binding) not in context


def _disjunct_assignments(
    cq: Conjunct,
    fact_index: dict[Relation, list[Fact]],
    context: frozenset[Fact],
) -> Iterator[tuple[dict[str, str], frozenset[Fact]]]:
    """Yield (binding, image-of-positive-atoms) pairs, in deterministic order."""
    plan = _match_plan(cq)

    def extend(step: int, binding: dict[str, str], image: tuple[Fact, ...]):
        if step == len(plan):
            yield dict(binding), frozenset(image)
            return
        atom, checks = plan[step]
        for f in fact_index.get(atom.relation, ()):
            trail: list[str] = []
            ok = True
            for term, value in zip(atom.terms, f.args):
                if isinstance(term, Const):
                    if term.value != value:
                        ok = False
                        break
                elif term.name in binding:
                    if binding[term.name] != value:
                        ok = False
                        break
                else:
                    binding[term.name] = value
                    trail.append(term.name)
            if ok and all(_check(lit, binding, context) for lit in checks):
                yield from extend(step + 1, binding, image + (f,))
            for name in trail:
                del binding[name]

    return extend(0, {}, ())


def _iter_assignments(
    q: Query, facts: Iterable[FactLike], context: Iterable[Fact] | Database | None
) -> Iterator[tuple[int, dict[str, str], frozenset[Fact]]]:
    plain, signed = _as_plain_facts(facts)
    if signed:
        if any(cq.negated_atoms for cq in q.disjuncts):
            raise SemanticError(
                "signed fact sets must be evaluated against a sign-transformed query"
            )
        context_facts: frozenset[Fact] = frozenset()
    else:
        needs_context = any(cq.negated_atoms for cq in q.disjuncts)
        if context is None:
            if needs_context:
                raise SemanticError(
                    "a context database is required to check negated atoms "
                    "against plain facts"
                )
            context_facts = frozenset()
        else:
            context_facts = context.facts if isinstance(context, Database) else frozenset(context)
    _check_arity_compatible(q, plain)
    _check_arity_compatible(q, context_facts)
    deepest = max(len(cq.positive_atoms) for cq in q.disjuncts)
    if deepest > MAX_POSITIVE_ATOMS:
        raise CapExceededError(
            f"a disjunct with {deepest} positive atoms is deeper than the "
            f"assignment search allows (limit {MAX_POSITIVE_ATOMS})"
        )

    fact_index: dict[Relation, list[Fact]] = {}
    for f in sorted(plain):
        fact_index.setdefault(f.relation, []).append(f)

    for idx, cq in enumerate(q.disjuncts):
        for binding, image in _disjunct_assignments(cq, fact_index, context_facts):
            yield idx, binding, image


def satisfying_assignments(
    q: Query,
    facts: Iterable[FactLike],
    context: Iterable[Fact] | Database | None = None,
) -> list[tuple[int, dict[str, str]]]:
    """All (disjunct index, assignment) pairs making the query true.

    ``facts`` is where positive atoms must land.  With plain facts, negated
    atoms are checked for absence from ``context`` (required only if the
    query has any); with signed facts the query must already be
    sign-transformed and ``context`` is ignored.  Assignments bind exactly
    the variables that occur in the disjunct's literals.
    """
    results = {
        (idx, tuple(sorted(binding.items())))
        for idx, binding, _ in _iter_assignments(q, facts, context)
    }
    return [(idx, dict(items)) for idx, items in sorted(results)]


def _has_assignment(q, facts, context) -> bool:
    return next(_iter_assignments(q, facts, context), None) is not None


def satisfies(q: Query, facts: Iterable[Fact] | Database) -> bool:
    """Plain truth of the query on a fact set (negation checked on that set)."""
    plain, signed = _as_plain_facts(facts)
    if signed:
        raise SemanticError("satisfies() expects plain facts")
    return _has_assignment(q, plain, plain)


def signed_satisfies(q_signed: Query, signed_facts: Iterable[SignedFact]) -> bool:
    """Truth of an already sign-transformed query on a set of signed facts."""
    return _has_assignment(q_signed, signed_facts, None)


# ---------------------------------------------------------------------------
# Signed supports
# ---------------------------------------------------------------------------


def _validate_signed_subset(S: Iterable[SignedFact], q: Query, db: Database) -> None:
    adom = db.active_domain
    arities = {rel.name: rel.arity for rel in db.schema}
    arities.update(
        (rel.name, rel.arity) for rel in q.relations if rel.name not in arities
    )
    for sf in S:
        rel = sf.fact.relation
        known = arities.get(rel.name)
        if known is None or known != rel.arity:
            raise SemanticError(f"{sf} is not over the database/query schema")
        if sf.sign is Sign.POSITIVE and sf.fact not in db.facts:
            raise SemanticError(f"{sf} is not in the signed completion: fact absent")
        if sf.sign is Sign.NEGATIVE:
            if sf.fact in db.facts:
                raise SemanticError(f"{sf} is not in the signed completion: fact present")
            if not set(sf.fact.args) <= adom:
                raise SemanticError(
                    f"{sf} is not in the signed completion: constants outside "
                    f"the active domain"
                )


def is_signed_support(S: Iterable[SignedFact], q: Query, db: Database) -> bool:
    """Whether ``S`` (a subset of the signed completion) satisfies the
    sign-transformed query on its own."""
    S = frozenset(S)
    _validate_signed_subset(S, q, db)
    return signed_satisfies(sign_transform(q), S)


def minimal_signed_supports(
    q: Query, db: Database, *, cap: int | None = None
) -> list[SupportSet]:
    """All subset-minimal signed supports, in canonical order.

    Enumerates the assignment images of the sign-transformed query over the
    completion restricted to negated relations (minimal supports never reach
    outside it) and keeps the minimal images.
    """
    restricted = signed_database_restricted(db, q, cap=cap)
    images = _images(sign_transform(q), restricted, None)
    return [
        SupportSet("signed", frozenset(_unmangle(f) for f in image), True)
        for image in _minimal_sets(images)
    ]


def _images(q, facts, context) -> set[frozenset[Fact]]:
    return {image for _, _, image in _iter_assignments(q, facts, context)}


def _minimal_sets(family: set[frozenset]) -> list[frozenset]:
    by_size = sorted(family, key=lambda s: (len(s), tuple(sorted(s))))
    kept: list[frozenset] = []
    for candidate in by_size:
        if not any(k <= candidate for k in kept):
            kept.append(candidate)
    return sorted(kept, key=lambda s: (len(s), tuple(sorted(s))))


# ---------------------------------------------------------------------------
# Positive supports
# ---------------------------------------------------------------------------


def is_positive_support(S: Iterable[Fact], q: Query, db: Database) -> bool:
    """Whether the positive atoms can embed into ``S`` with negation checked
    against the full database."""
    S = frozenset(S)
    if not S <= db.facts:
        raise SemanticError("a positive support must be a subset of the database")
    return _has_assignment(q, S, db.facts)


def minimal_positive_supports(q: Query, db: Database) -> list[SupportSet]:
    """All subset-minimal positive supports, in canonical order."""
    images = _images(q, db.facts, db.facts)
    return [
        SupportSet("positive", image, True) for image in _minimal_sets(images)
    ]


# ---------------------------------------------------------------------------
# Compiled games: players as bits, semantics as (required, forbidden) masks
# ---------------------------------------------------------------------------

#: ``(required, forbidden)`` bit masks over a player tuple: a coalition
#: fits the witness when it holds every required player and no forbidden one.
Witness = tuple[int, int]

Semantics = Literal["drastic", "signed", "positive"]


def compile_witnesses(
    q: Query, db: Database, semantics: Semantics, players: Sequence[FactLike]
) -> tuple[Witness, ...]:
    """The witnesses of ``q`` over ``players``, from one assignment search.

    * ``drastic`` (players: the database facts; negation checked inside the
      coalition): one witness per assignment over the database, requiring
      its image and forbidding its grounded negated atoms that are players;
    * ``signed`` (players: a signed completion) and ``positive`` (players:
      the database facts; negation checked against the database): one
      witness per minimal support, forbidding nothing.
    """
    index = {p: i for i, p in enumerate(players)}
    mask = lambda facts: sum(1 << index[f] for f in set(facts) if f in index)
    if semantics == "signed":
        images = _images(sign_transform(q), players, None)
        return tuple(
            (mask(_unmangle(f) for f in image), 0) for image in _minimal_sets(images)
        )
    if semantics == "positive":
        return tuple((mask(s.elements), 0) for s in minimal_positive_supports(q, db))
    witnesses = {
        (mask(image), mask(_ground(a, binding) for a in q.disjuncts[idx].negated_atoms))
        for idx, binding, image in _iter_assignments(q, db.facts, frozenset())
    }
    return tuple(sorted(witnesses))


def coalition_table(n: int, witnesses: Iterable[Witness], *, count: bool) -> list[int]:
    """Wealth of every coalition of ``n`` players, indexed by bit mask: how
    many witnesses fit it (``count``), or else whether any does.

    A witness fits S when S holds its required mask R and misses its
    forbidden mask F; by inclusion-exclusion that is the sum over U ⊆ F of
    (-1)^|U| [R ∪ U ⊆ S].  Those terms are marked once and then summed over
    subsets, one player at a time.
    """
    table = [0] * (1 << n)
    for required, forbidden in witnesses:
        extra = forbidden
        while True:
            table[required | extra] += -1 if extra.bit_count() % 2 else 1
            if not extra:
                break
            extra = (extra - 1) & forbidden
    half = len(table) >> 1
    for table in coalition_rotations(table, n):
        table[half:] = map(add, table[half:], table[:half])
    return table if count else list(map(bool, table))


def coalition_rotations(table: list, n: int) -> Iterator[list]:
    """The table of ``n`` players with its index bits rotated right 1..n
    times.  In the k-th rotation player k is the top bit: the first half
    holds the coalitions without it (position j has ``j.bit_count()``
    players) and the second half the same coalitions with it.  In-place
    updates carry over; the last rotation is in the original order."""
    for _ in range(n):
        table = table[::2] + table[1::2]
        yield table


# ---------------------------------------------------------------------------
# D-monotone supports
# ---------------------------------------------------------------------------


def is_d_monotone_support(
    S: Iterable[Fact], q: Query, db: Database, *, cap: int = DEFAULT_DMONOTONE_CAP
) -> bool:
    """Whether every superset of ``S`` within the database satisfies the query."""
    S = frozenset(S)
    if not S <= db.facts:
        raise SemanticError("a D-monotone support must be a subset of the database")
    rest = sorted(db.facts - S)
    if len(rest) > cap:
        raise CapExceededError(
            f"D-monotonicity would check 2^{len(rest)} supersets (cap {cap})"
        )
    for k in range(len(rest) + 1):
        for extra in itertools.combinations(rest, k):
            if not satisfies(q, S | set(extra)):
                return False
    return True


def _d_monotone_table(q: Query, db: Database, cap: int) -> list[bool]:
    """Whether every superset of each subset of the database (itself
    included) satisfies the query, indexed by bit mask over its facts."""
    facts = db.sorted_facts
    if len(facts) > cap:
        raise CapExceededError(
            f"enumerating D-monotone supports over {len(facts)} facts needs "
            f"2^{len(facts)} evaluations (cap {cap})"
        )
    table = coalition_table(
        len(facts), compile_witnesses(q, db, "drastic", facts), count=False
    )
    half = len(table) >> 1
    for table in coalition_rotations(table, len(facts)):
        table[:half] = map(and_, table[:half], table[half:])
    return table


def _minimal_masks(table: list, n: int) -> list[int]:
    """The masks whose entry holds while no mask one player smaller does;
    these are the minimal ones when the entries are closed upwards."""
    bits = [1 << i for i in range(n)]
    return [
        S
        for S in itertools.compress(range(len(table)), table)
        if not any(S & b and table[S ^ b] for b in bits)
    ]


def _members(players: Sequence, mask: int) -> frozenset:
    return frozenset(p for i, p in enumerate(players) if mask >> i & 1)


def minimal_d_monotone_supports(
    q: Query, db: Database, *, cap: int = DEFAULT_DMONOTONE_CAP
) -> list[SupportSet]:
    """All subset-minimal D-monotone supports, in canonical order."""
    table = _d_monotone_table(q, db, cap)
    return sorted(
        (
            SupportSet("dMonotone", _members(db.sorted_facts, S), True)
            for S in _minimal_masks(table, len(db.facts))
        ),
        key=_support_order,
    )


# ---------------------------------------------------------------------------
# Bounded entailment
# ---------------------------------------------------------------------------


def entailment_supports_bounded(
    S: Iterable[SignedFact],
    q: Query,
    domain: Iterable[str],
    *,
    cap: int = DEFAULT_ENTAILMENT_CAP,
) -> bool:
    """Whether every database over ``domain`` that contains the positive part
    of ``S`` and avoids its negative part satisfies the query.

    Unlike true (unbounded) entailment, candidate databases draw their facts
    from the given finite domain only.  The check is complete over that
    space: it encodes each potential satisfying assignment as a clause over
    the undetermined facts and decides the resulting formula, rather than
    materializing all ``2^k`` candidate databases.
    """
    S = frozenset(S)
    domain = sorted(set(domain))
    pos = {sf.fact for sf in S if sf.sign is Sign.POSITIVE}
    neg = {sf.fact for sf in S if sf.sign is Sign.NEGATIVE}
    if pos & neg:
        return True  # no database is compatible with both signs of one fact
    relation_set = set(q.relations)
    relation_set.update(f.relation for f in pos | neg)
    by_name: dict[str, Relation] = {}
    for rel in sorted(relation_set):
        if by_name.setdefault(rel.name, rel).arity != rel.arity:
            raise ArityError(
                f"relation {rel.name} appears with two arities in the query "
                f"and the signed set"
            )
    relations = sorted(relation_set)
    domain_set = set(domain)
    for f in pos | neg:
        if not set(f.args) <= domain_set:
            raise SemanticError(f"{f} uses constants outside the given domain")

    total = sum(len(domain) ** rel.arity for rel in relations)
    if total > cap:
        raise CapExceededError(
            f"domain admits {total} possible facts (cap {cap})"
        )

    universe = [
        Fact(rel, combo)
        for rel in relations
        for combo in itertools.product(domain, repeat=rel.arity)
    ]
    index = {f: i for i, f in enumerate(universe)}

    # One clause per potential witness: "this assignment does not fire".
    # A literal +i means fact i is present, -(i+1)/(i+1) encoding via sign.
    clauses: list[frozenset[int]] = []
    for cq in q.disjuncts:
        variables = sorted(cq.used_variables)
        for values in itertools.product(domain, repeat=len(variables)):
            binding = dict(zip(variables, values))
            if not all(
                _resolve(ineq.left, binding) != _resolve(ineq.right, binding)
                for ineq in cq.inequalities
            ):
                continue
            required_present = {
                Fact(a.relation, tuple(_resolve(t, binding) for t in a.terms))
                for a in cq.positive_atoms
            }
            required_absent = {
                Fact(a.relation, tuple(_resolve(t, binding) for t in a.terms))
                for a in cq.negated_atoms
            }
            if any(f not in index for f in required_present):
                continue  # mentions a fact outside the domain: can never fire
            required_absent = {f for f in required_absent if f in index}
            literals: set[int] = set()
            fires_always = True
            skip = False
            for f in required_present:
                if f in neg:
                    skip = True  # a required fact is forced absent
                    break
                if f not in pos:
                    literals.add(-(index[f] + 1))
                    fires_always = False
            if skip:
                continue
            for f in required_absent:
                if f in pos:
                    skip = True  # a forbidden fact is forced present
                    break
                if f not in neg:
                    literals.add(index[f] + 1)
                    fires_always = False
            if skip:
                continue
            if fires_always:
                return True  # witnessed by the forced facts alone
            clauses.append(frozenset(literals))

    return not _satisfiable(clauses)


def _satisfiable(clauses: list[frozenset[int]]) -> bool:
    """Plain DPLL with unit propagation over integer literals."""
    clauses = sorted(set(clauses), key=lambda c: (len(c), sorted(c)))

    def solve(clauses: list[frozenset[int]]) -> bool:
        while True:
            unit = next((c for c in clauses if len(c) == 1), None)
            if unit is None:
                break
            clauses = _assign(clauses, next(iter(unit)))
            if clauses is None:
                return False
        if not clauses:
            return True
        literal = next(iter(min(clauses, key=len)))
        for choice in (literal, -literal):
            reduced = _assign(clauses, choice)
            if reduced is not None and solve(reduced):
                return True
        return False

    def _assign(clauses: list[frozenset[int]], lit: int):
        out = []
        for c in clauses:
            if lit in c:
                continue
            if -lit in c:
                c = c - {-lit}
                if not c:
                    return None
            out.append(c)
        return out

    return solve(list(clauses))


# ---------------------------------------------------------------------------
# The guarded reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GuardedReduction:
    """Outcome of rewriting a guarded single-disjunct query over a database.

    ``q_plus`` keeps only the positive atoms.  ``d_prime`` keeps the facts
    matched by some positive atom.  ``d_double_prime`` further drops every
    fact whose (unique) matching atom has an attached negated atom or
    inequality that fails under the match.  Minimal positive supports of the
    original query coincide with minimal supports of ``q_plus`` over
    ``d_double_prime``.
    """

    q_plus: Query
    d_prime: Database
    d_double_prime: Database


def guarded_reduction(q: Query | Conjunct, db: Database) -> GuardedReduction:
    """Rewrite a guarded, merge-free disjunct to a negation-free instance.

    Preconditions: a single disjunct; no mergeable positive-atom pair (so
    each fact is matched by at most one atom); every negated atom's and
    every inequality's variables fit inside a single positive atom.  The
    inequality requirement keeps per-fact checks faithful: an inequality
    spanning two atoms cannot be decided fact-by-fact.
    """
    from .query import is_guarded, mergeable_pairs  # local: avoids a cycle at import

    cq = q if isinstance(q, Conjunct) else _single_disjunct(q)
    if mergeable_pairs(cq):
        raise SemanticError("the reduction requires a disjunct with no mergeable atoms")
    if not is_guarded(cq):
        raise SemanticError("the reduction requires guarded negated atoms")

    guards: dict[int, list] = {i: [] for i in range(len(cq.positive_atoms))}
    for lit in list(cq.negated_atoms) + list(cq.inequalities):
        guard = next(
            (
                i
                for i, atom in enumerate(cq.positive_atoms)
                if lit.variables <= atom.variables
            ),
            None,
        )
        if guard is None:
            raise SemanticError(
                f"the reduction requires {lit} to be guarded by one positive atom"
            )
        guards[guard].append(lit)

    matched: set[Fact] = set()
    kept: set[Fact] = set()
    for f in db.facts:
        for i, atom in enumerate(cq.positive_atoms):
            binding = _match_single(atom, f)
            if binding is None:
                continue
            matched.add(f)
            if all(_check(lit, binding, db.facts) for lit in guards[i]):
                kept.add(f)
            break  # no mergeable atoms: at most one atom matches

    q_plus = Query(
        (Conjunct(cq.variables, tuple(cq.positive_atoms)),)
    )
    return GuardedReduction(
        q_plus=q_plus,
        d_prime=database(matched, db.schema),
        d_double_prime=database(kept, db.schema),
    )


def _single_disjunct(q: Query) -> Conjunct:
    if len(q.disjuncts) != 1:
        raise SemanticError("the reduction applies to single-disjunct queries")
    return q.disjuncts[0]


def _match_single(atom: Atom, f: Fact) -> dict[str, str] | None:
    if atom.relation != f.relation:
        return None
    binding: dict[str, str] = {}
    for term, value in zip(atom.terms, f.args):
        if isinstance(term, Const):
            if term.value != value:
                return None
        elif binding.setdefault(term.name, value) != value:
            return None
    return binding


# ---------------------------------------------------------------------------
# Exhaustive (non-minimal) listings, used by the command line tool
# ---------------------------------------------------------------------------


def all_supports(
    q: Query, db: Database, kind: SupportKind, *, cap: int = DEFAULT_DMONOTONE_CAP
) -> list[SupportSet]:
    """Every support of the given kind, minimal or not (exponential)."""
    if kind == "dMonotone":
        universe: Sequence = db.sorted_facts
        table = _d_monotone_table(q, db, cap)
        minimal = set(_minimal_masks(table, len(universe)))
    elif kind in ("signed", "positive"):
        if kind == "signed":
            universe = signed_database_restricted(db, q).sorted_facts
        else:
            universe = db.sorted_facts
        witnesses = compile_witnesses(q, db, kind, universe)
        if len(universe) > cap:
            raise CapExceededError(
                f"listing all supports over {len(universe)} facts needs "
                f"2^{len(universe)} checks (cap {cap})"
            )
        table = coalition_table(len(universe), witnesses, count=False)
        minimal = {required for required, _ in witnesses}
    else:
        raise SemanticError(f"unknown support kind {kind!r}")
    return sorted(
        (
            SupportSet(kind, _members(universe, S), S in minimal)
            for S in itertools.compress(range(len(table)), table)
        ),
        key=_support_order,
    )
