"""Query evaluation and the support semantics built on it.

Everything here reduces to one primitive: enumerating the assignments of a
disjunct's variables that embed its positive atoms into a fact set while its
negated atoms are absent from a context set and its inequalities hold.  The
four support notions differ only in what plays the role of fact set and
context:

* a *signed support* is a set of signed facts satisfying the sign-transformed
  query; the minimal ones are read off the query's assignments over the
  database itself (see `_support_images`), never off the completion;
* a *positive support* is a set of plain facts whose positive atoms embed
  into it while negation is checked against the full database;
* a *D-monotone support* is a set all of whose supersets within the database
  satisfy the query outright;
* the *bounded entailment* check asks whether every database over a given
  finite domain that includes the positive part of a signed set and avoids
  its negative part satisfies the query; the search runs over the domain's
  facts not forced absent, with the forced-present ones as context, and
  each assignment becomes one clause.

The *guarded reduction* also reads its two databases off the search: the
images of each positive atom alone, and of the atom with its guards.  No
other code here matches atoms to facts.

The search matches a disjunct's positive atoms in order, depth first.  Which
positions of an atom are already fixed when it is reached (constants, and
variables bound by earlier atoms) follows from the plan alone, so before the
search starts each atom's facts are bucketed by their values there: a match
is one dictionary lookup, not a scan of the relation, and an atom fixed at
every position is one membership test in the fact set.  Buckets keep fact
order, so assignments come out in the order a scan would give.

Minimal signed and positive supports are computed as the minimal elements of
the set of assignment images, which coincide with the subset-minimal
supports: every support contains the image of one of its own satisfying
assignments, and every image is itself a support.

`SupportSet` and `GuardedReduction` are named tuples, equal to the tuples
of their fields.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Literal, Mapping, NamedTuple, Sequence, Union

from .core import (
    Database,
    Fact,
    Relation,
    Sign,
    SignedFact,
    completion_size,
    database,
    negative,
    positive,
)
from .errors import ArityError, CapExceededError, SemanticError
from .query import Atom, Conjunct, Const, Inequality, Query, neg_rels
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


def _support_order(s: SupportSet) -> tuple:
    return (len(s.elements), s.sorted_elements)


# ---------------------------------------------------------------------------
# An explicit set of signed facts (`signed_satisfies`) is searched with the
# plain-fact machinery by folding the sign into the relation name: +R(a,b) is
# a fact of a relation named "+R", as `sign_transform` names the atoms.  Query
# relation names cannot start with '+' or '-', so no collision is possible.
# ---------------------------------------------------------------------------


def _mangle(signed: Iterable[SignedFact]) -> frozenset[Fact]:
    """The signed facts as plain facts over the renamed relations."""
    return frozenset(
        Fact(Relation(sf.sign.symbol + sf.fact.relation.name, sf.fact.relation.arity),
             sf.fact.args)
        for sf in signed
    )


def _as_plain_facts(facts: Iterable[FactLike]) -> tuple[frozenset[Fact], bool]:
    """Normalize to plain facts; report whether the input was signed."""
    if isinstance(facts, Database):
        return facts.facts, False
    collected = list(facts)
    if not collected:
        return frozenset(), False
    signed = isinstance(collected[0], SignedFact)
    if any(isinstance(f, SignedFact) != signed for f in collected):
        raise SemanticError("cannot mix plain and signed facts in one set")
    if signed:
        return _mangle(collected), True
    return frozenset(collected), False


def _check_arity_compatible(q: Query, facts: Iterable[Fact]) -> None:
    arities = {rel.name: rel.arity for rel in q.relations}
    for rel in sorted({f.relation for f in facts}):  # the first clash by name
        known = arities.get(rel.name)
        if known is not None and known != rel.arity:
            raise ArityError(
                f"relation {rel.name} has arity {rel.arity} in the "
                f"data but arity {known} in the query"
            )


# ---------------------------------------------------------------------------
# Assignment search
# ---------------------------------------------------------------------------


def _resolve(term, binding: dict[str, str]) -> str | None:
    if isinstance(term, Const):
        return term.value
    return binding.get(term.name)


def _ground(atom: Atom, binding: dict[str, str]) -> Fact:
    return Fact(atom.relation, tuple(_resolve(t, binding) for t in atom.terms))


def _check(lit, binding: dict[str, str], context: frozenset[Fact]) -> bool:
    if isinstance(lit, Inequality):
        return _resolve(lit.left, binding) != _resolve(lit.right, binding)
    return _ground(lit, binding) not in context


class _Step(NamedTuple):
    """One positive atom of a match plan with the lookup that serves it.

    ``key`` lists the atom's fixed positions (constants, and variables bound
    by earlier atoms) as ``(is_variable, name or value)``.  ``binds`` names
    the variables the atom binds, at their first position, and ``repeats``
    pairs every later position of such a variable with that first one.
    With nothing to bind, ``facts`` is the whole fact set and a match is one
    membership test; with some positions fixed, it maps their values to the
    matching facts; with none, it is the relation's facts.
    """

    relation: Relation
    key: tuple[tuple[bool, str], ...]
    facts: Union[frozenset[Fact], dict[tuple[str, ...], list[Fact]], list[Fact]]
    binds: tuple[tuple[int, str], ...]
    repeats: tuple[tuple[int, int], ...]
    checks: tuple[Union[Atom, Inequality], ...]


def _search_steps(
    cq: Conjunct, fact_index: dict[Relation, list[Fact]], facts: frozenset[Fact]
) -> list[_Step]:
    """The disjunct's match plan with each atom's facts bucketed by the
    values at its fixed positions, keeping their order inside a bucket.

    Each negated atom and inequality is checked at the first atom that
    grounds it; safety guarantees there is one.
    """
    steps = []
    bound: set[str] = set()
    pending = [*cq.negated_atoms, *cq.inequalities]
    for atom in cq.positive_atoms:
        key, fixed, binds, repeats, first = [], [], [], [], {}
        for i, term in enumerate(atom.terms):
            if isinstance(term, Const) or term.name in bound:
                fixed.append(i)
                key.append(
                    (False, term.value) if isinstance(term, Const) else (True, term.name)
                )
            elif term.name in first:
                repeats.append((i, first[term.name]))
            else:
                first[term.name] = i
                binds.append((i, term.name))
        relation_facts = fact_index.get(atom.relation, [])
        if not binds:
            lookup: Union[frozenset, dict, list] = facts
        elif key:
            lookup = {}
            for f in relation_facts:
                lookup.setdefault(tuple([f.args[i] for i in fixed]), []).append(f)
        else:
            lookup = relation_facts
        bound |= atom.variables
        checks = tuple(lit for lit in pending if lit.variables <= bound)
        pending = [lit for lit in pending if not lit.variables <= bound]
        steps.append(_Step(atom.relation, tuple(key), lookup,
                           tuple(binds), tuple(repeats), checks))
    return steps


def _extend(
    steps: list[_Step],
    depth: int,
    binding: dict[str, str],
    image: tuple[Fact, ...],
    context: frozenset[Fact],
) -> Iterator[tuple[dict[str, str], frozenset[Fact]]]:
    # A module-level function rather than a closure over the steps: a
    # closure that calls itself is a reference cycle, which would keep the
    # steps' buckets alive until the next cyclic collection.
    if depth == len(steps):
        yield dict(binding), frozenset(image)
        return
    step = steps[depth]
    key = tuple([binding[v] if is_var else v for is_var, v in step.key])
    if not step.binds:
        f = Fact(step.relation, key)
        candidates = (f,) if f in step.facts else ()
    elif key:
        candidates = step.facts.get(key, ())
    else:
        candidates = step.facts
    for f in candidates:
        args = f.args
        if any(args[i] != args[j] for i, j in step.repeats):
            continue
        for i, name in step.binds:
            binding[name] = args[i]
        if all(_check(lit, binding, context) for lit in step.checks):
            yield from _extend(steps, depth + 1, binding, image + (f,), context)
        for _, name in step.binds:
            del binding[name]


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
    if signed or context is None:
        context_facts: frozenset[Fact] = frozenset()
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

    yield from _search(q.disjuncts, plain, context_facts)


def _search(
    disjuncts: Sequence[Conjunct], facts: frozenset[Fact], context: frozenset[Fact]
) -> Iterator[tuple[int, dict[str, str], frozenset[Fact]]]:
    """Yield (disjunct index, binding, image of the positive atoms), in
    deterministic order: disjunct by disjunct, each atom's matches in fact
    order, depth first.  Nothing is checked here: an atom over a relation
    that ``facts`` holds with another arity matches nothing."""
    fact_index: dict[Relation, list[Fact]] = {}
    for f in facts:
        fact_index.setdefault(f.relation, []).append(f)
    for relation_facts in fact_index.values():
        relation_facts.sort()
    for idx, cq in enumerate(disjuncts):
        for binding, image in _extend(_search_steps(cq, fact_index, facts), 0, {}, (), context):
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
    arities = {rel.name: rel.arity for rel in (*q.relations, *db.schema)}  # data wins
    for sf in S:
        rel, stored = sf.fact.relation, sf.fact in db.facts
        if arities.get(rel.name) != rel.arity:
            raise SemanticError(f"{sf} is not over the database/query schema")
        if sf.sign is Sign.POSITIVE and not stored:
            raise SemanticError(f"{sf} is not in the signed completion: fact absent")
        if sf.sign is Sign.NEGATIVE and stored:
            raise SemanticError(f"{sf} is not in the signed completion: fact present")
        if sf.sign is Sign.NEGATIVE and not db.active_domain.issuperset(sf.fact.args):
            raise SemanticError(
                f"{sf} is not in the signed completion: constants outside the active domain"
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

    ``cap`` bounds the completion restricted to the negated relations, the
    players of these supports, although they are found without building it.
    """
    completion_size(db, restrict_to=neg_rels(q), extra_relations=q.relations, cap=cap)
    return _signed_supports(q, db)


def _signed_supports(q: Query, db: Database) -> list[SupportSet]:
    return _minimal_sets("signed", _support_images(q, db)[0])


def support_families(q: Query, db: Database) -> tuple[list[SupportSet], list[SupportSet]]:
    """The minimal signed and positive supports, from one search."""
    signed, plain = _support_images(q, db)
    return _minimal_sets("signed", signed), _minimal_sets("positive", plain)


def _support_images(q: Query, db: Database) -> tuple[set[frozenset], set[frozenset]]:
    """The signed and positive images of the assignments over the database,
    negation checked against it.

    Safety binds every variable through a positive atom, so these are the
    assignments of the sign-transformed query over the completion.  The
    signed image adds the grounded negated atoms as ``-`` facts, and is
    dropped when one of them leaves the active domain, and so the completion.
    """
    adom = db.active_domain
    signed: set[frozenset] = set()
    plain: set[frozenset] = set()
    for idx, binding, image in _iter_assignments(q, db.facts, db.facts):
        plain.add(image)
        absent = [_ground(a, binding) for a in q.disjuncts[idx].negated_atoms]
        if all(adom.issuperset(f.args) for f in absent):
            signed.add(frozenset([*map(positive, image), *map(negative, absent)]))
    return signed, plain


def _minimal_sets(kind: SupportKind, family: set[frozenset]) -> list[SupportSet]:
    """The minimal members as supports, ordered by size and then by their
    sorted elements.

    Two distinct sets of one size never contain each other, so each set is
    tested only against the kept sets that are strictly smaller.
    """
    by_size = sorted(family, key=lambda s: (len(s), sorted(s)))
    kept: list[frozenset] = []
    for _, same_size in itertools.groupby(by_size, key=len):
        # The list is complete before it joins `kept`, which so far holds
        # only smaller sets.
        kept += [s for s in same_size if not any(k <= s for k in kept)]
    return [SupportSet(kind, s, True) for s in kept]


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
    images = {image for _, _, image in _iter_assignments(q, db.facts, db.facts)}
    return _minimal_sets("positive", images)


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
        return tuple((mask(s.elements), 0) for s in _signed_supports(q, db))
    if semantics == "positive":
        return tuple((mask(s.elements), 0) for s in minimal_positive_supports(q, db))
    witnesses = {
        (mask(image), mask(_ground(a, binding) for a in q.disjuncts[idx].negated_atoms))
        for idx, binding, image in _iter_assignments(q, db.facts, frozenset())
    }
    return tuple(sorted(witnesses))


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


# ---------------------------------------------------------------------------
# D-monotone supports
# ---------------------------------------------------------------------------


def is_d_monotone_support(
    S: Iterable[Fact], q: Query, db: Database, *, cap: int = DEFAULT_DMONOTONE_CAP
) -> bool:
    """Whether every superset of ``S`` within the database satisfies the query.

    A drastic witness that forbids a member of ``S`` fits no superset; the
    others, less ``S``, must cover every subset of the rest of the database.
    """
    S = frozenset(S)
    if not S <= db.facts:
        raise SemanticError("a D-monotone support must be a subset of the database")
    rest = sorted(db.facts - S)
    if len(rest) > cap:
        raise CapExceededError(
            f"D-monotonicity would check 2^{len(rest)} supersets (cap {cap})"
        )
    players = rest + list(S)
    low = (1 << len(rest)) - 1
    witnesses = [
        (required & low, forbidden)
        for required, forbidden in compile_witnesses(q, db, "drastic", players)
        if not forbidden & ~low
    ]
    return coalition_table(len(rest), witnesses) == (1 << (1 << len(rest))) - 1


def _d_monotone_table(q: Query, db: Database, cap: int) -> int:
    """Which subsets of the database have every superset (themselves
    included) satisfy the query, as a coalition table over its facts."""
    facts = db.sorted_facts
    if len(facts) > cap:
        raise CapExceededError(
            f"enumerating D-monotone supports over {len(facts)} facts needs "
            f"2^{len(facts)} evaluations (cap {cap})"
        )
    table = coalition_table(len(facts), compile_witnesses(q, db, "drastic", facts))
    for i, mask in enumerate(player_masks(len(facts))):
        table &= mask | table >> (1 << i)  # S without fact i needs S with it
    return table


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
    space: it turns each assignment the search finds over the facts not
    forced absent into a clause over the undetermined facts and decides the
    resulting formula, rather than materializing all ``2^k`` candidate
    databases.
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

    # One clause per assignment over the facts not forced absent, with
    # negation checked against the facts forced present: "this assignment
    # does not fire".  Literal -(i+1) says fact i is absent, i+1 present.
    clauses: list[frozenset[int]] = []
    for idx, binding, image in _iter_assignments(q, index.keys() - neg, pos):
        absent = (_ground(a, binding) for a in q.disjuncts[idx].negated_atoms)
        clause = frozenset(
            [-index[f] - 1 for f in image - pos]
            + [index[f] + 1 for f in absent if f in index and f not in neg]
        )
        if not clause:
            return True  # witnessed by the forced facts alone
        clauses.append(clause)

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


class GuardedReduction(NamedTuple):
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

    atoms = cq.positive_atoms
    guards: list[list] = [[] for _ in atoms]
    for lit in (*cq.negated_atoms, *cq.inequalities):
        guarding = [g for g, atom in zip(guards, atoms) if lit.variables <= atom.variables]
        if not guarding:
            raise SemanticError(
                f"the reduction requires {lit} to be guarded by one positive atom"
            )
        guarding[0].append(lit)

    def images(literals: Iterable[tuple]) -> set[Fact]:
        disjuncts = [Conjunct(cq.variables, lits) for lits in literals]
        return {f for _, _, image in _search(disjuncts, db.facts, db.facts) for f in image}

    return GuardedReduction(
        q_plus=Query((Conjunct(cq.variables, atoms),)),
        d_prime=database(images((atom,) for atom in atoms), db.schema),
        d_double_prime=database(
            images((atom, *guard) for atom, guard in zip(atoms, guards)), db.schema
        ),
    )


def _single_disjunct(q: Query) -> Conjunct:
    if len(q.disjuncts) != 1:
        raise SemanticError("the reduction applies to single-disjunct queries")
    return q.disjuncts[0]


# ---------------------------------------------------------------------------
# Exhaustive (non-minimal) listings, used by the command line tool
# ---------------------------------------------------------------------------


def all_supports(
    q: Query, db: Database, kind: SupportKind, *, cap: int = DEFAULT_DMONOTONE_CAP,
    signed_cap: int | None = None,
) -> list[SupportSet]:
    """Every support of the given kind, minimal or not (exponential); the
    players are counted against ``signed_cap``, then ``cap``, before any is built."""
    if kind == "dMonotone":
        universe: Sequence = db.sorted_facts
        table = _d_monotone_table(q, db, cap)
    elif kind in ("signed", "positive"):
        n = len(db.facts) if kind == "positive" else completion_size(
            db, restrict_to=neg_rels(q), extra_relations=q.relations, cap=signed_cap
        )
        if n > cap:
            raise CapExceededError(
                f"listing all supports over {n} facts needs 2^{n} checks (cap {cap})"
            )
        universe = (  # the completion is built where it lists the players
            signed_database_restricted(db, q, cap=signed_cap).sorted_facts
            if kind == "signed" else db.sorted_facts
        )
        table = coalition_table(len(universe), compile_witnesses(q, db, kind, universe))
    else:
        raise SemanticError(f"unknown support kind {kind!r}")
    minimal = set(_minimal_masks(table, len(universe)))  # every family is closed upwards
    return sorted(
        (SupportSet(kind, _members(universe, S), S in minimal) for S in _indices(table)),
        key=_support_order,
    )
