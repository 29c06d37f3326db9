"""The library-only API: per-set support tests, per-fact relevance
verdicts, per-player Shapley routes and bounded entailment.  Every
command answers through `supports.support_families`, `relevance.report`
and `shapley.scores` instead, so starting the command line does not
compile this module; the old names (``supports.is_signed_support``,
``relevance.relevance_report``, ``shapley.shapley_values`` and the rest)
import it on first use.

* `satisfying_assignments` lists a query's assignments; `signed_satisfies`
  and the ``is_*_support`` tests decide one set.
* `signed_relevant`, `positive_relevant` and `impact_relevant` decide one
  fact; `relevance_report` reads every fact's `RelevanceVerdict` off
  `relevance.report`'s columns.
* `shapley_values` and `shapley_subset` read `shapley.support_values` or
  `shapley.game_values`, `ms_scores` `shapley.scores`; `shapley_permutation`
  and `permutation_marginal_counts` walk the permutation definition, the
  reference the subset formula is checked against.
* `entailment_supports_bounded` decides entailment over a finite domain.

`RelevanceVerdict` is a named tuple, equal to the tuple of its fields.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .core import Database, Fact, Sign, SignedFact, _unique_schema, positive
from .errors import CapExceededError, SemanticError
from .games import _impacts, coalition_table, compile_witnesses, witness_masks, worth
from .query import Query, _check_arity_compatible, sign_transform
from .relevance import DEFAULT_IMPACT_CAP, ImpactKind, report
from .shapley import (DEFAULT_SUBSET_CAP, Game, MsShapleyResult, Player, SupportMode, WealthKind,
                      _counting, _require_player, game_values, make_game, reciprocal_weight,
                      scores, support_values)
from .supports import (DEFAULT_DMONOTONE_CAP, FactLike, _has_assignment, _iter_assignments,
                       minimal_positive_supports, minimal_signed_supports)

if TYPE_CHECKING:
    from .shapley import WeightFunction


# ---------------------------------------------------------------------------
# Assignments and per-set support tests
# ---------------------------------------------------------------------------


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
        for idx, binding, _, _ in _iter_assignments(q, facts, context)
    }
    return [(idx, dict(items)) for idx, items in sorted(results)]


def signed_satisfies(q_signed: Query, signed_facts: Iterable[SignedFact]) -> bool:
    """Truth of an already sign-transformed query on a set of signed facts."""
    return _has_assignment(q_signed, signed_facts, None)


def _validate_signed_subset(S: Iterable[SignedFact], q: Query, db: Database) -> None:
    _check_arity_compatible(q, db.schema)
    schema = q.relations | db.schema  # one arity per name, by the check
    for sf in S:
        rel, stored = sf.fact.relation, sf.fact in db.facts
        if rel not in schema:
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


def is_positive_support(S: Iterable[Fact], q: Query, db: Database) -> bool:
    """Whether the positive atoms can embed into ``S`` with negation checked
    against the full database."""
    S = frozenset(S)
    if not S <= db.facts:
        raise SemanticError("a positive support must be a subset of the database")
    return _has_assignment(q, S, db)


def is_d_monotone_support(
    S: Iterable[Fact], q: Query, db: Database, *, cap: int = DEFAULT_DMONOTONE_CAP
) -> bool:
    """Whether every superset of ``S`` within the database satisfies the query.

    A drastic witness that forbids a member of ``S`` fits no superset; the
    others, less ``S``, must cover every subset of their players.
    """
    S = frozenset(S)
    if not S <= db.facts:
        raise SemanticError("a D-monotone support must be a subset of the database")
    rest = len(db.facts) - len(S)
    if rest > cap:
        raise CapExceededError(f"D-monotonicity would check 2^{rest} supersets (cap {cap})")
    players, witnesses = witness_masks((r - S, f) for r, f in compile_witnesses(q, db) if not f & S)
    return coalition_table(len(players), witnesses) == (1 << (1 << len(players))) - 1


# ---------------------------------------------------------------------------
# Per-fact relevance verdicts
# ---------------------------------------------------------------------------


def signed_relevant(
    subject: SignedFact | Fact, q: Query, db: Database, *, cap: int | None = None
) -> bool:
    """Whether the signed fact occurs in some minimal signed support.

    A plain fact is taken with positive sign.
    """
    if isinstance(subject, Fact):
        subject = positive(subject)
    return any(
        subject in s.elements for s in minimal_signed_supports(q, db, cap=cap)
    )


def positive_relevant(f: Fact, q: Query, db: Database) -> bool:
    """Whether the fact occurs in some minimal positive support."""
    return any(f in s.elements for s in minimal_positive_supports(q, db))


def impact_relevant(
    f: Fact, q: Query, db: Database, *, cap: int = DEFAULT_IMPACT_CAP
) -> ImpactKind:
    """Classify how adding ``f`` to subsets of the rest of the database can
    change the query's truth value."""
    if f not in db.facts:
        raise SemanticError(f"{f} is not in the database")
    if len(db.facts) > cap:
        raise CapExceededError(
            f"impact over {len(db.facts)} facts enumerates "
            f"2^{len(db.facts) - 1} subsets (cap {cap})"
        )
    return _impacts(make_game(q, db, WealthKind.DRASTIC_DIRECT)).get(f, ImpactKind.NONE)


class RelevanceVerdict(NamedTuple):
    """One row of a relevance report.

    ``positive_relevant`` and ``impact`` are ``None`` for negative facts,
    where only the signed notion applies; ``impact`` is also ``None`` when
    its computation was skipped (see ``impact_skipped``).
    """

    subject: SignedFact
    signed_relevant: bool
    positive_relevant: bool | None
    impact: ImpactKind | None
    impact_skipped: bool = False


def relevance_report(
    q: Query,
    db: Database,
    *,
    impact_cap: int = DEFAULT_IMPACT_CAP,
    signed_cap: int | None = None,
) -> list[RelevanceVerdict]:
    """Verdicts for every member of the restricted signed completion, from
    `report`'s columns: positive facts get all three, negative facts only
    the signed one.  Above ``impact_cap`` facts impact is skipped rather
    than failing the whole report."""
    completion, columns = report(q, db, impact_cap=impact_cap, signed_cap=signed_cap)
    (signed, _), (plain, _), (impacts, _) = columns

    def verdict(sf: SignedFact) -> RelevanceVerdict:
        if sf.sign is Sign.NEGATIVE:
            return RelevanceVerdict(sf, sf in signed.values, None, None)
        impact = impacts.values.get(sf.fact, impacts.other)
        return RelevanceVerdict(sf, sf in signed.values, sf.fact in plain.values, *(
            (None, True) if impact == "skipped" else (ImpactKind(impact), False)))

    return list(map(verdict, completion))


# ---------------------------------------------------------------------------
# Per-player scores, and the permutation definition as a reference
# ---------------------------------------------------------------------------

#: 8! = 40320 orderings; beyond this the permutation route is refused.
DEFAULT_PERMUTATION_CAP = 8


def shapley_values(game: Game, *, cap: int = DEFAULT_SUBSET_CAP) -> dict[Player, Fraction]:
    """Every player's Shapley value, in player order: `game_values` for a
    Boolean game, whose table ``cap`` may refuse, raising; `support_values`,
    which builds no table, for a counting game."""
    if game.kind.support_mode is not None:
        values, other = support_values(game._supports)
        return {p: values.get(p, other).score for p in game.players}
    values, other = game_values(game, cap)
    if isinstance(other, str):
        raise CapExceededError(other)
    return {p: values.get(p, other) for p in game.players}


def shapley_subset(game: Game, target: Player, *, cap: int = DEFAULT_SUBSET_CAP) -> Fraction:
    """One player's entry of `shapley_values`."""
    _require_player(game, target)
    return shapley_values(game, cap=cap)[target]


def ms_scores(q: Query, db: Database, *, weight: WeightFunction = reciprocal_weight,
              mode: SupportMode = "signed", signed_cap: int | None = None
              ) -> dict[Player, MsShapleyResult]:
    """Every player's `scores` under the counting measure of ``mode``, in
    player order: the restricted signed completion (signed mode) or the
    database facts (positive mode); players in no minimal support score 0
    with an empty size histogram."""
    players, (values, other) = scores(q, db, _counting(mode), weight=weight,
                                      signed_cap=signed_cap)
    return {p: values.get(p, other) for p in players}


def permutation_marginal_counts(
    game: Game, target: Player, *, cap: int = DEFAULT_PERMUTATION_CAP
) -> dict[Fraction, int]:
    """How many of the n! orderings of the players give each marginal
    contribution value of the target.  The value depends only on the order
    of the witness players and the target among themselves, so each of the
    k! orderings of those k players is walked once and counts n!/k! times."""
    n = game.size
    _require_player(game, target)
    if n > cap:
        raise CapExceededError(f"{n} players means {n}! orderings (cap {cap})")
    players = game._compiled[0]
    m = len(players)
    wealth = [worth(game, mask) for mask in range(1 << m)]
    own = players.index(target) if target in players else m  # bit m: in no witness
    bit, k, counts = 1 << own, max(m, own + 1), Counter()
    for ordering in itertools.permutations([1 << i for i in range(k)]):
        prefix = sum(itertools.takewhile(bit.__ne__, ordering))
        counts[wealth[(prefix | bit) & ~(1 << m)] - wealth[prefix]] += 1
    scale = math.factorial(n) // math.factorial(k)
    return {Fraction(value): count * scale for value, count in counts.items()}


def shapley_permutation(
    game: Game, target: Player, *, cap: int = DEFAULT_PERMUTATION_CAP
) -> Fraction:
    """Average marginal contribution over every ordering of the players."""
    counts = permutation_marginal_counts(game, target, cap=cap)
    total = sum((value * count for value, count in counts.items()), Fraction(0))
    return total / math.factorial(game.size)


# ---------------------------------------------------------------------------
# Bounded entailment
# ---------------------------------------------------------------------------

#: The bounded entailment check reasons over all facts expressible in the domain.
DEFAULT_ENTAILMENT_CAP = 24
#: It holds one clause per assignment, which the cap above does not bound:
#: a fixed limit, not a flag, checked as each clause is added.
MAX_CLAUSES = 2**16


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
    databases.  Raises :class:`CapExceededError` above ``cap`` candidate
    facts, or once a clause past `MAX_CLAUSES` is found.
    """
    S = frozenset(S)
    domain = sorted(set(domain))
    pos = {sf.fact for sf in S if sf.sign is Sign.POSITIVE}
    neg = {sf.fact for sf in S if sf.sign is Sign.NEGATIVE}
    if pos & neg:
        return True  # no database is compatible with both signs of one fact
    relations = sorted({*q.relations, *(f.relation for f in pos | neg)})
    _unique_schema(relations)  # one arity per name, or `ArityError`
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
    for _, _, image, absent in _iter_assignments(q, index.keys() - neg, pos):
        clause = frozenset(
            [-index[f] - 1 for f in image - pos]
            + [index[f] + 1 for f in absent if f in index and f not in neg]
        )
        if not clause:
            return True  # witnessed by the forced facts alone
        if len(clauses) == MAX_CLAUSES:
            raise CapExceededError(
                f"bounded entailment needs more than {MAX_CLAUSES} clauses, one per "
                f"assignment (limit {MAX_CLAUSES})"
            )
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
