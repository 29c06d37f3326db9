"""The library-only API: per-set support tests, per-fact relevance
verdicts and the per-player Shapley routes.  Every command answers through
`supports.support_families`, `relevance.report` and `shapley.scores`
instead, so starting the command line does not compile this module; the
old names (``supports.is_signed_support``, ``relevance.relevance_report``,
``shapley.shapley_values`` and the rest) import it on first use.

* `satisfying_assignments` lists a query's assignments; `signed_satisfies`
  and the ``is_*_support`` tests decide one set.
* `signed_relevant`, `positive_relevant` and `impact_relevant` decide one
  fact; `relevance_report` reads every fact's `RelevanceVerdict` off
  `relevance.report`'s columns.
* `shapley_values` and `shapley_subset` read `shapley.game_values`;
  `ms_scores` reads `shapley.scores`; `shapley_permutation` and
  `permutation_marginal_counts` walk the permutation definition, the
  reference the subset formula is checked against.

`RelevanceVerdict` is a named tuple, equal to the tuple of its fields.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .core import Database, Fact, Sign, SignedFact, positive
from .errors import CapExceededError, SemanticError
from .query import Query, sign_transform
from .relevance import DEFAULT_IMPACT_CAP, ImpactKind, _impacts, report
from .shapley import (DEFAULT_SUBSET_CAP, Game, MsShapleyResult, Player, SupportMode, WealthKind,
                      _counting, _require_player, game_values, make_game, reciprocal_weight,
                      scores)
from .supports import (DEFAULT_DMONOTONE_CAP, FactLike, _has_assignment, _iter_assignments,
                       coalition_table, compile_witnesses, minimal_positive_supports,
                       minimal_signed_supports, witness_masks)

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
        for idx, binding, _ in _iter_assignments(q, facts, context)
    }
    return [(idx, dict(items)) for idx, items in sorted(results)]


def signed_satisfies(q_signed: Query, signed_facts: Iterable[SignedFact]) -> bool:
    """Truth of an already sign-transformed query on a set of signed facts."""
    return _has_assignment(q_signed, signed_facts, None)


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
    """`game_values` for every player, in player order; a refused table raises."""
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
    worth = [game._worth(mask) for mask in range(1 << m)]
    own = players.index(target) if target in players else m  # bit m: in no witness
    bit, k, counts = 1 << own, max(m, own + 1), Counter()
    for ordering in itertools.permutations([1 << i for i in range(k)]):
        prefix = sum(itertools.takewhile(bit.__ne__, ordering))
        counts[worth[(prefix | bit) & ~(1 << m)] - worth[prefix]] += 1
    scale = math.factorial(n) // math.factorial(k)
    return {Fraction(value): count * scale for value, count in counts.items()}


def shapley_permutation(
    game: Game, target: Player, *, cap: int = DEFAULT_PERMUTATION_CAP
) -> Fraction:
    """Average marginal contribution over every ordering of the players."""
    counts = permutation_marginal_counts(game, target, cap=cap)
    total = sum((value * count for value, count in counts.items()), Fraction(0))
    return total / math.factorial(game.size)
