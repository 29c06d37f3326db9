"""Exact responsibility scores: Shapley values of wealth games over facts.

Five wealth functions are supported, each turning a query and database into
a cooperative game whose players are facts:

* ``drastic`` — players are the database facts; a coalition earns 1 when it
  satisfies the query on its own (negation checked inside the coalition).
  The game is not monotone, so scores may be negative.
* ``signed-drastic`` — players are the signed completion restricted to the
  negated relations; a coalition earns 1 when it satisfies the
  sign-transformed query.
* ``positive-drastic`` — players are the database facts; a coalition earns 1
  when it contains a positive support (negation checked against the full
  database).
* ``ms-signed`` / ``mps`` — the coalition's wealth is the number of minimal
  signed (resp. positive) supports it contains.

For the two counting games the Shapley value has a closed form: the sum of
``w(|S|)`` over the minimal supports S containing the target, where the
reciprocal weight ``w(k) = 1/k`` recovers the Shapley value exactly and
other weights give the general weighted-sum-of-minimal-supports scores.
`ms_scores` evaluates it for every player from one enumeration of the
minimal supports.

All arithmetic is over `fractions.Fraction`; nothing here rounds.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Literal, Mapping, Union

from .core import Database, Fact, SignedFact, signed_database
from .errors import CapExceededError, PlayerSetError
from .query import Query, sign_transform, signed_database_restricted
from .supports import (
    is_positive_support,
    minimal_positive_supports,
    minimal_signed_supports,
    satisfies,
    signed_satisfies,
)

#: 8! = 40320 orderings; beyond this the permutation route is refused.
DEFAULT_PERMUTATION_CAP = 8
#: 2^20 coalitions; beyond this the subset route is refused.
DEFAULT_SUBSET_CAP = 20

Player = Union[Fact, SignedFact]
SupportMode = Literal["signed", "positive"]

WeightFunction = Callable[[int], Fraction]


def reciprocal_weight(k: int) -> Fraction:
    return Fraction(1, k)


def constant_weight(k: int) -> Fraction:
    return Fraction(1)


WEIGHT_FUNCTIONS: Mapping[str, WeightFunction] = {
    "reciprocal": reciprocal_weight,
    "constant": constant_weight,
}


class WealthKind(str, Enum):
    """The available coalition games; values double as CLI measure names."""

    DRASTIC_DIRECT = "drastic"
    SIGNED_DRASTIC = "signed-drastic"
    POSITIVE_DRASTIC = "positive-drastic"
    MS_SIGNED = "ms-signed"
    MPS_POSITIVE = "mps"

    @property
    def signed_players(self) -> bool:
        return self in (WealthKind.SIGNED_DRASTIC, WealthKind.MS_SIGNED)

    @property
    def support_mode(self) -> SupportMode | None:
        if self is WealthKind.MS_SIGNED:
            return "signed"
        if self is WealthKind.MPS_POSITIVE:
            return "positive"
        return None


@dataclass(frozen=True)
class Game:
    """A wealth function bound to its player set, with memoized evaluation."""

    kind: WealthKind
    q: Query
    db: Database
    players: tuple[Player, ...]
    _evaluate: Callable[[frozenset], Fraction] = field(repr=False, compare=False)
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    def wealth(self, coalition: Iterable[Player]) -> Fraction:
        coalition = frozenset(coalition)
        if not coalition <= set(self.players):
            raise PlayerSetError("coalition contains non-players")
        return self._wealth(coalition)

    def _wealth(self, coalition: frozenset) -> Fraction:
        value = self._memo.get(coalition)
        if value is None:
            value = self._memo[coalition] = self._evaluate(coalition)
        return value


def make_game(
    q: Query,
    db: Database,
    kind: WealthKind,
    *,
    signed_cap: int | None = None,
    full_completion: bool = False,
) -> Game:
    """Bind a wealth kind to a concrete query and database.

    Signed games play over the completion restricted to the query's negated
    relations; ``full_completion`` widens that to every relation, which
    leaves the scores of the restricted players unchanged (the extra players
    are null) and is exposed so that invariance can be checked.
    """
    kind = WealthKind(kind)
    if kind.signed_players:
        if full_completion:
            completion = signed_database(
                db, extra_relations=q.relations, cap=signed_cap
            )
        else:
            completion = signed_database_restricted(db, q, cap=signed_cap)
        players: tuple[Player, ...] = completion.sorted_facts
    else:
        players = db.sorted_facts

    if kind is WealthKind.DRASTIC_DIRECT:
        evaluate = lambda S: Fraction(1) if satisfies(q, S) else Fraction(0)
    elif kind is WealthKind.SIGNED_DRASTIC:
        transformed = sign_transform(q)
        evaluate = lambda S: (
            Fraction(1) if signed_satisfies(transformed, S) else Fraction(0)
        )
    elif kind is WealthKind.POSITIVE_DRASTIC:
        evaluate = lambda S: (
            Fraction(1) if is_positive_support(S, q, db) else Fraction(0)
        )
    else:
        supports = tuple(_mode_supports(q, db, kind.support_mode, signed_cap))
        evaluate = lambda S: Fraction(sum(1 for m in supports if m <= S))

    return Game(kind=kind, q=q, db=db, players=players, _evaluate=evaluate)


def _require_player(game: Game, target: Player) -> None:
    if target not in game.players:
        raise PlayerSetError(
            f"{target} is not a player of the {game.kind.value} game "
            f"({len(game.players)} players)"
        )


# ---------------------------------------------------------------------------
# The two generic routes
# ---------------------------------------------------------------------------


def shapley_permutation(
    game: Game, target: Player, *, cap: int = DEFAULT_PERMUTATION_CAP
) -> Fraction:
    """Average marginal contribution over every ordering of the players."""
    _require_player(game, target)
    n = len(game.players)
    if n > cap:
        raise CapExceededError(f"{n} players means {n}! orderings (cap {cap})")
    total = Fraction(0)
    for ordering in itertools.permutations(game.players):
        prefix = frozenset(itertools.takewhile(lambda p: p != target, ordering))
        total += game._wealth(prefix | {target}) - game._wealth(prefix)
    return total / math.factorial(n)


def permutation_marginal_counts(
    game: Game, target: Player, *, cap: int = DEFAULT_PERMUTATION_CAP
) -> dict[Fraction, int]:
    """How many orderings give each marginal contribution value."""
    _require_player(game, target)
    n = len(game.players)
    if n > cap:
        raise CapExceededError(f"{n} players means {n}! orderings (cap {cap})")
    counts: Counter = Counter()
    for ordering in itertools.permutations(game.players):
        prefix = frozenset(itertools.takewhile(lambda p: p != target, ordering))
        counts[game._wealth(prefix | {target}) - game._wealth(prefix)] += 1
    return dict(counts)


def shapley_permutation_all(
    game: Game, *, cap: int = DEFAULT_PERMUTATION_CAP
) -> dict[Player, Fraction]:
    """Permutation-route values for every player from a single scan.

    Each ordering is walked once, crediting every player with its marginal
    contribution at its own position; this is the same average as
    `shapley_permutation`, amortized.
    """
    n = len(game.players)
    if n > cap:
        raise CapExceededError(f"{n} players means {n}! orderings (cap {cap})")
    totals: dict[Player, Fraction] = {p: Fraction(0) for p in game.players}
    for ordering in itertools.permutations(game.players):
        coalition = frozenset()
        before = game._wealth(coalition)
        for player in ordering:
            coalition = coalition | {player}
            after = game._wealth(coalition)
            totals[player] += after - before
            before = after
    orderings = math.factorial(n)
    return {p: total / orderings for p, total in totals.items()}


def shapley_subset(
    game: Game, target: Player, *, cap: int = DEFAULT_SUBSET_CAP
) -> Fraction:
    """Coefficient form: Σ over coalitions S of |S|!(n-1-|S|)!/n! times the
    marginal contribution of the target to S."""
    _require_player(game, target)
    n = len(game.players)
    if n > cap:
        raise CapExceededError(f"{n} players means 2^{n - 1} coalitions (cap {cap})")
    others = [p for p in game.players if p != target]
    n_fact = math.factorial(n)
    total = Fraction(0)
    for size in range(len(others) + 1):
        coeff = Fraction(math.factorial(size) * math.factorial(n - 1 - size), n_fact)
        for combo in itertools.combinations(others, size):
            coalition = frozenset(combo)
            total += coeff * (
                game._wealth(coalition | {target}) - game._wealth(coalition)
            )
    return total


# ---------------------------------------------------------------------------
# Closed form: one pass over the minimal supports scores every player
# ---------------------------------------------------------------------------


def _mode_supports(
    q: Query, db: Database, mode: SupportMode, cap: int | None
) -> list[frozenset]:
    if mode == "signed":
        return [s.elements for s in minimal_signed_supports(q, db, cap=cap)]
    return [s.elements for s in minimal_positive_supports(q, db)]


def _check_target(
    q: Query, db: Database, target: Player, mode: SupportMode, cap: int | None
) -> None:
    if mode == "signed":
        if not isinstance(target, SignedFact):
            raise PlayerSetError("signed mode scores signed facts; got a plain fact")
        restricted = signed_database_restricted(db, q, cap=cap)
        if target not in restricted.signed_facts:
            raise PlayerSetError(
                f"{target} is not in the signed completion restricted to the "
                f"query's negated relations"
            )
    else:
        if not isinstance(target, Fact):
            raise PlayerSetError("positive mode scores plain facts; got a signed fact")
        if target not in db.facts:
            raise PlayerSetError(f"{target} is not in the database")


@dataclass(frozen=True)
class MsShapleyResult:
    """Score plus the sizes of the minimal supports that produced it."""

    score: Fraction
    supports_by_size: Mapping[int, int]


def ms_scores(
    q: Query,
    db: Database,
    *,
    weight: WeightFunction = reciprocal_weight,
    mode: SupportMode = "signed",
    signed_cap: int | None = None,
) -> dict[Player, MsShapleyResult]:
    """Every player's Σ of ``weight(|S|)`` over the minimal supports S
    containing it, from one enumeration of the minimal supports.

    The players are the restricted signed completion (signed mode) or the
    database facts (positive mode), in sorted order; players in no minimal
    support score 0 with an empty size histogram.  With the reciprocal
    weight each score is the Shapley value of the counting game.
    """
    if mode == "signed":
        players = signed_database_restricted(db, q, cap=signed_cap).sorted_facts
    else:
        players = db.sorted_facts
    by_size: dict[Player, Counter] = {}
    for support in _mode_supports(q, db, mode, signed_cap):
        for p in support:
            by_size.setdefault(p, Counter())[len(support)] += 1
    scores = {}
    for p in players:
        sizes = by_size.get(p, {})
        scores[p] = MsShapleyResult(
            score=sum((weight(k) * n for k, n in sizes.items()), Fraction(0)),
            supports_by_size=dict(sorted(sizes.items())),
        )
    return scores


def ms_shapley(
    q: Query,
    db: Database,
    target: Player,
    *,
    weight: WeightFunction = reciprocal_weight,
    mode: SupportMode = "signed",
    signed_cap: int | None = None,
) -> MsShapleyResult:
    """One player's entry of `ms_scores`, after checking it is a player."""
    _check_target(q, db, target, mode, signed_cap)
    return ms_scores(q, db, weight=weight, mode=mode, signed_cap=signed_cap)[target]


def wsms_closed_form(
    q: Query,
    db: Database,
    target: Player,
    *,
    weight: WeightFunction = reciprocal_weight,
    mode: SupportMode = "signed",
    signed_cap: int | None = None,
) -> Fraction:
    """Σ of ``weight(|S|)`` over the minimal supports S containing the
    target: the score of `ms_shapley`.  With the reciprocal weight this is
    the Shapley value of the corresponding counting game."""
    return ms_shapley(
        q, db, target, weight=weight, mode=mode, signed_cap=signed_cap
    ).score
