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

All arithmetic is over `fractions.Fraction`; nothing here rounds.  `Game`
and `MsShapleyResult` are named tuples, equal to the tuples of their fields.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Literal, Mapping, NamedTuple, Union

from .core import Database, Fact, Sign, SignedFact, completion_size
from .errors import CapExceededError, PlayerSetError
from .query import Query, neg_rels, signed_database_restricted
from .supports import (
    SupportSet,
    _members,
    _signed_supports,
    coalition_halves,
    coalition_sizes,
    coalition_table,
    compile_witnesses,
    minimal_positive_supports,
    satisfies,  # noqa: F401 - perfbench's tracer finds query evaluation by this name
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


class _GameFields(NamedTuple):
    kind: WealthKind
    q: Query
    db: Database
    players: tuple[Player, ...]


class Game(_GameFields):
    """A wealth function bound to its player set: the tuple ``(kind, q, db,
    players)``.

    The game is compiled on first use into witness masks over its players
    (see `supports.compile_witnesses`), so a game that a cap rejects never
    enumerates assignments.  No ``__slots__``: the compiled masks and table
    are cached in the instance ``__dict__``.
    """

    @cached_property
    def _index(self) -> dict[Player, int]:
        return {p: i for i, p in enumerate(self.players)}

    @cached_property
    def _witnesses(self) -> tuple[tuple[int, int], ...]:
        semantics = "signed" if self.kind.signed_players else "positive"
        if self.kind is WealthKind.DRASTIC_DIRECT:
            semantics = "drastic"
        return compile_witnesses(self.q, self.db, semantics, self.players)

    @cached_property
    def _table(self) -> int:
        """The winning coalitions of a Boolean game (`supports.coalition_table`)."""
        return coalition_table(len(self.players), self._witnesses)

    def _worth(self, mask: int) -> int:
        """The wealth of the coalition with this bit mask, from the witnesses."""
        fits = sum(mask & r == r and not mask & f for r, f in self._witnesses)
        return fits if self.kind.support_mode is not None else min(fits, 1)

    def wealth(self, coalition: Iterable[Player]) -> Fraction:
        coalition = frozenset(coalition)
        if any(p not in self._index for p in coalition):
            raise PlayerSetError("coalition contains non-players")
        return Fraction(self._worth(sum(1 << self._index[p] for p in coalition)))


def make_game(
    q: Query, db: Database, kind: WealthKind, *, signed_cap: int | None = None
) -> Game:
    """Bind a wealth kind to a concrete query and database.

    Signed games play over the completion restricted to the query's negated
    relations: the completion's other players are null, so leaving them out
    leaves every score unchanged.
    """
    kind = WealthKind(kind)
    if kind.signed_players:
        players: tuple[Player, ...] = signed_database_restricted(
            db, q, cap=signed_cap
        ).sorted_facts
    else:
        players = db.sorted_facts
    return Game(kind=kind, q=q, db=db, players=players)


def _require_player(game: Game, target: Player) -> None:
    if target not in game.players:
        raise PlayerSetError(
            f"{target} is not a player of the {game.kind.value} game "
            f"({len(game.players)} players)"
        )


# ---------------------------------------------------------------------------
# The subset route, and the permutation definition as a reference
# ---------------------------------------------------------------------------


def shapley_values(game: Game, *, cap: int = DEFAULT_SUBSET_CAP) -> dict[Player, Fraction]:
    """Every player's Shapley value by the subset formula: Σ over the
    coalitions S of the other players of |S|!(n-1-|S|)!/n! times the
    player's marginal contribution to S, counted per size of S in the
    coalition table, in integer numerators over n!.  A counting game is a
    sum of unanimity games, one per minimal support S, and each gives its
    members 1/|S|: the closed form, which builds no table, so ``cap`` (on
    the players of a table) refuses Boolean games only."""
    if game.kind.support_mode is not None:
        mode, players = game.kind.support_mode, game.players
        supports = [SupportSet(mode, _members(players, r), True) for r, _ in game._witnesses]
        return {p: r.score for p, r in _ms_results(players, supports, reciprocal_weight).items()}
    n = len(game.players)
    _table_cap(n, cap)
    coefficients = [math.factorial(k) * math.factorial(n - 1 - k) for k in range(n)]
    sizes, n_fact = coalition_sizes(n), math.factorial(n)
    return {
        p: Fraction(sum(c * ((win_with & size).bit_count() - (win_without & size).bit_count())
                        for c, size in zip(coefficients, sizes)), n_fact)
        for p, (win_with, win_without) in zip(game.players, coalition_halves(game._table, n))
    }


def _table_cap(n: int, cap: int) -> None:
    """Refuse the coalition table of ``n`` players above ``cap`` players."""
    if n > cap:
        raise CapExceededError(f"{n} players means 2^{n - 1} coalitions (cap {cap})")


def shapley_subset(
    game: Game, target: Player, *, cap: int = DEFAULT_SUBSET_CAP
) -> Fraction:
    """One player's entry of `shapley_values`."""
    _require_player(game, target)
    return shapley_values(game, cap=cap)[target]


def permutation_marginal_counts(
    game: Game, target: Player, *, cap: int = DEFAULT_PERMUTATION_CAP
) -> dict[Fraction, int]:
    """How many orderings of the players give each marginal contribution
    value of the target, walking every ordering."""
    _require_player(game, target)
    n = len(game.players)
    if n > cap:
        raise CapExceededError(f"{n} players means {n}! orderings (cap {cap})")
    worth = [game._worth(mask) for mask in range(1 << n)]
    bit, counts = 1 << game._index[target], Counter()
    for ordering in itertools.permutations([1 << i for i in range(n)]):
        prefix = sum(itertools.takewhile(bit.__ne__, ordering))
        counts[worth[prefix | bit] - worth[prefix]] += 1
    return {Fraction(value): count for value, count in counts.items()}


def shapley_permutation(
    game: Game, target: Player, *, cap: int = DEFAULT_PERMUTATION_CAP
) -> Fraction:
    """Average marginal contribution over every ordering of the players."""
    counts = permutation_marginal_counts(game, target, cap=cap)
    total = sum((value * count for value, count in counts.items()), Fraction(0))
    return total / math.factorial(len(game.players))


# ---------------------------------------------------------------------------
# Closed form: one pass over the minimal supports scores every player
# ---------------------------------------------------------------------------


class MsShapleyResult(NamedTuple):
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
        restricted = signed_database_restricted(db, q, cap=signed_cap)
        players, supports = restricted.sorted_facts, _signed_supports(q, db)
    else:
        players, supports = db.sorted_facts, minimal_positive_supports(q, db)
    return _ms_results(players, supports, weight)


def _ms_results(
    players: Iterable[Player], supports: Iterable[SupportSet], weight: WeightFunction
) -> dict[Player, MsShapleyResult]:
    """`ms_scores` over minimal supports the caller has enumerated."""
    by_size: dict[Player, Counter] = {}
    for support in supports:
        for p in support.elements:
            by_size.setdefault(p, Counter())[len(support.elements)] += 1
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
    """One player's entry of `ms_scores`, the completion counted, not built;
    a target that is no player is refused."""
    if mode == "signed":
        negated = neg_rels(q)
        completion_size(db, restrict_to=negated, extra_relations=q.relations, cap=signed_cap)
        supports, f = _signed_supports(q, db), getattr(target, "fact", None)
        is_player = isinstance(target, SignedFact) and (
            f in db.facts if target.sign is Sign.POSITIVE else f not in db.facts
            and f.relation in negated and db.active_domain.issuperset(f.args)
        )
    else:
        supports = minimal_positive_supports(q, db)
        is_player = target in db.facts
    if is_player:
        return _ms_results([target], supports, weight)[target]
    if mode == "signed":
        if not isinstance(target, SignedFact):
            raise PlayerSetError("signed mode scores signed facts; got a plain fact")
        raise PlayerSetError(
            f"{target} is not in the signed completion restricted to the "
            f"query's negated relations"
        )
    if not isinstance(target, Fact):
        raise PlayerSetError("positive mode scores plain facts; got a signed fact")
    raise PlayerSetError(f"{target} is not in the database")

