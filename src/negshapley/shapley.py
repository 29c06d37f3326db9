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

`scores` is the one entry point: it counts the players, refuses a target
that is no player, picks the route, and hands the players it counted back
with the scores.  For the two counting games the Shapley value has a
closed form, `support_values`: the sum of ``w(|S|)`` over the minimal
supports S containing the target, where the reciprocal weight
``w(k) = 1/k`` recovers the Shapley value exactly and other weights give
the general weighted-sum-of-minimal-supports scores.  The Boolean
games take `game_values`, the subset formula over the coalition table of
their witness players.  Both return the values of the support members or
witness players and the one value every other player shares.
`ms_shapley` scores one player by the closed form.  The other per-player
routes (`shapley_values`, `shapley_subset`, `ms_scores`) and the
permutation definition are in `negshapley.reference`, which no command
loads; their names still resolve here.

All arithmetic is over `fractions.Fraction`; nothing here rounds.  `Game`,
`MsShapleyResult` and `Scores` are named tuples, equal to the tuples of
their fields.
"""
from __future__ import annotations

import math
from collections import Counter
from enum import Enum
from functools import cached_property
from typing import (TYPE_CHECKING, Any, Callable, Collection, Iterable, Literal, Mapping,
                    NamedTuple, Union)

from .core import Database, Fact, SignedDatabase, SignedFact, moved
from .errors import CapExceededError, PlayerSetError, SemanticError
from .query import Query, signed_database_restricted
from .supports import (
    SupportSet,
    Witness,
    coalition_halves,
    coalition_sizes,
    coalition_table,
    compile_witnesses,
    satisfies,  # noqa: F401 - perfbench's tracer finds query evaluation by this name
    support_families,
    witness_masks,
)

# `fractions`, and `decimal` and `numbers` with it, is imported where a score
# is built, so that a command that never scores does not load it.
if TYPE_CHECKING:
    from fractions import Fraction

    WeightFunction = Callable[[int], Fraction]

#: 2^20 coalitions; beyond this the subset route is refused.
DEFAULT_SUBSET_CAP = 20

Player = Union[Fact, SignedFact]
SupportMode = Literal["signed", "positive"]


def reciprocal_weight(k: int) -> Fraction:
    from fractions import Fraction

    return Fraction(1, k)


def constant_weight(k: int) -> Fraction:
    from fractions import Fraction

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
    players: Collection[Player]


class Game(_GameFields):
    """A wealth function bound to its players, any collection, counted
    (`size`) and tested but never listed: the tuple ``(kind, q, db, players)``.

    It is compiled on first use over its witness players, those some
    witness requires or forbids, in canonical order: ``drastic`` by
    `supports.compile_witnesses`, every other kind one witness per minimal
    support, searched for once.  Every other player is null and has no bit
    in a table.  No ``__slots__``: what is compiled is cached in ``__dict__``.
    """

    @cached_property
    def size(self) -> int:
        """The number of players, also past what ``len`` can report."""
        players = self.players
        return players.size if isinstance(players, SignedDatabase) else len(players)

    @cached_property
    def _supports(self) -> list[SupportSet]:
        """The minimal signed or positive supports (not for ``drastic``)."""
        family = "signed" if self.kind.signed_players else "positive"
        return support_families(self.q, self.db, family)[0]

    @cached_property
    def _compiled(self) -> tuple[tuple[Player, ...], tuple[Witness, ...]]:
        """The witness players and the witnesses over them (`supports.witness_masks`)."""
        if self.kind is WealthKind.DRASTIC_DIRECT:
            return witness_masks(compile_witnesses(self.q, self.db))
        return witness_masks((s.elements, frozenset()) for s in self._supports)

    @cached_property
    def _table(self) -> int:
        """The winning coalitions of the witness players (`supports.coalition_table`)."""
        players, witnesses = self._compiled
        return coalition_table(len(players), witnesses)

    def _worth(self, mask: int) -> int:
        """The wealth of the coalition of witness players with this bit mask."""
        fits = sum(mask & r == r and not mask & f for r, f in self._compiled[1])
        return fits if self.kind.support_mode is not None else min(fits, 1)

    def wealth(self, coalition: Iterable[Player]) -> Fraction:
        from fractions import Fraction

        coalition = frozenset(coalition)
        if any(p not in self.players for p in coalition):
            raise PlayerSetError("coalition contains non-players")
        return Fraction(self._worth(
            sum(1 << i for i, p in enumerate(self._compiled[0]) if p in coalition)))


def make_game(
    q: Query, db: Database, kind: WealthKind, *, signed_cap: int | None = None
) -> Game:
    """Bind a wealth kind to a concrete query and database, with its players
    counted, not built: the database, or for a signed game the completion
    restricted to the query's negated relations, capped at ``signed_cap``.
    The completion's other players are null, so leaving them out leaves
    every score unchanged."""
    kind = WealthKind(kind)
    players = signed_database_restricted(db, q, cap=signed_cap) if kind.signed_players else db
    return Game(kind, q, db, players)


def _require_player(game: Game, target: Player) -> None:
    if target not in game.players:
        raise PlayerSetError(f"{target} is not a player of the {game.kind.value} game "
                             f"({game.size} players)")


class MsShapleyResult(NamedTuple):
    """Score plus the sizes of the minimal supports that produced it."""

    score: Fraction
    supports_by_size: Mapping[int, int]


class Scores(NamedTuple):
    """The results of the players scored on their own, and the one result
    that every other player shares: a score, or the message of the cap that
    refused the game.  A report's column too (see `relevance.report`), whose
    row for a player keyed ``key`` holds ``values.get(key, other)``."""

    values: Mapping[Player, Any]
    other: Any


def scores(q: Query, db: Database, kind: WealthKind, *, target: Player | None = None,
           weight: WeightFunction = reciprocal_weight, subset_cap: int = DEFAULT_SUBSET_CAP,
           signed_cap: int | None = None) -> tuple[Database | SignedDatabase, Scores]:
    """The ``kind`` game's players, counted as `make_game` counts them, and
    the scores of ``target`` or of every player.  The completion's cap comes
    first, then a target that is no player is refused.  A counting measure
    takes the closed form over its minimal supports (`MsShapleyResult`s,
    under ``weight``), a Boolean game its coalition table (`Fraction`s).  A
    table above ``subset_cap`` players raises for a target; scoring every
    player, it gives no members, and its message is ``other``.
    """
    game = make_game(q, db, kind, signed_cap=signed_cap)
    if target is not None:
        _require_player(game, target)
    found = (support_values(game._supports, weight) if game.kind.support_mode is not None
             else game_values(game, subset_cap))
    if target is None:
        return game.players, found
    if isinstance(found.other, str):
        raise CapExceededError(found.other)
    return game.players, Scores({target: found.values.get(target, found.other)}, found.other)


def _too_many(n: int, cap: int) -> str:
    return f"{n} players means 2^{n - 1} coalitions (cap {cap})"


# -- The two kernels: one pass over the minimal supports, one coalition table --


def support_values(supports: Iterable[SupportSet],
                   weight: WeightFunction = reciprocal_weight) -> Scores:
    """Each support member's Σ of ``weight(|S|)`` over the minimal supports S
    containing it, with their size histogram; every other player scores 0.
    With the reciprocal weight each score is the Shapley value of the
    counting game: a sum of unanimity games, one per minimal support S,
    each giving its members 1/|S|."""
    from fractions import Fraction

    by_size: dict[Player, Counter] = {}
    for support in supports:
        for p in support.elements:
            by_size.setdefault(p, Counter())[len(support.elements)] += 1
    return Scores({
        p: MsShapleyResult(sum((weight(k) * n for k, n in sizes.items()), Fraction(0)),
                           dict(sorted(sizes.items())))
        for p, sizes in by_size.items()
    }, MsShapleyResult(Fraction(0), {}))


def game_values(game: Game, cap: int = DEFAULT_SUBSET_CAP) -> Scores:
    """Each of the m witness players' Shapley value by the subset formula: Σ
    over the coalitions S of the other witness players of |S|!(m-1-|S|)!/m!
    times the player's marginal contribution to S, counted per size of S in
    the coalition table, in integer numerators over m!; ``other`` is a null
    player's 0.  A counting game takes `support_values`, which builds no
    table, so ``cap`` (on all players) refuses Boolean games only: with no
    values, and its message as ``other``."""
    from fractions import Fraction

    if game.kind.support_mode is not None:
        values, other = support_values(game._supports)
        return Scores({p: r.score for p, r in values.items()}, other.score)
    try:  # a query too deep to search is refused here too
        if game.size > cap:
            raise CapExceededError(_too_many(game.size, cap))
        players, table = game._compiled[0], game._table
    except CapExceededError as exc:
        return Scores({}, str(exc))
    m = len(players)
    coefficients = [math.factorial(k) * math.factorial(m - 1 - k) for k in range(m)]
    sizes, m_fact = coalition_sizes(m), math.factorial(m)
    return Scores({
        p: Fraction(sum(c * ((win_with & size).bit_count() - (win_without & size).bit_count())
                        for c, size in zip(coefficients, sizes)), m_fact)
        for p, (win_with, win_without) in zip(players, coalition_halves(table, m))
    }, Fraction(0))


# -- The closed form by support mode --


def _counting(mode: SupportMode) -> WealthKind:
    """The counting measure over the minimal supports of ``mode``."""
    for kind in (WealthKind.MS_SIGNED, WealthKind.MPS_POSITIVE):
        if kind.support_mode == mode:
            return kind
    raise SemanticError(f"minimal supports are signed or positive, not {mode!r}")


def ms_shapley(q: Query, db: Database, target: Player, *,
               weight: WeightFunction = reciprocal_weight, mode: SupportMode = "signed",
               signed_cap: int | None = None) -> MsShapleyResult:
    """One player's entry of `ms_scores`, the completion counted, not built;
    a target that is no player is refused."""
    _, found = scores(q, db, _counting(mode), target=target, weight=weight,
                      signed_cap=signed_cap)
    return found.values[target]


__getattr__ = moved(__name__, dict.fromkeys((
    "DEFAULT_PERMUTATION_CAP", "ms_scores", "permutation_marginal_counts", "shapley_permutation",
    "shapley_subset", "shapley_values"), "reference"))
