"""Compiled Boolean games: players as bits, semantics as (required,
forbidden) masks, and a `Game`'s coalition table, read by its drastic
scores (`table_values`), impacts and D-monotone or exhaustive listing.
The one other table, `reference.is_d_monotone_support`'s, spans only the
witness players outside the set tested, the |db∖S| facts its cap counts.
Callers import this module within the cap on their table, so that no
other command, nor the command line's start-up, compiles it.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .core import Database, Fact
from .errors import CapExceededError, PlayerSetError
from .query import Query
from .relevance import ImpactKind
from .shapley import Game, Player, Scores, WealthKind
from .supports import FactLike, Listing, SupportKind, SupportSet, _in_order, _iter_assignments

if TYPE_CHECKING:
    from fractions import Fraction

    from .core import SignedDatabase

#: ``(required, forbidden)`` bit masks over a player tuple: a coalition
#: fits the witness when it holds every required player and no forbidden one.
Witness = tuple[int, int]


def compile_witnesses(q: Query, db: Database) -> set[tuple[frozenset[Fact], frozenset[Fact]]]:
    """The drastic game's witnesses as (required, forbidden) fact sets, from
    one assignment search over the database with negation checked inside
    the coalition: one per assignment, requiring its image and forbidding
    its grounded negated atoms that are stored.  The other games' witnesses
    are their minimal supports, with nothing forbidden."""
    return {(image, db.facts.intersection(map(Fact._make, absent)))
            for _, _, image, absent in _iter_assignments(q, db, frozenset())}


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


# -- A game's compiled parts, its Shapley values and its impacts --


def compiled(game: Game) -> tuple[tuple[Player, ...], tuple[Witness, ...]]:
    """`Game._compiled`: ``drastic`` by `compile_witnesses`, every other kind
    one witness per minimal support (`Game._supports`, searched for once)."""
    if game.kind is WealthKind.DRASTIC_DIRECT:
        return witness_masks(compile_witnesses(game.q, game.db))
    return witness_masks((s.elements, frozenset()) for s in game._supports)


def worth(game: Game, mask: int) -> int:
    """The wealth of the coalition of witness players with this bit mask:
    the witnesses that fit it, or whether one does."""
    fits = sum(mask & r == r and not mask & f for r, f in game._compiled[1])
    return fits if game.kind.support_mode is not None else min(fits, 1)


def wealth(game: Game, coalition: Iterable[Player]) -> Fraction:
    """`Game.wealth`: the wealth of a coalition of players."""
    from fractions import Fraction

    coalition = frozenset(coalition)
    if any(p not in game.players for p in coalition):
        raise PlayerSetError("coalition contains non-players")
    return Fraction(worth(game, sum(1 << i for i, p in enumerate(game._compiled[0])
                                    if p in coalition)))


def table_values(game: Game) -> Scores:
    """`shapley.game_values` within its cap: each of the m witness players'
    Shapley value by the subset formula, Σ over the coalitions S of the other
    witness players of |S|!(m-1-|S|)!/m! times the player's marginal
    contribution to S, counted per size of S in the coalition table, in
    integer numerators over m!; ``other`` is a null player's 0."""
    from fractions import Fraction

    try:  # a query too deep to search is refused here
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


def _impacts(drastic: Game) -> dict[Fact, ImpactKind]:
    """Each witness player's impact (a null player's is none), from the
    drastic game's table over them: it flips the query up on a subset that
    wins with it and not without it, and down the other way."""
    kinds = list(ImpactKind)  # none, positiveOnly, negativeOnly, both
    players = drastic._compiled[0]
    halves = coalition_halves(drastic._table, len(players))
    return {
        f: kinds[bool(win_with & ~win_without) + 2 * bool(win_without & ~win_with)]
        for f, (win_with, win_without) in zip(players, halves)
    }


# -- Support listings read off a table --


def _minimal_masks(table: int, n: int) -> list[int]:
    """The masks whose bit is set while no mask one player smaller has its
    bit set; these are the minimal ones when the table is closed upwards."""
    smaller = 0
    for i, mask in enumerate(player_masks(n)):
        smaller |= mask & table << (1 << i)
    return _indices(table & ~smaller)


def _members(players: Sequence, mask: int) -> frozenset:
    return frozenset(p for i, p in enumerate(players) if mask >> i & 1)


_LISTED = {"dMonotone": WealthKind.DRASTIC_DIRECT, "signed": WealthKind.SIGNED_DRASTIC,
           "positive": WealthKind.POSITIVE_DRASTIC}


def listing(q: Query, db: Database, kind: SupportKind,
            universe: Database | SignedDatabase | None = None) -> Listing:
    """The minimal supports of ``kind`` off its Boolean game's table, or with
    ``universe`` as the players, all supports: `supports`' listings past their caps."""
    game = Game(_LISTED[kind], q, db, db if universe is None else universe)
    players, table = game._compiled[0], game._table
    if kind == "dMonotone":  # the winning subsets all of whose supersets win
        for i, mask in enumerate(player_masks(len(players))):
            table &= mask | table >> (1 << i)  # S without player i needs S with it
    if universe is None:
        return _in_order(SupportSet(kind, _members(players, S), True)
                         for S in _minimal_masks(table, len(players)))
    named = set(players)  # every family is closed upwards: a null player doubles the table
    players += tuple(p for p in game.players.sorted_facts if p not in named)
    for i in range(len(named), len(players)):
        table |= table << (1 << i)
    minimal = set(_minimal_masks(table, len(players)))
    return _in_order(SupportSet(kind, _members(players, S), S in minimal) for S in _indices(table))
