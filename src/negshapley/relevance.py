"""Which facts matter: support membership and counterfactual impact.

A signed fact is *signed-relevant* when it occurs in some minimal signed
support, and a database fact is *positive-relevant* when it occurs in some
minimal positive support.  *Impact* is the counterfactual notion: a fact has
impact when adding it to some subset of the remaining database flips the
query's truth value, classified by the direction(s) of the flips observed.
A `RelevanceVerdict` is a named tuple, equal to the tuple of its fields.
"""
from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .core import Database, Fact, Sign, SignedFact, negative, positive
from .errors import CapExceededError, SemanticError
from .query import Query, signed_database_restricted
from .supports import (
    coalition_halves,
    minimal_positive_supports,
    minimal_signed_supports,
    satisfies,  # noqa: F401 - perfbench's tracer finds query evaluation by this name
    support_families,
)

# Imported after `.supports`, which `.shapley` imports too: where no bytecode
# cache is written, the larger `supports` then compiles while `shapley` is not
# yet resident, which keeps peak memory at start-up down.
from .shapley import Game, WealthKind, make_game

#: Impact classification enumerates ``2^(|db|-1)`` subsets per fact.
DEFAULT_IMPACT_CAP = 20


class ImpactKind(str, Enum):
    """Directions in which a fact can flip the query on some subset."""

    NONE = "none"
    POSITIVE_ONLY = "positiveOnly"
    NEGATIVE_ONLY = "negativeOnly"
    BOTH = "both"


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
    return _impacts(make_game(q, db, WealthKind.DRASTIC_DIRECT))[f]


def _impacts(drastic: Game) -> dict[Fact, ImpactKind]:
    """Every database fact's impact, from the drastic game's table of the
    query's truth on every subset of the database: the fact flips it up on
    a subset that wins with it and not without it, and down the other way."""
    kinds = list(ImpactKind)  # none, positiveOnly, negativeOnly, both
    return {
        f: kinds[bool(win_with & ~win_without) + 2 * bool(win_without & ~win_with)]
        for f, (win_with, win_without) in zip(
            drastic.players, coalition_halves(drastic._table, len(drastic.players))
        )
    }


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
    """Verdicts for every member of the restricted signed completion.

    Positive facts get all three columns; negative facts only the signed
    one.  When the database is too large for exhaustive impact search the
    impact column is skipped rather than failing the whole report.
    """
    *_, positives, negatives = _report(q, db, signed_cap, impact_cap)
    skipped = lambda impact: (None, True) if impact == "skipped" else (ImpactKind(impact), False)
    verdicts = [RelevanceVerdict(positive(f), signed, plain, *skipped(impact))
                for f, signed, plain, impact in positives]
    return verdicts + [RelevanceVerdict(negative(Fact(rel, args)), args in relevant, None, None)
                       for rel, absent, relevant in negatives for args in absent]


def _report(q: Query, db: Database, signed_cap: int | None, impact_cap: int = DEFAULT_IMPACT_CAP):
    """The minimal signed and positive supports, the drastic game, every
    database fact's impact as reports show it, and the report's rows in the
    completion's order, built as no signed fact: a stream of each database
    fact with whether it is signed-relevant, positive-relevant and its impact;
    then each negated relation with a stream of its ``-`` facts' argument
    tuples and the set of the signed-relevant ones.  Checks and cap at the call."""
    completion = signed_database_restricted(db, q, cap=signed_cap)
    signed, plain = support_families(q, db)
    drastic = make_game(q, db, WealthKind.DRASTIC_DIRECT)
    if len(db.facts) > impact_cap:
        impacts = dict.fromkeys(db.facts, "skipped")
    else:
        impacts = {f: kind.value for f, kind in _impacts(drastic).items()}
    in_signed = {sf for support in signed for sf in support.elements}
    in_plain = {f for support in plain for f in support.elements}
    positives = ((f, positive(f) in in_signed, f in in_plain, impacts[f]) for f in db.sorted_facts)
    negatives = [
        (rel, completion.absent(rel),
         {args for sign, (r, args) in in_signed if sign is Sign.NEGATIVE and r == rel})
        for rel in completion.negated
    ]
    return signed, plain, drastic, impacts, positives, negatives
