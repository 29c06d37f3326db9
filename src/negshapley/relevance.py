"""Which facts matter: support membership and counterfactual impact.

A signed fact is *signed-relevant* when it occurs in some minimal signed
support, and a database fact is *positive-relevant* when it occurs in some
minimal positive support.  *Impact* is the counterfactual notion: a fact has
impact when adding it to some subset of the remaining database flips the
query's truth value, classified by the direction(s) of the flips observed.
`report` gives the three notions, and ``compare``'s scores, as columns of
`Scores` over the restricted signed completion, impact and the drastic
scores off one coalition table (`games`) within their caps.  The per-fact
verdicts (`signed_relevant`, `positive_relevant`, `impact_relevant`) and
`relevance_report`, which reads `report`'s columns into `RelevanceVerdict`s,
are in `negshapley.reference`; their names still resolve here.
"""
from __future__ import annotations

from enum import Enum

from .core import Database, SignedDatabase, moved
from .query import Query, signed_database_restricted
from .shapley import Scores, WealthKind, game_values, make_game, support_values
from .supports import (
    satisfies,  # noqa: F401 - perfbench's tracer finds query evaluation by this name
    support_families,
)

#: Impact classification enumerates ``2^(|db|-1)`` subsets per fact.
DEFAULT_IMPACT_CAP = 20


class ImpactKind(str, Enum):
    """Directions in which a fact can flip the query on some subset."""

    NONE = "none"
    POSITIVE_ONLY = "positiveOnly"
    NEGATIVE_ONLY = "negativeOnly"
    BOTH = "both"


def report(
    q: Query,
    db: Database,
    *,
    impact_cap: int = DEFAULT_IMPACT_CAP,
    signed_cap: int | None = None,
    subset_cap: int | None = None,
) -> tuple[SignedDatabase, list[tuple[Scores, bool]]]:
    """The restricted signed completion, counted once and capped at
    ``signed_cap``, and the report's columns: (`Scores`, keyed by signed
    facts) pairs.  Signed-relevant (signed) and positive-relevant hold
    ``True`` for the members of some minimal support, ``False`` shared;
    impact holds each fact's `ImpactKind` value, or ``"skipped"`` above
    ``impact_cap`` facts.  ``subset_cap`` adds the ms-signed (signed), mps
    and drastic scores; a drastic game above it has no values, and the
    cap's message as ``other``.  One search gives both support families,
    and one drastic game the impact and drastic columns."""
    completion = signed_database_restricted(db, q, cap=signed_cap)
    signed, plain = support_families(q, db)
    drastic = make_game(q, db, WealthKind.DRASTIC_DIRECT)
    impacts = Scores({}, "skipped")
    if len(db.facts) <= impact_cap:  # a coalition table, within the cap
        from .games import _impacts

        impacts = Scores({f: k.value for f, k in _impacts(drastic).items()}, ImpactKind.NONE.value)
    members = lambda family: dict.fromkeys((p for s in family for p in s.elements), True)
    columns = [(Scores(members(signed), False), True), (Scores(members(plain), False), False),
               (impacts, False)]
    if subset_cap is not None:
        for family, keyed in ((signed, True), (plain, False)):
            values, other = support_values(family)
            columns.append((Scores({p: r.score for p, r in values.items()}, other.score), keyed))
        columns.append((game_values(drastic, subset_cap), False))
    return completion, columns


__getattr__ = moved(__name__, dict.fromkeys((
    "RelevanceVerdict", "impact_relevant", "positive_relevant", "relevance_report",
    "signed_relevant"), "reference"))
