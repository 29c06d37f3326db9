"""Which facts matter: support membership and counterfactual impact.

A signed fact is *signed-relevant* when it occurs in some minimal signed
support, and a database fact is *positive-relevant* when it occurs in some
minimal positive support.  *Impact* is the counterfactual notion: a fact has
impact when adding it to some subset of the remaining database flips the
query's truth value, classified by the direction(s) of the flips observed.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import gt, lt
from typing import Iterable

from .core import Database, Fact, SignedDatabase, SignedFact, positive
from .errors import CapExceededError, SemanticError
from .query import Query, signed_database_restricted
from .supports import (
    SupportSet,
    _signed_supports,
    coalition_rotations,
    coalition_table,
    compile_witnesses,
    minimal_positive_supports,
    minimal_signed_supports,
    satisfies,  # noqa: F401 - perfbench's tracer finds query evaluation by this name
)

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
    return _impacts(q, db)[f]


def _impacts(q: Query, db: Database) -> dict[Fact, ImpactKind]:
    """Every database fact's impact, from one table of the query's truth
    on every subset of the database."""
    facts = db.sorted_facts
    table = coalition_table(
        len(facts), compile_witnesses(q, db, "drastic", facts), count=False
    )
    half = len(table) >> 1
    kinds = list(ImpactKind)  # none, positiveOnly, negativeOnly, both
    return {
        f: kinds[any(map(gt, t[half:], t[:half])) + 2 * any(map(lt, t[half:], t[:half]))]
        for f, t in zip(facts, coalition_rotations(table, len(facts)))
    }


@dataclass(frozen=True)
class RelevanceVerdict:
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
    restricted = signed_database_restricted(db, q, cap=signed_cap)
    return _verdicts(
        q,
        db,
        restricted,
        _signed_supports(q, restricted),
        minimal_positive_supports(q, db),
        impact_cap,
    )


def _verdicts(
    q: Query,
    db: Database,
    restricted: SignedDatabase,
    signed_supports: Iterable[SupportSet],
    positive_supports: Iterable[SupportSet],
    impact_cap: int = DEFAULT_IMPACT_CAP,
) -> list[RelevanceVerdict]:
    """`relevance_report` over a completion and minimal supports the caller
    has built."""
    in_signed = {sf for support in signed_supports for sf in support.elements}
    in_positive = {f for support in positive_supports for f in support.elements}
    skip_impact = len(db.facts) > impact_cap
    impacts = {} if skip_impact else _impacts(q, db)

    return [
        RelevanceVerdict(
            subject=sf,
            signed_relevant=sf in in_signed,
            positive_relevant=sf.fact in in_positive if sf.fact in db.facts else None,
            impact=impacts.get(sf.fact),
            impact_skipped=skip_impact and sf.fact in db.facts,
        )
        for sf in restricted.sorted_facts
    ]
