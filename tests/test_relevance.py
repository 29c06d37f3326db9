"""Signed, positive, and impact relevance."""

from fractions import Fraction

import pytest

from negshapley.core import database, fact, negative, positive
from negshapley.errors import CapExceededError, SemanticError
from negshapley.query import parse_query, signed_database_restricted
from negshapley.relevance import (
    ImpactKind,
    impact_relevant,
    positive_relevant,
    relevance_report,
    report,
    signed_relevant,
)

import oracles
from corpus import corpus
from instances import Q2, Q_FISH, Q_WITNESS, RECIPE_DB, WITNESS_DB


def test_recipe_flags():
    mm_fish, mp_fish = fact("I", "mm", "fish"), fact("I", "mp", "fish")
    assert signed_relevant(mm_fish, Q_FISH, RECIPE_DB)
    assert positive_relevant(mm_fish, Q_FISH, RECIPE_DB)
    assert signed_relevant(negative(fact("I", "mm", "meat")), Q_FISH, RECIPE_DB)

    # the separating fact: adding I(mp,fish) can flip the query on, yet it
    # appears in no minimal support of either flavor
    assert impact_relevant(mp_fish, Q_FISH, RECIPE_DB) is ImpactKind.POSITIVE_ONLY
    assert not signed_relevant(mp_fish, Q_FISH, RECIPE_DB)
    assert not positive_relevant(mp_fish, Q_FISH, RECIPE_DB)


def test_impact_kinds_cover_all_four_cases():
    assert impact_relevant(fact("I", "mm", "fish"), Q_FISH, RECIPE_DB) is ImpactKind.POSITIVE_ONLY
    assert impact_relevant(fact("I", "mp", "meat"), Q_FISH, RECIPE_DB) is ImpactKind.NEGATIVE_ONLY
    assert impact_relevant(fact("I", "mm", "wine"), Q_FISH, RECIPE_DB) is ImpactKind.NONE
    assert impact_relevant(fact("I", "mp", "wine"), Q2, RECIPE_DB) is ImpactKind.BOTH


def test_q2_relevance_of_mp_wine():
    mp_wine = fact("I", "mp", "wine")
    assert positive_relevant(mp_wine, Q2, RECIPE_DB)
    assert signed_relevant(mp_wine, Q2, RECIPE_DB)


def test_witness_split_between_signed_and_positive():
    r_ab = fact("R", "a", "b")
    assert signed_relevant(positive(r_ab), Q_WITNESS, WITNESS_DB)
    assert not positive_relevant(r_ab, Q_WITNESS, WITNESS_DB)


def test_impact_requires_database_membership():
    with pytest.raises(SemanticError):
        impact_relevant(fact("I", "zz", "fish"), Q_FISH, RECIPE_DB)


def test_impact_cap():
    with pytest.raises(CapExceededError):
        impact_relevant(fact("I", "mm", "fish"), Q_FISH, RECIPE_DB, cap=4)


def test_report_covers_the_whole_restricted_completion():
    rows = relevance_report(Q_FISH, RECIPE_DB)
    assert len(rows) == 25  # 5 positive + 20 negative over the binary I
    by_subject = {str(r.subject): r for r in rows}

    r = by_subject["+I(mm,fish)"]
    assert (r.signed_relevant, r.positive_relevant, r.impact) == (
        True,
        True,
        ImpactKind.POSITIVE_ONLY,
    )
    r = by_subject["+I(mp,fish)"]
    assert (r.signed_relevant, r.positive_relevant, r.impact) == (
        False,
        False,
        ImpactKind.POSITIVE_ONLY,
    )
    r = by_subject["-I(mm,meat)"]
    assert r.signed_relevant and r.positive_relevant is None and r.impact is None

    # rows arrive in canonical order: positives first, then negatives
    assert [str(r.subject) for r in rows] == sorted(
        (str(r.subject) for r in rows),
        key=lambda s: (s[0] == "-", s[1:]),
    )


def test_report_skips_impact_over_the_cap_instead_of_failing():
    rows = relevance_report(Q_FISH, RECIPE_DB, impact_cap=3)
    positives = [r for r in rows if r.subject.sign.symbol == "+"]
    assert positives and all(r.impact_skipped and r.impact is None for r in positives)
    # the support-based columns are still filled in
    assert any(r.signed_relevant for r in rows)


def test_impact_matches_oracle_on_corpus_sample():
    for inst in corpus(500):
        for f in inst.db.sorted_facts:
            assert impact_relevant(f, inst.q, inst.db).value == oracles.oracle_impact(
                f, inst.q, inst.db
            ), (str(inst), str(f))


def test_relevance_flags_match_oracle_supports_on_corpus_sample():
    for inst in corpus(500)[:80]:
        signed_members = {
            sf for s in oracles.oracle_minimal_signed_supports(inst.q, inst.db) for sf in s
        }
        positive_members = {
            f for s in oracles.oracle_minimal_positive_supports(inst.q, inst.db) for f in s
        }
        for f in inst.db.sorted_facts:
            assert signed_relevant(positive(f), inst.q, inst.db) == (
                positive(f) in signed_members
            )
            assert positive_relevant(f, inst.q, inst.db) == (f in positive_members)


def test_report_columns_match_the_reference_oracles_on_corpus():
    """`report`'s columns against the oracles behind `oracles.reference_reports`:
    support members from the completion scan, impact by sub-database scan,
    the closed-form scores from the minimal supports and the drastic values
    from a coalition table; and the completion is the restricted one."""
    for inst in corpus(500):
        q, db = inst.q, inst.db
        completion, columns = report(q, db, subset_cap=20)
        assert completion == signed_database_restricted(db, q), str(inst)
        assert [keyed for _, keyed in columns] == [True, False, False, True, False, False]
        (in_signed, in_plain, impacts, ms, mps, drastic) = (scores for scores, _ in columns)
        signed = oracles.reference_signed_supports(q, db)
        plain = oracles.minimal_among(
            image for _, _, image, _ in oracles.reference_assignments(q, db.facts, db.facts))
        assert in_signed == (dict.fromkeys(set().union(*signed), True), False), str(inst)
        assert in_plain == (dict.fromkeys(set().union(*plain), True), False), str(inst)
        assert {f: impacts.values.get(f, impacts.other) for f in db.facts} == {
            f: oracles.oracle_impact(f, q, db) for f in db.facts}, str(inst)
        score = lambda p, family: sum((Fraction(1, len(s)) for s in family if p in s), Fraction(0))
        assert {sf: ms.values.get(sf, ms.other) for sf in completion} == {
            sf: score(sf, signed) for sf in completion}, str(inst)
        assert {f: mps.values.get(f, mps.other) for f in db.facts} == {
            f: score(f, plain) for f in db.facts}, str(inst)
        facts = sorted(db.facts)
        table = oracles.wealth_table(facts, oracles.oracle_wealth("drastic", q, db))
        assert [drastic.values.get(f, drastic.other) for f in facts] == (
            oracles.shapley_from_table(table, len(facts))), str(inst)


def test_empty_database_report_is_empty():
    assert relevance_report(Q_FISH, database()) == []
