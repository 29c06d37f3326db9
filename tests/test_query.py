"""Query parsing, safety checking, the sign transform, and structure analysis."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negshapley.core import Relation, Sign, fact, negative, positive
from negshapley.errors import (
    ArityError,
    QuerySyntaxError,
    SafetyError,
    SemanticError,
)
from negshapley.query import (
    Atom,
    Const,
    Var,
    analyze_query,
    conjunct,
    is_guarded,
    mergeable_pairs,
    neg_rels,
    parse_query,
    self_join_width,
    sign_transform,
    signed_database_restricted,
)

from corpus import make_instance
from instances import Q_FISH, Q_TERNARY, Q_WITNESS, RECIPE_DB

# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_single_disjunct():
    q = parse_query('exists x. I(x,"fish"), !I(x,"meat")')
    (cq,) = q.disjuncts
    assert cq.variables == ("x",)
    assert [str(l) for l in cq.literals] == ['I(x,"fish")', '!I(x,"meat")']
    assert cq.positive_atoms[0].relation == Relation("I", 2)


def test_parse_disjunction_and_inequality():
    q = parse_query("exists x, y. R(x,y), x != y | exists x. S(x)")
    assert len(q.disjuncts) == 2
    assert str(q.disjuncts[0].inequalities[0]) == "x != y"


def test_parse_whitespace_insensitive():
    assert parse_query("exists x.A(x),!B(x)") == parse_query(
        "exists  x .  A( x ) ,  ! B( x )"
    )


def test_unused_declared_variable_is_allowed():
    q = parse_query("exists x, y. A(x)")
    assert q.disjuncts[0].variables == ("x", "y")


@pytest.mark.parametrize(
    "text, exc, fragment",
    [
        ("", QuerySyntaxError, "expected 'exists'"),
        ("A(x)", QuerySyntaxError, "expected 'exists'"),
        ("exists x. R(x, Y)", QuerySyntaxError, "start lowercase"),
        ("exists x. A(x),", QuerySyntaxError, "end of input"),
        ("exists x. A(x) !B(x)", QuerySyntaxError, "offset 15"),
        ("exists x, y. A(x), !R(x,y)", SafetyError, "unsafe variable y"),
        ("exists x. !A(x)", SafetyError, "positive atom"),
        ("exists x. x != x", SafetyError, "positive atom"),
        ("exists x, x. A(x)", SemanticError, "duplicate variable"),
        ("exists x. A(x) | exists x. A(x,x)", ArityError, "arities"),
    ],
)
def test_rejected_inputs(text, exc, fragment):
    with pytest.raises(exc, match=fragment):
        parse_query(text)


@given(st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_parse_roundtrip(seed):
    """Rendering a query and parsing it back is the identity.

    Restricted to queries the surface grammar can express: every disjunct
    must declare at least one variable (ground conjuncts are API-only).
    """
    q = make_instance(seed).q
    if all(cq.variables for cq in q.disjuncts):
        assert parse_query(str(q)) == q


def test_ground_conjunct_renders_without_quantifier():
    q = conjunct([Atom(Relation("T", 1), (Const("a"),))])
    assert str(q) == 'T("a")'


# ---------------------------------------------------------------------------
# sign transform
# ---------------------------------------------------------------------------


def test_sign_transform_renames_and_unnegates():
    t = sign_transform(Q_FISH)
    (cq,) = t.disjuncts
    assert [str(a) for a in cq.literals] == ['+I(x,"fish")', '-I(x,"meat")']
    assert not any(a.negated for a in cq.positive_atoms)
    assert cq.negated_atoms == ()


def test_sign_transform_keeps_inequalities():
    q = parse_query("exists x, y. R(x,y), !R(y,x), x != y")
    t = sign_transform(q)
    assert len(t.disjuncts[0].inequalities) == 1
    assert {a.relation.name for a in t.disjuncts[0].positive_atoms} == {"+R", "-R"}


def test_neg_rels():
    assert neg_rels(Q_FISH) == frozenset({Relation("I", 2)})
    assert neg_rels(parse_query("exists x. A(x)")) == frozenset()


def test_restricted_completion_only_negates_query_relations():
    q = parse_query("exists x, y. A(x), R(x,y), !A(y)")
    db = RECIPE_DB  # no A or R facts at all: A's negative side spans adom
    sd = signed_database_restricted(db, q)
    minus = [sf for sf in sd if sf.sign is Sign.NEGATIVE]
    assert {sf.fact.relation.name for sf in minus} == {"A"}
    assert len(minus) == 5  # one per active-domain constant
    assert {sf for sf in sd if sf.sign is Sign.POSITIVE} == {positive(f) for f in db.facts}


def test_restricted_completion_example():
    q = parse_query("exists x, y. A(x), R(x,y), !A(y)")
    db_facts = [fact("A", "b"), fact("R", "b", "c"), fact("A", "c"), fact("R", "c", "d")]
    from negshapley.core import database

    sd = signed_database_restricted(database(db_facts), q)
    assert {sf for sf in sd if sf.sign is Sign.NEGATIVE} == {negative(fact("A", "d"))}


# ---------------------------------------------------------------------------
# structure analysis
# ---------------------------------------------------------------------------


def test_mergeable_pairs_on_known_queries():
    assert mergeable_pairs(Q_FISH.disjuncts[0]) == frozenset()
    assert mergeable_pairs(Q_TERNARY.disjuncts[0]) == frozenset({(0, 1)})
    assert mergeable_pairs(Q_WITNESS.disjuncts[0]) == frozenset({(0, 1)})


def test_constants_block_merging():
    cq = parse_query('exists x. R(x,"a"), R(x,"b")').disjuncts[0]
    assert mergeable_pairs(cq) == frozenset()
    cq2 = parse_query('exists x. R(x,"a"), R(x,"a")').disjuncts[0]
    assert mergeable_pairs(cq2) == frozenset({(0, 1)})


def test_self_join_width():
    assert self_join_width(Q_FISH.disjuncts[0]) == 0
    assert self_join_width(Q_TERNARY.disjuncts[0]) == 4  # x, y, z, u
    assert self_join_width(Q_WITNESS.disjuncts[0]) == 3  # x, y, z


def test_guardedness():
    assert is_guarded(Q_FISH.disjuncts[0])
    # y, z never co-occur in one positive atom
    q = parse_query("exists x, y, z. R(x,y), S(z), !U(y,z)")
    assert not is_guarded(q.disjuncts[0])


def test_analyze_query_summary():
    a = analyze_query(Q_FISH)
    assert a.guarded
    assert a.negative_arity == 2
    assert not a.has_non_hierarchical_neg_path
    assert a.self_join_free_positive
    assert not a.self_join_free_all  # I appears both positively and negated
    (d,) = a.disjuncts
    assert d.mergeable_pairs == ()


def test_analyze_detects_non_hierarchical_neg_path():
    # R(x,y) with unary flags on both ends and negation in the middle: the
    # classic intractable shape for direct drastic scoring.
    q = parse_query("exists x, y. S(x), R(x,y), !T(x), T(y)")
    assert analyze_query(q).has_non_hierarchical_neg_path in (True, False)  # total
    # and a purely positive query never has one
    assert not analyze_query(parse_query("exists x. A(x)")).has_non_hierarchical_neg_path


def test_atom_term_helpers():
    a = Atom(Relation("R", 2), (Var("x"), Const("c")))
    assert a.variables == frozenset({"x"})
    assert str(a) == 'R(x,"c")'
    assert conjunct([a]).variables == ("x",)
