"""Support semantics: signed, positive, within-database-monotone, and
bounded-domain entailment, plus the guarded-negation reduction.

The pinned cases come first; the tail cross-checks the engine against the
brute-force oracles on the random corpus.
"""

import gc
import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import negshapley
from negshapley.core import Fact, database, fact, negative, positive
from negshapley.entailment import DEFAULT_ENTAILMENT_CAP, entailment_supports_bounded
from negshapley.errors import ArityError, CapExceededError, SemanticError
from negshapley.query import Query, parse_query, sign_transform, signed_database_restricted
from negshapley.supports import (
    MAX_POSITIVE_ATOMS,
    _iter_assignments,
    all_supports,
    guarded_reduction,
    is_d_monotone_support,
    is_positive_support,
    is_signed_support,
    minimal_d_monotone_supports,
    minimal_positive_supports,
    minimal_signed_supports,
    satisfies,
    satisfying_assignments,
    signed_satisfies,
    support_families,
)

import oracles
from corpus import corpus
from instances import (
    ABC_DB,
    ENTAIL_DB,
    ENTAIL_EXTRA,
    ENTAIL_MINIMAL,
    Q_CHAIN,
    Q_FISH,
    Q_TERNARY,
    Q_TRIANGLE,
    Q_TWO_BRANCH,
    Q_WITNESS,
    RECIPE_DB,
    TERNARY_DB,
    TRIANGLE_DB,
    TRIANGLE_S1,
    TRIANGLE_S2,
    WITNESS_DB,
    entailment_chain,
    monotone_chain,
)

# ---------------------------------------------------------------------------
# satisfying assignments & satisfaction
# ---------------------------------------------------------------------------


def test_recipe_has_exactly_one_satisfying_assignment():
    got = satisfying_assignments(Q_FISH, RECIPE_DB, context=RECIPE_DB)
    assert got == [(0, {"x": "mm"})]


def test_context_blocks_the_mp_assignment():
    """x -> mp grounds the positive atom, but I(mp,meat) sits in the context."""
    sub = [fact("I", "mp", "fish")]
    assert satisfying_assignments(Q_FISH, sub, context=RECIPE_DB) == []


def test_empty_fact_set_has_no_assignments():
    assert satisfying_assignments(Q_FISH, [], context=database()) == []
    assert not satisfies(Q_FISH, database())


def test_negated_atoms_require_a_context_for_plain_subsets():
    with pytest.raises(SemanticError, match="context"):
        satisfying_assignments(Q_FISH, [fact("I", "mm", "fish")])


def test_mixed_plain_and_signed_facts_rejected():
    with pytest.raises(SemanticError):
        satisfying_assignments(
            sign_transform(Q_FISH),
            [fact("I", "mm", "fish"), positive(fact("I", "mm", "fish"))],
        )


def test_assignments_are_deterministically_ordered():
    q = parse_query("exists x, y. R(x,y)")
    db = database([fact("R", "b", "a"), fact("R", "a", "b"), fact("R", "a", "a")])
    idx_bindings = satisfying_assignments(q, db)
    assert idx_bindings == sorted(idx_bindings, key=lambda p: (p[0], sorted(p[1].items())))
    assert len(idx_bindings) == 3


def test_satisfies_matches_oracle_across_corpus():
    for inst in corpus(500):
        assert satisfies(inst.q, inst.db) == oracles.oracle_satisfies(
            inst.q, inst.db.facts
        ), str(inst)


@pytest.mark.parametrize("setting", ["context", "drastic", "signed"])
def test_assignment_search_matches_the_reference_scan(setting):
    """The indexed search yields exactly the full-relation scan's sequence:
    plain facts checked against the database, plain facts with an empty
    context (the drastic compile), and the restricted signed completion
    under the sign-transformed query."""
    for inst in corpus(500):
        q, db = inst.q, inst.db
        if setting == "signed":
            completion = signed_database_restricted(db, q)
            q = sign_transform(q)
            got = _iter_assignments(q, completion, None)
            want = oracles.reference_assignments(
                q, oracles.signed_as_plain(completion)
            )
        else:
            context = db.facts if setting == "context" else frozenset()
            got = _iter_assignments(q, db.facts, context)
            want = oracles.reference_assignments(q, db.facts, context)
        assert list(got) == want, str(inst)


def test_assignment_search_on_constants_repeats_and_self_joins():
    """A constants-only atom, a repeated variable, relations absent from the
    data (V positively, W negated) and a self-join across two disjuncts."""
    q = parse_query(
        'exists x, y. R("a","b"), R(y,y), S(x), !T(x)'
        " | exists x, y, z. R(x,y), R(y,z), !W(z), x != z"
        " | exists x. V(x), S(x)"
    )
    db = database(
        [fact("R", "a", "b"), fact("R", "b", "b"), fact("R", "b", "c"),
         fact("R", "c", "c"), fact("S", "a"), fact("S", "c"), fact("T", "c")]
    )
    got = list(_iter_assignments(q, db.facts, db.facts))
    assert got == oracles.reference_assignments(q, db.facts, db.facts)
    assert [(idx, binding) for idx, binding, _ in got] == [
        (0, {"y": "b", "x": "a"}),
        (0, {"y": "c", "x": "a"}),
        (1, {"x": "a", "y": "b", "z": "b"}),
        (1, {"x": "a", "y": "b", "z": "c"}),
        (1, {"x": "b", "y": "b", "z": "c"}),
        (1, {"x": "b", "y": "c", "z": "c"}),
    ]
    assert got[0][2] == {fact("R", "a", "b"), fact("R", "b", "b"), fact("S", "a")}


def test_assignment_search_leaves_no_cyclic_garbage():
    """A finished search and one stopped at its first assignment free
    everything by reference counting, index included."""
    q = parse_query("exists x, y. R(x,y), R(y,x)")
    db = database([fact("R", a, b) for a in "abc" for b in "abc"])
    gc.collect()
    gc.disable()
    try:
        supports = minimal_signed_supports(Q_TRIANGLE, TRIANGLE_DB)
        holds = satisfies(q, db)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert len(supports) == 2 and holds
    assert unreachable == 0


# ---------------------------------------------------------------------------
# signed supports
# ---------------------------------------------------------------------------


def test_is_signed_support_recipe():
    S = {positive(fact("I", "mm", "fish")), negative(fact("I", "mm", "meat"))}
    assert is_signed_support(S, Q_FISH, RECIPE_DB)
    assert not is_signed_support({positive(fact("I", "mp", "fish"))}, Q_FISH, RECIPE_DB)
    assert not is_signed_support(set(), Q_FISH, RECIPE_DB)


def test_is_signed_support_rejects_facts_outside_completion():
    # I(zz,fish) is no fact of the database and zz is not even in the domain
    with pytest.raises(SemanticError):
        is_signed_support({positive(fact("I", "zz", "fish"))}, Q_FISH, RECIPE_DB)
    # a negative mark on a *present* fact contradicts the completion
    with pytest.raises(SemanticError):
        is_signed_support({negative(fact("I", "mm", "fish"))}, Q_FISH, RECIPE_DB)


def test_minimal_signed_supports_recipe():
    (s,) = minimal_signed_supports(Q_FISH, RECIPE_DB)
    assert s.minimal and s.kind == "signed"
    assert s.elements == frozenset(
        {positive(fact("I", "mm", "fish")), negative(fact("I", "mm", "meat"))}
    )
    assert str(s) == "{+I(mm,fish), -I(mm,meat)}"


def test_minimal_signed_supports_entailment_instance():
    (s,) = minimal_signed_supports(Q_CHAIN, ENTAIL_DB)
    assert s.elements == ENTAIL_MINIMAL


def test_minimal_signed_supports_triangle():
    found = {s.elements for s in minimal_signed_supports(Q_TRIANGLE, TRIANGLE_DB)}
    assert found == {TRIANGLE_S1, TRIANGLE_S2}


def test_minimal_signed_supports_cap():
    with pytest.raises(CapExceededError):
        minimal_signed_supports(Q_FISH, RECIPE_DB, cap=24)


# ---------------------------------------------------------------------------
# positive supports
# ---------------------------------------------------------------------------


def test_is_positive_support_examples():
    assert is_positive_support([fact("I", "mm", "fish")], Q_FISH, RECIPE_DB)
    assert not is_positive_support([fact("I", "mp", "fish")], Q_FISH, RECIPE_DB)
    # the ternary instance: subset satisfies on its own but not against db
    S = [fact("R", "a", "b", "b"), fact("R", "b", "c", "d")]
    assert not is_positive_support(S, Q_TERNARY, TERNARY_DB)


def test_minimal_positive_supports_recipe():
    (s,) = minimal_positive_supports(Q_FISH, RECIPE_DB)
    assert s.elements == frozenset({fact("I", "mm", "fish")})


def test_minimal_positive_supports_witness():
    (s,) = minimal_positive_supports(Q_WITNESS, WITNESS_DB)
    assert s.elements == frozenset({fact("R", "a", "c")})


def test_minimal_positive_supports_ternary():
    """The sole context-valid assignment is x=d, y=a, z=b, u=b: R(x,y,y)
    lands on R(d,a,a), R(y,z,u) on R(a,b,b), and !R(u,x,x) = !R(b,d,d)
    holds because R(b,d,d) is not in the database.  Its image, and so the
    sole minimal positive support, is {R(d,a,a), R(a,b,b)}."""
    (s,) = minimal_positive_supports(Q_TERNARY, TERNARY_DB)
    assert s.elements == frozenset({fact("R", "a", "b", "b"), fact("R", "d", "a", "a")})


def test_positive_supports_never_leave_the_database():
    for s in minimal_positive_supports(Q_TWO_BRANCH, ABC_DB):
        assert s.elements <= ABC_DB.facts


# ---------------------------------------------------------------------------
# within-database monotone supports
# ---------------------------------------------------------------------------


def test_two_branch_separating_example():
    S = {fact("A", "c"), fact("C", "c")}
    assert is_d_monotone_support(S, Q_TWO_BRANCH, ABC_DB)
    assert not is_positive_support(S, Q_TWO_BRANCH, ABC_DB)
    minimal = {s.elements for s in minimal_d_monotone_supports(Q_TWO_BRANCH, ABC_DB)}
    assert frozenset(S) in minimal


def test_ternary_d_monotone_but_not_positive():
    S = {fact("R", "a", "b", "b"), fact("R", "b", "c", "d")}
    assert is_d_monotone_support(S, Q_TERNARY, TERNARY_DB)
    minimal = {s.elements for s in minimal_d_monotone_supports(Q_TERNARY, TERNARY_DB)}
    assert frozenset(S) in minimal


def test_full_database_monotone_iff_satisfied():
    assert is_d_monotone_support(RECIPE_DB.facts, Q_FISH, RECIPE_DB) == satisfies(
        Q_FISH, RECIPE_DB
    )


def test_d_monotone_cap():
    big = database([fact("R", f"v{i}", f"v{i+1}") for i in range(25)])
    q = parse_query("exists x, y. R(x,y), !R(y,x)")
    with pytest.raises(CapExceededError):
        is_d_monotone_support(set(), q, big, cap=20)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_monotone_chain_has_minimal_support_of_size_n_plus_2(n):
    db = monotone_chain(n)
    from instances import Q_MONOTONE_CHAIN

    sizes = {len(s.elements) for s in minimal_d_monotone_supports(Q_MONOTONE_CHAIN, db)}
    assert n + 2 in sizes


# ---------------------------------------------------------------------------
# bounded-domain entailment
# ---------------------------------------------------------------------------


def test_the_package_name_is_the_entailment_modules_function():
    """The package loads `negshapley.entailment` on first use of the name,
    and still exports it."""
    assert negshapley.entailment_supports_bounded is entailment_supports_bounded
    assert "entailment_supports_bounded" in negshapley.__all__
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        negshapley.no_such_name


def test_entailment_admits_the_extra_support():
    """The 4-element set entails the query over {b,c,d} although it is not
    a signed support: entailment reasons by cases over A(c)."""
    assert entailment_supports_bounded(ENTAIL_EXTRA, Q_CHAIN, {"b", "c", "d"})
    assert not is_signed_support(ENTAIL_EXTRA, Q_CHAIN, ENTAIL_DB)


def test_every_signed_support_passes_entailment():
    domain = sorted(ENTAIL_DB.active_domain)
    for s in all_supports(Q_CHAIN, ENTAIL_DB, "signed"):
        assert entailment_supports_bounded(s.elements, Q_CHAIN, domain)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_entailment_chain(n):
    db, support, domain = entailment_chain(n)
    assert entailment_supports_bounded(support, Q_CHAIN, domain, cap=30)
    # dropping the far-end negative mark breaks it: everything else can be
    # completed to an A-saturated database with no A-free successor
    weakened = support - {negative(fact("A", f"c{n}"))}
    assert not entailment_supports_bounded(weakened, Q_CHAIN, domain, cap=30)


def test_entailment_vacuous_on_contradictory_signs():
    S = {positive(fact("A", "b")), negative(fact("A", "b"))}
    assert entailment_supports_bounded(S, Q_CHAIN, {"b"})


def test_entailment_rejects_constants_outside_domain():
    with pytest.raises(SemanticError):
        entailment_supports_bounded(ENTAIL_EXTRA, Q_CHAIN, {"b", "c"})


def test_entailment_arity_clash():
    S = {positive(fact("A", "b", "b"))}  # A used binary here, unary in q
    with pytest.raises(ArityError):
        entailment_supports_bounded(S, Q_CHAIN, {"b"})


def test_entailment_cap():
    db, support, domain = entailment_chain(4)  # 30 candidate facts
    with pytest.raises(CapExceededError):
        entailment_supports_bounded(support, Q_CHAIN, domain, cap=24)
    assert DEFAULT_ENTAILMENT_CAP == 24
    with pytest.raises(CapExceededError, match=r"30 possible facts \(cap 24\)"):
        entailment_supports_bounded(support, Q_CHAIN, domain)


def _entailment_path(n: int) -> Query:
    """``A(x0), E(x0,x1), ..., E(x{n-2},x{n-1}), !E(x{n-1},x0), !B(x{n-1})``:
    over 4 constants, 24 candidate facts and 4^n assignments."""
    xs = [f"x{i}" for i in range(n)]
    edges = "".join(f"E({a},{b}), " for a, b in zip(xs, xs[1:]))
    return parse_query(f"exists {', '.join(xs)}. A(x0), {edges}!E({xs[-1]},x0), !B({xs[-1]})")


def test_entailment_clause_limit(monkeypatch):
    """The clause list is bounded as it grows, whatever the candidate cap
    allows: the 9-variable path, 4^9 assignments within the 24-fact cap,
    is refused at the limit's first excess clause, inside a time budget
    fixed before the first run; a lowered limit admits 4^3 clauses and
    refuses 4^4."""
    from negshapley import entailment

    domain = ["a", "b", "c", "d"]
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match=f"limit {entailment.MAX_CLAUSES}"):
        entailment_supports_bounded(set(), _entailment_path(9), domain)
    assert time.perf_counter() - start < 2.0
    monkeypatch.setattr(entailment, "MAX_CLAUSES", 4**3)
    assert not entailment_supports_bounded(set(), _entailment_path(3), domain)
    with pytest.raises(CapExceededError, match="more than 64 clauses"):
        entailment_supports_bounded(set(), _entailment_path(4), domain)


def test_entailment_shares_the_search_depth_limit():
    """Entailment runs the assignment search, so a disjunct deeper than it
    allows is refused before any clause is built; one at the limit is not."""
    chain = lambda n: parse_query("exists x. " + "S(x), " * n + "!T(x)")
    assert not entailment_supports_bounded(set(), chain(MAX_POSITIVE_ATOMS), {"a"})
    with pytest.raises(CapExceededError, match=f"limit {MAX_POSITIVE_ATOMS}"):
        entailment_supports_bounded(set(), chain(MAX_POSITIVE_ATOMS + 1), {"a"})


def test_entailment_matches_oracle_on_small_sets():
    """Clause encoding vs. literal enumeration of candidate databases."""
    domain = ["b", "c", "d"]
    universe = sorted(oracles.oracle_signed_completion(ENTAIL_DB, Q_CHAIN))
    # all 1- and 2-element signed subsets, plus the pinned 3/4-element sets
    picks = [frozenset(c) for r in (1, 2) for c in itertools.combinations(universe, r)]
    picks += [ENTAIL_MINIMAL, ENTAIL_EXTRA]
    for S in picks:
        assert entailment_supports_bounded(S, Q_CHAIN, domain) == (
            oracles.oracle_bounded_entailment(S, Q_CHAIN, domain)
        ), sorted(map(str, S))


def test_entailment_matches_oracle_across_corpus():
    """Inequalities, constants, unions and ground atoms: random signed sets
    over the query's relations on domains of at most 3 constants, with at
    most 10 facts left undetermined (the oracle enumerates 2^free databases)."""
    rng = random.Random(20261018)
    outcomes = []
    for inst in corpus():
        domain = rng.sample(["a", "b", "c"], rng.randint(1, 3))
        universe = [
            Fact(rel, args)
            for rel in sorted(inst.q.relations)
            for args in itertools.product(domain, repeat=rel.arity)
        ]
        fixed = rng.sample(universe, max(0, len(universe) - rng.randint(0, 10)))
        S = {rng.choice((positive, negative))(f) for f in fixed}
        got = entailment_supports_bounded(S, inst.q, domain)
        assert got == oracles.oracle_bounded_entailment(S, inst.q, domain), (
            str(inst), sorted(map(str, S)), domain
        )
        outcomes.append(got)
    assert outcomes.count(True) >= 100 and outcomes.count(False) >= 100


# ---------------------------------------------------------------------------
# guarded reduction
# ---------------------------------------------------------------------------


def test_guarded_reduction_recipe():
    red = guarded_reduction(Q_FISH, RECIPE_DB)
    assert red.d_prime.facts == frozenset(
        {fact("I", "mm", "fish"), fact("I", "mp", "fish")}
    )
    assert red.d_double_prime.facts == frozenset({fact("I", "mm", "fish")})
    mins = {s.elements for s in minimal_positive_supports(red.q_plus, red.d_double_prime)}
    assert mins == {frozenset({fact("I", "mm", "fish")})}


def test_guarded_reduction_without_negation_keeps_d_prime():
    q = parse_query("exists x, y. R(x,y)")
    db = database([fact("R", "a", "b"), fact("A", "a")])
    red = guarded_reduction(q, db)
    assert red.d_double_prime == red.d_prime
    assert red.d_prime.facts == frozenset({fact("R", "a", "b")})


def test_guarded_reduction_empty_database():
    red = guarded_reduction(Q_FISH, database())
    assert not red.d_prime.facts and not red.d_double_prime.facts


def test_guarded_reduction_matches_the_per_fact_reference():
    """On every corpus disjunct the reduction accepts, ``d'`` and ``d''``
    equal the fact-by-fact matcher's, over the database's schema."""
    checked = 0
    for inst in corpus(500):
        for cq in inst.q.disjuncts:
            try:
                red = guarded_reduction(cq, inst.db)
            except SemanticError:
                continue
            d_prime, d_double_prime = oracles.reference_guarded_reduction(cq, inst.db)
            assert red.d_prime == database(d_prime, inst.db.schema), str(inst)
            assert red.d_double_prime == database(d_double_prime, inst.db.schema), str(inst)
            checked += 1
    assert checked >= 400


def test_guarded_reduction_matches_nothing_of_another_arity():
    """An atom over R/2, ground or not, matches no fact of R/1 and raises
    no arity error."""
    db = database([fact("R", "a"), fact("S", "a")])
    red = guarded_reduction(parse_query("exists x, y. R(x,y)"), db)
    assert not red.d_prime.facts and not red.d_double_prime.facts
    red = guarded_reduction(parse_query('exists x. R("a","b"), S(x), !T(x)'), db)
    assert red.d_prime.facts == red.d_double_prime.facts == {fact("S", "a")}


def test_guarded_reduction_rejects_mergeable_atoms():
    with pytest.raises(SemanticError, match="mergeable"):
        guarded_reduction(Q_TERNARY, TERNARY_DB)


def test_guarded_reduction_rejects_unguarded_queries():
    q = parse_query("exists x, y. R(x,y), S(x), !U(y,y), !T(x) | exists x. S(x)")
    with pytest.raises(SemanticError):
        guarded_reduction(q, database([fact("R", "a", "b")]))


# ---------------------------------------------------------------------------
# exhaustive listings
# ---------------------------------------------------------------------------


def test_all_supports_signed_listing():
    sups = all_supports(Q_CHAIN, ENTAIL_DB, "signed")
    # completion has 5 signed facts; supports are exactly the supersets of
    # the unique minimal one: 2^2 of them
    assert len(sups) == 4
    assert sum(1 for s in sups if s.minimal) == 1
    assert all(ENTAIL_MINIMAL <= s.elements for s in sups)


def test_all_supports_positive_listing():
    sups = all_supports(Q_FISH, RECIPE_DB, "positive")
    assert len(sups) == 2 ** 4  # supersets of {I(mm,fish)} inside 5 facts
    assert {s.elements for s in sups if s.minimal} == {
        frozenset({fact("I", "mm", "fish")})
    }


def test_all_supports_match_the_oracle_listing_on_corpus():
    """Every listing, each support's minimality flag included, against the
    oracle's test of every subset of the players, on the whole corpus; and
    each listing's sorted elements, minimal ones too, are its supports'."""
    for inst in corpus(500):
        for kind in ("signed", "positive", "dMonotone"):
            listing = all_supports(inst.q, inst.db, kind)
            got = [(s.elements, s.minimal) for s in listing]
            assert got == oracles.oracle_all_supports(inst.q, inst.db, kind), (str(inst), kind)
            assert listing.sorted_elements == [s.sorted_elements for s in listing]
        for listing in (minimal_signed_supports(inst.q, inst.db),
                        minimal_positive_supports(inst.q, inst.db),
                        minimal_d_monotone_supports(inst.q, inst.db)):
            assert listing.sorted_elements == [s.sorted_elements for s in listing]


def test_all_supports_caps_on_large_universes():
    with pytest.raises(CapExceededError):
        all_supports(Q_FISH, RECIPE_DB, "signed")  # 25-fact completion


# ---------------------------------------------------------------------------
# corpus agreement with the oracles
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_corpus():
    return corpus(500)[:120]


def test_minimal_signed_supports_match_oracle(small_corpus):
    for inst in small_corpus:
        got = sorted(s.elements for s in minimal_signed_supports(inst.q, inst.db))
        want = sorted(oracles.oracle_minimal_signed_supports(inst.q, inst.db))
        assert got == want, str(inst)


def test_signed_supports_match_the_completion_search():
    """Searching the database itself gives the supports that searching the
    restricted completion with the sign-transformed query gives, in the
    same order, and the shared search gives both families with the same
    members, ordered by size alone."""
    for inst in corpus(500):
        signed = minimal_signed_supports(inst.q, inst.db)
        want = oracles.reference_signed_supports(inst.q, inst.db)
        assert [s.elements for s in signed] == want, str(inst)
        positive = minimal_positive_supports(inst.q, inst.db)
        families = support_families(inst.q, inst.db)
        order = lambda s: (len(s.elements), s.sorted_elements)
        assert [sorted(family, key=order) for family in families] == [signed, positive], str(inst)
        assert all([len(s.elements) for s in family] == sorted(len(s.elements) for s in family)
                   for family in families), str(inst)


def test_signed_image_outside_the_active_domain_is_dropped():
    """x -> mm satisfies the query over the database, but its negated atom
    grounds to I(mm,zz), and zz is no constant of the database: that fact
    has no place in the completion, so there is no signed support."""
    db = database([fact("I", "mp", "wine"), fact("I", "mm", "fish")])
    q = parse_query('exists x. I(x,"fish"), !I(x,"zz")')
    assert minimal_signed_supports(q, db) == []
    assert oracles.reference_signed_supports(q, db) == []
    (s,) = minimal_positive_supports(q, db)
    assert s.elements == {fact("I", "mm", "fish")}


def test_negated_relation_absent_from_the_database():
    db = database([fact("I", "mp", "wine"), fact("I", "mm", "fish")])
    q = parse_query("exists x, y. I(x,y), !J(y,x)")
    got = [s.elements for s in minimal_signed_supports(q, db)]
    assert got == oracles.reference_signed_supports(q, db) == [
        {positive(fact("I", "mm", "fish")), negative(fact("J", "fish", "mm"))},
        {positive(fact("I", "mp", "wine")), negative(fact("J", "wine", "mp"))},
    ]


def test_d_monotone_check_matches_the_superset_loop():
    """The compiled check agrees with `oracles.oracle_is_d_monotone`, which
    walks every superset, on every subset of every corpus database."""
    for inst in corpus(500):
        for S in oracles.subsets(inst.db.facts):
            assert is_d_monotone_support(S, inst.q, inst.db) == (
                oracles.oracle_is_d_monotone(S, inst.q, inst.db)
            ), (str(inst), sorted(map(str, S)))


def test_minimal_positive_supports_match_oracle(small_corpus):
    for inst in small_corpus:
        got = sorted(s.elements for s in minimal_positive_supports(inst.q, inst.db))
        want = sorted(oracles.oracle_minimal_positive_supports(inst.q, inst.db))
        assert got == want, str(inst)


def test_minimal_d_monotone_supports_match_oracle(small_corpus):
    for inst in small_corpus:
        got = sorted(s.elements for s in minimal_d_monotone_supports(inst.q, inst.db))
        want = sorted(oracles.oracle_minimal_d_monotone_supports(inst.q, inst.db))
        assert got == want, str(inst)


def test_signed_satisfaction_matches_oracle(small_corpus):
    for inst in small_corpus:
        completion = oracles.oracle_signed_completion(inst.db, inst.q)
        transformed = sign_transform(inst.q)
        for sub in list(oracles.subsets(completion))[:: max(1, len(completion))]:
            assert signed_satisfies(transformed, sub) == (
                oracles.oracle_signed_satisfies(inst.q, sub)
            ), (str(inst), sorted(map(str, sub)))


@given(st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_minimal_support_families_are_antichains(seed):
    from corpus import make_instance

    inst = make_instance(seed)
    for fam in (
        minimal_signed_supports(inst.q, inst.db),
        minimal_positive_supports(inst.q, inst.db),
    ):
        sets = [s.elements for s in fam]
        assert all(
            not (a < b) for a in sets for b in sets
        ), f"nested minimal supports on {inst}"


@given(st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_minimality_flags_are_honest(seed):
    """Every claimed-minimal support really loses support-hood when any
    single element is dropped."""
    from corpus import make_instance

    inst = make_instance(seed)
    for s in minimal_signed_supports(inst.q, inst.db):
        for e in s.elements:
            assert not is_signed_support(s.elements - {e}, inst.q, inst.db)
    for s in minimal_positive_supports(inst.q, inst.db):
        for e in s.elements:
            assert not is_positive_support(s.elements - {e}, inst.q, inst.db)
