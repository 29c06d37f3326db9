"""Exact Shapley scoring: permutation and subset routes, the one-pass closed
form against the bounded-enumeration reference scorer, and the game axioms."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negshapley.core import database, fact, negative, positive, signed_database
from negshapley.errors import CapExceededError, PlayerSetError, SemanticError
from negshapley.query import parse_query
from negshapley.relevance import ImpactKind, _impacts, impact_relevant
from negshapley.shapley import (
    WEIGHT_FUNCTIONS,
    Game,
    WealthKind,
    constant_weight,
    make_game,
    ms_scores,
    ms_shapley,
    permutation_marginal_counts,
    reciprocal_weight,
    shapley_permutation,
    shapley_subset,
    shapley_values,
)
from negshapley.supports import minimal_positive_supports, minimal_signed_supports

import oracles
from corpus import corpus, make_instance
from instances import (
    ENTAIL_DB,
    Q2,
    Q_CHAIN,
    Q_FISH,
    RECIPE_DB,
    TRIANGLE_DB,
    TRIANGLE_S1,
    TRIANGLE_S2,
    Q_TRIANGLE,
)

# ---------------------------------------------------------------------------
# wealth functions
# ---------------------------------------------------------------------------


def test_drastic_wealth_ignores_the_ambient_database():
    """A lone I(mp,fish) satisfies the query when evaluated by itself --
    the blocking I(mp,meat) is simply not in the coalition."""
    g = make_game(Q_FISH, RECIPE_DB, WealthKind.DRASTIC_DIRECT)
    s = frozenset({fact("I", "mp", "fish")})
    assert g.wealth(s) == 1


def test_positive_drastic_wealth_respects_the_context():
    g = make_game(Q_FISH, RECIPE_DB, WealthKind.POSITIVE_DRASTIC)
    assert g.wealth(frozenset({fact("I", "mp", "fish")})) == 0
    assert g.wealth(frozenset({fact("I", "mm", "fish")})) == 1


def test_ms_wealth_counts_contained_supports():
    g = make_game(Q_TRIANGLE, TRIANGLE_DB, WealthKind.MS_SIGNED)
    assert g.wealth(frozenset(g.players)) == 2
    assert g.wealth(TRIANGLE_S1) == 1
    assert g.wealth(TRIANGLE_S1 | TRIANGLE_S2) == 2
    assert g.wealth(frozenset()) == 0


def test_wealth_rejects_non_players():
    g = make_game(Q_FISH, RECIPE_DB, WealthKind.MPS_POSITIVE)
    with pytest.raises(PlayerSetError):
        g.wealth(frozenset({fact("I", "zz", "zz")}))


def test_kind_metadata():
    assert WealthKind.MS_SIGNED.signed_players
    assert WealthKind.SIGNED_DRASTIC.signed_players
    assert not WealthKind.DRASTIC_DIRECT.signed_players
    assert WealthKind.MPS_POSITIVE.support_mode == "positive"
    assert set(WEIGHT_FUNCTIONS) == {"reciprocal", "constant"}


# ---------------------------------------------------------------------------
# pinned scores
# ---------------------------------------------------------------------------


def test_singleton_database_gets_the_whole_credit():
    g = make_game(parse_query("exists x. A(x)"), database([fact("A", "c")]),
                  WealthKind.DRASTIC_DIRECT)
    assert shapley_permutation(g, fact("A", "c")) == 1
    assert shapley_subset(g, fact("A", "c")) == 1


def test_q2_drastic_scores():
    g = make_game(Q2, RECIPE_DB, WealthKind.DRASTIC_DIRECT)
    mp_wine, mm_wine = fact("I", "mp", "wine"), fact("I", "mm", "wine")

    assert shapley_permutation(g, mp_wine) == 0
    counts = permutation_marginal_counts(g, mp_wine)
    assert counts == {Fraction(1): 16, Fraction(-1): 16, Fraction(0): 88}
    assert sum(counts.values()) == 120

    assert shapley_permutation(g, mm_wine) == Fraction(-1, 6)
    assert shapley_permutation(g, mm_wine) == oracles.oracle_shapley(
        g.players, g.wealth, mm_wine
    )


def test_triangle_scores_by_all_three_routes():
    g = make_game(Q_TRIANGLE, TRIANGLE_DB, WealthKind.MS_SIGNED)
    expected = {
        "+E(a,b)": Fraction(1, 3),
        "+E(b,a)": Fraction(0),
        "+E(b,c)": Fraction(2, 3),
        "+E(c,c)": Fraction(1, 3),
        "-E(a,a)": Fraction(0),
        "-E(a,c)": Fraction(0),
        "-E(b,b)": Fraction(0),
        "-E(c,a)": Fraction(1, 3),
        "-E(c,b)": Fraction(1, 3),
    }
    assert {str(p) for p in g.players} == set(expected)
    for p in g.players:
        want = expected[str(p)]
        assert shapley_subset(g, p) == want, str(p)
        assert ms_shapley(Q_TRIANGLE, TRIANGLE_DB, p).score == want, str(p)
    # 9 players exceeds the permutation cap; use the oracle's subset formula
    # over oracle-derived wealth as the independent third route
    wealth = oracles.oracle_wealth("ms-signed", Q_TRIANGLE, TRIANGLE_DB)
    table = oracles.wealth_table(sorted(g.players), wealth)
    oracle_values = oracles.shapley_from_table(table, len(g.players))
    assert {str(p): v for p, v in zip(sorted(g.players), oracle_values)} == expected


def test_recipe_positive_mode_closed_form():
    assert ms_shapley(Q_FISH, RECIPE_DB, fact("I", "mm", "fish"),
                      mode="positive").score == 1
    assert ms_shapley(Q_FISH, RECIPE_DB, fact("I", "mp", "fish"),
                      mode="positive").score == 0


def test_ms_shapley_reports_the_size_histogram():
    r = ms_shapley(Q_TRIANGLE, TRIANGLE_DB, positive(fact("E", "b", "c")))
    assert r.score == Fraction(2, 3)
    assert dict(r.supports_by_size) == {3: 2}

    r0 = ms_shapley(Q_FISH, RECIPE_DB, fact("I", "mp", "fish"), mode="positive")
    assert r0.score == 0 and dict(r0.supports_by_size) == {}


def test_constant_weight_counts_containing_supports():
    r = ms_shapley(
        Q_TRIANGLE, TRIANGLE_DB, positive(fact("E", "b", "c")), weight=constant_weight
    )
    assert r.score == 2


def test_weight_presets():
    assert reciprocal_weight(3) == Fraction(1, 3)
    assert constant_weight(7) == 1


# ---------------------------------------------------------------------------
# caps and player-set checking
# ---------------------------------------------------------------------------


def test_permutation_cap():
    g = make_game(Q_TRIANGLE, TRIANGLE_DB, WealthKind.MS_SIGNED)  # 9 players
    with pytest.raises(CapExceededError):
        shapley_permutation(g, positive(fact("E", "b", "c")))
    # raising the cap explicitly is allowed, if slow; 9 is still refused at 8
    with pytest.raises(CapExceededError):
        shapley_permutation(g, positive(fact("E", "b", "c")), cap=8)


def test_subset_cap():
    db = database([fact("R", f"u{i}", f"u{i}") for i in range(21)])
    g = make_game(parse_query("exists x. R(x,x)"), db, WealthKind.DRASTIC_DIRECT)
    with pytest.raises(CapExceededError):
        shapley_subset(g, fact("R", "u0", "u0"))


def test_counting_games_never_meet_the_table_cap():
    """A counting game is scored by its closed form, which builds no table:
    a cap of 2 refuses none of the recipe's 25 signed players."""
    g = make_game(Q_FISH, RECIPE_DB, WealthKind.MS_SIGNED)
    assert len(g.players) == 25
    want = {p: r.score for p, r in ms_scores(Q_FISH, RECIPE_DB).items()}
    assert shapley_values(g, cap=2) == want
    assert shapley_subset(g, negative(fact("I", "mm", "meat")), cap=2) == Fraction(1, 2)


def test_a_counting_game_searches_for_its_supports_once(monkeypatch):
    """20 `shapley_subset` calls on a 60-player `mps` game, then its values
    and a wealth, run one assignment search between them."""
    import negshapley.supports as supports

    searches = []
    real = supports._iter_assignments
    monkeypatch.setattr(supports, "_iter_assignments", lambda *a: searches.append(a) or real(*a))
    db = database(fact("R", f"v{i}", f"v{i + 1}") for i in range(60))
    g = make_game(parse_query("exists x, y, z. R(x,y), R(y,z)"), db, WealthKind.MPS_POSITIVE)
    assert len(g.players) == 60
    got = [shapley_subset(g, p) for p in list(g.players)[:20]]
    assert got == [Fraction(1, 2)] + [Fraction(1)] * 19  # R(v0,v1) ends the path
    assert shapley_values(g)[fact("R", "v59", "v60")] == Fraction(1, 2)
    assert g.wealth(fact("R", f"v{i}", f"v{i + 1}") for i in range(3)) == 2
    assert len(searches) == 1


def test_players_are_counted_past_what_len_reports():
    """A signed game of 10^19 players, more than `len` can return, is
    counted, refuses a non-player with its count, and is refused by the
    subset cap, as a completion within `len` is."""
    from negshapley.shapley import scores

    db = database([fact("R", *(f"c{i}" for i in range(10)), *["c0"] * 9)])
    q = parse_query("exists " + ", ".join(f"x{i}" for i in range(19)) + ". R("
                    + ",".join(f"x{i}" for i in range(19)) + "), !R("
                    + ",".join(f"x{(i + 1) % 19}" for i in range(19)) + ")")
    n = 10**19
    with pytest.raises(PlayerSetError, match=f"^R\\(c0\\) is not .* \\({n} players\\)$"):
        scores(q, db, WealthKind.SIGNED_DRASTIC, target=fact("R", "c0"), signed_cap=n)
    players, refused = scores(q, db, WealthKind.SIGNED_DRASTIC, signed_cap=n)
    assert players.size == n
    assert refused == ({}, f"{n} players means 2^{n - 1} coalitions (cap 20)")


def test_an_unknown_support_mode_is_refused():
    """A mode other than signed or positive raises, instead of scoring as mps."""
    with pytest.raises(SemanticError, match="^minimal supports are signed or positive, not 'signd'$"):
        ms_scores(Q_FISH, RECIPE_DB, mode="signd")
    with pytest.raises(SemanticError, match="not 'signd'"):
        ms_shapley(Q_FISH, RECIPE_DB, fact("I", "mm", "fish"), mode="signd")


def test_target_must_be_a_player():
    g = make_game(Q_FISH, RECIPE_DB, WealthKind.MS_SIGNED)
    with pytest.raises(PlayerSetError):
        shapley_subset(g, fact("I", "mm", "fish"))  # plain fact, signed game
    with pytest.raises(PlayerSetError):
        ms_shapley(Q_FISH, RECIPE_DB, fact("I", "zz", "zz"), mode="positive")
    with pytest.raises(PlayerSetError):
        ms_shapley(Q_FISH, RECIPE_DB, negative(fact("I", "mm", "fish")),
                   mode="positive")


# ---------------------------------------------------------------------------
# axioms and route agreement on the corpus
# ---------------------------------------------------------------------------


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_routes_agree_and_efficiency_holds(seed):
    inst = make_instance(seed)
    for kind in WealthKind:
        g = make_game(inst.q, inst.db, kind)
        values = [shapley_subset(g, p) for p in g.players]
        grand = g.wealth(frozenset(g.players)) - g.wealth(frozenset())
        assert sum(values, Fraction(0)) == grand, (str(inst), kind)
        if len(g.players) <= 6:
            by_perm = [shapley_permutation(g, p) for p in g.players]
            assert by_perm == values, (str(inst), kind)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_permutation_all_matches_single_target(seed):
    inst = make_instance(seed)
    g = make_game(inst.q, inst.db, WealthKind.DRASTIC_DIRECT)
    if len(g.players) <= 5:
        whole = shapley_values(g)
        for p in g.players:
            assert whole[p] == shapley_permutation(g, p)


def test_compiled_wealth_matches_oracle_on_corpus():
    """Every coalition's wealth in every compiled game equals the oracle's,
    a Boolean game's bit table over its witness players too, and the
    one-pass values equal the oracle's subset formula over the oracle's own
    table of all players."""
    for inst in corpus(500):
        for kind in WealthKind:
            g = make_game(inst.q, inst.db, kind)
            oracle = oracles.oracle_wealth(kind.value, inst.q, inst.db)
            table = oracles.wealth_table(g.players, oracle)
            assert oracles.wealth_table(g.players, g.wealth) == table, (str(inst), kind)
            if kind.support_mode is None:  # a Boolean game's bit table
                players = g._compiled[0]
                bits = [g._table >> S & 1 for S in range(1 << len(players))]
                assert bits == oracles.wealth_table(players, oracle), (str(inst), kind)
            values = shapley_values(g)
            assert list(values) == list(g.players)
            assert list(values.values()) == oracles.shapley_from_table(
                table, len(g.players)
            ), (str(inst), kind)


def test_a_fourteen_player_drastic_game_matches_the_list_table():
    """Above the corpus sizes (14 players, against at most 10) and with
    forbidden players: the bit table, every Shapley value and every impact
    against the list table of `Game.wealth` that the oracles read."""
    edges = [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4), (4, 0), (2, 0), (0, 3), (4, 4)]
    db = database([fact("R", f"c{i}", f"c{j}") for i, j in edges]
                  + [fact("S", f"c{i}") for i in (0, 2, 3, 4)])
    q = parse_query("exists x, y. R(x,y), !R(y,x), !S(y) | exists x. S(x), !R(x,x)")
    g = make_game(q, db, WealthKind.DRASTIC_DIRECT)
    n = len(g.players)
    assert n == 14
    table = oracles.wealth_table(g.players, g.wealth)
    assert [g._table >> S & 1 for S in range(1 << n)] == table
    assert list(shapley_values(g).values()) == oracles.shapley_from_table(table, n)
    kinds = ("none", "positiveOnly", "negativeOnly", "both")
    want = []
    for i in range(n):
        flips = {table[S | 1 << i] - table[S] for S in range(1 << n) if not S >> i & 1}
        want.append(kinds[(1 in flips) + 2 * (-1 in flips)])
    assert [kind.value for kind in _impacts(g).values()] == want
    assert {"positiveOnly", "negativeOnly", "both"} <= set(want)


def test_null_players_share_zero_and_no_table_bit():
    """A 12-fact drastic game with 4 witness players: every value equals the
    oracle's subset formula over all 12, every null player scores 0, has
    impact none and a marginal of 0 in each of the 12! orderings, and the
    table has a bit per coalition of the witness players only."""
    db = database([fact("S", "a"), fact("S", "b"), fact("T", "a"), fact("U", "c", "c"),
                   fact("T", "c"), fact("U", "a", "b")]
                  + [fact("R", f"c{i}", f"c{i + 1}") for i in range(6)])
    q = parse_query("exists x. S(x), !T(x) | exists x. U(x,x)")
    g = make_game(q, db, WealthKind.DRASTIC_DIRECT)
    players, n = g._compiled[0], len(g.players)
    m = len(players)
    assert (m, n) == (4, 12)
    table = oracles.wealth_table(g.players, oracles.oracle_wealth("drastic", q, db))
    values = shapley_values(g)
    assert list(values.values()) == oracles.shapley_from_table(table, n)
    assert g._table.bit_length() <= 1 << m
    impacts = _impacts(g)
    for p in g.players:
        counts = permutation_marginal_counts(g, p, cap=n)
        assert sum(value * count for value, count in counts.items()) / math.factorial(n) == values[p]
        if p not in players:
            assert values[p] == 0 and counts == {0: math.factorial(n)}
            assert impacts.get(p, ImpactKind.NONE) is impact_relevant(p, q, db) is ImpactKind.NONE


def test_closed_form_equals_subset_shapley_across_corpus():
    checked = 0
    for inst in corpus(500)[:60]:
        for kind, mode in ((WealthKind.MS_SIGNED, "signed"),
                           (WealthKind.MPS_POSITIVE, "positive")):
            g = make_game(inst.q, inst.db, kind)
            for p in g.players:
                assert ms_shapley(inst.q, inst.db, p, mode=mode).score == (
                    shapley_subset(g, p)
                ), (str(inst), kind, str(p))
                checked += 1
    assert checked > 300


def test_ms_shapley_agrees_with_closed_form_and_oracle():
    """The one-pass scores (which `ms_shapley` looks up) against the bounded
    candidate enumeration kept in `oracles`, score and size histogram, for
    both modes and both weights; reciprocal scores also against the
    permutation definition on small games."""
    for inst in corpus(500)[:40]:
        for mode in ("signed", "positive"):
            kind = WealthKind.MS_SIGNED if mode == "signed" else WealthKind.MPS_POSITIVE
            for weight in (reciprocal_weight, constant_weight):
                results = ms_scores(inst.q, inst.db, weight=weight, mode=mode)
                for p, r in results.items():
                    want = oracles.reference_ms_shapley(
                        inst.q, inst.db, p, weight=weight, mode=mode
                    )
                    got = (r.score, dict(r.supports_by_size))
                    assert got == want, (str(inst), mode, str(p))
            g = make_game(inst.q, inst.db, kind)
            if len(g.players) <= 5:
                wealth = oracles.oracle_wealth(kind.value, inst.q, inst.db)
                results = ms_scores(inst.q, inst.db, mode=mode)
                for p in g.players:
                    assert results[p].score == oracles.oracle_shapley(g.players, wealth, p)


def test_ms_shapley_scores_one_target_without_the_completion(monkeypatch):
    """Each player's entry of `ms_scores`, and the same refusals for facts
    outside the player set, with the making of the completion's members
    (`SignedDatabase.__iter__`, which `sorted_facts` uses too) made to fail."""
    from negshapley.core import SignedDatabase

    instances = corpus(500)[:60]
    expected = [
        {mode: ms_scores(inst.q, inst.db, mode=mode) for mode in ("signed", "positive")}
        for inst in instances
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("the signed completion was materialized")

    monkeypatch.setattr(SignedDatabase, "__iter__", refuse)
    for inst, by_mode in zip(instances, expected):
        for mode, scores in by_mode.items():
            for p, result in scores.items():
                assert ms_shapley(inst.q, inst.db, p, mode=mode) == result
        signed, plain = len(by_mode["signed"]), len(by_mode["positive"])
        refusal = lambda target, game, n: "^" + re.escape(
            f"{target} is not a player of the {game} game ({n} players)") + "$"
        outside = [negative(fact("S", "zz")), negative(fact("Unknown", "a")),
                   *map(negative, inst.db.sorted_facts)]
        for target in outside:
            with pytest.raises(PlayerSetError, match=refusal(target, "ms-signed", signed)):
                ms_shapley(inst.q, inst.db, target)
        target = inst.db.sorted_facts[0]
        with pytest.raises(PlayerSetError, match=refusal(target, "ms-signed", signed)):
            ms_shapley(inst.q, inst.db, target)
        with pytest.raises(PlayerSetError, match=refusal(positive(target), "mps", plain)):
            ms_shapley(inst.q, inst.db, positive(target), mode="positive")
        with pytest.raises(PlayerSetError, match=refusal(fact("S", "zz"), "mps", plain)):
            ms_shapley(inst.q, inst.db, fact("S", "zz"), mode="positive")


def test_ms_scores_sum_to_support_count_and_total_size():
    """Every player is scored, in player order; reciprocal scores sum to the
    number of minimal supports and constant-weight scores to their total
    size."""
    for inst in corpus(500):
        for kind, mode, enumerate_supports in (
            (WealthKind.MS_SIGNED, "signed", minimal_signed_supports),
            (WealthKind.MPS_POSITIVE, "positive", minimal_positive_supports),
        ):
            sizes = [len(s.elements) for s in enumerate_supports(inst.q, inst.db)]
            by_count = ms_scores(inst.q, inst.db, weight=reciprocal_weight, mode=mode)
            by_size = ms_scores(inst.q, inst.db, weight=constant_weight, mode=mode)
            players = list(make_game(inst.q, inst.db, kind).players)
            assert list(by_count) == list(by_size) == players, str(inst)
            assert sum(r.score for r in by_count.values()) == len(sizes), str(inst)
            assert sum(r.score for r in by_size.values()) == sum(sizes), str(inst)


def test_monotone_kinds_are_non_negative_and_drastic_is_not():
    seen_negative_drastic = False
    for inst in corpus(500)[:80]:
        for kind in (WealthKind.SIGNED_DRASTIC, WealthKind.MS_SIGNED,
                     WealthKind.MPS_POSITIVE, WealthKind.POSITIVE_DRASTIC):
            g = make_game(inst.q, inst.db, kind)
            assert all(shapley_subset(g, p) >= 0 for p in g.players), (str(inst), kind)
        g = make_game(inst.q, inst.db, WealthKind.DRASTIC_DIRECT)
        seen_negative_drastic |= any(shapley_subset(g, p) < 0 for p in g.players)
    assert seen_negative_drastic, "corpus never exercised a negative drastic score"


def test_restriction_consistency():
    """Scores over the full completion equal scores over the restricted one,
    and the extra players of the full completion are all null."""
    restricted = make_game(Q_CHAIN, ENTAIL_DB, WealthKind.MS_SIGNED)
    completion = signed_database(ENTAIL_DB, extra_relations=Q_CHAIN.relations)
    full = Game(WealthKind.MS_SIGNED, Q_CHAIN, ENTAIL_DB, completion.sorted_facts)
    assert set(restricted.players) < set(full.players)
    for p in full.players:
        score = shapley_subset(full, p)
        if p in restricted.players:
            assert score == shapley_subset(restricted, p)
        else:
            assert score == 0


def test_game_is_memoized_but_wealth_stays_pure():
    g = make_game(Q_FISH, RECIPE_DB, WealthKind.MPS_POSITIVE)
    s = frozenset({fact("I", "mm", "fish")})
    assert g.wealth(s) == g.wealth(s) == 1
    assert isinstance(g, Game)
