"""Acceptance gate: six end-to-end checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one PASS/FAIL line
per criterion; each test also prints a clause-by-clause breakdown (visible
with ``-s``, or automatically in the captured output of a failure).

Criteria 3 and 4 each pin one published value that cannot hold for the
instance it accompanies.  Neither is asserted as true; each is kept as a
refutation clause, checked by a route independent of the engine:

- Criterion 3, "13 orderings with a +1 marginal and 13 with a -1 marginal"
  for I(mp,wine) under Q2.  With 5 players every marginal-value count is a
  sum of |S|!(4-|S|)! terms, all even, so 13 is impossible.  The clause
  recounts the orderings from the subset side and asserts 16/16/88, equal
  to `permutation_marginal_counts`.
- Criterion 4, "the sole minimal positive support of Q_TERNARY is
  {R(b,c,d), R(d,a,a)}".  Its only R(_,y,y) fact forces y = a, and it holds
  no R(a,_,_) fact for the atom R(y,z,u).  The clause asserts that the set
  is neither a positive support nor satisfying.

The values the engine and the brute-force oracles agree on are asserted
alongside as "derived" clauses.
"""

import time
from fractions import Fraction

from negshapley.core import database, fact, negative, positive
from negshapley.errors import SemanticError
from negshapley.query import mergeable_pairs, sign_transform
from negshapley.reference import entailment_supports_bounded
from negshapley.relevance import (
    ImpactKind,
    impact_relevant,
    positive_relevant,
    signed_relevant,
)
from negshapley.shapley import (
    WealthKind,
    make_game,
    ms_shapley,
    permutation_marginal_counts,
    shapley_permutation,
    shapley_subset,
)
from negshapley.supports import (
    guarded_reduction,
    is_d_monotone_support,
    is_positive_support,
    is_signed_support,
    minimal_d_monotone_supports,
    minimal_positive_supports,
    minimal_signed_supports,
    satisfies,
    signed_satisfies,
)
from negshapley.query import Query, signed_database_restricted

import oracles
from corpus import corpus
from instances import (
    ABC_DB,
    ENTAIL_DB,
    ENTAIL_EXTRA,
    ENTAIL_MINIMAL,
    Q2,
    Q_CHAIN,
    Q_FISH,
    Q_MONOTONE_CHAIN,
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


def _report(num: int, title: str, clauses: list[tuple[str, bool]]) -> None:
    failed = [name for name, ok in clauses if not ok]
    print(f"\nCRITERION {num} [{'PASS' if not failed else 'FAIL'}] {title}")
    for name, ok in clauses:
        print(f"    {'ok  ' if ok else 'FAIL'}  {name}")
    assert not failed, f"criterion {num}: failed clauses {failed}"


def test_criterion_1_recipe_golden_values():
    t0 = time.monotonic()
    clauses = []

    positives = {s.elements for s in minimal_positive_supports(Q_FISH, RECIPE_DB)}
    clauses.append(
        (
            "minimal positive supports == {{I(mm,fish)}}",
            positives == {frozenset({fact("I", "mm", "fish")})},
        )
    )

    signeds = {s.elements for s in minimal_signed_supports(Q_FISH, RECIPE_DB)}
    clauses.append(
        (
            "minimal signed supports == {{+I(mm,fish), -I(mm,meat)}}",
            signeds
            == {
                frozenset(
                    {positive(fact("I", "mm", "fish")), negative(fact("I", "mm", "meat"))}
                )
            },
        )
    )

    mp_fish = fact("I", "mp", "fish")
    clauses.append(
        (
            "I(mp,fish) impact-relevant",
            impact_relevant(mp_fish, Q_FISH, RECIPE_DB) is not ImpactKind.NONE,
        )
    )
    clauses.append(
        (
            "I(mp,fish) not signed-relevant and not positive-relevant",
            not signed_relevant(mp_fish, Q_FISH, RECIPE_DB)
            and not positive_relevant(mp_fish, Q_FISH, RECIPE_DB),
        )
    )

    elapsed = time.monotonic() - t0
    clauses.append((f"completed in under 1 s (took {elapsed:.3f}s)", elapsed < 1.0))
    _report(1, "recipe golden values", clauses)


def test_criterion_2_triangle_exact_scores():
    t0 = time.monotonic()
    clauses = []

    # brute-force validation of the reconstruction, straight from the oracle
    brute = set(oracles.oracle_minimal_signed_supports(Q_TRIANGLE, TRIANGLE_DB))
    clauses.append(
        ("brute force confirms the two pinned minimal signed supports",
         brute == {TRIANGLE_S1, TRIANGLE_S2})
    )
    engine = {s.elements for s in minimal_signed_supports(Q_TRIANGLE, TRIANGLE_DB)}
    clauses.append(("engine agrees with brute force", engine == brute))

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
    game = make_game(Q_TRIANGLE, TRIANGLE_DB, WealthKind.MS_SIGNED)
    clauses.append(
        ("player set is the 9-fact signed completion",
         {str(p) for p in game.players} == set(expected))
    )
    by_subset = {str(p): shapley_subset(game, p) for p in game.players}
    by_closed = {
        str(p): ms_shapley(Q_TRIANGLE, TRIANGLE_DB, p).score for p in game.players
    }
    clauses.append(("subset-formula scores match exactly", by_subset == expected))
    clauses.append(("closed-form scores match exactly", by_closed == expected))

    elapsed = time.monotonic() - t0
    clauses.append((f"completed in under 1 s (took {elapsed:.3f}s)", elapsed < 1.0))
    _report(2, "triangle exact scores", clauses)


def test_criterion_3_drastic_zero_score_orderings():
    t0 = time.monotonic()
    clauses = []

    game = make_game(Q2, RECIPE_DB, WealthKind.DRASTIC_DIRECT)
    mp_wine, mm_wine = fact("I", "mp", "wine"), fact("I", "mm", "wine")

    clauses.append(
        ("Sh(drastic, I(mp,wine)) == 0", shapley_permutation(game, mp_wine) == 0)
    )

    counts = permutation_marginal_counts(game, mp_wine)
    # Published: 13 orderings with a +1 marginal and 13 with a -1 marginal.
    # With 5 players, a target preceded by a set S opens |S|!(4-|S|)!
    # orderings (24, 6, 4, 6 or 24), all even, so no marginal value of any
    # 5-player game has an odd count and 13 cannot occur.  The clause
    # recounts from the subset side, on the oracle's own drastic wealth, and
    # checks the engine's ordering scan against it.
    players = list(game.players)
    recount = oracles.marginal_counts_from_table(
        oracles.wealth_table(players, oracles.oracle_wealth("drastic", Q2, RECIPE_DB)),
        len(players),
        players.index(mp_wine),
    )
    up, down = recount.get(Fraction(1), 0), recount.get(Fraction(-1), 0)
    clauses.append(
        (f"published 13/13 refuted: the subset-side recount gives {up}/{down}, "
         "equals the ordering scan, and has only even counts",
         recount == counts
         and recount == {Fraction(1): 16, Fraction(-1): 16, Fraction(0): 88}
         and all(c % 2 == 0 for c in recount.values()))
    )
    clauses.append(
        ("derived: 16 positive / 16 negative / 88 neutral orderings",
         counts == {Fraction(1): 16, Fraction(-1): 16, Fraction(0): 88})
    )
    oracle_value = oracles.oracle_shapley(game.players, game.wealth, mp_wine)
    clauses.append(("permutation-definition oracle also gives 0", oracle_value == 0))

    clauses.append(
        ("Sh(drastic, I(mm,wine)) < 0", shapley_permutation(game, mm_wine) < 0)
    )
    clauses.append(
        ("I(mp,wine) positive-relevant and signed-relevant",
         positive_relevant(mp_wine, Q2, RECIPE_DB)
         and signed_relevant(mp_wine, Q2, RECIPE_DB))
    )

    elapsed = time.monotonic() - t0
    clauses.append((f"completed in under 1 s (took {elapsed:.3f}s)", elapsed < 1.0))
    _report(3, "drastic zero-score instance", clauses)


def test_criterion_4_counterexample_suite():
    clauses = []

    def timed(name: str, budget: float = 1.0):
        start = time.monotonic()

        def finish(*checks: tuple[str, bool]) -> None:
            clauses.extend(checks)
            took = time.monotonic() - start
            clauses.append((f"{name}: under {budget:.0f} s (took {took:.3f}s)",
                            took < budget))

        return finish

    # --- entailment-semantics example -------------------------------------
    finish = timed("entailment example")
    signeds = {s.elements for s in minimal_signed_supports(Q_CHAIN, ENTAIL_DB)}
    finish(
        ("unique minimal signed support {+A(c), +R(c,d), -A(d)}",
         signeds == {ENTAIL_MINIMAL}),
        ("4-element set passes bounded entailment over {b,c,d}",
         entailment_supports_bounded(ENTAIL_EXTRA, Q_CHAIN, {"b", "c", "d"})),
        ("4-element set is not a signed support",
         not is_signed_support(ENTAIL_EXTRA, Q_CHAIN, ENTAIL_DB)),
    )

    # --- {A(c), C(c)}: monotone-vs-positive separation ---------------------
    finish = timed("two-branch example")
    S = frozenset({fact("A", "c"), fact("C", "c")})
    minimal_mono = {s.elements for s in minimal_d_monotone_supports(Q_TWO_BRANCH, ABC_DB)}
    finish(
        ("{A(c), C(c)} is a minimal monotone support", S in minimal_mono),
        ("{A(c), C(c)} is not a positive support",
         not is_positive_support(S, Q_TWO_BRANCH, ABC_DB)),
    )

    # --- ternary self-join example -----------------------------------------
    finish = timed("ternary example")
    ternary_minimal = {s.elements for s in minimal_positive_supports(Q_TERNARY, TERNARY_DB)}
    stated = frozenset({fact("R", "b", "c", "d"), fact("R", "d", "a", "a")})
    derived = frozenset({fact("R", "a", "b", "b"), fact("R", "d", "a", "a")})
    brute = set(oracles.oracle_minimal_positive_supports(Q_TERNARY, TERNARY_DB))
    # Published: the sole minimal positive support is {R(b,c,d), R(d,a,a)}.
    # Its only fact of the shape R(_,y,y) is R(d,a,a), so y = a, and the atom
    # R(y,z,u) then needs a fact R(a,_,_), which the set lacks: it does not
    # satisfy its own query's positive atoms.  The clause checks that both
    # the engine and the assignment-search oracle reject it.
    finish(
        ("published sole support {R(b,c,d), R(d,a,a)} refuted: "
         "neither a positive support nor satisfying",
         not is_positive_support(stated, Q_TERNARY, TERNARY_DB)
         and not oracles.oracle_satisfies(Q_TERNARY, stated)),
        ("derived: sole minimal positive support is {R(a,b,b), R(d,a,a)}",
         ternary_minimal == {derived} and brute == {derived}),
        ("derived: {R(a,b,b), R(b,c,d)} is monotone but not a positive support",
         is_d_monotone_support({fact("R", "a", "b", "b"), fact("R", "b", "c", "d")},
                               Q_TERNARY, TERNARY_DB)
         and not is_positive_support({fact("R", "a", "b", "b"),
                                      fact("R", "b", "c", "d")},
                                     Q_TERNARY, TERNARY_DB)),
    )

    # --- witness splitting signed from positive relevance -------------------
    finish = timed("relevance witness")
    witness_minimal = {s.elements for s in minimal_positive_supports(Q_WITNESS, WITNESS_DB)}
    finish(
        ("{R(a,c)} is the sole minimal positive support",
         witness_minimal == {frozenset({fact("R", "a", "c")})}),
        ("+R(a,b) is signed-relevant all the same",
         signed_relevant(positive(fact("R", "a", "b")), Q_WITNESS, WITNESS_DB)),
    )

    # --- chains, n = 2..4 ---------------------------------------------------
    for n in (2, 3, 4):
        finish = timed(f"chains n={n}")
        mono_db = monotone_chain(n)
        sizes = {
            len(s.elements)
            for s in minimal_d_monotone_supports(Q_MONOTONE_CHAIN, mono_db)
        }
        ent_db, support, domain = entailment_chain(n)
        finish(
            (f"a minimal monotone support of size {n + 2} exists", n + 2 in sizes),
            (f"the {len(support)}-fact entailment support passes the bounded check",
             entailment_supports_bounded(support, Q_CHAIN, domain, cap=30)),
        )

    _report(4, "counterexample suite", clauses)


def test_criterion_5_oracle_equivalence_properties():
    t0 = time.monotonic()
    instances = corpus(500)
    perm_comparisons = 0
    closed_comparisons = 0

    for inst in instances:
        q, db = inst.q, inst.db

        # satisfaction equivalence: plain truth == signed truth of the
        # transformed query, over both the restricted and full completions
        transformed = sign_transform(q)
        plain = satisfies(q, db)
        assert plain == signed_satisfies(
            transformed, signed_database_restricted(db, q)
        ), f"restricted completion disagrees on {inst}"
        assert plain == oracles.oracle_satisfies(q, db.facts), str(inst)

        signed_members: set = set()
        positive_members: set = set()

        for kind in WealthKind:
            game = make_game(q, db, kind)
            players = list(game.players)
            n = len(players)

            table = oracles.wealth_table(players, game.wealth)
            oracle_scores = oracles.shapley_from_table(table, n)
            engine_scores = [shapley_subset(game, p) for p in players]
            assert engine_scores == oracle_scores, (str(inst), kind)

            # efficiency
            assert sum(engine_scores, Fraction(0)) == table[-1] - table[0], (
                str(inst),
                kind,
            )
            # null players score exactly zero
            for is_null, score in zip(
                oracles.null_players_from_table(table, n), engine_scores
            ):
                assert not is_null or score == 0, (str(inst), kind)
            # non-negativity for the monotone kinds
            if kind is not WealthKind.DRASTIC_DIRECT:
                assert all(s >= 0 for s in engine_scores), (str(inst), kind)

            if n <= 6:
                for p, want in zip(players, engine_scores):
                    assert shapley_permutation(game, p) == want, (str(inst), kind)
                    perm_comparisons += 1

            if kind is WealthKind.MS_SIGNED:
                for p, want in zip(players, engine_scores):
                    got = ms_shapley(q, db, p, mode="signed").score
                    assert got == want, (str(inst), str(p))
                    closed_comparisons += 1
                    if got != 0:
                        signed_members.add(p)
            elif kind is WealthKind.MPS_POSITIVE:
                for p, want in zip(players, engine_scores):
                    got = ms_shapley(q, db, p, mode="positive").score
                    assert got == want, (str(inst), str(p))
                    closed_comparisons += 1
                    if got != 0:
                        positive_members.add(p)

        # score-relevance equivalences
        in_signed = {
            sf for s in minimal_signed_supports(q, db) for sf in s.elements
        }
        in_positive = {
            f for s in minimal_positive_supports(q, db) for f in s.elements
        }
        assert signed_members == in_signed, str(inst)
        assert positive_members == in_positive, str(inst)

    elapsed = time.monotonic() - t0
    _report(
        5,
        "oracle-equivalence properties",
        [
            (f"{len(instances)} instances (>= 500)", len(instances) >= 500),
            ("permutation == subset == closed form wherever applicable "
             f"({perm_comparisons} permutation and {closed_comparisons} "
             "closed-form comparisons)",
             perm_comparisons >= 2000 and closed_comparisons >= 2000),
            ("efficiency, null-player, non-negativity, satisfaction and "
             "score-relevance equivalences all held (asserted inline)", True),
            (f"completed in under 2 min (took {elapsed:.1f}s)", elapsed < 120.0),
        ],
    )


def test_criterion_6_structural_lemma_properties():
    t0 = time.monotonic()
    instances = corpus(500)

    monotone_checked = 0
    bijection_checked = 0
    reductions_checked = 0

    for inst in instances:
        q, db = inst.q, inst.db

        minimal_pos = [s.elements for s in minimal_positive_supports(q, db)]
        in_positive = {f for s in minimal_pos for f in s}
        in_signed = {
            sf for s in minimal_signed_supports(q, db) for sf in s.elements
        }

        # every positive support is a monotone support
        for s in minimal_pos:
            assert is_d_monotone_support(s, q, db), (str(inst), sorted(map(str, s)))
            monotone_checked += 1

        # positive-relevant facts are signed-relevant as positive facts
        for f in in_positive:
            assert positive(f) in in_signed, (str(inst), str(f))

        for cq in q.disjuncts:
            sub_q = Query((cq,))
            signed_minimal = [
                s.elements for s in minimal_signed_supports(sub_q, db)
            ]
            pos_minimal = {s.elements for s in minimal_positive_supports(sub_q, db)}

            if not mergeable_pairs(cq):
                # dropping negative facts maps minimal signed supports
                # bijectively onto minimal positive supports
                images = [
                    frozenset(sf.fact for sf in s if sf.sign.symbol == "+")
                    for s in signed_minimal
                ]
                assert set(images) == pos_minimal, str(inst)
                assert len(images) == len(set(images)) == len(signed_minimal), (
                    f"positive parts repeat among minimal signed supports of {inst}"
                )
                bijection_checked += 1

            try:
                red = guarded_reduction(sub_q, db)
            except SemanticError:
                continue
            reduced = {
                s.elements
                for s in minimal_positive_supports(red.q_plus, red.d_double_prime)
            }
            assert reduced == pos_minimal, (str(inst), str(cq))
            reductions_checked += 1

    elapsed = time.monotonic() - t0
    _report(
        6,
        "structural lemmas",
        [
            (f"positive=>monotone on {monotone_checked} supports (>= 200)",
             monotone_checked >= 200),
            (f"signed<->positive bijection on {bijection_checked} "
             "self-join-free disjuncts (>= 300)", bijection_checked >= 300),
            (f"guarded reduction claim on {reductions_checked} disjuncts (>= 200)",
             reductions_checked >= 200),
            ("positive-relevant => signed-relevant held (asserted inline)", True),
            (f"completed in under 2 min (took {elapsed:.1f}s)", elapsed < 120.0),
        ],
    )
