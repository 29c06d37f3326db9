"""Command-line front end: golden outputs, exit codes, determinism."""

import contextlib
import importlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negshapley.cli import main

import oracles
from corpus import corpus

RECIPE = """\
I(mp,wine)
I(mp,meat)
I(mp,fish)
I(mm,wine)
I(mm,fish)
"""

Q_FISH_TEXT = '# fish but no meat\nexists x. I(x,"fish"), !I(x,"meat")\n'
Q2_TEXT = 'exists x. I(x,"meat"), I(x,"wine") | exists x. I(x,"fish"), !I(x,"wine")\n'


@pytest.fixture()
def paths(tmp_path):
    db = tmp_path / "recipe.facts"
    db.write_text(RECIPE)
    q = tmp_path / "fish.query"
    q.write_text(Q_FISH_TEXT)
    q2 = tmp_path / "q2.query"
    q2.write_text(Q2_TEXT)
    return {"db": str(db), "q": str(q), "q2": str(q2), "dir": tmp_path}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# supports
# ---------------------------------------------------------------------------


def test_supports_signed_table_golden(capsys, paths):
    code, out, err = run(
        capsys, "supports", "--db", paths["db"], "--query", paths["q"], "--kind", "signed"
    )
    assert code == 0 and err == ""
    assert out == (
        "support                     size  minimal\n"
        "{+I(mm,fish), -I(mm,meat)}  2     true\n"
    )


def test_supports_signed_json(capsys, paths):
    code, out, _ = run(
        capsys, "supports", "--db", paths["db"], "--query", paths["q"],
        "--kind", "signed", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "supports"
    assert doc["supports"] == [
        {"elements": ["+I(mm,fish)", "-I(mm,meat)"], "size": 2, "minimal": True}
    ]


def test_supports_positive_and_dmonotone(capsys, paths):
    code, out, _ = run(
        capsys, "supports", "--db", paths["db"], "--query", paths["q"],
        "--kind", "positive", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["supports"][0]["elements"] == ["I(mm,fish)"]

    code, out, _ = run(
        capsys, "supports", "--db", paths["db"], "--query", paths["q"],
        "--kind", "dmonotone", "--format", "json",
    )
    assert code == 0
    elems = {tuple(s["elements"]) for s in json.loads(out)["supports"]}
    assert ("I(mm,fish)",) in elems


def test_supports_all_includes_non_minimal(capsys, paths):
    code, out, _ = run(
        capsys, "supports", "--db", paths["db"], "--query", paths["q"],
        "--kind", "positive", "--all", "--format", "json",
    )
    assert code == 0
    sups = json.loads(out)["supports"]
    assert len(sups) == 16  # all supersets of {I(mm,fish)} within the 5 facts
    assert sum(1 for s in sups if s["minimal"]) == 1


def test_supports_all_honours_the_signed_cap(capsys, tmp_path):
    """``--all`` counts the completion against ``--cap-signed`` as the
    minimal listing does, before building it."""
    db, q = tmp_path / "two.facts", tmp_path / "j.query"
    db.write_text("I(mp,wine)\nI(mm,fish)\n")
    q.write_text("exists x, y. I(x,y), !J(x)\n")
    io = ("supports", "--db", str(db), "--query", str(q), "--kind", "signed")
    for extra in ((), ("--all",)):
        code, out, err = run(capsys, *io, *extra, "--cap-signed", "3")
        assert (code, out) == (3, "")
        assert err == "error: signed completion would hold 6 facts, above the cap of 3\n"
    code, out, _ = run(capsys, *io, "--all", "--cap-signed", "6", "--format", "json")
    sups = json.loads(out)["supports"]
    assert code == 0 and len(sups) == 2 * 2**4 - 2**2  # supersets of either minimal
    assert sum(s["minimal"] for s in sups) == 2


def test_supports_all_refuses_before_compiling(capsys, paths, monkeypatch):
    """The listing cap is checked by counting, so a refused listing never
    searches for assignments, compiles its witnesses or makes its players."""
    from negshapley.core import SignedDatabase

    calls = _count_compilations(monkeypatch)
    searches = _count_searches(monkeypatch)
    built = []
    real = SignedDatabase.__iter__
    monkeypatch.setattr(SignedDatabase, "__iter__", lambda self: built.append(self) or real(self))
    code, out, err = run(
        capsys, "supports", "--db", paths["db"], "--query", paths["q"],
        "--kind", "signed", "--all",
    )
    assert (code, out) == (3, "") and calls == built == searches == []
    assert err == "error: listing all supports over 25 facts needs 2^25 checks (cap 20)\n"


def test_supports_empty_for_unsatisfied_query(capsys, paths, tmp_path):
    q = tmp_path / "none.query"
    q.write_text('exists x. I(x,"caviar")\n')
    code, out, _ = run(
        capsys, "supports", "--db", paths["db"], "--query", str(q), "--format", "json"
    )
    assert code == 0 and json.loads(out)["supports"] == []


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


def test_score_single_fact_json_golden(capsys, paths):
    code, out, _ = run(
        capsys, "score", "--db", paths["db"], "--query", paths["q"],
        "--measure", "ms-signed", "--fact", "+I(mm,fish)", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["measure"] == "ms-signed" and doc["weight"] == "reciprocal"
    (rec,) = doc["records"]
    assert rec["fact"] == "+I(mm,fish)"
    assert rec["values"]["ms-signed"] == {"num": "1", "den": "2"}
    assert rec["method"] == "closed-form"
    assert rec["supportsBySize"] == {"2": 1}


def test_score_table_and_json_carry_identical_values(capsys, paths):
    code, table, _ = run(
        capsys, "score", "--db", paths["db"], "--query", paths["q"],
        "--measure", "ms-signed", "--all",
    )
    assert code == 0
    cells = {
        line.split()[0]: line.split()[1]
        for line in table.splitlines()[1:]
    }
    code, out, _ = run(
        capsys, "score", "--db", paths["db"], "--query", paths["q"],
        "--measure", "ms-signed", "--all", "--format", "json",
    )
    doc = json.loads(out)
    for rec in doc["records"]:
        num, den = rec["values"]["ms-signed"]["num"], rec["values"]["ms-signed"]["den"]
        rendered = num if den == "1" else f"{num}/{den}"
        assert cells[rec["fact"]] == rendered
    assert cells["+I(mm,fish)"] == "1/2" and cells["-I(mm,meat)"] == "1/2"


def test_score_drastic_q2_zero(capsys, paths):
    code, out, _ = run(
        capsys, "score", "--db", paths["db"], "--query", paths["q2"],
        "--measure", "drastic", "--fact", "I(mp,wine)", "--format", "json",
    )
    assert code == 0
    (rec,) = json.loads(out)["records"]
    assert rec["values"]["drastic"] == {"num": "0", "den": "1"}
    assert rec["method"] == "subset"  # a Boolean game is played on its table


def test_score_methods_agree(capsys, paths):
    """The measure picks the route: a Boolean game is played on its table
    (``subset``), a counting measure summed over its minimal supports
    (``closed-form``)."""
    for measure, fact, method, value in [
        ("drastic", "I(mm,wine)", "subset", {"num": "-1", "den": "6"}),
        ("mps", "I(mp,wine)", "closed-form", {"num": "1", "den": "2"}),
    ]:
        code, out, _ = run(
            capsys, "score", "--db", paths["db"], "--query", paths["q2"],
            "--measure", measure, "--fact", fact, "--format", "json",
        )
        assert code == 0
        (record,) = json.loads(out)["records"]
        assert (record["method"], record["values"][measure]) == (method, value)


def test_score_mps_weight_constant(capsys, paths):
    code, out, _ = run(
        capsys, "score", "--db", paths["db"], "--query", paths["q"],
        "--measure", "mps", "--weight", "constant", "--fact", "I(mm,fish)",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["records"][0]["values"]["mps"] == {"num": "1", "den": "1"}


def test_score_all_records_equal_single_fact_records(capsys, paths):
    """One pass over the supports scores every player exactly as scoring
    each fact on its own does."""
    for query in (paths["q"], paths["q2"]):
        for measure in ("ms-signed", "mps"):
            for weight in ("reciprocal", "constant"):
                args = (
                    "score", "--db", paths["db"], "--query", query,
                    "--measure", measure, "--weight", weight, "--format", "json",
                )
                code, out, _ = run(capsys, *args, "--all")
                assert code == 0
                records = json.loads(out)["records"]
                assert len(records) == (25 if measure == "ms-signed" else 5)
                for record in records:
                    code, out, _ = run(capsys, *args, f"--fact={record['fact']}")
                    assert code == 0
                    assert json.loads(out)["records"] == [record], (measure, weight)


def test_negative_fact_value_needs_no_equals_sign(capsys, paths):
    """``--fact -I(mm,meat)`` reads the signed fact, exactly as
    ``--fact=-I(mm,meat)`` does, in both output formats."""
    base = ("score", "--db", paths["db"], "--query", paths["q"], "--measure", "ms-signed")
    for fmt in ("table", "json"):
        code, apart, err = run(capsys, *base, "--fact", "-I(mm,meat)", "--format", fmt)
        assert code == 0 and err == ""
        code, joined, _ = run(capsys, *base, "--fact=-I(mm,meat)", "--format", fmt)
        assert code == 0 and apart == joined
    (rec,) = json.loads(apart)["records"]
    assert rec["fact"] == "-I(mm,meat)" and rec["method"] == "closed-form"
    assert rec["values"]["ms-signed"] == {"num": "1", "den": "2"}

    code, out, err = run(capsys, *base, "--fact")
    assert code == 1 and out == "" and "--fact" in err


def _count_compilations(monkeypatch) -> list:
    """Count calls of the witness compiler, wherever a module holds it."""
    import negshapley.shapley as shapley
    import negshapley.supports as supports

    calls = []
    real = supports.compile_witnesses
    counted = lambda *a, **k: calls.append(a) or real(*a, **k)
    for module in (shapley, supports):
        monkeypatch.setattr(module, "compile_witnesses", counted)
    return calls


def _count_searches(monkeypatch) -> list:
    """Count the assignment searches started, one per `_iter_assignments` call."""
    import negshapley.supports as supports

    searches = []
    real = supports._iter_assignments
    monkeypatch.setattr(
        supports, "_iter_assignments", lambda *a: searches.append(a) or real(*a)
    )
    return searches


def _count_games(monkeypatch) -> list:
    """Count calls of `make_game`, wherever a module holds it."""
    import negshapley.cli as cli
    import negshapley.shapley as shapley

    built = []
    real = shapley.make_game
    counted = lambda *a, **k: built.append(a) or real(*a, **k)
    for module in (cli, shapley):
        if getattr(module, "make_game", None) is real:
            monkeypatch.setattr(module, "make_game", counted)
    return built


def _count_completions(monkeypatch) -> list:
    """Count the completions made, one per `signed_database` call through the
    name `query` holds."""
    import negshapley.query as query

    made = []
    real = query.signed_database
    monkeypatch.setattr(query, "signed_database", lambda *a, **k: made.append(a) or real(*a, **k))
    return made


class _Listed(Exception):
    """Raised by a patched `SignedDatabase.sorted_facts`: the completion was listed."""


def _forbid_listing(monkeypatch) -> None:
    """Make reading `SignedDatabase.sorted_facts`, every member built, raise."""
    from negshapley.core import SignedDatabase

    def listed(self):
        raise _Listed(repr(self))

    monkeypatch.setattr(SignedDatabase, "sorted_facts", property(listed))


@pytest.mark.parametrize("measure", ["ms-signed", "signed-drastic"])
def test_score_all_counts_the_completion_once(capsys, paths, monkeypatch, measure):
    """Within ``--cap-subset``, ``score --all``, ``score --fact`` and
    ``compare`` count the restricted completion once.  Above it, the rows
    are the players `scores` counted, and a signed-drastic table is refused
    from that count, with no search and no player listed."""
    made = _count_completions(monkeypatch)
    io = ("--db", paths["db"], "--query", paths["q"])
    for argv in (("score", "--measure", measure, "--all"),
                 ("score", "--measure", measure, "--fact=-I(mm,meat)"), ("compare",)):
        del made[:]
        code, out, err = run(capsys, *argv, *io, "--cap-subset", "25")
        assert (code, err, len(made)) == (0, "", 1) and "error" not in out, argv
    del made[:]
    searches = _count_searches(monkeypatch)
    _forbid_listing(monkeypatch)
    code, out, _ = run(capsys, "score", *io, "--measure", measure, "--all", "--cap-subset", "2")
    assert code == 0 and len(made) == 1 and len(searches) == (measure == "ms-signed")
    assert len(out.splitlines()) == 1 + 25  # the header and the restricted completion


def test_no_score_or_report_lists_the_completion(capsys, paths, monkeypatch):
    """Every measure's score of all players and of one, ``relevance``,
    ``compare``, `shapley_values` of a `make_game` game and
    `impact_relevant` give the same output with `SignedDatabase.sorted_facts`
    raising: only ``supports --kind signed --all`` lists the completion."""
    from negshapley.core import load_database
    from negshapley.query import parse_query
    from negshapley.relevance import impact_relevant
    from negshapley.shapley import WealthKind, make_game, shapley_values

    io = ("--db", paths["db"], "--query", paths["q"])
    runs = [("relevance",), ("compare",), ("compare", "--format", "json")]
    for measure, player in (
        ("drastic", "I(mm,fish)"), ("positive-drastic", "I(mm,fish)"), ("mps", "I(mp,fish)"),
        ("signed-drastic", "-I(mm,meat)"), ("ms-signed", "-I(mm,meat)"),
    ):
        runs += [("score", "--measure", measure, players, "--cap-subset", "25")
                 for players in ("--all", f"--fact={player}")]
    q, db = parse_query(Q_FISH_TEXT.split("\n", 1)[1]), load_database(paths["db"])

    def outputs():
        return ([run(capsys, *argv, *io) for argv in runs],
                [shapley_values(make_game(q, db, kind), cap=25) for kind in WealthKind],
                [impact_relevant(f, q, db) for f in db])

    want = outputs()
    assert all(code == 0 and err == "" for code, _, err in want[0])
    _forbid_listing(monkeypatch)
    assert outputs() == want
    small = paths["dir"] / "small.facts"  # 16 signed players, within the listing cap
    small.write_text("I(mm,fish)\nI(mp,meat)\n")
    with pytest.raises(_Listed):
        main(["supports", "--kind", "signed", "--all", "--db", str(small), "--query", paths["q"]])


def test_score_all_compiles_one_game(capsys, paths, monkeypatch):
    calls = _count_compilations(monkeypatch)
    built = _count_games(monkeypatch)
    code, out, _ = run(
        capsys, "score", "--db", paths["db"], "--query", paths["q2"],
        "--measure", "drastic", "--all", "--format", "json",
    )
    assert code == 0 and len(built) == len(calls) == 1
    records = json.loads(out)["records"]
    assert len(records) == 5 and all(r["method"] == "subset" for r in records)
    by_fact = {r["fact"]: r["values"]["drastic"] for r in records}
    assert by_fact["I(mp,wine)"] == {"num": "0", "den": "1"}
    assert by_fact["I(mm,wine)"] == {"num": "-1", "den": "6"}


def test_auto_builds_one_game_per_target(capsys, paths, monkeypatch):
    built = _count_games(monkeypatch)
    code, out, _ = run(
        capsys, "score", "--db", paths["db"], "--query", paths["q2"],
        "--measure", "drastic", "--fact", "I(mm,wine)", "--format", "json",
    )
    assert code == 0 and len(built) == 1
    (rec,) = json.loads(out)["records"]
    assert rec["values"]["drastic"] == {"num": "-1", "den": "6"}
    assert rec["method"] == "subset"


def test_score_refuses_a_non_player_before_searching(capsys, paths, monkeypatch):
    """Under every measure, a `--fact` that is no player is refused (exit 2)
    with the one message, before any assignment search starts."""
    searches = _count_searches(monkeypatch)
    base = ("score", "--db", paths["db"], "--query", paths["q"])
    for measure, target, players in (
        ("drastic", "I(zz,fish)", 5), ("positive-drastic", "I(zz,fish)", 5),
        ("mps", "I(zz,fish)", 5), ("signed-drastic", "-I(zz,meat)", 25),
        ("ms-signed", "-I(zz,meat)", 25),
    ):
        refusal = f"error: {target} is not a player of the {measure} game ({players} players)\n"
        got = run(capsys, *base, "--measure", measure, f"--fact={target}")
        assert got == (2, "", refusal) and searches == [], measure


def test_each_listing_and_score_runs_one_search(capsys, paths, monkeypatch):
    """Every minimal listing, the listings with `--all` that the recipe's 5
    facts allow, and every measure's score of all players or of one, run
    one assignment search.  Only the drastic game and the `dmonotone`
    listing compile witnesses; the other games and listings are read off
    the minimal supports.  The recipe's 25 signed players are over the
    subset cap, so `signed-drastic` plays on 2 of its facts (16 players)."""
    calls = _count_compilations(monkeypatch)
    searches = _count_searches(monkeypatch)
    small = paths["dir"] / "small.facts"
    small.write_text("I(mm,fish)\nI(mp,meat)\n")
    runs = [(("supports", "--kind", kind), kind == "dmonotone")
            for kind in ("signed", "positive", "dmonotone")]
    runs += [(("supports", "--kind", kind, "--all"), kind == "dmonotone")
             for kind in ("positive", "dmonotone")]
    for measure, player in (
        ("drastic", "I(mm,fish)"), ("positive-drastic", "I(mm,fish)"), ("mps", "I(mm,fish)"),
        ("signed-drastic", "-I(mm,meat)"), ("ms-signed", "-I(mm,meat)"),
    ):
        runs += [(("score", "--measure", measure, players), measure == "drastic")
                 for players in ("--all", f"--fact={player}")]
    for argv, compiles in runs:
        db = small if "signed-drastic" in argv else paths["db"]
        del calls[:], searches[:]
        code, out, err = run(capsys, *argv, "--db", str(db), "--query", paths["q"])
        assert code == 0 and "error" not in out + err, argv
        assert (len(searches), len(calls)) == (1, compiles), argv


def test_runs_are_deterministic(capsys, paths):
    args = ("compare", "--db", paths["db"], "--query", paths["q"])
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


# ---------------------------------------------------------------------------
# per-fact cap reporting
# ---------------------------------------------------------------------------


@pytest.fixture()
def big_paths(tmp_path):
    db = tmp_path / "big.facts"
    db.write_text("".join(f"R(v{i},v{i + 1})\n" for i in range(9)))
    q = tmp_path / "pos.query"
    q.write_text("exists x, y. R(x,y)\n")
    return {"db": str(db), "q": str(q)}


def test_cap_error_is_embedded_per_fact_in_bulk_mode(capsys, big_paths):
    code, out, _ = run(
        capsys, "score", "--db", big_paths["db"], "--query", big_paths["q"],
        "--measure", "drastic", "--cap-subset", "8", "--all",
        "--format", "json",
    )
    assert code == 0
    recs = json.loads(out)["records"]
    assert len(recs) == 9
    assert all("cap 8" in r["error"] for r in recs)


def test_caps_refuse_before_compiling(capsys, big_paths, monkeypatch):
    """A game or impact table that a cap refuses is never compiled, and every
    fact's error record names the subset cap, the one route of a game."""
    from negshapley.core import load_database
    from negshapley.query import parse_query
    from negshapley.relevance import relevance_report

    calls = _count_compilations(monkeypatch)
    code, out, _ = run(
        capsys, "score", "--db", big_paths["db"], "--query", big_paths["q"],
        "--measure", "drastic", "--all", "--cap-subset", "5", "--format", "json",
    )
    assert code == 0 and calls == []
    assert json.loads(out)["records"] == [
        {"fact": f"R(v{i},v{i + 1})", "error": "9 players means 2^8 coalitions (cap 5)"}
        for i in range(9)
    ]
    code, out, err = run(
        capsys, "score", "--db", big_paths["db"], "--query", big_paths["q"],
        "--measure", "drastic", "--fact", "R(v0,v1)", "--cap-subset", "5",
    )
    assert (code, out, err) == (3, "", "error: 9 players means 2^8 coalitions (cap 5)\n")
    assert calls == []

    q = parse_query("exists x, y. R(x,y)")
    db = load_database(big_paths["db"])
    rows = relevance_report(q, db, impact_cap=8)
    assert calls == [] and all(r.impact_skipped for r in rows)
    rows = relevance_report(q, db, impact_cap=9)
    assert len(calls) == 1 and {r.impact.value for r in rows} == {"positiveOnly"}


def test_cap_error_is_fatal_in_single_fact_mode(capsys, big_paths):
    code, _, err = run(
        capsys, "score", "--db", big_paths["db"], "--query", big_paths["q"],
        "--measure", "drastic", "--cap-subset", "8", "--fact", "R(v0,v1)",
    )
    assert code == 3 and "cap 8" in err


def test_counting_measures_never_meet_the_table_cap(capsys, paths):
    """A counting measure is scored by its closed form, which builds no
    coalition table, so ``--cap-subset`` leaves its output as it is."""
    base = ("score", "--db", paths["db"], "--query", paths["q"], "--measure", "ms-signed")
    for players in ("--all", "--fact=-I(mm,meat)"):
        for fmt in ("table", "json"):
            want = run(capsys, *base, players, "--format", fmt)
            assert want[0] == 0 and "error" not in want[1]
            assert run(capsys, *base, players, "--format", fmt, "--cap-subset", "2") == want
    assert len(json.loads(want[1])["records"]) == 1


# ---------------------------------------------------------------------------
# relevance / analyze / compare
# ---------------------------------------------------------------------------


def test_relevance_table(capsys, paths):
    code, out, _ = run(capsys, "relevance", "--db", paths["db"], "--query", paths["q"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["fact", "signedRelevant", "positiveRelevant", "impact"]
    assert lines[1].split() == ["+I(mm,fish)", "true", "true", "positiveOnly"]
    by_fact = {l.split()[0]: l.split() for l in lines[1:]}
    assert by_fact["+I(mp,fish)"][1:] == ["false", "false", "positiveOnly"]
    assert by_fact["-I(mm,meat)"][1:] == ["true", "-", "-"]
    assert len(lines) == 1 + 25


def test_analyze_golden(capsys, paths):
    code, out, _ = run(capsys, "analyze", "--query", paths["q"])
    assert code == 0
    assert out == (
        'query = exists x. I(x,"fish"), !I(x,"meat")\n'
        "negativeArity = 2\n"
        "guarded = true\n"
        "negPath = false\n"
        "selfJoinFreePositive = true\n"
        "selfJoinFreeAll = false\n"
        "disjunct 0: selfJoinWidth = 0, mergeablePairs = [], guarded = true, "
        "negPath = false\n"
    )


def test_compare_matrix(capsys, paths):
    code, out, _ = run(capsys, "compare", "--db", paths["db"], "--query", paths["q"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == [
        "fact", "signedRelevant", "positiveRelevant", "impact",
        "ms-signed", "mps", "drastic",
    ]
    by_fact = {l.split()[0]: l.split() for l in lines[1:]}
    assert by_fact["+I(mm,fish)"][1:] == [
        "true", "true", "positiveOnly", "1/2", "1", "5/6"
    ]
    assert by_fact["+I(mp,meat)"][1:] == [
        "false", "false", "negativeOnly", "0", "0", "-1/6"
    ]


def test_compare_searches_once_and_compiles_drastic_once(capsys, paths, monkeypatch):
    """One assignment search serves both support families, and one drastic
    compile serves the impact column and the drastic column."""
    searches = _count_searches(monkeypatch)
    code, _, _ = run(capsys, "compare", "--db", paths["db"], "--query", paths["q"])
    assert code == 0 and len(searches) == 2


def test_compare_empty_database(capsys, paths, tmp_path):
    empty = tmp_path / "empty.facts"
    empty.write_text("")
    code, out, _ = run(
        capsys, "compare", "--db", str(empty), "--query", paths["q"],
        "--format", "json",
    )
    assert code == 0 and json.loads(out)["records"] == []


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_exit_1_on_query_syntax_error(capsys, paths, tmp_path):
    bad = tmp_path / "bad.query"
    bad.write_text("exists x. I(x\n")
    code, _, err = run(capsys, "supports", "--db", paths["db"], "--query", str(bad))
    assert code == 1 and "error:" in err


def test_exit_1_on_missing_file(capsys, paths):
    code, _, err = run(
        capsys, "supports", "--db", "nosuch.facts", "--query", paths["q"]
    )
    assert code == 1 and "cannot read" in err


def test_exit_1_on_fact_file_that_is_not_utf8(capsys, paths, tmp_path):
    bad = tmp_path / "bad.facts"
    bad.write_bytes(b"\xffI(a,b)\n")
    code, out, err = run(capsys, "supports", "--db", str(bad), "--query", paths["q"])
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot read fact file: 'utf-8' codec can't decode")


def test_exit_1_on_query_file_that_is_not_utf8(capsys, paths, tmp_path):
    bad = tmp_path / "bad.query"
    bad.write_bytes(b"exists x. I(x,\"fish\")\xfe\n")
    for argv in (["supports", "--db", paths["db"]], ["analyze"]):
        code, out, err = run(capsys, *argv, "--query", str(bad))
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot read query file: 'utf-8' codec can't decode")


def test_a_leading_byte_order_mark_is_ignored(capsys, paths, tmp_path):
    """Fact and query files saved with a UTF-8 byte-order mark give the plain
    files' output; a mark past the start is still a syntax error."""
    bom = {}
    for name in ("db", "q"):
        bom[name] = tmp_path / f"bom-{Path(paths[name]).name}"
        bom[name].write_bytes(b"\xef\xbb\xbf" + Path(paths[name]).read_bytes())
    inputs = [(db, q) for db in (paths["db"], bom["db"]) for q in (paths["q"], bom["q"])]
    for argv in (("supports", "--kind", "signed"), ("score", "--measure", "ms-signed", "--all"),
                 ("relevance",), ("compare",)):
        for fmt in ("table", "json"):
            got = {run(capsys, *argv, "--db", str(db), "--query", str(q), "--format", fmt)
                   for db, q in inputs}
            assert len(got) == 1 and next(iter(got))[0] == 0, argv
    got = {run(capsys, "analyze", "--query", str(q)) for q in (paths["q"], bom["q"])}
    assert len(got) == 1 and next(iter(got))[0] == 0

    inner = tmp_path / "inner.facts"
    inner.write_text("I(mm,fish)\n\ufeffI(mm,wine)\n", encoding="utf-8")
    code, out, err = run(capsys, "supports", "--db", str(inner), "--query", paths["q"])
    assert (code, out) == (1, "") and err.startswith("error: line 2: cannot parse fact")
    inner = tmp_path / "inner.query"
    inner.write_text('exists x. \ufeffI(x,"fish")\n', encoding="utf-8")
    code, out, err = run(capsys, "analyze", "--query", str(inner))
    assert (code, out) == (1, "") and err.startswith("error: unexpected character '\\ufeff'")


def test_exit_1_on_unknown_flag(capsys, paths):
    code, _, err = run(
        capsys, "supports", "--db", paths["db"], "--query", paths["q"], "--bogus"
    )
    assert code == 1


def test_exit_2_on_unsafe_query(capsys, paths, tmp_path):
    unsafe = tmp_path / "unsafe.query"
    unsafe.write_text("exists x, y. I(x,y), !R(y,x), !R(x,z)\n")
    code, _, err = run(capsys, "supports", "--db", paths["db"], "--query", str(unsafe))
    assert code in (1, 2)  # undeclared variable is a syntax-level refusal
    unsafe.write_text("exists x, y, z. I(x,y), !R(y,z)\n")
    code, _, err = run(capsys, "supports", "--db", paths["db"], "--query", str(unsafe))
    assert code == 2 and "unsafe" in err


@pytest.mark.parametrize(
    "command, flag",
    [
        ("supports", "--cap-signed"),
        ("relevance", "--cap-signed"),
        ("score", "--cap-signed"),
        ("score", "--cap-subset"),
        ("compare", "--cap-subset"),
    ],
)
def test_exit_1_on_negative_integer_flag(capsys, paths, command, flag):
    code, out, err = run(
        capsys, command, "--db", paths["db"], "--query", paths["q"], flag, "-1"
    )
    assert code == 1 and out == ""
    assert flag in err and "non-negative" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("score", "--method", "permutation"),
        ("score", "--method", "subset"),
        ("score", "--method", "closed-form"),
        ("score", "--cap-perm", "8"),
        ("compare", "--cap-perm", "8"),
        ("score", "--fact", "I(mm,fish)", "--all"),
    ],
)
def test_removed_permutation_flags_are_usage_errors(capsys, paths, argv):
    """The measure picks the one route of each score, so ``--method`` and
    the permutation cap are gone from the command line; ``--fact`` and
    ``--all`` are alternatives."""
    code, out, err = run(capsys, argv[0], "--db", paths["db"], "--query", paths["q"], *argv[1:])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and argv[1] in err


def test_exit_1_on_non_integer_flag(capsys, paths):
    code, _, err = run(
        capsys, "score", "--db", paths["db"], "--query", paths["q"],
        "--cap-subset", "many",
    )
    assert code == 1 and "--cap-subset" in err and "invalid int value" in err


def test_exit_3_on_signed_cap(capsys, paths):
    code, _, err = run(
        capsys, "supports", "--db", paths["db"], "--query", paths["q"],
        "--kind", "signed", "--cap-signed", "3",
    )
    assert code == 3 and "cap" in err


_SIGNED_COMMANDS = [
    ("supports", "--kind", "signed"),
    ("relevance",),
    ("compare",),
    ("score", "--measure", "ms-signed"),
    ("score", "--measure", "signed-drastic"),
]


@pytest.mark.parametrize("command", _SIGNED_COMMANDS)
def test_signed_cap_is_checked_by_every_command(capsys, paths, command):
    """The recipe's restricted completion holds 25 facts; whether or not a
    command builds it, the cap refuses it with the same message."""
    code, out, err = run(
        capsys, command[0], "--db", paths["db"], "--query", paths["q"],
        *command[1:], "--cap-signed", "3",
    )
    assert (code, out) == (3, "")
    assert err == "error: signed completion would hold 25 facts, above the cap of 3\n"


@pytest.mark.parametrize("command", [("relevance",), ("supports", "--kind", "signed")])
def test_signed_cap_names_a_size_too_long_to_print(capsys, tmp_path, command):
    """A 15,000-ary negated relation over two constants: the completion's
    size has more decimal digits than an int-to-str conversion allows, so
    the message gives a power of two below it instead of a traceback."""
    db, q = tmp_path / "s.facts", tmp_path / "wide.query"
    db.write_text("S(a)\nS(b)\n")
    q.write_text(f"exists x. S(x), !R({','.join(['x'] * 15000)})\n")
    try:
        size = str(2 + 2**15000)
    except ValueError:  # past sys.get_int_max_str_digits()
        size = "at least 2^15000"
    code, out, err = run(capsys, command[0], "--db", str(db), "--query", str(q), *command[1:])
    assert (code, out) == (3, "")
    assert err == f"error: signed completion would hold {size} facts, above the cap of 1000000\n"


@pytest.mark.parametrize("command", _SIGNED_COMMANDS)
def test_arity_clash_keeps_its_message(capsys, paths, command):
    clash = paths["dir"] / "clash.query"
    clash.write_text("exists x. I(x), !I(x)\n")
    code, out, err = run(
        capsys, command[0], "--db", paths["db"], "--query", str(clash), *command[1:]
    )
    assert (code, out) == (2, "")
    assert err == "error: relation I used with arities 2 and 1\n"


def _chain_query(atoms: int) -> str:
    names = ", ".join(f"x{i}" for i in range(atoms + 1))
    body = ", ".join(f"E(x{i},x{i + 1})" for i in range(atoms))
    return f"exists {names}. {body}\n"


def test_deep_query_fails_cleanly(tmp_path):
    """A disjunct deeper than the assignment search allows is refused with
    exit 3 before the search starts, not with a traceback."""
    from negshapley.supports import MAX_POSITIVE_ATOMS

    db = tmp_path / "loop.facts"
    db.write_text("E(a,a)\n")
    deep = tmp_path / "deep.query"
    deep.write_text(_chain_query(1200))
    proc = subprocess.run(
        [sys.executable, "-m", "negshapley.cli", "supports", "--db", str(db),
         "--query", str(deep), "--kind", "positive"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    assert f"limit {MAX_POSITIVE_ATOMS}" in proc.stderr


def test_query_at_the_depth_limit_runs(capsys, tmp_path):
    from negshapley.supports import MAX_POSITIVE_ATOMS

    db = tmp_path / "loop.facts"
    db.write_text("E(a,a)\n")
    q = tmp_path / "limit.query"
    q.write_text(_chain_query(MAX_POSITIVE_ATOMS))
    code, out, err = run(
        capsys, "supports", "--db", str(db), "--query", str(q), "--kind", "positive",
    )
    assert code == 0 and err == ""
    assert out.splitlines()[1].split() == ["{E(a,a)}", "1", "true"]


def test_console_script_entry_point(paths):
    proc = subprocess.run(
        [sys.executable, "-m", "negshapley.cli", "analyze", "--query", paths["q"]],
        capture_output=True,
        text=True,
    )
    # module execution mirrors the installed `negshapley` script
    assert proc.returncode == 0
    assert "guarded = true" in proc.stdout


def test_console_script_names_an_importable_main():
    """The ``negshapley`` entry of ``[project.scripts]`` in ``pyproject.toml``
    (read with a regex: Python 3.10 has no ``tomllib``) is ``cli.main``."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    entry = re.search(r'^negshapley\s*=\s*"([^"]*)"\s*$', scripts[1] if scripts else "", re.M)
    assert entry and entry[1] == "negshapley.cli:main"
    module, name = entry[1].split(":")
    target = getattr(importlib.import_module(module), name)
    assert callable(target) and target is main


def _cli(*argv: str) -> list[str]:
    return [sys.executable, "-m", "negshapley.cli", *argv]


def test_reader_gone_exits_4_without_a_traceback(paths):
    """As under ``| head -n 1``, deterministically: the pipe's read end is
    closed before the command writes anything."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            _cli("relevance", "--db", paths["db"], "--query", paths["q"]),
            stdout=write, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (4, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("command", [("supports",), ("relevance", "--format", "json")])
def test_a_failed_write_exits_4_with_one_line(paths, command):
    """A write that fails for another reason than a closed pipe, here a full
    device, is reported in one line of stderr, with no traceback."""
    with open("/dev/full", "w") as full:
        proc = subprocess.run(_cli(*command, "--db", paths["db"], "--query", paths["q"]),
                              stdout=full, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 4
    assert proc.stderr.startswith("error: cannot write output: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_closed_stdout_exits_4_without_a_traceback(paths):
    proc = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh",
         *_cli("compare", "--db", paths["db"], "--query", paths["q"], "--format", "json")],
        stderr=subprocess.PIPE, text=True,
    )
    assert (proc.returncode, proc.stderr) == (4, "")


def test_json_output_is_what_json_dumps_writes(capsys, tmp_path):
    """Records are written from templates; every document must still be
    ``json.dumps(..., indent=2)`` of itself, over the corpus.  ``relevance``
    and ``compare`` are held to a reference written by ``json.dumps`` in
    `test_reports_match_the_materialized_reference_on_corpus`.  The drastic
    cap gives error records on the larger instances and scores on the rest."""
    commands = [
        ("supports", "--kind", "signed"), ("score", "--measure", "ms-signed"),
        ("score", "--measure", "drastic", "--cap-subset", "3"), ("analyze",),
    ]
    for inst in corpus(500):
        here = Path(tempfile.mkdtemp(dir=tmp_path))
        (here / "i.facts").write_text("".join(f"{f}\n" for f in inst.db.sorted_facts))
        (here / "i.query").write_text(f"{inst.q}\n")
        io = ("--db", str(here / "i.facts"), "--query", str(here / "i.query"))
        for command in commands:
            code, out, _ = run(capsys, *command, *io, "--format", "json")
            if code == 0:
                assert out == json.dumps(json.loads(out), indent=2) + "\n", (str(inst), command)



def _strings() -> list[str]:
    """Seeded random strings of quotes, backslashes, control characters,
    DEL, printable ASCII, and characters past ASCII and past the BMP."""
    import random

    rng = random.Random(23)
    pools = ['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "\x80", " ", "\ud800",
             "\U0001f600", "\U0010ffff", "a", " ", "/", "(", ","]
    return ["".join(rng.choice(pools) for _ in range(rng.randrange(12))) for _ in range(3000)]


def test_dumps_is_json_dumps_for_every_code_point_and_mixed_strings():
    """`output._dumps` quotes printable ASCII itself and hands everything
    else to `json`; the two must agree on every string."""
    from negshapley.output import _dumps

    differ = [hex(c) for c in range(0x110000) if _dumps(chr(c)) != json.dumps(chr(c))]
    assert differ == []
    assert [s for s in _strings() if _dumps(s) != json.dumps(s)] == []
    assert _dumps("a", indent=2) == json.dumps("a", indent=2)
    assert _dumps({"a": ["\x7f"]}, indent=2) == json.dumps({"a": ["\x7f"]}, indent=2)


def test_row_writer_quotes_facts_as_json_dumps(capsys):
    """The row writer's ``fact`` cell is ``json.dumps`` of the fact, on a
    fact of every code point of the BMP, of every 257th above it, and of
    every mixed string.  (`_dumps` itself is checked on every code point
    above; the rest of the document is held to ``json.dumps`` by
    `test_json_output_is_what_json_dumps_writes`.)"""
    from argparse import Namespace

    from negshapley.core import Fact, Relation, database
    from negshapley.output import _write_rows

    arg = lambda s: Fact(Relation("R", 1), (s,))
    code_points = [*range(0x10000), *range(0x10000, 0x110000, 257), 0x10FFFF]
    for strings in [list(map(chr, code_points)), _strings()]:
        db = database(map(arg, strings))
        _write_rows(Namespace(format="json"), {"command": "x"}, ("fact",), list,
                    lambda: "\n    }", tuple, db, [])
        records = ('{\n      "fact": ' + json.dumps(str(f)) + "\n    }" for f in db.sorted_facts)
        assert capsys.readouterr().out == (
            '{\n  "command": "x",\n  "records": [\n    ' + ",\n    ".join(records) + "\n  ]\n}\n")


def _parser_cases(paths) -> list[list[str]]:
    files = ["--db", paths["db"], "--query", paths["q"]]
    return [
        ["--help"], ["-h"], [],
        *([name, "--help"] for name in ("supports", "score", "relevance", "analyze", "compare")),
        ["nosuch", *files], ["scor", *files], ["supports", "--query", paths["q"]],
        ["score", "--query", paths["q"]], ["score", *files, "--measure", "nosuch"],
        ["score", *files, "--cap-subset", "-1"], ["compare", *files, "--cap-subset", "-1"],
        ["score", *files, "--measure", "ms-signed", "--fact", "-I(mm,meat)"],
        ["score", *files, "--measure", "ms-signed", "--fact", "-I(mm,nosuch)"],
        ["score", *files, "--fact", "-I(mm,meat)", "--all"],
        ["supports", *files, "--measure", "mps"], ["analyze", "--query", paths["q"], "--all"],
    ]


def test_each_subcommand_parser_is_the_full_parsers():
    """`_build_parser(command)` adds the arguments of ``command`` only; its
    help, and the help of that subcommand, are the full parser's."""
    from negshapley.cli import _COMMANDS, _build_parser

    def helps(parser) -> dict:
        (action,) = parser._subparsers._group_actions
        return {None: parser.format_help(),
                **{name: p.format_help() for name, p in action.choices.items()}}

    full = helps(_build_parser(None))
    for name in _COMMANDS:
        assert _build_parser(name) is _build_parser(name)
        own = helps(_build_parser(name))
        assert (own[None], own[name]) == (full[None], full[name])


def test_main_answers_as_with_the_full_parser(capsys, paths, monkeypatch):
    """Help, usage errors and runs give the same stdout, stderr and exit
    code whether `main` builds one subcommand's arguments or all of them."""
    import negshapley.cli as cli

    def outcome(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    lazy = [outcome(argv) for argv in _parser_cases(paths)]
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: build(None))
    assert lazy == [outcome(argv) for argv in _parser_cases(paths)]
    assert [code for code, _, _ in lazy] == [0, 0, 1, *[0] * 5, 1, 1, 1, 1, 1, 1, 1, 0, 2, 1, 1, 1]


def _outcome(argv) -> tuple:
    """`main`'s (exit code, stdout, stderr) on ``argv``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _check_plain_reader(argv) -> None:
    """`cli._read_plain` gives up on ``argv``, or argparse accepts it and
    makes the same namespace, with every subcommand's arguments or with
    those of the one named; and `main` answers as with the reader off."""
    import negshapley.cli as cli

    attached = cli._attach_fact_values(argv)
    plain = cli._read_plain(attached)
    if plain is not None:
        for command in (None, attached[0]):
            assert vars(plain) == vars(cli._build_parser(command).parse_args(attached)), argv
    read = _outcome(argv)
    with mock.patch.object(cli, "_read_plain", lambda argv: None):
        assert read == _outcome(argv), argv


def _workload_argvs(directory: Path) -> list[list[str]]:
    """Each benchmark workload's calls, on its smoke-sized inputs written
    to ``directory``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
        argvs = []
        for name in workloads.WORKLOADS:
            workload = workloads.build(name, 0, "smoke")
            workload.write(directory)
            argvs += [[str(directory / a) if a.endswith((".facts", ".q")) else a
                       for a in call.argv] for call in workload.invocations]
    finally:
        del sys.modules[spec.name]
    return argvs


def test_plain_reader_reads_as_argparse_on_every_known_call(paths):
    """The argvs of `_parser_cases`, of every benchmark workload and of the
    byte-identity sweep (tests/sweep.py) on a few corpus instances, and a
    few abbreviated and repeated flags; every workload call and sweep call
    is read without argparse, and no abbreviation or repeat is."""
    import negshapley.cli as cli
    from sweep import _argvs

    known = _workload_argvs(paths["dir"] / "workloads")
    db, q = paths["dir"] / "i.facts", paths["dir"] / "i.query"
    for inst in corpus(500)[:6]:
        db.write_text("".join(f"{f}\n" for f in inst.db.sorted_facts))
        q.write_text(f"{inst.q}\n")
        for argv in [*known, *([*a, "--db", str(db), "--query", str(q)] for a in _argvs(inst))]:
            assert cli._read_plain(cli._attach_fact_values(argv)) is not None, argv
            _check_plain_reader(argv)
        known = []
    for argv in _parser_cases(paths):
        _check_plain_reader(argv)
    files = ["--db", paths["db"], "--query", paths["q"]]
    for argv in (["score", *files, "--meas", "mps"], ["score", *files, "--f", "json"],
                 ["score", *files, "--cap-s", "3"],
                 ["supports", *files, "--format", "json", "--format", "table"]):
        assert cli._read_plain(argv) is None, argv  # abbreviations and repeats are argparse's
        _check_plain_reader(argv)


_DB_TOKEN, _QUERY_TOKEN = "<db>", "<query>"
_VALUES = ["json", "table", "xml", "signed", "positive", "dmonotone", "mps", "drastic",
           "signed-drastic", "ms-signed", "nosuch", "constant", "reciprocal", "0", "3", "007",
           "20", "-1", "+3", " 3", "\u0663", "9" * 5000, "", "-", "--", "-h", "I(mm,fish)",
           "-I(mm,meat)", "+I(mm,fish)", "-I(mm,nosuch)", "a=b", _DB_TOKEN, _QUERY_TOKEN]
_FLAGS = ["--db", "--query", "--format", "--cap-signed", "--cap-subset", "--kind", "--all",
          "--measure", "--weight", "--fact", "--meas", "--fo", "--cap-s", "--al", "--d", "--q",
          "--bogus", "-h", "--help", "--", "-x"]
_pair = st.tuples(st.sampled_from(_FLAGS), st.sampled_from(_VALUES), st.booleans()).map(
    lambda p: [f"{p[0]}={p[1]}"] if p[2] else [p[0], p[1]])
_token = st.one_of(st.sampled_from(_FLAGS), st.sampled_from(_VALUES)).map(lambda t: [t])
_format, _cap_signed = [["--format", "json"], ["--format=table"]], [["--cap-signed", "30"]]
_PLAIN = {  # flags written in full, with values each subcommand takes
    "supports": [*_format, *_cap_signed, ["--kind", "positive"], ["--kind=dmonotone"], ["--all"]],
    "score": [*_format, *_cap_signed, ["--measure", "mps"], ["--measure=drastic"],
              ["--weight", "constant"], ["--cap-subset", "3"], ["--cap-subset=007"],
              ["--fact", "I(mm,fish)"], ["--fact", "-I(mm,meat)"], ["--fact=+I(mm,fish)"],
              ["--all"], ["--all", "--fact=I(mm,fish)"]],  # the last is exclusive
    "relevance": [*_format, *_cap_signed],
    "analyze": [*_format, *_cap_signed],
    "compare": [*_format, *_cap_signed, ["--cap-subset", "3"]],
}
_ABBREVIATED = [["--meas", "mps"], ["--f", "json"], ["--cap-s", "3"], ["--cap-su=3"], ["--al"]]
_plain = st.sampled_from(sum(_PLAIN.values(), []))
_files = st.sampled_from([[], ["--query", _QUERY_TOKEN], ["--db", _DB_TOKEN, "--query", _QUERY_TOKEN],
                          [f"--query={_QUERY_TOKEN}", f"--db={_DB_TOKEN}"]])
_argv = st.one_of(
    st.tuples(st.sampled_from([*_PLAIN, "scor", "-h", "--help", "--db"]),
              st.lists(st.one_of(_plain, _pair, _token), max_size=4), _files, st.booleans()),
    st.sampled_from(list(_PLAIN)).flatmap(lambda command: st.tuples(
        st.just(command),
        st.lists(st.sampled_from([*_PLAIN[command], *_ABBREVIATED]), max_size=3,
                 unique_by=lambda f: f[0].partition("=")[0]),
        st.just(["--db", _DB_TOKEN, "--query", _QUERY_TOKEN]), st.booleans())),
).map(lambda t: [t[0], *sum(t[1], []), *t[2]] if t[3] else [t[0], *t[2], *sum(t[1], [])])


@given(_argv)
@settings(max_examples=400, deadline=None)
def test_plain_reader_gives_up_or_reads_as_argparse(argv):
    """Fuzzed command lines of full and abbreviated flags, ``=`` forms,
    repeats, help, ``--``, empty values, signed numbers, zero-padded and
    non-ASCII digits, bad choices, signed facts and junk."""
    with tempfile.TemporaryDirectory() as here:
        db, q = Path(here) / "i.facts", Path(here) / "i.query"
        db.write_text(RECIPE)
        q.write_text(Q_FISH_TEXT)
        _check_plain_reader([a.replace(_DB_TOKEN, str(db)).replace(_QUERY_TOKEN, str(q))
                             for a in argv])


_HASH_SEED_SCRIPT = """
import json, sys
from negshapley.cli import main
for argv in json.loads(sys.argv[1]):
    for fmt in ("table", "json"):
        if main([*argv, "--format", fmt]):
            sys.exit(f"exit code not 0: {argv} {fmt}")
"""


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    """Sets and dicts keyed by strings iterate in an order that moves with
    ``PYTHONHASHSEED``, and so does `Database.by_relation`; no output may
    follow it, in either format."""
    import random

    rng = random.Random(7)
    names = [f"c{i}" for i in range(12)]
    facts = {f"R({rng.choice(names)},{rng.choice(names)})" for _ in range(30)}
    facts |= {f"S({name})" for name in rng.sample(names, 5)}
    facts |= {f"U({rng.choice(names)},{rng.choice(names)},{rng.choice(names)})" for _ in range(40)}
    (tmp_path / "g.facts").write_text("".join(f"{f}\n" for f in sorted(facts)))
    (tmp_path / "g.query").write_text(
        "exists x, y. R(x,y), !S(y), !R(y,x) | exists x. S(x), !T(x,x)\n"
    )
    (tmp_path / "u.query").write_text("exists x, y, z. R(x,y), R(y,z), !U(x,y,z), x != z\n")
    io = ["--db", str(tmp_path / "g.facts"), "--query", str(tmp_path / "g.query")]
    io3 = [*io[:3], str(tmp_path / "u.query")]  # a ternary relation negated
    argv = [["relevance", *io], ["compare", *io], ["supports", *io, "--kind", "signed"],
            ["supports", *io, "--kind", "positive"], ["score", *io, "--all"],
            ["score", *io, "--all", "--measure", "mps"], ["relevance", *io3], ["compare", *io3],
            ["supports", *io3], ["score", *io3, "--all"]]
    outputs = {
        seed: subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT, json.dumps(argv)], capture_output=True,
            text=True, env={**os.environ, "PYTHONHASHSEED": seed},
        )
        for seed in ("1", "2")
    }
    assert (outputs["1"].returncode, outputs["1"].stderr) == (0, "")
    assert outputs["1"].stdout.count("\n") > 500
    assert outputs["1"].stdout == outputs["2"].stdout


_ARITY_CLASH_SCRIPT = """
import sys
from negshapley.cli import main
db, q, two = sys.argv[1:]
for argv in (["analyze", "--query", two], ["supports", "--db", db, "--query", q],
             ["supports", "--kind", "positive", "--db", db, "--query", q],
             ["score", "--db", db, "--query", q], ["relevance", "--db", db, "--query", q],
             ["score", "--measure", "drastic", "--db", db, "--query", q]):
    print(main(argv), file=sys.stderr)
"""


def test_arity_clash_messages_do_not_depend_on_the_hash_seed(tmp_path):
    """A clash names the same relation and arities in the same order under
    every ``PYTHONHASHSEED``: relations are checked in query or sorted order."""
    (tmp_path / "d.facts").write_text("R(a)\nS(a)\n")
    (tmp_path / "q.query").write_text("exists x, y. R(x,y), S(x,y)\n")
    (tmp_path / "two.query").write_text("exists x. S(x) | exists x. S(x,x)\n")
    paths = [str(tmp_path / name) for name in ("d.facts", "q.query", "two.query")]
    errors = {
        subprocess.run(
            [sys.executable, "-c", _ARITY_CLASH_SCRIPT, *paths], capture_output=True,
            text=True, env={**os.environ, "PYTHONHASHSEED": seed},
        ).stderr
        for seed in ("0", "1", "2", "3", "7", "9")
    }
    used, data = "used with arities 1 and 2\n2\n", "has arity 1 in the data but arity 2 in the query\n2\n"
    assert errors == {"".join(
        "error: relation " + line
        for line in ("S " + used, "R " + used, "R " + data, "R " + used, "R " + used, "R " + data)
    )}


# ---------------------------------------------------------------------------
# streamed reports against the materialized reference
# ---------------------------------------------------------------------------


def _instance_files(tmp_path, q, db):
    """The instance written to files: the query as read back, and the
    ``--db``/``--query`` arguments.  A ground disjunct has no surface syntax,
    so it is written with an unused variable."""
    from negshapley.query import parse_query

    text = " | ".join(str(cq) if cq.variables else f"exists x. {cq}" for cq in q.disjuncts)
    # A new directory per call: truncating a file in place is slow on some
    # filesystems, and this runs hundreds of times.
    here = Path(tempfile.mkdtemp(dir=tmp_path))
    (here / "i.facts").write_text("".join(f"{f}\n" for f in db.sorted_facts))
    (here / "i.query").write_text(text + "\n")
    return parse_query(text), ("--db", str(here / "i.facts"), "--query", str(here / "i.query"))


def _report_outputs(capsys, tmp_path, q, db, *extra):
    """(command, format) -> (exit code, stdout, stderr) of ``relevance`` and
    ``compare`` on the instance, written to files first."""
    q, io = _instance_files(tmp_path, q, db)
    outputs = {
        (command, fmt): run(capsys, command, *io, "--format", fmt, *extra)
        for command in ("relevance", "compare")
        for fmt in ("table", "json")
    }
    return q, outputs


def _assert_matches_reference(capsys, tmp_path, q, db, label=""):
    q, outputs = _report_outputs(capsys, tmp_path, q, db)
    for key, want in oracles.reference_reports(q, db).items():
        assert outputs[key] == (0, want, ""), (label, key)


def test_reports_match_the_materialized_reference_on_corpus(capsys, tmp_path):
    for inst in corpus(500):
        _assert_matches_reference(capsys, tmp_path, inst.q, inst.db, str(inst))


_EDGE_DBS = {
    "empty": "",
    # the longest constant's tuple is stored, so it is a + row, not a - row
    "stored-longest": "R(abc,abc)\nR(a,b)\nS(a)\n",
    "mixed-lengths": "R(mp,wine)\nR(mm,fish)\nR(verylongmenu,x)\nS(mm)\n",
    # 21 facts: impact is skipped and every drastic value is a cap error
    "over-the-caps": "".join(f"R(v{i},v{i + 1})\n" for i in range(20)) + "S(v0)\n",
    # +R(a,b) is signed-relevant without being positive-relevant
    "witness": "R(a,b)\nR(a,c)\nB(b)\n",
}
_EDGE_QUERIES = [
    "exists x, y. R(x,y), !R(y,x)",
    # a negated relation absent from the database: all of it is negative
    "exists x. S(x), !AbsentRelation(x)",
    "exists x, y. R(x,y), !S(y) | exists x. S(x), x != \"a\"",
    "exists x, y, z. R(x,y), R(x,z), !A(y), !B(z)",
]


@pytest.mark.parametrize("facts", sorted(_EDGE_DBS))
@pytest.mark.parametrize("query", _EDGE_QUERIES)
def test_reports_match_the_materialized_reference_on_edge_cases(
    capsys, tmp_path, facts, query
):
    from negshapley.core import load_database
    from negshapley.query import parse_query

    (tmp_path / "edge.facts").write_text(_EDGE_DBS[facts])
    db = load_database(tmp_path / "edge.facts")
    _assert_matches_reference(capsys, tmp_path, parse_query(query), db)


def test_reports_keep_the_signed_cap_refusal(capsys, tmp_path):
    """Refused at the cap with the materialized completion's message, and
    with nothing written to stdout."""
    from negshapley.errors import CapExceededError
    from negshapley.query import signed_database_restricted

    for inst in corpus(500)[:50]:
        with pytest.raises(CapExceededError) as refused:
            signed_database_restricted(inst.db, inst.q, cap=len(inst.db.facts) - 1)
        _, outputs = _report_outputs(
            capsys, tmp_path, inst.q, inst.db, "--cap-signed", str(len(inst.db.facts) - 1)
        )
        assert set(outputs.values()) == {(3, "", f"error: {refused.value}\n")}


def test_reports_never_build_the_completion(capsys, tmp_path, monkeypatch):
    """The rows stream from the active domain's argument tuples: with the
    making of the completion's members (`SignedDatabase.__iter__`, which
    `sorted_facts` uses too) made to fail, the reports still match the
    reference."""
    from negshapley.core import SignedDatabase

    def refuse(*args, **kwargs):
        raise AssertionError("the signed completion was materialized")

    monkeypatch.setattr(SignedDatabase, "__iter__", refuse)
    for inst in corpus(500)[::25]:
        _assert_matches_reference(capsys, tmp_path, inst.q, inst.db, str(inst))


# ---------------------------------------------------------------------------
# streamed score records against the materialized reference
# ---------------------------------------------------------------------------

_SCORED = ("drastic", "signed-drastic", "positive-drastic", "ms-signed", "mps")


def _score_calls(tmp_path, q, db, measures=_SCORED, runs=((), ("--all",), ("--cap-subset", "2")),
                 weights=tuple(oracles.WEIGHTS), formats=("table", "json")):
    """(argv, expected output) of ``score`` on the instance, expected from
    `oracles.reference_score`: each measure, weight and format, scoring every
    player by each of ``runs``, the extra arguments (no player flag, ``--all``
    or ``--cap-subset N``; a counting game builds no table, so it never meets
    the cap and takes no ``--cap-subset`` run)."""
    q, io = _instance_files(tmp_path, q, db)
    for measure in measures:
        for run_ in runs:
            if "--cap-subset" in run_ and measure in ("ms-signed", "mps"):
                continue
            cap = int(run_[1]) if "--cap-subset" in run_ else 20
            for weight in weights:
                reference = oracles.reference_score(q, db, measure, weight, subset_cap=cap)
                for fmt in formats:
                    argv = ("score", *io, "--measure", measure, "--weight", weight, "--format", fmt)
                    yield (*argv, *run_), reference[fmt]


def _assert_score_matches_reference(capsys, tmp_path, q, db, label="", **options):
    for argv, want in _score_calls(tmp_path, q, db, **options):
        assert run(capsys, *argv) == (0, want, ""), (label, argv[5:])


def test_score_matches_the_materialized_reference_on_corpus(capsys, tmp_path):
    """Every measure on every instance, with and without ``--cap-subset 2``.
    Each instance takes one weight, one way of scoring every player and one
    format in turn, so that each of the eight pairings covers 62 or 63
    instances and the test takes seconds: on inputs this small, most of a
    call of ``main`` is building its argument parser."""
    for i, inst in enumerate(corpus(500)):
        _assert_score_matches_reference(
            capsys, tmp_path, inst.q, inst.db, str(inst),
            runs=[[(), ("--all",)][i // 2 % 2], ("--cap-subset", "2")],
            weights=[list(oracles.WEIGHTS)[i % 2]], formats=[("table", "json")[i // 4 % 2]],
        )


@pytest.mark.parametrize("facts", sorted(_EDGE_DBS))
@pytest.mark.parametrize("query", _EDGE_QUERIES)
def test_score_matches_the_materialized_reference_on_edge_cases(capsys, tmp_path, facts, query):
    from negshapley.core import load_database
    from negshapley.query import parse_query

    (tmp_path / "edge.facts").write_text(_EDGE_DBS[facts])
    db, q = load_database(tmp_path / "edge.facts"), parse_query(query)
    # Left out where the brute-force reference takes seconds to minutes: more
    # than 12 players, unless a Boolean game is refused at the cap of 20.
    signed, plain = len(oracles.oracle_signed_completion(db, q)), len(db.facts)
    measures = [m for m in _SCORED
                if (n := signed if m in ("signed-drastic", "ms-signed") else plain) <= 12
                or n > 20 and m in ("drastic", "signed-drastic", "positive-drastic")]
    _assert_score_matches_reference(capsys, tmp_path, q, db, measures=measures)


def _readme_recipe(tmp_path):
    from negshapley.core import load_database
    from negshapley.query import parse_query

    (tmp_path / "recipe.facts").write_text(RECIPE)
    return parse_query(Q_FISH_TEXT.split("\n", 1)[1]), load_database(tmp_path / "recipe.facts")


def test_score_matches_the_materialized_reference_over_the_signed_subset_cap(capsys, tmp_path):
    """The README recipe: 25 signed players, so its signed-drastic game is
    refused at the default cap of 20, one error record per player."""
    q, db = _readme_recipe(tmp_path)
    _assert_score_matches_reference(capsys, tmp_path, q, db)


def test_score_never_builds_the_completion(capsys, tmp_path, monkeypatch):
    """`score` makes no member of the signed completion, but for the players
    of a signed-drastic game within its cap: with `SignedDatabase.__iter__`,
    which `sorted_facts` uses too, made to fail, every other call still
    matches the reference.  Under `signed-drastic`, `--fact` refuses a
    non-player (exit 2), and then a game above `--cap-subset` (exit 3), from
    the count of the completion."""
    from negshapley.core import SignedDatabase

    def refuse(self, *args, **kwargs):
        raise AssertionError("the signed completion was built")

    monkeypatch.setattr(SignedDatabase, "__iter__", refuse)
    instances = [(inst.q, inst.db) for inst in corpus(500)[::25]] + [_readme_recipe(tmp_path)]
    for q, db in instances:
        completion = sorted(oracles.oracle_signed_completion(db, q))
        players = len(completion)
        for argv, want in _score_calls(tmp_path, q, db):
            cap = int(argv[-1]) if "--cap-subset" in argv else 20
            if argv[6] == "signed-drastic" and players <= cap:
                continue  # its players are the completion
            assert run(capsys, *argv) == (0, want, ""), (str(q), argv[5:])
        q, io = _instance_files(tmp_path, q, db)
        score = ("score", *io, "--measure", "signed-drastic")
        cap_error = f"error: {players} players means 2^{players - 1} coalitions (cap 2)\n"
        for sf in completion if players > 2 else ():
            assert run(capsys, *score, f"--fact={sf}", "--cap-subset", "2") == (3, "", cap_error)
        for sf in oracles.signed_non_players(db, q):
            refusal = f"error: {sf} is not a player of the signed-drastic game ({players} players)\n"
            for cap in ("2", "20"):
                got = run(capsys, *score, f"--fact={sf}", "--cap-subset", cap)
                assert got == (2, "", refusal), (str(q), str(sf))


def _menus(tmp_path, menus=230):
    """A recipe database of ``menus`` menus and 20 items, 250 constants at the
    default, whose completion restricted to ``I`` holds their square, and its
    query; the ``--db``/``--query`` arguments."""
    lines = []
    for i in range(menus):
        items = ["iA"] * (i % 4 < 2) + ["iB"] * (i % 2 == 0) + [f"i{(i + k) % 18}" for k in range(3)]
        lines += [f"I(m{i},{item})\n" for item in items]
    (tmp_path / "menus.facts").write_text("".join(lines))
    (tmp_path / "menus.query").write_text('exists x. I(x,"iA"), !I(x,"iB")\n')
    return "--db", str(tmp_path / "menus.facts"), "--query", str(tmp_path / "menus.query")


def test_score_all_streams_in_bounded_memory(tmp_path, monkeypatch):
    """`score --measure ms-signed --all` holds the database and its minimal
    supports, not the 62,500 facts of the completion it lists: its
    tracemalloc peak stays under 8 MiB in both formats, and under twice that
    of `relevance`, which streams the same rows."""
    import tracemalloc

    io = _menus(tmp_path)
    peaks = {}
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        for command in (("score", "--measure", "ms-signed", "--all"), ("relevance",)):
            for fmt in ("table", "json"):
                tracemalloc.start()
                try:
                    code = main([*command, *io, "--format", fmt])
                    peaks[command[0], fmt] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert code == 0
    for fmt in ("table", "json"):
        assert peaks["score", fmt] < 8 * 2**20, peaks
        assert peaks["score", fmt] < 2 * peaks["relevance", fmt], peaks


def test_every_write_is_bounded_by_size(tmp_path, monkeypatch):
    """A write holds the lines or records that fit in `output._CHUNK`
    characters, however many records that is: on 3,600 rows of a few hundred
    characters at most, no write holds more than `_CHUNK` and one record."""
    from negshapley.output import _CHUNK

    class Sink:
        def __init__(self):
            self.sizes = []

        def writelines(self, chunks):
            self.sizes += map(len, chunks)

        def flush(self):
            pass

    io = _menus(tmp_path, menus=40)
    for command in (("score", "--measure", "ms-signed", "--all"), ("relevance",),
                    ("compare",), ("supports", "--kind", "positive")):
        for fmt in ("table", "json"):
            sink = Sink()
            monkeypatch.setattr(sys, "stdout", sink)
            assert main([*command, *io, "--format", fmt]) == 0
            assert max(sink.sizes) < _CHUNK + 500, (command, fmt, sink.sizes)
            assert sum(sink.sizes) > 4 * _CHUNK or command[0] == "supports", (command, fmt)
