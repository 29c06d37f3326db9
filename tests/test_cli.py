"""Command-line front end: golden outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

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
    compiles its witnesses or builds its players."""
    import negshapley.core as core

    calls = _count_compilations(monkeypatch)
    built = []
    real = core.signed_database
    monkeypatch.setattr(core, "signed_database", lambda *a, **k: built.append(a) or real(*a, **k))
    code, out, err = run(
        capsys, "supports", "--db", paths["db"], "--query", paths["q"],
        "--kind", "signed", "--all",
    )
    assert (code, out) == (3, "") and calls == built == []
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


def test_score_all_compiles_one_game(capsys, paths, monkeypatch):
    import negshapley.cli as cli

    calls = _count_compilations(monkeypatch)
    built = []
    real = cli.make_game
    monkeypatch.setattr(cli, "make_game", lambda *a, **k: built.append(a) or real(*a, **k))
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
    import negshapley.cli as cli

    built = []
    real = cli.make_game
    monkeypatch.setattr(cli, "make_game", lambda *a, **k: built.append(a) or real(*a, **k))
    code, out, _ = run(
        capsys, "score", "--db", paths["db"], "--query", paths["q2"],
        "--measure", "drastic", "--fact", "I(mm,wine)", "--format", "json",
    )
    assert code == 0 and len(built) == 1
    (rec,) = json.loads(out)["records"]
    assert rec["values"]["drastic"] == {"num": "-1", "den": "6"}
    assert rec["method"] == "subset"


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
    import negshapley.supports as supports

    searches = []
    real = supports._iter_assignments
    monkeypatch.setattr(
        supports, "_iter_assignments", lambda *a: searches.append(a) or real(*a)
    )
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
    ``PYTHONHASHSEED``; no output may follow it."""
    import random

    rng = random.Random(7)
    names = [f"c{i}" for i in range(12)]
    facts = {f"R({rng.choice(names)},{rng.choice(names)})" for _ in range(30)}
    facts |= {f"S({name})" for name in rng.sample(names, 5)}
    (tmp_path / "g.facts").write_text("".join(f"{f}\n" for f in sorted(facts)))
    (tmp_path / "g.query").write_text(
        "exists x, y. R(x,y), !S(y), !R(y,x) | exists x. S(x), !T(x,x)\n"
    )
    io = ["--db", str(tmp_path / "g.facts"), "--query", str(tmp_path / "g.query")]
    argv = [["relevance", *io], ["compare", *io], ["supports", *io, "--kind", "signed"],
            ["score", *io, "--all"], ["score", *io, "--all", "--measure", "mps"]]
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
    """The rows stream from the active domain: with every binding of
    `signed_database` made to fail, the reports still match the reference."""
    def refuse(*args, **kwargs):
        raise AssertionError("the signed completion was materialized")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "negshapley" and hasattr(module, "signed_database"):
            monkeypatch.setattr(module, "signed_database", refuse)
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
    """`score` builds no signed completion, but for the players of a
    signed-drastic game within its cap: with `SignedDatabase` made to fail,
    every other call still matches the reference."""
    from negshapley.core import SignedDatabase

    def refuse(self, *args, **kwargs):
        raise AssertionError("the signed completion was built")

    monkeypatch.setattr(SignedDatabase, "__init__", refuse)
    instances = [(inst.q, inst.db) for inst in corpus(500)[::25]] + [_readme_recipe(tmp_path)]
    for q, db in instances:
        players = len(oracles.oracle_signed_completion(db, q))
        for argv, want in _score_calls(tmp_path, q, db):
            cap = int(argv[-1]) if "--cap-subset" in argv else 20
            if argv[6] == "signed-drastic" and players <= cap:
                continue  # its players are the completion
            assert run(capsys, *argv) == (0, want, ""), (str(q), argv[5:])


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
    """A write ends with the line or record that takes it to `output._CHUNK`
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
