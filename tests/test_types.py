"""The public value types: equality, hashing, repr, immutability and
caching, and the modules a fresh import of the command line, and each of
its commands, loads."""

import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import negshapley.games
from negshapley.core import Database, Relation, database, fact, positive
from negshapley.core import signed_database
from negshapley.errors import ArityError, SafetyError, SemanticError
from negshapley.query import (
    Atom,
    Conjunct,
    Const,
    Inequality,
    Query,
    Var,
    analyze_disjunct,
    analyze_query,
    parse_query,
)
from negshapley.relevance import ImpactKind, RelevanceVerdict
from negshapley.shapley import Game, MsShapleyResult, WealthKind
from negshapley.supports import (
    SupportSet,
    guarded_reduction,
    minimal_positive_supports,
    minimal_signed_supports,
)

SRC = Path(__file__).resolve().parent.parent / "src"

S_A = fact("S", "a")
DB = database([S_A])
Q = parse_query('exists x. S(x), !T(x), x != "b"')
CQ = Q.disjuncts[0]


def _instances():
    """One instance of every public value type, with the repr it had as a
    frozen dataclass (recorded before the change to named tuples)."""
    rel = "Relation(name='S', arity=1)"
    db = f"Database(schema=frozenset({{{rel}}}), facts=frozenset({{Fact(relation={rel}, args=('a',))}}))"
    s_a = f"Fact(relation={rel}, args=('a',))"
    atom_s = f"Atom(relation={rel}, terms=(Var(name='x'),), negated=False)"
    atom_t = "Atom(relation=Relation(name='T', arity=1), terms=(Var(name='x'),), negated=True)"
    ineq = "Inequality(left=Var(name='x'), right=Const(value='b'))"
    cq = f"Conjunct(variables=('x',), literals=({atom_s}, {atom_t}, {ineq}))"
    query = f"Query(disjuncts=({cq},))"
    analysis = (
        "DisjunctAnalysis(mergeable_pairs=(), self_join_width=0, self_join_free_positive=True, "
        "self_join_free_all=True, guarded=True, has_non_hierarchical_neg_path=False)"
    )
    return [
        (Var("x"), "Var(name='x')"),
        (Const("a"), "Const(value='a')"),
        (CQ.literals[0], atom_s),
        (CQ.literals[1], atom_t),
        (CQ.literals[2], ineq),
        (CQ, cq),
        (Q, query),
        (analyze_disjunct(CQ), analysis),
        (analyze_query(Q),
         "QueryAnalysis(negative_arity=1, guarded=True, self_join_free_positive=True, "
         "self_join_free_all=True, has_non_hierarchical_neg_path=False, "
         f"disjuncts=({analysis},))"),
        (DB, db),
        (signed_database(DB),
         f"SignedDatabase(db={db}, schema=frozenset({{{rel}}}), negated=({rel},))"),
        (RelevanceVerdict(positive(S_A), True, False, ImpactKind("none")),
         f"RelevanceVerdict(subject=SignedFact(sign=<Sign.POSITIVE: 0>, fact={s_a}), "
         "signed_relevant=True, positive_relevant=False, impact=<ImpactKind.NONE: 'none'>, "
         "impact_skipped=False)"),
        (MsShapleyResult(Fraction(1, 2), {2: 1}),
         "MsShapleyResult(score=Fraction(1, 2), supports_by_size={2: 1})"),
        (SupportSet("positive", frozenset({S_A}), True),
         f"SupportSet(kind='positive', elements=frozenset({{{s_a}}}), minimal=True)"),
        (guarded_reduction(parse_query("exists x. S(x), !T(x)"), DB),
         f"GuardedReduction(q_plus=Query(disjuncts=(Conjunct(variables=('x',), literals=({atom_s},)),)), "
         f"d_prime={db}, d_double_prime={db})"),
        (Game(WealthKind.DRASTIC_DIRECT, Q, DB, (S_A,)),
         f"Game(kind=<WealthKind.DRASTIC_DIRECT: 'drastic'>, q={query}, db={db}, players=({s_a},))"),
    ]


_CASES = _instances()
_IDS = [type(obj).__name__ for obj, _ in _CASES]


@pytest.mark.parametrize("obj, expected", _CASES, ids=_IDS)
def test_reprs_are_unchanged(obj, expected):
    assert repr(obj) == expected


@pytest.mark.parametrize("obj, _", _CASES, ids=_IDS)
def test_fields_refuse_assignment(obj, _):
    for name in obj._fields:
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is before


@pytest.mark.parametrize("obj, _", _CASES, ids=_IDS)
def test_values_survive_pickling(obj, _):
    assert pickle.loads(pickle.dumps(obj)) == obj


def test_var_and_const_differ_whatever_their_names():
    assert Var("x") != Const("x") and Const("x") != Var("x")
    assert len({Var("x"), Const("x")}) == 2
    assert Var("x") == Var("x") and hash(Var("x")) == hash(Var("x"))
    assert Atom(Relation("S", 1), (Var("x"),)) != Atom(Relation("S", 1), (Const("x"),))
    # The constant "x" is a value the variable x may take, not the variable.
    db = database([fact("S", "x"), fact("S", "y")])
    q = parse_query('exists x. S(x), x != "x"')
    expected = [frozenset({fact("S", "y")})]
    assert [s.elements for s in minimal_positive_supports(q, db)] == expected
    assert [s.elements for s in minimal_signed_supports(q, db)] == [
        frozenset(map(positive, e)) for e in expected
    ]


def test_named_tuples_equal_their_fields():
    assert CQ.literals[0] == (Relation("S", 1), (Var("x"),), False)
    assert Inequality(Var("x"), Const("b")) == (Var("x"), Const("b"))
    assert Q == (Q.disjuncts,) and hash(Q) == hash((Q.disjuncts,))


def test_validation_moved_into_construction():
    with pytest.raises(ArityError, match="has 2 terms but arity 1"):
        Atom(Relation("S", 1), (Var("x"), Var("y")))
    with pytest.raises(SafetyError, match="at least one positive atom"):
        Conjunct(("x",), (Atom(Relation("S", 1), (Var("x"),), negated=True),))
    with pytest.raises(SemanticError, match="at least one disjunct"):
        Query(())
    with pytest.raises(ArityError, match="used with arities 1 and 2"):
        parse_query("exists x. S(x) | exists x. S(x,x)")


def test_databases_equal_and_hash_by_schema_and_facts():
    a = database([fact("R", "a", "b"), S_A])
    b = Database(frozenset({Relation("R", 2), Relation("S", 1)}),
                 [S_A, fact("R", "a", "b")])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != database([S_A]) and a != (a.schema, a.facts)
    assert a != database([fact("R", "a", "b"), S_A], schema=[Relation("T", 1)])
    assert signed_database(a) == signed_database(b)
    assert hash(signed_database(a)) == hash(signed_database(b))
    assert signed_database(a) != signed_database(a, restrict_to=())
    red = guarded_reduction(parse_query("exists x, y. R(x,y)"), a)
    assert red.d_double_prime == red.d_prime


def test_cached_properties_compute_once(monkeypatch):
    q = parse_query("exists x. S(x), !T(x)")
    cq = q.disjuncts[0]
    assert q.relations is q.relations
    assert cq.positive_atoms is cq.positive_atoms and cq.negated_atoms is cq.negated_atoms
    calls = []
    compile_witnesses = negshapley.games.compile_witnesses

    def counted(*args):
        calls.append(args)
        return compile_witnesses(*args)

    monkeypatch.setattr(negshapley.games, "compile_witnesses", counted)
    game = Game(WealthKind.DRASTIC_DIRECT, q, DB, (S_A,))
    assert game._table is game._table and game.wealth([S_A]) == 1
    assert len(calls) == 1


def test_cli_import_loads_no_dataclasses_or_inspect():
    """Nor ``pathlib`` or ``json``, which only reading a file and
    ``--format json`` use.  ``-S`` keeps the host's site packages and
    ``.pth`` hooks out of the check."""
    code = (
        "import sys, negshapley.cli; "
        "print(sorted({'dataclasses', 'inspect', 'json', 'pathlib'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert result.stdout == "[]\n"


def test_cli_import_loads_exactly_the_command_layers():
    """A fresh ``python -S`` import of the command line loads these package
    modules and no other, so a module newly loaded at start-up fails here."""
    code = ("import sys, negshapley.cli; "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'negshapley'))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert result.stdout.split() == ["negshapley", *(f"negshapley.{name}" for name in (
        "cli", "core", "errors", "output", "query", "relevance", "shapley", "supports"))]


#: Loaded only where a score is built (`fractions` brings the other two),
#: where a coalition table is built (`negshapley.games`), by ``score``,
#: ``relevance`` and ``compare`` (`negshapley.rows`), by ``analyze``
#: (`json` only with ``--format json``), by the first caller of the
#: library-only API, and, with `gettext` and `negshapley.usage`, by a
#: command line that argparse reads: help, an abbreviated flag or a usage error.
_DEFERRED = ("argparse", "decimal", "fractions", "gettext", "json", "negshapley.analysis",
             "negshapley.games", "negshapley.reference", "negshapley.rows", "negshapley.usage",
             "numbers")
_FRACTIONS = ["decimal", "fractions", "numbers"]
_GAMES = ["negshapley.games"]
_ROWS = ["negshapley.rows"]
_TABLE_SCORES = [*_FRACTIONS, *_GAMES, *_ROWS]
_ARGPARSE = ["argparse", "gettext", "negshapley.usage"]


@pytest.mark.parametrize("argv, code, loaded", [
    ((), 0, []),
    (("supports", "--kind", "signed"), 0, []),
    (("supports", "--kind", "positive"), 0, []),
    (("supports", "--kind", "dmonotone"), 0, _GAMES),
    (("relevance",), 0, _GAMES + _ROWS),
    (("relevance", "--db", "above.facts"), 0, _ROWS),
    (("relevance", "--format", "json"), 0, _GAMES + _ROWS),
    (("analyze",), 0, ["negshapley.analysis"]),
    (("score",), 0, _FRACTIONS + _ROWS),
    (("score", "--measure", "mps"), 0, _FRACTIONS + _ROWS),
    (("score", "--measure", "drastic"), 0, _TABLE_SCORES),
    (("score", "--measure", "positive-drastic", "--fact", "R(a,b)"), 0, _TABLE_SCORES),
    (("score", "--measure", "signed-drastic"), 0, _TABLE_SCORES),
    (("score", "--measure", "drastic", "--db", "above.facts"), 0, _ROWS),
    (("compare",), 0, _TABLE_SCORES),
    (("compare", "--db", "above.facts"), 0, _FRACTIONS + _ROWS),
    (("analyze", "--format", "json"), 0, ["json", "negshapley.analysis"]),
    (("supports", "--kind", "signed", "--all", "--format", "json"), 0, _GAMES),
    (("score", "--measure", "drastic", "--format", "json"), 0, _TABLE_SCORES),
    (("compare", "--format", "json"), 0, _TABLE_SCORES),
    (("score", "--measure", "nosuch"), 1, _ARGPARSE),
    (("score", "--meas", "mps"), 0, _ARGPARSE + _FRACTIONS + _ROWS),
])
def test_only_scoring_commands_load_fractions(tmp_path, argv, code, loaded):
    """A fresh ``python -S`` child imports the command line, runs one
    command on a small instance, and lists the deferred modules it loaded:
    only ``score`` and ``compare`` build scores, and only they and
    ``relevance`` load the row writer; only a drastic score, ``compare``, a
    D-monotone or exhaustive listing and ``relevance`` within its impact
    cap of 20 facts build a coalition table (not on the 21 facts of
    ``above.facts``, where the cap of ``--cap-subset`` refuses a drastic
    score before the table's module, or `fractions`, loads); only
    ``analyze`` loads the query analysis, and only its JSON document
    `json`; no command reaches the library-only API, and only a command
    line not written in full, or wrong, loads `argparse`."""
    (tmp_path / "i.facts").write_text("R(a,b)\nR(b,c)\nS(c)\n")
    (tmp_path / "above.facts").write_text("".join(f"R(a,c{i})\n" for i in range(21)))
    (tmp_path / "i.query").write_text("exists x, y. R(x,y), !S(y)\n")
    script = (
        "import sys\n"
        "from negshapley.cli import main\n"
        "code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
        f"print(code, sorted(set({_DEFERRED!r}) & set(sys.modules)))\n"
    )
    db = () if "--db" in argv else ("--db", "i.facts")
    files = (*db, "--query", "i.query") if argv else ()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-S", "-c", script, *argv, *files], env=env, cwd=tmp_path,
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.splitlines()[-1] == f"{code} {sorted(loaded)}"


_AT_LOAD_SCRIPT = (
    "import sys\n"
    "import negshapley.cli as cli\n"
    "load, held = cli.load_query, []\n"
    "def load_query(path):\n"
    "    held.append(sorted({'negshapley.analysis', 'negshapley.rows'} & set(sys.modules)))\n"
    "    return load(path)\n"
    "cli.load_query = load_query\n"
    "print(cli.main(sys.argv[1:]), held, 'negshapley.rows' in sys.modules)\n"
)


@pytest.mark.parametrize("argv, held", [
    (("score",), _ROWS),
    (("score", "--measure", "drastic", "--format", "json"), _ROWS),
    (("relevance",), _ROWS),
    (("compare",), _ROWS),
    (("supports",), []),
    (("supports", "--kind", "dmonotone", "--all"), []),
    (("analyze",), ["negshapley.analysis"]),
])
def test_a_command_loads_its_handler_module_before_its_inputs(tmp_path, argv, held):
    """In a fresh ``python -S`` child, the per-fact commands hold `rows` (and
    ``analyze`` `analysis`) by the time `cli.load_query` runs: the module is
    compiled before the query and the facts are loaded, so that its
    compilation does not add to the peak memory of a loaded database.
    ``supports`` never loads it."""
    (tmp_path / "i.facts").write_text("R(a,b)\nR(b,c)\nS(c)\n")
    (tmp_path / "i.query").write_text("exists x, y. R(x,y), !S(y)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-S", "-c", _AT_LOAD_SCRIPT, *argv, "--db", "i.facts",
         "--query", "i.query"], env=env, cwd=tmp_path, capture_output=True, text=True,
        check=True,
    )
    assert result.stdout.splitlines()[-1] == f"0 [{held}] {held == _ROWS}"
