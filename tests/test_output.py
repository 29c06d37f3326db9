"""The row writer against its reference in `oracles`: `rows._write_rows`
writes ``-`` rows a prefix at a time, and must write what the row-at-a-time
writer writes, byte for byte, in both formats."""

import pytest

import oracles
from corpus import corpus
from negshapley import cli, rows
from negshapley.core import database, fact
from negshapley.query import parse_query, signed_database_restricted
from negshapley.supports import support_families

#: Constants of differing lengths, so that the `-` rows of one relation pad
#: to different widths prefix by prefix.
CONSTANTS = ("a", "bb", "ccc", "d", "eeeee", "f1")

#: N, M and T negated at arities 1, 2 and 3.  Through R(x,y), -M(x,y) is
#: signed-relevant for each stored R(x,y) whose M(x,y) is absent.
QUERY = ("exists x. A(x), !N(x)"
         " | exists x, y. R(x,y), !M(x,y)"
         " | exists x, y, z. R(x,y), R(y,z), !T(x,y,z)")

FACTS = [
    # prefix (a,) of M: relevant -M facts first (a), in the middle (d) and
    # last (f1), with stored M facts between them
    *(fact("R", "a", c) for c in ("a", "d", "f1")),
    fact("M", "a", "bb"), fact("M", "a", "eeeee"),
    # prefix (ccc,) of M: every tuple stored
    *(fact("M", "ccc", c) for c in CONSTANTS),
    # an R chain, so that T's prefixes have relevant facts too
    fact("R", "d", "eeeee"), fact("R", "eeeee", "bb"),
    fact("A", "a"), fact("A", "eeeee"), fact("N", "eeeee"),
    # the last constant of T's prefix (a, d) stored
    fact("T", "a", "d", "f1"),
]

COMMANDS = (("relevance",), ("compare",), ("score", "--measure", "ms-signed", "--all"),
            ("score", "--measure", "mps", "--all"), ("score", "--measure", "drastic", "--all"))


def _outputs(capsys, monkeypatch, writer, argv_tail, db):
    monkeypatch.setattr(rows, "_write_rows", writer)
    monkeypatch.setattr(cli, "load_database", lambda path: db)
    outputs = {}
    for command in COMMANDS:
        for fmt in ("table", "json"):
            assert cli.main([*command, "--db", "-", *argv_tail, "--format", fmt]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs[command, fmt] = captured.out
    return outputs


def test_the_instance_has_the_cases_the_writer_must_get_right():
    """Relevant `-` facts first, in the middle and last in a prefix, and a
    prefix whose every tuple is stored."""
    db, q = database(FACTS), parse_query(QUERY)
    (signed,) = support_families(q, db, "signed")
    minus = {str(p.fact) for s in signed for p in s.elements if p.sign}
    assert {"M(a,a)", "M(a,d)", "M(a,f1)", "N(a)", "T(a,d,eeeee)"} <= minus
    assert "M(a,bb)" not in minus and "M(a,ccc)" not in minus
    completion = signed_database_restricted(db, q)
    assert [rel.arity for rel in completion.negated] == [2, 1, 3]
    (m,) = [rel for rel in completion.negated if rel.name == "M"]
    assert not any(a[0] == "ccc" for a in completion.absent(m))


@pytest.mark.parametrize("query", [QUERY, "exists x, y, z. R(x,y), R(y,z), !T(x,y,z)",
                                   "exists x. A(x), !N(x)"])
def test_minus_rows_match_the_row_at_a_time_writer(capsys, monkeypatch, tmp_path, query):
    (tmp_path / "q.query").write_text(query + "\n")
    db = database(FACTS)
    tail = ["--query", str(tmp_path / "q.query")]
    got = _outputs(capsys, monkeypatch, rows._write_rows, tail, db)
    want = _outputs(capsys, monkeypatch, oracles.reference_write_rows, tail, db)
    assert got == want
    assert sum(out.count("\n") for out in got.values()) > 1000


def test_minus_rows_quote_constants_as_the_row_at_a_time_writer(capsys, monkeypatch, tmp_path):
    """Through the library a constant may hold a quote, a backslash or a
    non-ASCII letter: a `-` fact's JSON cell is escaped as a whole one is."""
    (tmp_path / "q.query").write_text("exists x, y. R(x,y), !M(x,y)\n")
    db = database([fact("R", 'q"x', "é"), fact("R", "b\\", 'q"x'), fact("M", "é", "b\\")])
    tail = ["--query", str(tmp_path / "q.query")]
    got = _outputs(capsys, monkeypatch, rows._write_rows, tail, db)
    assert got == _outputs(capsys, monkeypatch, oracles.reference_write_rows, tail, db)
    assert '"-M(q\\"x,\\u00e9)"' in got[("relevance",), "json"]


def test_fact_width_is_the_widest_fact_written():
    """`_fact_width` measures facts from their names and constants without
    writing them: a nullary fact is ``R()``, and constants may be empty."""
    from negshapley.rows import _fact_width

    for facts in (FACTS, [fact("Z")], [fact("R", "", "")], [fact("LONGNAME", "a"), fact("B")],
                  *(inst.db.facts for inst in corpus(60))):
        db = database(facts)
        assert _fact_width(db, ()) == max(map(len, map(str, db.facts)), default=0), facts


def test_plus_rows_render_each_distinct_tail_once(capsys):
    """Every row whose data are the same objects shares one rendered tail:
    on 300 facts, 297 of them the column's ``other``, the tail is rendered
    four times in each format."""
    from argparse import Namespace

    from negshapley.rows import _write_rows
    from negshapley.shapley import Scores

    db = database(fact("R", f"c{i}") for i in range(300))
    named = dict(zip(db.sorted_facts[::100], ("x", "y", "z")))
    for fmt in ("json", "table"):
        rendered = []

        def cells(value):
            rendered.append(value)
            return (value,)

        _write_rows(Namespace(format=fmt), {"command": "x"}, ("fact", "value"), lambda: [1],
                    lambda value: cells(value)[0], cells, db, [(Scores(named, "other"), False)])
        assert sorted(rendered) == ["other", "x", "y", "z"], fmt
        assert capsys.readouterr().out.count("other") == 297, fmt
