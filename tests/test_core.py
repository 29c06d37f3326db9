"""Facts, databases, and signed completions."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from negshapley.core import (
    DEFAULT_SIGNED_CAP,
    Database,
    Fact,
    Relation,
    Sign,
    SignedFact,
    database,
    fact,
    load_database,
    negative,
    parse_fact,
    parse_signed_fact,
    positive,
    signed_database,
)
from negshapley.errors import ArityError, CapExceededError, FactSyntaxError
from negshapley.query import signed_database_restricted

import oracles
from corpus import corpus
from instances import RECIPE_DB


def test_fact_ordering_is_by_relation_then_args():
    facts = [fact("R", "b"), fact("A", "z"), fact("R", "a")]
    assert [str(f) for f in sorted(facts)] == ["A(z)", "R(a)", "R(b)"]


def test_fact_arity_mismatch_rejected():
    with pytest.raises(ArityError, match=r"fact R\(a\) has 1 arguments but R has arity 2"):
        Fact(Relation("R", 2), ("a",))  # Relation says binary, one argument supplied


def test_facts_are_the_tuples_of_their_fields():
    R = Relation("R", 2)
    f = Fact(R, ("a", "b"))
    assert isinstance(f, tuple) and f == (R, ("a", "b"))
    assert hash(f) == hash((R, ("a", "b")))
    assert positive(f) == (Sign.POSITIVE, (R, ("a", "b")))
    assert hash(negative(f)) == hash((Sign.NEGATIVE, (R, ("a", "b"))))
    assert negative(f) != positive(f) and f not in {positive(f), negative(f)}


def test_fact_reprs():
    assert repr(fact("R", "a", "b")) == (
        "Fact(relation=Relation(name='R', arity=2), args=('a', 'b'))"
    )
    assert repr(negative(fact("R", "a"))) == (
        "SignedFact(sign=<Sign.NEGATIVE: 1>, "
        "fact=Fact(relation=Relation(name='R', arity=1), args=('a',)))"
    )


_facts = st.builds(
    lambda name, args: fact(name, *args),
    st.sampled_from(["A", "B", "R", "Rb", "a"]),
    st.lists(st.sampled_from(["a", "b", "ab", "B", "0"]), min_size=1, max_size=3),
)
_signed_facts = st.builds(SignedFact, st.sampled_from(Sign), _facts)


@given(st.lists(_facts, max_size=12), st.lists(_signed_facts, max_size=12))
@settings(max_examples=200, deadline=None)
def test_canonical_order_is_name_arity_args(facts, signed):
    """Facts sort by relation name, arity and constants; signed facts by
    sign first."""
    by_fields = lambda f: (f.relation.name, f.relation.arity, f.args)
    assert sorted(facts) == sorted(facts, key=by_fields)
    assert sorted(signed) == sorted(signed, key=lambda sf: (sf.sign, *by_fields(sf.fact)))


def test_database_rejects_one_name_two_arities():
    with pytest.raises(ArityError, match="arities"):
        database([fact("R", "a"), fact("R", "a", "b")])


def test_database_names_the_first_stray_fact_in_canonical_order():
    """A set iterates in hash order, so each child takes its own hash seed;
    R(a,b) (R/2 against R/1) sorts before S(x) (no S at all)."""
    code = (
        "from negshapley.core import Database, Relation, fact\n"
        "try:\n"
        "    Database({Relation('R', 1)}, [fact('R','a','b'), fact('R','c','d'), fact('S','x')])\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__, exc)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    for seed in ("0", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, check=True)
        assert result.stdout == "ArityError fact R(a,b) does not match the schema entry for R\n"


def test_database_deduplicates_and_sorts():
    db = database([fact("R", "a"), fact("R", "a"), fact("A", "b")])
    assert len(db.facts) == 2
    assert [str(f) for f in db.sorted_facts] == ["A(b)", "R(a)"]


def test_active_domain():
    assert RECIPE_DB.active_domain == frozenset({"mp", "mm", "wine", "meat", "fish"})
    assert database().active_domain == frozenset()


def test_signed_fact_rendering_and_order():
    p, n = positive(fact("I", "mm", "fish")), negative(fact("I", "mm", "fish"))
    assert (str(p), str(n)) == ("+I(mm,fish)", "-I(mm,fish)")
    assert sorted([n, p]) == [p, n]  # positive sorts first


def test_signed_database_counts_on_recipe():
    """5 constants, one binary relation: 25 slots, 5 present, 20 absent."""
    sd = signed_database(RECIPE_DB)
    signs = [sf.sign for sf in sd]
    assert (signs.count(Sign.POSITIVE), signs.count(Sign.NEGATIVE)) == (5, 20)
    assert negative(fact("I", "wine", "mp")) in sd
    assert positive(fact("I", "mp", "wine")) in sd


def test_signed_database_of_empty_database_is_empty():
    assert len(signed_database(database())) == 0


def test_signed_database_restrict_to_unknown_relation():
    with pytest.raises(ArityError):
        signed_database(RECIPE_DB, restrict_to=[Relation("Z", 1)])


def test_signed_database_cap():
    with pytest.raises(CapExceededError):
        signed_database(RECIPE_DB, cap=24)
    assert len(signed_database(RECIPE_DB, cap=25)) == 25
    assert DEFAULT_SIGNED_CAP >= 25


def test_a_completion_is_compared_hashed_printed_and_pickled_unbuilt():
    """By its fields: on 10^19 members, more than `len` can return, and on
    10^6, with no `sorted_facts` built and the unpickled value equal."""
    wide = database([fact("R", *(f"c{i}" for i in range(10)), *["c0"] * 9)])
    cycle = database(fact("R", f"c{i}", f"c{(i + 1) % 1000}") for i in range(1000))
    for db, n in ((wide, 10**19), (cycle, 10**6)):
        completion, again = signed_database(db, cap=n), signed_database(db, cap=n)
        assert completion.size == n
        assert completion == again and hash(completion) == hash(again)
        assert completion != signed_database(db, restrict_to=(), cap=n)
        assert repr(completion) == (f"SignedDatabase(db={db!r}, schema={db.schema!r}, "
                                    f"negated={tuple(db.schema)!r})")
        copy = pickle.loads(pickle.dumps(completion))
        assert copy == completion and hash(copy) == hash(completion)
        assert "sorted_facts" not in vars(completion) and "sorted_facts" not in vars(copy)


def test_the_completion_counts_streams_and_tests_its_members_on_corpus():
    """Against the oracles, on every corpus instance: the completion
    restricted to the query's negated relations counts its members (`len`),
    streams them in canonical order with their exact types (`iter`, the `-`
    facts made without `Fact.__new__` included), holds each of them and no
    `oracles.signed_non_players` entry or plain fact (`in`), and lists each
    relation's `-` tuples (`absent`), all with nothing built; then
    `sorted_facts` is the stream."""
    for inst in corpus(500):
        db, q = inst.db, inst.q
        completion = signed_database_restricted(db, q)
        members = sorted(oracles.oracle_signed_completion(db, q))
        negated = {atom.relation for cq in q.disjuncts for atom in cq.negated_atoms}
        assert len(completion) == completion.size == len(members), str(inst)
        assert completion.negated == tuple(sorted(negated)), str(inst)
        assert all(sf in completion for sf in members), str(inst)
        assert not any(sf in completion for sf in oracles.signed_non_players(db, q)), str(inst)
        assert not any(f in completion for f in db.facts), str(inst)
        for rel in sorted(db.schema | q.relations):
            minus = [sf.fact.args for sf in members
                     if sf.sign is Sign.NEGATIVE and sf.fact.relation == rel]
            assert list(completion.absent(rel)) == minus, (str(inst), rel)
            if rel in negated:
                assert minus == oracles.reference_absent(db, rel), (str(inst), rel)
        streamed = list(completion)
        assert streamed == members, str(inst)
        for sf in streamed:
            assert type(sf) is SignedFact and type(sf.fact) is Fact, str(inst)
            assert type(sf.sign) is Sign and len(sf.fact.args) == sf.fact.relation.arity
        assert "sorted_facts" not in vars(completion), str(inst)
        assert completion.sorted_facts == tuple(members), str(inst)


def test_the_full_completion_counts_and_streams_its_members_on_corpus():
    """With no restriction, every relation of the database and the query
    gets its `-` side: the stored facts and `oracles.reference_absent`."""
    for inst in corpus(500):
        db, relations = inst.db, inst.db.schema | inst.q.relations
        full = signed_database(db, extra_relations=inst.q.relations)
        want = sorted({*map(positive, db.facts), *(
            negative(Fact(rel, args)) for rel in relations
            for args in oracles.reference_absent(db, rel))})
        assert full.negated == tuple(sorted(relations)), str(inst)
        assert (len(full), list(full), full.sorted_facts) == (len(want), want, tuple(want)), str(inst)
        assert all(sf in full for sf in want) and not any(f in full for f in db.facts), str(inst)


def test_the_completion_refuses_at_the_call_in_the_order_of_its_checks():
    """Arity clashes, then an unknown or mismatched relation to restrict to,
    then the cap, each with its message, before anything is counted lazily."""
    clash, unknown = [Relation("I", 1)], [Relation("Z", 1)]
    cases = [
        ({"cap": 24}, CapExceededError, "signed completion would hold 25 facts, above the cap of 24"),
        ({"extra_relations": clash, "restrict_to": unknown, "cap": 0}, ArityError,
         "relation I used with arities 2 and 1"),
        ({"restrict_to": unknown, "cap": 0}, ArityError, "cannot restrict to unknown relation Z"),
        ({"restrict_to": clash, "cap": 0}, ArityError, "relation I has arity 2, not 1"),
    ]
    for kwargs, error, message in cases:
        with pytest.raises(error) as refused:
            signed_database(RECIPE_DB, **kwargs)
        assert str(refused.value) == message


def test_the_completion_counts_past_what_len_reports():
    """A completion of 10^19 facts, more than `len` can return, is counted
    by `size` and refused or admitted by its cap like any other."""
    db = database([fact("R", *(f"c{i}" for i in range(10)), *["c0"] * 9)])
    rel = Relation("R", 19)
    with pytest.raises(CapExceededError, match="would hold 10000000000000000000 facts"):
        signed_database(db, restrict_to=[rel])
    completion = signed_database(db, restrict_to=[rel], cap=10**20)
    assert completion.size == 10**19 and negative(fact("R", *["c1"] * 19)) in completion
    with pytest.raises(OverflowError):
        len(completion)


def test_extra_relations_get_a_fully_negative_extension():
    sd = signed_database(database([fact("A", "c")]), extra_relations=[Relation("B", 1)])
    assert negative(fact("B", "c")) in sd
    assert positive(fact("A", "c")) in sd


def test_parse_fact():
    f = parse_fact("R(a, b)")
    assert f == fact("R", "a", "b")
    assert parse_signed_fact("-R(a,b)") == negative(f)
    assert parse_signed_fact("+R(a,b)") == positive(f)
    assert parse_signed_fact("R(a,b)").sign is Sign.POSITIVE


@pytest.mark.parametrize("bad", ["", "R", "R(", "R()", "R(a", "(a,b)", "R(a,,b)"])
def test_parse_fact_rejects_malformed(bad):
    with pytest.raises(FactSyntaxError):
        parse_fact(bad)


def test_load_database(tmp_path):
    path = tmp_path / "facts.txt"
    path.write_text(
        "# a comment line\n"
        "@relation I/2\n"
        "I(mp,wine)\n"
        "I(mm,fish)   # trailing comment\n"
        "\n"
        "I(mp,wine)\n"  # duplicate collapses
    )
    db = load_database(path)
    assert db.facts == frozenset({fact("I", "mp", "wine"), fact("I", "mm", "fish")})
    assert db.schema == frozenset({Relation("I", 2)})


def test_load_database_declared_but_empty_relation(tmp_path):
    path = tmp_path / "facts.txt"
    path.write_text("@relation B/1\nA(c)\n")
    db = load_database(path)
    assert Relation("B", 1) in db.schema and len(db.facts) == 1


def test_load_database_reports_line_number(tmp_path):
    path = tmp_path / "facts.txt"
    path.write_text("A(c)\nB(\n")
    with pytest.raises(FactSyntaxError, match="line 2"):
        load_database(path)


def _load_outcome(load, path):
    """A loader's database, or the type and message of the error it raised."""
    try:
        return load(path)
    except (ArityError, FactSyntaxError) as exc:
        return type(exc), str(exc)


def _assert_loads_as_the_line_parser(path, text):
    path.write_bytes(text.encode("utf-8"))
    got = _load_outcome(load_database, path)
    assert got == _load_outcome(oracles.reference_load_database, path), text
    if isinstance(got, Database):
        assert all(type(f) is Fact and len(f.args) == f.relation.arity for f in got.facts)
        # One object per distinct constant, whichever path read each line.
        assert len({id(c) for f in got.facts for c in f.args}) == len(got.active_domain), text
        # And one `Relation` per relation name.
        assert len({id(f.relation) for f in got.facts}) == len(got.by_relation), text


def test_load_database_matches_the_line_parser_on_corpus(tmp_path):
    """Plain lines take the fast path; the same files with headers, spaces
    and comments take the line parser.  Each constant is written twice over
    (``a`` as ``aa``): CPython keeps one object per one-character string,
    however the loader splits them out."""
    for inst in corpus(500):
        lines = [f"{f.relation.name}({','.join(c * 2 for c in f.args)})"
                 for f in inst.db.sorted_facts]
        _assert_loads_as_the_line_parser(tmp_path / "plain.facts", "\n".join(lines))
        decorated = [f"@relation {r.name}/{r.arity}" for r in sorted(inst.db.schema)]
        decorated += [f" {line} # comment" if i % 2 else line for i, line in enumerate(lines)]
        _assert_loads_as_the_line_parser(tmp_path / "decorated.facts", "\n".join(decorated))


# Lines the fast path takes, and lines it must leave to the line parser:
# comments, blank lines, spaces, headers, several facts, arity clashes and
# syntax errors.
_LOAD_LINES = [
    "R(a,b)", "R(b,a)", "S(a)", "S(b0_c)", "R(a)", "S(a,b)", "T(a,b,c)", "T(a,b)",
    "# comment", "", "   ", "R(a,b) # comment", " R(a,b)", "R( a , b )", "R(a,b)\t",
    "R(a,b) S(c)", "R(a,b)S(c)", "@relation R/2", "@relation S/2", "@relation U/1",
    "@relation T/0", "@relation", "R(a,b", "R()", "R(a,,b)", "(a)", "1R(a)", "R(a-b)",
    "R(é)", "S(a)#", "#S(a)", "R(a,b)\r", "\x0cS(a)", "R(b0_c,ab)", "S(ab) # comment",
]


#: Every line break of `str.splitlines`, and "\r\n".
_LINE_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@given(st.lists(st.sampled_from(_LOAD_LINES), max_size=12), st.sampled_from(_LINE_BREAKS),
       st.sampled_from(["", "\ufeff"]))
@example(["R(a,b)", "R(b,a)", "R(a)"], "\n", "")  # an arity clash on the last line
@example(["@relation U/1", "S(a)", "U(a,b)"], "\r\n", "\ufeff")
@example(["S(b0_c)", "R(b0_c,ab)", "S(ab) # comment", " S(b0_c)"], "\n", "")  # both paths
@example(["S(a)", "@relation S/2"], "\n", "")  # a header after a use, with another arity
@settings(max_examples=300, deadline=None)
def test_load_database_matches_the_line_parser(tmp_path_factory, lines, newline, bom):
    path = tmp_path_factory.mktemp("load") / "fuzz.facts"
    _assert_loads_as_the_line_parser(path, bom + newline.join(lines))


def test_database_is_hashable_value_type():
    a = database([fact("A", "c")])
    b = database([fact("A", "c")])
    assert a == b and hash(a) == hash(b)
    assert isinstance(a, Database)


@given(st.dictionaries(st.sampled_from(["R", "R0", "RR", "R_", "Ra", "S"]), st.integers(1, 3),
                       min_size=1, max_size=4), st.data())
@settings(max_examples=300, deadline=None)
def test_sorted_facts_is_the_canonical_order(arities, data):
    """Sorting each relation's facts by argument tuple, relation by relation,
    gives the order of sorting the facts themselves: on relation names that
    share prefixes, arities up to 3 and constants that do too, none of which
    the corpus reaches."""
    constants = st.sampled_from(["a", "a_", "a0", "aa", "A", "_", "b"])
    facts = data.draw(st.lists(st.one_of([
        st.tuples(*[constants] * arity).map(lambda args, name=name: fact(name, *args))
        for name, arity in arities.items()]), max_size=24))
    db = database(facts)
    assert db.sorted_facts == tuple(sorted(db.facts))


def test_the_per_relation_index_orders_and_counts_the_completion_on_corpus():
    """`Database.sorted_facts` gives the canonical order, `Database.by_relation`
    its relations in order, and the count of the completion restricted to
    the query's negated relations, read from it, is the oracle's."""
    for inst in corpus(500):
        db, q = inst.db, inst.q
        assert db.sorted_facts == tuple(sorted(db.facts)), str(inst)
        assert list(db.by_relation) == sorted({f.relation for f in db.facts}), str(inst)
        want = len(oracles.oracle_signed_completion(db, q))
        assert len(signed_database_restricted(db, q)) == want, str(inst)
