"""Fuzzed input: the parsers and the command line raise only the documented
errors, and every run ends with one of the documented exit codes."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from negshapley.cli import main
from negshapley.core import load_database, parse_fact, parse_signed_fact
from negshapley.errors import CapExceededError, InputParseError, SemanticError
from negshapley.query import parse_query

DOCUMENTED = (InputParseError, SemanticError, CapExceededError)

# Pieces of the fact and query syntax, so that fuzzed text also gets past
# the tokenizer; free text and raw bytes test the rest.
_PIECES = [
    "exists", " x", " y", ", ", ".", "(", ")", "!", "!=", " | ", '"a"', '"b"',
    "R", "S", "I", "a", "b", "c", "0", "@relation ", "/", "1", "2", "#", "\n",
    "+", "-", " ", "\t", "é", "\x00", "R(a,b)\n", "S(a)\n", "R(x,y)", "!S(y)",
]
_syntax = st.lists(st.sampled_from(_PIECES), max_size=24).map("".join)
_text = st.one_of(st.text(max_size=60), _syntax)
_bytes = st.one_of(st.binary(max_size=60), _text.map(lambda t: t.encode("utf-8")))

# Small well-formed files, some of them clashing in arity or unsafe, so that
# the command line also runs to the end and reaches exit codes 2 and 3.
_FACT_LINES = ["R(a,b)", "R(b,a)", "R(a,a)", "S(a)", "S(b)", "T(c)", "R(a)",
               "@relation U/1", "@relation S/2", "# comment", ""]
_LITERALS = ["R(x,y)", "S(x)", "S(y)", "!S(y)", "!R(y,x)", "!U(x)", "x != y",
             'R(x,"a")', "!T(z)", "U(x)", "R(x,y,x)"]
_facts_file = st.lists(st.sampled_from(_FACT_LINES), max_size=7).map("\n".join)
_query_file = st.lists(
    st.lists(st.sampled_from(_LITERALS), min_size=1, max_size=3).map(
        lambda literals: "exists x, y. " + ", ".join(literals)
    ),
    min_size=1, max_size=2,
).map(" | ".join)


@given(_text)
@settings(max_examples=400, deadline=None)
def test_parsers_raise_only_documented_errors(text):
    for parse in (parse_fact, parse_signed_fact, parse_query):
        try:
            parse(text)
        except DOCUMENTED:
            pass


@given(_bytes)
@settings(max_examples=300, deadline=None)
def test_load_database_raises_only_documented_errors(data):
    """A file that is not UTF-8 cannot be read, like a missing one: it
    raises `UnicodeDecodeError`, which the command line reports as exit 1."""
    with tempfile.TemporaryDirectory() as here:
        path = Path(here) / "fuzz.facts"
        path.write_bytes(data)
        try:
            load_database(path)
        except DOCUMENTED:
            pass
        except UnicodeDecodeError:
            try:
                data.decode("utf-8")
            except UnicodeDecodeError:
                pass
            else:
                raise


_COMMANDS = st.sampled_from([
    ["supports"], ["supports", "--kind", "positive"], ["supports", "--kind", "dmonotone"],
    ["supports", "--kind", "positive", "--all"], ["score"], ["score", "--measure", "drastic"],
    ["score", "--measure", "mps", "--fact", "R(a,b)"], ["score", "--fact=-S(a)"],
    ["score", "--measure", "signed-drastic"],
    ["relevance"], ["compare"], ["analyze"], ["relevance", "--cap-signed", "2"],
])


@given(
    st.one_of(_bytes, _facts_file.map(str.encode)),
    st.one_of(_bytes, _query_file.map(str.encode)),
    _COMMANDS,
    st.sampled_from(["table", "json"]),
)
@settings(max_examples=300, deadline=None)
def test_cli_exits_with_a_documented_code_on_fuzzed_files(facts, query, command, fmt):
    with tempfile.TemporaryDirectory() as here:
        db, q = Path(here) / "fuzz.facts", Path(here) / "fuzz.query"
        db.write_bytes(facts)
        q.write_bytes(query)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*command, "--db", str(db), "--query", str(q), "--format", fmt])
    assert code in (0, 1, 2, 3)
    if code:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""


def test_header_arity_beyond_int_conversion_is_a_syntax_error(tmp_path):
    db, q = tmp_path / "huge.facts", tmp_path / "r.query"
    db.write_text("@relation R/" + "9" * 5000 + "\n")
    q.write_text("exists x. R(x)\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["supports", "--db", str(db), "--query", str(q)])
    assert code == 1 and err.getvalue().startswith("error: line 1: malformed header")
