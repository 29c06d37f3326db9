"""The mutation tool (`tests/mutants.py`) can fail: a mutant that changes
nothing the tests can see survives, and one whose text is gone is stale."""

import re

import mutants


def test_an_inert_mutant_survives_and_a_stale_one_is_reported(capsys):
    inert = mutants.Mutant("src/negshapley/cli.py", "# -- supports --", "# -- listing --",
                           ("tests/test_query.py", "-k", "test_parse_single_disjunct"),
                           "a changed comment")
    stale = inert._replace(old="# -- no such comment --", why="text that is not there")
    assert mutants.check([inert, stale]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [re.sub(r" +[0-9.]+ s +", " ", line) for line in lines] == [
        "survived src/negshapley/cli.py: a changed comment",
        "stale src/negshapley/cli.py: text that is not there",
        "0 of 2 mutants killed",
    ]


def test_every_mutant_names_text_that_occurs_once():
    """A mutant goes stale when its code moves; the tool would say so only
    when run, so the tier-1 tests say it too."""
    root = mutants.ROOT
    assert [m.why for m in mutants.MUTANTS
            if (root / m.file).read_text(encoding="utf-8").count(m.old) != 1] == []
