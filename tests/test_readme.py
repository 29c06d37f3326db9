"""The README's examples, run as written: the Quick start's console blocks
through `negshapley.cli.main` on its fact and query files, and the Library
use block as a script; and the start-up line count it quotes, against the
sources that a fresh import loads."""

import os
import re
import shlex
from pathlib import Path

import negshapley
from negshapley.cli import main

import startup

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    return README[start:README.index("\n## ", start + 1)]


def _blocks(section: str, language: str) -> list[str]:
    return re.findall(rf"```{language}\n(.*?)```", section, re.S)


def test_quick_start_console_blocks(capsys, tmp_path, monkeypatch):
    """Each block's command prints its lines; a ``...`` line stands for any
    number of lines left out."""
    quick = _section("Quick start")
    facts, query = _blocks(quick, "text")
    (tmp_path / "menu.facts").write_text(facts, encoding="utf-8")
    (tmp_path / "fish_no_meat.q").write_text(query, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    commands = []
    for block in _blocks(quick, "console"):
        command, *shown = block.splitlines()
        prompt, program, *argv = shlex.split(command)
        assert (prompt, program) == ("$", "negshapley")
        assert main(argv) == 0
        out, err = capsys.readouterr()
        pattern = "".join(r"(?:.*\n)*?" if line == "..." else re.escape(line) + "\n" for line in shown)
        assert err == "" and re.fullmatch(pattern, out), (command, out)
        commands.append(argv[0])
    assert commands == ["supports", "score", "compare"]


def test_library_use_block(capsys):
    """The block runs, its assertions hold, and each ``print`` writes what
    its comment shows."""
    (code,) = _blocks(_section("Library use"), "python")
    exec(compile(code, "README.md", "exec"), {})
    shown = re.findall(r"print\(.*\)\s+# (.*)", code)
    assert shown and capsys.readouterr().out.splitlines() == shown


def test_start_up_line_count():
    """The Start-up section's "compiles N package modules, L lines" is the
    count that `tests/startup.py` prints: the modules a fresh ``python3 -S``
    import of `negshapley.cli` loads, and their lines."""
    (quoted,) = re.findall(r"compiles\s+(\d+) package modules, ([\d,]+) lines,",
                           _section("Start-up"))
    src = Path(negshapley.__file__).resolve().parents[1]
    sources = startup.start_up_sources(dict(os.environ, PYTHONPATH=str(src)))
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in sources)
    assert quoted == (str(len(sources)), f"{lines:,}")
