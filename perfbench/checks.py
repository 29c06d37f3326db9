"""Output checks behind ``fail_ratio``.

Each invocation's output is parsed and held against three things:

* the digest recorded for the same inputs at the commit that defined the
  benchmark (``digests.json``), which enforces the byte-identical output
  contract;
* answers the generators worked out without ``negshapley`` (row counts,
  support counts and sizes, whether the query holds);
* the Shapley efficiency axiom: a game's scores over all players sum to
  the grand coalition's wealth.  Drastic games sum to 1 or 0 as the query
  holds or not; the counting games sum to the number of minimal supports
  (reciprocal weight) or their total size (constant weight), which the
  ``supports`` listing of the same pass also shows.
"""
from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from workloads import Instance, Invocation, Workload

DIGESTS_FILE = Path(__file__).resolve().parent / "digests.json"


class CheckError(Exception):
    """An output that breaks the contract or an invariant."""


@dataclass
class Output:
    """What the checks need from one invocation's standard output."""

    records: int
    total: Fraction | None = None  # sum of the scores (compare: drastic column)
    sizes: list[int] = field(default_factory=list)  # support sizes


def flag(argv: tuple[str, ...], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def _table(text: str) -> list[list[str]]:
    rows = [re.split(r"  +", line.strip()) for line in text.splitlines()]
    return rows[1:]  # drop the header; an empty listing prints nothing


def _rational(encoded: dict) -> Fraction:
    if "error" in encoded:
        raise CheckError(f"score error: {encoded['error']}")
    return Fraction(int(encoded["num"]), int(encoded["den"]))


def parse(inv: Invocation, text: str) -> Output:
    command = inv.argv[0]
    try:
        if command == "supports":
            rows = _table(text)
            if any(len(row) != 3 or row[2] != "true" for row in rows):
                raise CheckError("malformed or non-minimal support row")
            return Output(len(rows), sizes=[int(row[1]) for row in rows])
        if command == "relevance":
            rows = _table(text)
            if any(len(row) != 4 for row in rows):
                raise CheckError("malformed relevance row")
            return Output(len(rows))
        records = json.loads(text)["records"]
        if command == "score":
            measure = flag(inv.argv, "--measure")
            total = sum((_rational(r["values"][measure]) if "values" in r
                         else _rational(r) for r in records), Fraction(0))
            return Output(len(records), total=total)
        if command == "compare":
            total = sum((_rational(r["values"]["drastic"]) for r in records
                         if "drastic" in r["values"]), Fraction(0))
            return Output(len(records), total=total)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise CheckError(f"unparseable {command} output: {exc!r}") from exc
    raise CheckError(f"no check for subcommand {command!r}")


def _expect(what: str, got, want) -> None:
    if got != want:
        raise CheckError(f"{what}: got {got}, expected {want}")


def _sibling(wl: Workload, outputs: list, instance: str, kind: str) -> Output | None:
    """The same pass's ``supports --kind <kind>`` listing of ``instance``."""
    for inv, out in zip(wl.invocations, outputs):
        if (isinstance(out, Output) and inv.argv[0] == "supports"
                and inv.instance == instance and flag(inv.argv, "--kind") == kind):
            return out
    return None


def _check_one(wl: Workload, inv: Invocation, out: Output, outputs: list) -> None:
    inst: Instance = wl.instances[inv.instance]
    command, argv = inv.argv[0], inv.argv
    if command == "relevance":
        _expect("relevance rows", out.records, inst.completion_size)
    elif command == "compare":
        _expect("compare rows", out.records, inst.completion_size)
        _expect("sum of drastic scores", out.total, Fraction(int(inst.holds)))
    elif command == "supports":
        kind = flag(argv, "--kind", "signed")
        size = {"signed": inst.signed_size, "positive": inst.positive_size}.get(kind)
        if size is not None:
            _expect(f"{kind} supports", out.records, inst.supports)
            _expect(f"{kind} support sizes", set(out.sizes), {size})
        elif inst.holds and not out.records:
            raise CheckError("no supports although the query holds")
    elif command == "score":
        measure = flag(argv, "--measure")
        if flag(argv, "--fact") is not None:
            if measure == "mps" and flag(argv, "--fact") == inst.scored_fact:
                _expect("mps score of a size-1 support's fact", out.total, Fraction(1))
            return
        if measure in ("drastic", "positive-drastic"):
            _expect(f"sum of {measure} scores", out.total, Fraction(int(inst.holds)))
            return
        kind = {"ms-signed": "signed", "mps": "positive"}[measure]
        constant = flag(argv, "--weight") == "constant"
        want = []
        listing = _sibling(wl, outputs, inv.instance, kind)
        if listing is not None:
            want.append(sum(listing.sizes) if constant else listing.records)
        if inst.supports is not None:
            size = inst.signed_size if kind == "signed" else inst.positive_size
            want.append(inst.supports * size if constant else inst.supports)
        for expected in want:
            _expect(f"sum of {measure} scores", out.total, Fraction(expected))


def check_pass(wl: Workload, texts: list[str | None]) -> tuple[list[int], list[str | None]]:
    """Check one pass over the workload.  ``texts`` holds each invocation's
    output, or ``None`` where it already failed.  Returns the records each
    produced and a problem description (or ``None``) per invocation."""
    outputs: list = []
    for inv, text in zip(wl.invocations, texts):
        try:
            outputs.append(None if text is None else parse(inv, text))
        except CheckError as exc:
            outputs.append(str(exc))
    records, problems = [], []
    for inv, out in zip(wl.invocations, outputs):
        problem = out if isinstance(out, str) else None
        if isinstance(out, Output):
            try:
                _check_one(wl, inv, out, outputs)
            except CheckError as exc:
                problem = str(exc)
        records.append(out.records if isinstance(out, Output) else 0)
        problems.append(problem)
    return records, problems


# ---------------------------------------------------------------------------
# Recorded output digests
# ---------------------------------------------------------------------------


def input_key(inv: Invocation, inst: Instance) -> str:
    """Names an invocation by everything the program sees."""
    blob = json.dumps([list(inv.argv), inst.facts_text, inst.query_text])
    return hashlib.sha256(blob.encode()).hexdigest()


def output_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests() -> dict[str, str]:
    if not DIGESTS_FILE.exists():
        return {}
    return json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))
