"""Independent reference implementations used to cross-check the engine.

Everything here is recomputed from first principles with the dumbest
algorithm that could possibly be right: satisfaction by trying every
variable binding over the active domain, supports by enumerating subsets
in size order, Shapley values by averaging marginal contributions over
every permutation, the order of the engine's assignments by scanning
whole relations, the order of its minimal signed supports by scanning
the signed completion, the guarded reduction by matching fact by fact,
the relevance, compare and score outputs by rendering the materialized
completion whole, and the row writer and the fact-file reader one row and
one line at a time.  Only data types, and the helpers that join and quote
what the row writer writes, are imported from the package -- none of its
evaluation or parsing code.  Keep it that way.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from negshapley.core import Database, Fact, Relation, Sign, SignedFact, negative, positive
from negshapley.query import Atom, Conjunct, Const, Inequality, Query, Term


def adom(facts: Iterable[Fact]) -> list[str]:
    return sorted({c for f in facts for c in f.args})


def _term_value(t: Term, binding: dict[str, str]) -> str:
    return t.value if isinstance(t, Const) else binding[t.name]


def _ground(atom: Atom, binding: dict[str, str]) -> Fact:
    return Fact(atom.relation, tuple(_term_value(t, binding) for t in atom.terms))


def _bindings(cq: Conjunct, domain: Sequence[str]) -> Iterator[dict[str, str]]:
    names = sorted(cq.used_variables)
    for combo in itertools.product(domain, repeat=len(names)):
        yield dict(zip(names, combo))


def _conjunct_holds(
    cq: Conjunct,
    binding: dict[str, str],
    present: frozenset[Fact],
    absent_from: frozenset[Fact],
) -> bool:
    for lit in cq.literals:
        if isinstance(lit, Inequality):
            if _term_value(lit.left, binding) == _term_value(lit.right, binding):
                return False
        elif lit.negated:
            if _ground(lit, binding) in absent_from:
                return False
        elif _ground(lit, binding) not in present:
            return False
    return True


def oracle_satisfies(
    q: Query,
    facts: Iterable[Fact],
    context: Iterable[Fact] | None = None,
) -> bool:
    """Plain satisfaction by exhaustive assignment search.

    Positive atoms must land in ``facts``; negated atoms are checked
    against ``context`` when given (the positive-support reading) and
    against ``facts`` itself otherwise.
    """
    present = frozenset(facts)
    absent_from = present if context is None else frozenset(context)
    domain = adom(present)
    return any(
        _conjunct_holds(cq, b, present, absent_from)
        for cq in q.disjuncts
        for b in _bindings(cq, domain)
    )


def oracle_signed_satisfies(q: Query, signed: Iterable[SignedFact]) -> bool:
    """Satisfaction over signed facts, checked directly against the signs.

    The engine routes this through a relation-renaming transform; here a
    positive atom just has to hit a ``+`` fact and a negated atom a ``-``
    fact, so agreement is meaningful evidence the transform is right.
    """
    pool = frozenset(signed)
    domain = sorted({c for sf in pool for c in sf.fact.args})
    for cq in q.disjuncts:
        for b in _bindings(cq, domain):
            ok = True
            for lit in cq.literals:
                if isinstance(lit, Inequality):
                    ok = _term_value(lit.left, b) != _term_value(lit.right, b)
                elif lit.negated:
                    ok = negative(_ground(lit, b)) in pool
                else:
                    ok = positive(_ground(lit, b)) in pool
                if not ok:
                    break
            if ok:
                return True
    return False


def oracle_signed_completion(db: Database, q: Query) -> frozenset[SignedFact]:
    """The completion restricted to the query's negated relations."""
    dom = adom(db.facts)
    out = {positive(f) for f in db.facts}
    negated = {
        lit.relation
        for cq in q.disjuncts
        for lit in cq.literals
        if isinstance(lit, Atom) and lit.negated
    }
    for rel in negated:
        for combo in itertools.product(dom, repeat=rel.arity):
            f = Fact(rel, combo)
            if f not in db.facts:
                out.add(negative(f))
    return frozenset(out)


def signed_non_players(db: Database, q: Query) -> list[SignedFact]:
    """Signed facts outside the completion restricted to the query's negated
    relations, in order: each member with the other sign, a negated
    relation's fact over a constant outside the active domain (``zz``), and
    a ``-`` fact of each relation of the query that is not negated."""
    completion = oracle_signed_completion(db, q)
    negated = {atom.relation for cq in q.disjuncts for atom in cq.negated_atoms}
    flipped = {SignedFact(Sign(1 - sf.sign), sf.fact) for sf in completion}
    outside = {negative(Fact(rel, ("zz",) * rel.arity)) for rel in negated}
    constant = min(adom(db.facts), default="a")
    positive_only = {negative(Fact(rel, (constant,) * rel.arity)) for rel in q.relations - negated}
    return sorted(flipped | outside | positive_only)


def reference_absent(db: Database, rel: Relation) -> list[tuple[str, ...]]:
    """`SignedDatabase.absent` of a negated ``rel`` as a scan of every stored
    fact: the argument tuples over the sorted active domain that ``rel``
    lacks in ``db``, in order."""
    stored = {f.args for f in db.facts if f.relation == rel}
    return [args for args in itertools.product(adom(db.facts), repeat=rel.arity)
            if args not in stored]


def signed_as_plain(signed: Iterable[SignedFact]) -> frozenset[Fact]:
    """Signed facts as plain facts over the sign-transformed schema: +R(a)
    and -R(a) become facts of relations literally named "+R" and "-R", the
    names `sign_transform` gives the query's atoms."""
    return frozenset(
        Fact(Relation(sf.sign.symbol + sf.fact.relation.name, sf.fact.relation.arity),
             sf.fact.args)
        for sf in signed
    )


def reference_assignments(
    q: Query, facts: Iterable[Fact], context: Iterable[Fact] = ()
) -> list[tuple[int, dict[str, str], frozenset[Fact], tuple[Fact, ...]]]:
    """Every (disjunct index, binding, image of the positive atoms, grounded
    negated atoms) by the full-relation scan, in the order the engine's
    search must reproduce.

    Disjunct by disjunct, each positive atom in turn is tried against every
    fact in sorted order, depth first.  Negated atoms (absent from
    ``context``) and inequalities are checked once every atom has matched.
    The negated atoms are grounded from the binding, ordered by the first
    positive atom after which all their variables are bound, and in written
    order among those.
    """
    ordered = sorted(set(facts))
    absent_from = frozenset(context)
    out: list[tuple[int, dict[str, str], frozenset[Fact], tuple[Fact, ...]]] = []
    for idx, cq in enumerate(q.disjuncts):
        atoms = [lit for lit in cq.literals if isinstance(lit, Atom) and not lit.negated]
        prefixes = [set().union(*(a.variables for a in atoms[: i + 1])) for i in range(len(atoms))]
        negated = sorted(
            (lit for lit in cq.literals if isinstance(lit, Atom) and lit.negated),
            key=lambda lit: next(i for i, bound in enumerate(prefixes) if lit.variables <= bound),
        )

        def holds(binding: dict[str, str]) -> bool:
            for lit in cq.literals:
                if isinstance(lit, Inequality):
                    if _term_value(lit.left, binding) == _term_value(lit.right, binding):
                        return False
                elif lit.negated and _ground(lit, binding) in absent_from:
                    return False
            return True

        def extend(step: int, binding: dict[str, str], image: tuple[Fact, ...]) -> None:
            if step == len(atoms):
                if holds(binding):
                    grounded = tuple(_ground(lit, binding) for lit in negated)
                    out.append((idx, binding, frozenset(image), grounded))
                return
            atom = atoms[step]
            for f in ordered:
                if f.relation != atom.relation:
                    continue
                trial = dict(binding)
                if all(
                    (term.value if isinstance(term, Const) else trial.setdefault(term.name, value))
                    == value
                    for term, value in zip(atom.terms, f.args)
                ):
                    extend(step + 1, trial, image + (f,))

        extend(0, {}, ())
    return out


def reference_signed_supports(q: Query, db: Database) -> list[frozenset[SignedFact]]:
    """Minimal signed supports by searching the restricted completion.

    The query is sign-transformed (``R`` to ``+R``, ``!R`` to a positive
    ``-R``), its assignment images are found by `reference_assignments` over
    the completion with each sign folded into the relation name, and the
    minimal images come back as signed facts, smallest first and then in
    sorted order.
    """
    transformed = Query(tuple(
        Conjunct(cq.variables, tuple(
            lit if isinstance(lit, Inequality) else Atom(
                Relation(("-" if lit.negated else "+") + lit.relation.name,
                         lit.relation.arity),
                lit.terms,
            )
            for lit in cq.literals
        ))
        for cq in q.disjuncts
    ))
    completion = signed_as_plain(oracle_signed_completion(db, q))
    images = {image for _, _, image, _ in reference_assignments(transformed, completion)}
    return minimal_among(
        frozenset(
            SignedFact(
                Sign.POSITIVE if f.relation.name[0] == "+" else Sign.NEGATIVE,
                Fact(Relation(f.relation.name[1:], f.relation.arity), f.args),
            )
            for f in image
        )
        for image in images
    )


def subsets(universe: Iterable) -> Iterator[frozenset]:
    """All subsets, smallest first; deterministic within each size."""
    items = sorted(universe)
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            yield frozenset(combo)


def minimal_among(family: Iterable[frozenset]) -> list[frozenset]:
    fam = sorted(set(family), key=lambda s: (len(s), sorted(s)))
    out: list[frozenset] = []
    for s in fam:
        if not any(m <= s for m in out):
            out.append(s)
    return out


def _minimal_supports(universe: Iterable, holds: Callable[[frozenset], bool]) -> list[frozenset]:
    # Size-order scan; anything containing an already-found minimal set is
    # a non-minimal support and can be skipped without testing.
    found: list[frozenset] = []
    items = sorted(universe)
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            s = frozenset(combo)
            if any(m <= s for m in found):
                continue
            if holds(s):
                found.append(s)
    return found


def oracle_minimal_signed_supports(q: Query, db: Database) -> list[frozenset[SignedFact]]:
    universe = oracle_signed_completion(db, q)
    assert len(universe) <= 14, "oracle blow-up guard: shrink the instance"
    return _minimal_supports(universe, lambda s: oracle_signed_satisfies(q, s))


def oracle_minimal_positive_supports(q: Query, db: Database) -> list[frozenset[Fact]]:
    return _minimal_supports(
        db.facts, lambda s: oracle_satisfies(q, s, context=db.facts)
    )


def oracle_is_d_monotone(S: Iterable[Fact], q: Query, db: Database) -> bool:
    base = frozenset(S)
    rest = db.facts - base
    return all(oracle_satisfies(q, base | extra) for extra in subsets(rest))


def oracle_minimal_d_monotone_supports(q: Query, db: Database) -> list[frozenset[Fact]]:
    assert len(db.facts) <= 12, "oracle blow-up guard"
    return _minimal_supports(db.facts, lambda s: oracle_is_d_monotone(s, q, db))


def oracle_all_supports(q: Query, db: Database, kind: str) -> list[tuple[frozenset, bool]]:
    """Every support of the kind (``signed``, ``positive`` or ``dMonotone``)
    with its minimality, by testing every subset of the players, ordered by
    size and then by sorted elements."""
    if kind == "signed":
        universe, holds = oracle_signed_completion(db, q), lambda s: oracle_signed_satisfies(q, s)
    elif kind == "positive":
        universe, holds = db.facts, lambda s: oracle_satisfies(q, s, context=db.facts)
    else:
        universe, holds = db.facts, lambda s: oracle_is_d_monotone(s, q, db)
    found = [s for s in subsets(universe) if holds(s)]
    minimal = set(minimal_among(found))
    return [(s, s in minimal) for s in sorted(found, key=lambda s: (len(s), sorted(s)))]


def oracle_impact(f: Fact, q: Query, db: Database) -> str:
    """Impact classification by scanning every sub-database."""
    gains = loses = False
    for sub in subsets(db.facts - {f}):
        before = oracle_satisfies(q, sub)
        after = oracle_satisfies(q, sub | {f})
        if after and not before:
            gains = True
        elif before and not after:
            loses = True
        if gains and loses:
            return "both"
    if gains:
        return "positiveOnly"
    if loses:
        return "negativeOnly"
    return "none"


def oracle_bounded_entailment(
    S: Iterable[SignedFact], q: Query, domain: Iterable[str]
) -> bool:
    """Entailment over a finite domain by enumerating candidate databases.

    Every database over ``domain`` (facts drawn from the relations of the
    query and of S) that includes S's positive part and avoids its
    negative part must satisfy q.
    """
    pool = set(S)
    required = {sf.fact for sf in pool if sf.sign is Sign.POSITIVE}
    forbidden = {sf.fact for sf in pool if sf.sign is Sign.NEGATIVE}
    if required & forbidden:
        return True  # no candidate database exists at all
    dom = sorted(domain)
    rels = {sf.fact.relation for sf in pool} | {
        lit.relation
        for cq in q.disjuncts
        for lit in cq.literals
        if isinstance(lit, Atom)
    }
    free = [
        f
        for rel in sorted(rels)
        for combo in itertools.product(dom, repeat=rel.arity)
        if (f := Fact(rel, combo)) not in required and f not in forbidden
    ]
    assert len(free) <= 14, "oracle blow-up guard"
    return all(
        oracle_satisfies(q, required | set(extra)) for extra in subsets(free)
    )


def _match_fact(atom: Atom, f: Fact) -> dict[str, str] | None:
    """The binding that maps ``atom`` onto ``f``, if there is one."""
    if atom.relation != f.relation:
        return None
    binding: dict[str, str] = {}
    for term, value in zip(atom.terms, f.args):
        if isinstance(term, Const):
            if term.value != value:
                return None
        elif binding.setdefault(term.name, value) != value:
            return None
    return binding


def reference_guarded_reduction(
    cq: Conjunct, db: Database
) -> tuple[frozenset[Fact], frozenset[Fact]]:
    """``d'`` and ``d''`` of the guarded reduction, fact by fact.

    Each negated atom and inequality guards with the first positive atom
    that holds its variables.  A fact joins ``d'`` when it matches a
    positive atom (at most one does: the disjunct has no mergeable atoms),
    and ``d''`` when that atom's guards also hold under the match, negated
    atoms checked against the database.
    """
    atoms = [lit for lit in cq.literals if isinstance(lit, Atom) and not lit.negated]
    guards: list[list] = [[] for _ in atoms]
    for lit in cq.literals:
        if isinstance(lit, Inequality) or lit.negated:
            next(g for g, a in zip(guards, atoms) if lit.variables <= a.variables).append(lit)

    def holds(lit, binding: dict[str, str]) -> bool:
        if isinstance(lit, Inequality):
            return _term_value(lit.left, binding) != _term_value(lit.right, binding)
        return _ground(lit, binding) not in db.facts

    matched, kept = set(), set()
    for f in db.facts:
        for atom, atom_guards in zip(atoms, guards):
            binding = _match_fact(atom, f)
            if binding is not None:
                matched.add(f)
                if all(holds(lit, binding) for lit in atom_guards):
                    kept.add(f)
                break
    return frozenset(matched), frozenset(kept)


# ---------------------------------------------------------------------------
# Game-theoretic oracles
# ---------------------------------------------------------------------------


def oracle_wealth(kind: str, q: Query, db: Database) -> Callable[[frozenset], Fraction]:
    """Coalition -> wealth, built from the oracle's own satisfaction tests."""
    if kind == "drastic":
        return lambda s: Fraction(int(oracle_satisfies(q, s)))
    if kind == "signed-drastic":
        return lambda s: Fraction(int(oracle_signed_satisfies(q, s)))
    if kind == "positive-drastic":
        return lambda s: Fraction(int(oracle_satisfies(q, s, context=db.facts)))
    if kind == "ms-signed":
        mins = oracle_minimal_signed_supports(q, db)
        return lambda s: Fraction(sum(1 for m in mins if m <= frozenset(s)))
    if kind == "mps":
        mins = oracle_minimal_positive_supports(q, db)
        return lambda s: Fraction(sum(1 for m in mins if m <= frozenset(s)))
    raise ValueError(f"unknown wealth kind {kind!r}")


def oracle_shapley(players: Sequence, wealth: Callable, target) -> Fraction:
    """The permutation definition, literally."""
    players = list(players)
    total = Fraction(0)
    for perm in itertools.permutations(players):
        i = perm.index(target)
        prefix = frozenset(perm[:i])
        total += wealth(prefix | {target}) - wealth(prefix)
    return total / math.factorial(len(players))


def reference_ms_shapley(
    q: Query,
    db: Database,
    target,
    *,
    weight: Callable[[int], Fraction],
    mode: str,
) -> tuple[Fraction, dict[int, int]]:
    """A WSMS score by bounded candidate enumeration around one target.

    Candidate sets containing the target are drawn from the players (the
    restricted signed completion, or the database facts) up to the largest
    disjunct's atom count, the most a minimal support can hold.  A candidate
    counts when it satisfies and none of its single-member removals does,
    which is minimality because both support families are monotone.
    Returns the score and how many such supports of each size were found.
    """
    if mode == "signed":
        universe = sorted(oracle_signed_completion(db, q))
        holds = lambda s: oracle_signed_satisfies(q, s)
        max_size = max(
            len(cq.positive_atoms) + len(cq.negated_atoms) for cq in q.disjuncts
        )
    else:
        universe = sorted(db.facts)
        holds = lambda s: oracle_satisfies(q, s, context=db.facts)
        max_size = max(len(cq.positive_atoms) for cq in q.disjuncts)
    others = [p for p in universe if p != target]
    score = Fraction(0)
    by_size: dict[int, int] = {}
    for extra in range(min(max_size, len(others) + 1)):
        for combo in itertools.combinations(others, extra):
            candidate = frozenset(combo) | {target}
            if not holds(candidate) or any(holds(candidate - {p}) for p in candidate):
                continue
            score += weight(len(candidate))
            by_size[len(candidate)] = by_size.get(len(candidate), 0) + 1
    return score, dict(sorted(by_size.items()))


def wealth_table(players: Sequence, wealth: Callable[[frozenset], Fraction]) -> list[Fraction]:
    """Wealth of every coalition, indexed by player bitmask."""
    players = list(players)
    return [
        wealth(frozenset(p for i, p in enumerate(players) if mask >> i & 1))
        for mask in range(1 << len(players))
    ]


def shapley_from_table(values: Sequence[Fraction], n: int) -> list[Fraction]:
    """All n Shapley values from a 2^n wealth table (subset formula)."""
    fac = [math.factorial(k) for k in range(n + 1)]
    out = []
    for i in range(n):
        bit = 1 << i
        acc = Fraction(0)
        for mask in range(1 << n):
            if mask & bit:
                continue
            s = mask.bit_count()
            acc += Fraction(fac[s] * fac[n - 1 - s], fac[n]) * (
                values[mask | bit] - values[mask]
            )
        out.append(acc)
    return out


def marginal_counts_from_table(
    values: Sequence[Fraction], n: int, i: int
) -> dict[Fraction, int]:
    """How many of the n! orderings give player i each marginal value.

    Counted from the subset side: the players before i form a set S, and
    exactly |S|!(n-1-|S|)! orderings put S before i and the rest after.
    """
    bit = 1 << i
    counts: dict[Fraction, int] = {}
    for mask in range(1 << n):
        if mask & bit:
            continue
        s = mask.bit_count()
        orderings = math.factorial(s) * math.factorial(n - 1 - s)
        delta = values[mask | bit] - values[mask]
        counts[delta] = counts.get(delta, 0) + orderings
    return counts


def null_players_from_table(values: Sequence[Fraction], n: int) -> list[bool]:
    """Which players never change any coalition's wealth."""
    out = []
    for i in range(n):
        bit = 1 << i
        out.append(
            all(
                values[mask | bit] == values[mask]
                for mask in range(1 << n)
                if not mask & bit
            )
        )
    return out


# ---------------------------------------------------------------------------
# The relevance, compare and score outputs, materialized
# ---------------------------------------------------------------------------

VERDICT_COLUMNS = ("fact", "signedRelevant", "positiveRelevant", "impact")
COMPARED_MEASURES = ("ms-signed", "mps", "drastic")


def _rational(value: Fraction) -> dict[str, str]:
    return {"num": str(value.numerator), "den": str(value.denominator)}


def _columns(rows: list[Sequence[str]]) -> list[str]:
    if not rows:
        return []
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ]


def _verdict_cells(values: tuple) -> list[str]:
    subject, signed, positive_, impact = values
    show = lambda b: "true" if b else "false"
    return [subject, show(signed), "-" if positive_ is None else show(positive_),
            "-" if impact is None else impact]


def _value_cell(value: dict[str, str] | None) -> str:
    if value is None:
        return "-"
    if "error" in value:
        return "error"
    return str(Fraction(int(value["num"]), int(value["den"])))


def reference_reports(
    q: Query, db: Database, *, impact_cap: int = 20, subset_cap: int = 20,
) -> dict[tuple[str, str], str]:
    """The whole output of ``negshapley relevance`` and ``compare`` in both
    formats, keyed by (command, format), built the way the command line
    built it before its rows were streamed: one record per fact of the
    materialized restricted completion, in sorted order, then every table
    line or the whole JSON document at once.

    The verdicts and scores come from the references above: supports from
    the completion scan, impact by scanning sub-databases (``skipped`` above
    ``impact_cap`` facts), drastic values from a coalition table, or the
    command line's per-fact subset-cap error above ``subset_cap`` facts.
    """
    signed = reference_signed_supports(q, db)
    plain = minimal_among(image for _, _, image, _ in reference_assignments(q, db.facts, db.facts))
    facts = sorted(db.facts)
    if len(facts) > impact_cap:
        impacts = dict.fromkeys(facts, "skipped")
    else:
        impacts = {f: oracle_impact(f, q, db) for f in facts}
    if len(facts) > subset_cap:
        n = len(facts)
        error = {"error": f"{n} players means 2^{n - 1} coalitions (cap {subset_cap})"}
        drastic = dict.fromkeys(facts, error)
    else:
        table = wealth_table(facts, oracle_wealth("drastic", q, db))
        drastic = dict(zip(facts, map(_rational, shapley_from_table(table, len(facts)))))
    score = lambda p, family: _rational(sum(
        (Fraction(1, len(s)) for s in family if p in s), Fraction(0)
    ))
    verdicts, compared = [], []
    for sf in sorted(oracle_signed_completion(db, q)):
        in_db = sf.sign is Sign.POSITIVE
        verdict = {
            "fact": str(sf),
            "signedRelevant": any(sf in s for s in signed),
            "positiveRelevant": any(sf.fact in s for s in plain) if in_db else None,
            "impact": impacts[sf.fact] if in_db else None,
        }
        values = {"ms-signed": score(sf, signed)}
        if in_db:
            values["mps"] = score(sf.fact, plain)
            values["drastic"] = drastic[sf.fact]
        verdicts.append(verdict)
        compared.append({**verdict, "values": values})
    outputs = {}
    for command, records, measures in (
        ("relevance", verdicts, ()), ("compare", compared, COMPARED_MEASURES)
    ):
        payload = {"command": command, "query": str(q), "records": records}
        outputs[command, "json"] = json.dumps(payload, indent=2) + "\n"
        rows = [[*VERDICT_COLUMNS, *measures]] + [
            _verdict_cells(tuple(r[c] for c in VERDICT_COLUMNS))
            + [_value_cell(r["values"].get(m)) for m in measures]
            for r in records
        ]
        outputs[command, "table"] = "".join(line + "\n" for line in _columns(rows))
    return outputs


WEIGHTS: dict[str, Callable[[int], Fraction]] = {
    "reciprocal": lambda k: Fraction(1, k),
    "constant": lambda k: Fraction(1),
}


def reference_score(
    q: Query, db: Database, measure: str, weight: str = "reciprocal", *, subset_cap: int = 20
) -> dict[str, str]:
    """The whole output of ``negshapley score --measure MEASURE --weight
    WEIGHT`` for every player, keyed by format, built the way the command
    line built it before its records were streamed: one record per player of
    the materialized player set (the restricted signed completion for
    ``ms-signed`` and ``signed-drastic``, the database facts otherwise), in
    sorted order, then every table line or the whole JSON document at once.

    The counting measures take each player's score and support sizes from
    `reference_ms_shapley`; the Boolean games take every value from a
    coalition table (`wealth_table`, `shapley_from_table`), or the command
    line's per-fact subset-cap error above ``subset_cap`` players, and show
    the weight only in the header.
    """
    signed = measure in ("ms-signed", "signed-drastic")
    players = sorted(oracle_signed_completion(db, q)) if signed else sorted(db.facts)
    if measure in ("ms-signed", "mps"):
        mode = "signed" if signed else "positive"
        records = [
            {"fact": str(p), "values": {measure: _rational(score)}, "method": "closed-form",
             "supportsBySize": sizes}
            for p in players
            for score, sizes in [reference_ms_shapley(q, db, p, weight=WEIGHTS[weight], mode=mode)]
        ]
    elif len(players) > subset_cap:
        n = len(players)
        error = f"{n} players means 2^{n - 1} coalitions (cap {subset_cap})"
        records = [{"fact": str(p), "error": error} for p in players]
    else:
        values = shapley_from_table(wealth_table(players, oracle_wealth(measure, q, db)), len(players))
        records = [{"fact": str(p), "values": {measure: _rational(v)}, "method": "subset"}
                   for p, v in zip(players, values)]
    payload = {"command": "score", "query": str(q), "measure": measure, "weight": weight,
               "records": records}
    rows = [["fact", measure, "method"]] + [
        [r["fact"], "error: " + r["error"], "-"] if "error" in r
        else [r["fact"], _value_cell(r["values"][measure]), r["method"]]
        for r in records
    ]
    return {"json": json.dumps(payload, indent=2) + "\n",
            "table": "".join(line + "\n" for line in _columns(rows))}


# ---------------------------------------------------------------------------
# Fact files, read one line at a time
# ---------------------------------------------------------------------------


#: A fact as `_reference_facts` takes it apart: a name, then all up to the
#: first ``)`` as its arguments, each checked on its own.
_REFERENCE_FACT = r"\s*([A-Za-z][A-Za-z0-9_]*)\s*\(([^)]*)\)\s*"


def _reference_facts(line: str, lineno: int) -> Iterator[tuple[str, tuple[str, ...]]]:
    """Each fact of a line as its name and arguments, left to right, or the
    loader's error at the first part of the line that is no fact."""
    import re

    from negshapley.errors import FactSyntaxError

    rest = line
    while rest.strip():
        match = re.match(_REFERENCE_FACT, rest)
        args = [part.strip() for part in match.group(2).split(",")] if match else []
        if not args or not all(re.fullmatch("[A-Za-z0-9_]+", a) for a in args):
            raise FactSyntaxError(f"cannot parse fact near {rest.strip()!r}", lineno)
        yield match.group(1), tuple(args)
        rest = rest[match.end():]


def _reference_header(line: str, lineno: int) -> tuple[str, int]:
    """A header line's relation name and arity, or the loader's error: the
    words before the one ``/`` are ``@relation`` and a name, and after it
    come decimal digits that `int` converts to a positive arity."""
    import re

    from negshapley.errors import FactSyntaxError

    head, _, digits = line.partition("/")
    words, digits = head.split(), digits.strip()
    if not (len(words) == 2 and words[0] == "@relation" and digits.isdecimal()
            and re.fullmatch("[A-Za-z][A-Za-z0-9_]*", words[1])):
        raise FactSyntaxError(f"malformed header {line!r}", lineno)
    try:
        arity = int(digits)
    except ValueError:  # more digits than `int` converts
        raise FactSyntaxError(f"malformed header {line!r}", lineno) from None
    if arity < 1:
        raise FactSyntaxError(f"relation {words[1]} declared with arity 0", lineno)
    return words[1], arity


def reference_load_database(path) -> Database:
    """`core.load_database` one line at a time, with parsing of its own:
    comments stripped, then a header read by `_reference_header` or the
    line's facts by `_reference_facts`, each fact over a `Relation` of its
    own, and a relation's arity checked as the loader checks it."""
    from negshapley.errors import ArityError

    with open(path, encoding="utf-8-sig") as stream:
        text = stream.read()
    arities: dict[str, int] = {}
    facts: set[Fact] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line.startswith("@"):
            name, arity = _reference_header(line, lineno)
            known = arities.setdefault(name, arity)
            if known != arity:
                raise ArityError(f"line {lineno}: relation {name} declared with arity {arity} "
                                 f"but previously used with arity {known}")
            continue
        for name, args in _reference_facts(line, lineno):
            known = arities.setdefault(name, len(args))
            if known != len(args):
                raise ArityError(f"line {lineno}: relation {name} used with arity {len(args)} "
                                 f"but previously declared with arity {known}")
            facts.add(Fact(Relation(name, len(args)), args))
    return Database(frozenset(Relation(name, arity) for name, arity in arities.items()),
                    frozenset(facts))


# ---------------------------------------------------------------------------
# Per-fact rows, written one row at a time
# ---------------------------------------------------------------------------


def reference_write_rows(args, payload: dict, header: Sequence[str], widths: Callable,
                         json_tail: Callable, cells: Callable, players,
                         columns: Sequence[tuple]) -> None:
    """`rows._write_rows` as it wrote every ``-`` row on its own: the fact's
    cell built, quoted or padded, and its tail looked up, row by row.  Only
    the helpers that join and write the rows are the package's."""
    import sys

    from negshapley.core import SignedDatabase
    from negshapley.output import _chunks, _dumps, _emit, _json
    from negshapley.rows import _fact_width

    if isinstance(players, SignedDatabase):
        negated = players.negated
        plus = ((f"+{f}", f, positive(f)) for f in players.db.sorted_facts)
        fact_width = lambda: _fact_width(players.db, negated) + 1
    elif isinstance(players, Database):
        negated, plus = (), ((str(f), f, f) for f in players.sorted_facts)
        fact_width = lambda: _fact_width(players, ())
    else:
        negated, plus = (), [(str(players), players, players)]
        fact_width = lambda: len(str(players))
    if args.format == "json":
        opening = '{\n      "fact": '
        fact, tail = (lambda cell: opening + _dumps(cell)), (lambda data: json_tail(*data))
    else:
        widths = [max(len(h), w) for h, w in zip(header, [fact_width(), *widths()])]
        template = "".join(f"  {{:<{w}}}" for w in widths[1:-1]) + "  {}\n"
        width = widths[0]
        fact, tail = (lambda cell: cell.ljust(width)), (lambda data: template.format(*cells(*data)))

    def row(key, signed_key) -> tuple:
        return tuple(values.get(signed_key, other) if signed else
                     None if key is None else values.get(key, other)
                     for (values, other), signed in columns)

    def minus_rows(rel) -> Iterator[str]:
        own = {sf.fact.args for (values, _), signed in columns if signed
               for sf in values if sf.sign is Sign.NEGATIVE and sf.fact.relation == rel}
        tails = {a: sys.intern(tail(row(None, negative(Fact(rel, a))))) for a in own}
        other, head = tail(row(None, None)), f"-{rel.name}("
        if args.format == "json":
            return (opening + _dumps(head + ",".join(a) + ")") + tails.get(a, other)
                    for a in players.absent(rel))
        return ((head + ",".join(a) + ")").ljust(width) + tails.get(a, other)
                for a in players.absent(rel))

    rows = itertools.chain((fact(cell) + tail(row(key, signed_key)) for cell, key, signed_key
                            in plus), *map(minus_rows, negated))
    _emit(args, lambda: _json({**payload, "records": rows}),
          lambda: _chunks(itertools.chain([fact(header[0]) + template.format(*header[1:])], rows)))
