"""Bounded entailment: does every database over a finite domain that holds
the positive part of a signed set and avoids its negative part satisfy the
query?  No command calls it, so starting the command line does not compile
it; ``negshapley.entailment_supports_bounded`` imports it on first use.
"""
from __future__ import annotations

import itertools
from typing import Iterable

from .core import Fact, Relation, Sign, SignedFact
from .errors import ArityError, CapExceededError, SemanticError
from .query import Query
from .supports import _iter_assignments, _negated

#: The bounded entailment check reasons over all facts expressible in the domain.
DEFAULT_ENTAILMENT_CAP = 24
#: It holds one clause per assignment, which the cap above does not bound:
#: a fixed limit, not a flag, checked as each clause is added.
MAX_CLAUSES = 2**16


def entailment_supports_bounded(
    S: Iterable[SignedFact],
    q: Query,
    domain: Iterable[str],
    *,
    cap: int = DEFAULT_ENTAILMENT_CAP,
) -> bool:
    """Whether every database over ``domain`` that contains the positive part
    of ``S`` and avoids its negative part satisfies the query.

    Unlike true (unbounded) entailment, candidate databases draw their facts
    from the given finite domain only.  The check is complete over that
    space: it turns each assignment the search finds over the facts not
    forced absent into a clause over the undetermined facts and decides the
    resulting formula, rather than materializing all ``2^k`` candidate
    databases.  Raises :class:`CapExceededError` above ``cap`` candidate
    facts, or once a clause past `MAX_CLAUSES` is found.
    """
    S = frozenset(S)
    domain = sorted(set(domain))
    pos = {sf.fact for sf in S if sf.sign is Sign.POSITIVE}
    neg = {sf.fact for sf in S if sf.sign is Sign.NEGATIVE}
    if pos & neg:
        return True  # no database is compatible with both signs of one fact
    relation_set = set(q.relations)
    relation_set.update(f.relation for f in pos | neg)
    by_name: dict[str, Relation] = {}
    for rel in sorted(relation_set):
        if by_name.setdefault(rel.name, rel).arity != rel.arity:
            raise ArityError(
                f"relation {rel.name} appears with two arities in the query "
                f"and the signed set"
            )
    relations = sorted(relation_set)
    domain_set = set(domain)
    for f in pos | neg:
        if not set(f.args) <= domain_set:
            raise SemanticError(f"{f} uses constants outside the given domain")

    total = sum(len(domain) ** rel.arity for rel in relations)
    if total > cap:
        raise CapExceededError(
            f"domain admits {total} possible facts (cap {cap})"
        )

    universe = [
        Fact(rel, combo)
        for rel in relations
        for combo in itertools.product(domain, repeat=rel.arity)
    ]
    index = {f: i for i, f in enumerate(universe)}

    # One clause per assignment over the facts not forced absent, with
    # negation checked against the facts forced present: "this assignment
    # does not fire".  Literal -(i+1) says fact i is absent, i+1 present.
    clauses: list[frozenset[int]] = []
    negated = _negated(q)
    for idx, binding, image in _iter_assignments(q, index.keys() - neg, pos):
        absent = ((rel, ground(binding)) for rel, ground in negated[idx])
        clause = frozenset(
            [-index[f] - 1 for f in image - pos]
            + [index[f] + 1 for f in absent if f in index and f not in neg]
        )
        if not clause:
            return True  # witnessed by the forced facts alone
        if len(clauses) == MAX_CLAUSES:
            raise CapExceededError(
                f"bounded entailment needs more than {MAX_CLAUSES} clauses, one per "
                f"assignment (limit {MAX_CLAUSES})"
            )
        clauses.append(clause)

    return not _satisfiable(clauses)


def _satisfiable(clauses: list[frozenset[int]]) -> bool:
    """Plain DPLL with unit propagation over integer literals."""
    clauses = sorted(set(clauses), key=lambda c: (len(c), sorted(c)))

    def solve(clauses: list[frozenset[int]]) -> bool:
        while True:
            unit = next((c for c in clauses if len(c) == 1), None)
            if unit is None:
                break
            clauses = _assign(clauses, next(iter(unit)))
            if clauses is None:
                return False
        if not clauses:
            return True
        literal = next(iter(min(clauses, key=len)))
        for choice in (literal, -literal):
            reduced = _assign(clauses, choice)
            if reduced is not None and solve(reduced):
                return True
        return False

    def _assign(clauses: list[frozenset[int]], lit: int):
        out = []
        for c in clauses:
            if lit in c:
                continue
            if -lit in c:
                c = c - {-lit}
                if not c:
                    return None
            out.append(c)
        return out

    return solve(list(clauses))
