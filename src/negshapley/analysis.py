"""Structural analysis of a query, and the guarded reduction: what the
``analyze`` command prints and what library callers use to classify a query
or rewrite a guarded one.  No other command reaches this code, so starting
the command line does not compile it; ``analyze`` imports it when it runs,
and the old names (``query.analyze_query``, ``supports.guarded_reduction``
and the rest) import it on first use.

`DisjunctAnalysis`, `QueryAnalysis` and `GuardedReduction` are named tuples,
equal to the tuples of their fields.
"""
from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple

from .core import Database, Fact, database
from .errors import SemanticError
from .query import Atom, Conjunct, Const, Query, Term, neg_rels
from .supports import _search


# ---------------------------------------------------------------------------
# Structural analysis
# ---------------------------------------------------------------------------


def mergeable_pairs(cq: Conjunct) -> frozenset[tuple[int, int]]:
    """Index pairs (into ``cq.literals``) of positive atoms that can merge.

    Two positive atoms over the same relation merge when, reading their
    variables apart (a variable named ``x`` in one atom is unrelated to an
    ``x`` in the other), the two term tuples unify position-wise with
    constants rigid.  Equivalently: some database contains a fact that is a
    homomorphic image of both atoms.
    """
    indexed = [
        (i, lit)
        for i, lit in enumerate(cq.literals)
        if isinstance(lit, Atom) and not lit.negated
    ]
    pairs = set()
    for (i, a), (j, b) in itertools.combinations(indexed, 2):
        if a.relation == b.relation and _unify_apart(a, b):
            pairs.add((i, j))
    return frozenset(pairs)


def _unify_apart(a: Atom, b: Atom) -> bool:
    parent: dict[object, object] = {}

    def find(node: object) -> object:
        while parent.get(node, node) != node:
            node = parent[node]
        return node

    def union(left: object, right: object) -> bool:
        left, right = find(left), find(right)
        if left == right:
            return True
        if isinstance(left, str) and isinstance(right, str):
            return False  # two distinct constants
        if isinstance(left, str):
            left, right = right, left  # keep constants as class representatives
        parent[left] = right
        return True

    def node_of(term: Term, side: int) -> object:
        return term.value if isinstance(term, Const) else (side, term.name)

    return all(
        union(node_of(s, 0), node_of(t, 1)) for s, t in zip(a.terms, b.terms)
    )


def self_join_width(cq: Conjunct) -> int:
    """Number of distinct terms appearing in atoms that belong to a mergeable pair."""
    merged_indices = {i for pair in mergeable_pairs(cq) for i in pair}
    terms = {
        t for i in merged_indices for t in cq.literals[i].terms  # type: ignore[union-attr]
    }
    return len(terms)


def is_guarded(cq: Conjunct) -> bool:
    """True when each negated atom's variables fit inside one positive atom."""
    return all(
        any(neg.variables <= pos.variables for pos in cq.positive_atoms)
        for neg in cq.negated_atoms
    )


def gaifman_graph(cq: Conjunct) -> dict[str, frozenset[str]]:
    """Adjacency over the disjunct's variables.

    Two variables are adjacent when they occur together in any literal,
    including negated atoms and inequalities.
    """
    adjacency: dict[str, set[str]] = {v: set() for v in cq.used_variables}
    for lit in cq.literals:
        for u, v in itertools.combinations(sorted(lit.variables), 2):
            adjacency[u].add(v)
            adjacency[v].add(u)
    return {v: frozenset(nbrs) for v, nbrs in adjacency.items()}


def has_non_hierarchical_neg_path(cq: Conjunct) -> bool:
    """Detect the structural obstruction to tractable drastic scoring.

    Holds when there are positive atoms ``ax``, ``ay`` whose relations never
    appear negated in the disjunct, variables ``x`` in ``ax`` but not ``ay``
    and ``y`` in ``ay`` but not ``ax``, and a path from ``x`` to ``y`` in the
    variable co-occurrence graph after deleting every other variable of
    ``ax`` and ``ay``.
    """
    graph = gaifman_graph(cq)
    negated_names = {atom.relation.name for atom in cq.negated_atoms}
    candidates = [
        atom for atom in cq.positive_atoms if atom.relation.name not in negated_names
    ]
    for ax, ay in itertools.combinations(candidates, 2):
        only_x = ax.variables - ay.variables
        only_y = ay.variables - ax.variables
        for x in only_x:
            for y in only_y:
                removed = (ax.variables | ay.variables) - {x, y}
                if _connected(graph, x, y, removed):
                    return True
    return False


def _connected(
    graph: dict[str, frozenset[str]], start: str, goal: str, removed: frozenset[str]
) -> bool:
    frontier, seen = [start], {start}
    while frontier:
        node = frontier.pop()
        if node == goal:
            return True
        for nbr in graph[node]:
            if nbr not in seen and nbr not in removed:
                seen.add(nbr)
                frontier.append(nbr)
    return False


def negative_arity(q: Query) -> int:
    """Largest arity among negated relations, or 0 for purely positive queries."""
    return max((rel.arity for rel in neg_rels(q)), default=0)


class DisjunctAnalysis(NamedTuple):
    mergeable_pairs: tuple[tuple[int, int], ...]
    self_join_width: int
    self_join_free_positive: bool
    self_join_free_all: bool
    guarded: bool
    has_non_hierarchical_neg_path: bool


class QueryAnalysis(NamedTuple):
    """Structural summary; the two self-join-freeness fields differ on whether
    negated atoms count toward relation-name repetition."""

    negative_arity: int
    guarded: bool
    self_join_free_positive: bool
    self_join_free_all: bool
    has_non_hierarchical_neg_path: bool
    disjuncts: tuple[DisjunctAnalysis, ...]


def analyze_disjunct(cq: Conjunct) -> DisjunctAnalysis:
    positive_names = [a.relation.name for a in cq.positive_atoms]
    all_names = positive_names + [a.relation.name for a in cq.negated_atoms]
    return DisjunctAnalysis(
        mergeable_pairs=tuple(sorted(mergeable_pairs(cq))),
        self_join_width=self_join_width(cq),
        self_join_free_positive=len(positive_names) == len(set(positive_names)),
        self_join_free_all=len(all_names) == len(set(all_names)),
        guarded=is_guarded(cq),
        has_non_hierarchical_neg_path=has_non_hierarchical_neg_path(cq),
    )


def analyze_query(q: Query) -> QueryAnalysis:
    parts = tuple(analyze_disjunct(cq) for cq in q.disjuncts)
    return QueryAnalysis(
        negative_arity=negative_arity(q),
        guarded=all(p.guarded for p in parts),
        self_join_free_positive=all(p.self_join_free_positive for p in parts),
        self_join_free_all=all(p.self_join_free_all for p in parts),
        has_non_hierarchical_neg_path=any(p.has_non_hierarchical_neg_path for p in parts),
        disjuncts=parts,
    )


# ---------------------------------------------------------------------------
# The guarded reduction
# ---------------------------------------------------------------------------


class GuardedReduction(NamedTuple):
    """Outcome of rewriting a guarded single-disjunct query over a database.

    ``q_plus`` keeps only the positive atoms.  ``d_prime`` keeps the facts
    matched by some positive atom.  ``d_double_prime`` further drops every
    fact whose (unique) matching atom has an attached negated atom or
    inequality that fails under the match.  Minimal positive supports of the
    original query coincide with minimal supports of ``q_plus`` over
    ``d_double_prime``.
    """

    q_plus: Query
    d_prime: Database
    d_double_prime: Database


def guarded_reduction(q: Query | Conjunct, db: Database) -> GuardedReduction:
    """Rewrite a guarded, merge-free disjunct to a negation-free instance.

    Preconditions: a single disjunct; no mergeable positive-atom pair (so
    each fact is matched by at most one atom); every negated atom's and
    every inequality's variables fit inside a single positive atom.  The
    inequality requirement keeps per-fact checks faithful: an inequality
    spanning two atoms cannot be decided fact-by-fact.
    """
    if isinstance(q, Query) and len(q.disjuncts) != 1:
        raise SemanticError("the reduction applies to single-disjunct queries")
    cq = q if isinstance(q, Conjunct) else q.disjuncts[0]
    if mergeable_pairs(cq):
        raise SemanticError("the reduction requires a disjunct with no mergeable atoms")
    if not is_guarded(cq):
        raise SemanticError("the reduction requires guarded negated atoms")

    atoms = cq.positive_atoms
    guards: list[list] = [[] for _ in atoms]
    for lit in (*cq.negated_atoms, *cq.inequalities):
        guarding = [g for g, atom in zip(guards, atoms) if lit.variables <= atom.variables]
        if not guarding:
            raise SemanticError(
                f"the reduction requires {lit} to be guarded by one positive atom"
            )
        guarding[0].append(lit)

    def images(literals: Iterable[tuple]) -> set[Fact]:
        disjuncts = [Conjunct(cq.variables, lits) for lits in literals]
        return {f for _, _, image in _search(disjuncts, db.by_relation, db.facts)
                for f in image}

    return GuardedReduction(
        q_plus=Query((Conjunct(cq.variables, atoms),)),
        d_prime=database(images((atom,) for atom in atoms), db.schema),
        d_double_prime=database(
            images((atom, *guard) for atom, guard in zip(atoms, guards)), db.schema
        ),
    )
