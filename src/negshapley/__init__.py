"""Minimal-support explanations and exact Shapley responsibility scores for
database facts under unions of conjunctive queries with negated atoms and
inequalities.

The pieces: `core` holds facts, databases, and signed completions; `query`
the query model, parser, sign transform, and structural analysis; `supports`
the satisfying-assignment search and the support semantics; `entailment`
the bounded entailment check, which no command uses and which is loaded on
first use; `relevance` the qualitative verdicts; `shapley` the exact scores;
`cli` the command line, and `output` the writers of its tables and JSON
documents.
"""
from .core import (
    Database,
    Fact,
    Relation,
    Sign,
    SignedDatabase,
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
from .errors import (
    ArityError,
    CapExceededError,
    FactSyntaxError,
    InputParseError,
    PlayerSetError,
    QuerySyntaxError,
    SafetyError,
    SemanticError,
)
from .query import (
    Atom,
    Conjunct,
    Const,
    Inequality,
    Query,
    QueryAnalysis,
    Var,
    analyze_query,
    conjunct,
    neg_rels,
    parse_query,
    sign_transform,
    signed_database_restricted,
)
from .relevance import (
    ImpactKind,
    RelevanceVerdict,
    impact_relevant,
    positive_relevant,
    relevance_report,
    signed_relevant,
)
from .shapley import (
    Game,
    MsShapleyResult,
    WealthKind,
    constant_weight,
    make_game,
    ms_scores,
    ms_shapley,
    permutation_marginal_counts,
    reciprocal_weight,
    shapley_permutation,
    shapley_subset,
    shapley_values,
)
from .supports import (
    GuardedReduction,
    SupportSet,
    guarded_reduction,
    is_d_monotone_support,
    is_positive_support,
    is_signed_support,
    minimal_d_monotone_supports,
    minimal_positive_supports,
    minimal_signed_supports,
    satisfies,
    satisfying_assignments,
    signed_satisfies,
)

__all__ = [
    "ArityError",
    "Atom",
    "CapExceededError",
    "Conjunct",
    "Const",
    "Database",
    "Fact",
    "FactSyntaxError",
    "Game",
    "GuardedReduction",
    "ImpactKind",
    "Inequality",
    "InputParseError",
    "MsShapleyResult",
    "PlayerSetError",
    "Query",
    "QueryAnalysis",
    "QuerySyntaxError",
    "Relation",
    "RelevanceVerdict",
    "SafetyError",
    "SemanticError",
    "Sign",
    "SignedDatabase",
    "SignedFact",
    "SupportSet",
    "Var",
    "WealthKind",
    "analyze_query",
    "conjunct",
    "constant_weight",
    "database",
    "entailment_supports_bounded",
    "fact",
    "guarded_reduction",
    "impact_relevant",
    "is_d_monotone_support",
    "is_positive_support",
    "is_signed_support",
    "load_database",
    "make_game",
    "minimal_d_monotone_supports",
    "minimal_positive_supports",
    "minimal_signed_supports",
    "ms_scores",
    "ms_shapley",
    "neg_rels",
    "negative",
    "parse_fact",
    "parse_query",
    "parse_signed_fact",
    "permutation_marginal_counts",
    "positive",
    "positive_relevant",
    "reciprocal_weight",
    "relevance_report",
    "satisfies",
    "satisfying_assignments",
    "shapley_permutation",
    "shapley_subset",
    "shapley_values",
    "sign_transform",
    "signed_database",
    "signed_database_restricted",
    "signed_relevant",
    "signed_satisfies",
    "__version__",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    """`entailment.entailment_supports_bounded`, imported on first use."""
    if name == "entailment_supports_bounded":
        from .entailment import entailment_supports_bounded

        return entailment_supports_bounded
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
