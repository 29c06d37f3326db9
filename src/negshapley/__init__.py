"""Minimal-support explanations and exact Shapley responsibility scores for
database facts under unions of conjunctive queries with negated atoms and
inequalities.

The pieces: `core` holds facts, databases, and signed completions; `query`
the query model, parser, query-file reader and sign transform; `supports` the
satisfying-assignment search and the support semantics; `relevance` the
qualitative verdicts; `shapley` the exact scores; `cli` the command line,
and `output` the writers of its tables and JSON documents.  Five are
loaded on first use, not at start-up: `games`, the coalition tables, where
one is built; `rows`, the per-fact commands and their row writer, by
``score``, ``relevance`` and ``compare``; `analysis`, the query analysis
and guarded reduction, by ``analyze``; `usage`, argparse's parser, by help
and usage errors; and `reference`, the per-set support tests, per-fact
verdicts, per-player Shapley routes and bounded entailment, by no command.
The names in `analysis` and `reference` resolve from the package and the
modules they left.
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
    moved,
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
    Var,
    conjunct,
    load_query,
    neg_rels,
    parse_query,
    sign_transform,
    signed_database_restricted,
)
from .relevance import ImpactKind
from .shapley import (
    Game,
    MsShapleyResult,
    WealthKind,
    constant_weight,
    make_game,
    ms_shapley,
    reciprocal_weight,
)
from .supports import (
    SupportSet,
    minimal_d_monotone_supports,
    minimal_positive_supports,
    minimal_signed_supports,
    satisfies,
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
    "load_query",
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


#: The names whose modules no command loads, imported on first use.
__getattr__ = moved(__name__, {
    **dict.fromkeys(("GuardedReduction", "QueryAnalysis", "analyze_query", "guarded_reduction"),
                    "analysis"),
    **dict.fromkeys((
        "RelevanceVerdict", "entailment_supports_bounded", "impact_relevant",
        "is_d_monotone_support", "is_positive_support", "is_signed_support", "ms_scores",
        "permutation_marginal_counts", "positive_relevant", "relevance_report",
        "satisfying_assignments", "shapley_permutation", "shapley_subset", "shapley_values",
        "signed_relevant", "signed_satisfies"), "reference"),
})
