"""Critical-set invariants of finite simple graphs.

The difference of a vertex set X is d(X) = |X| - |N(X)|. Everything here
hangs off that one number: the critical difference d(G), the critical
independent sets attaining it, their intersection (ker) and union (diadem),
and how those relate to the intersection (core) and union (corona) of the
maximum independent sets. The polynomial routes (graphs, matching, critical,
ore) go through matchings on the bipartite double cover; alpha (mis) is an
exact branch-and-reduce search. Exponential enumeration exists only as an
oracle for cross-checking, is always bounded, and lives in one module,
oracle, which no polynomial module imports.

The property registry (props) and the corpora with the conjecture scan
(corpus) are served on first use, through a module __getattr__, so a plain
`import critset` compiles neither.
"""

from .critical import (critical_difference, critical_independent_witness,
                       diadem, is_critical_independent, is_critical_set, ker)
from .graphs import (BipartitePartition, Graph, LimitExceeded, ParseError,
                     bipartition, complete_bipartite, complete_graph,
                     cycle_graph, delete_edge, delete_vertices, difference,
                     empty_graph, is_independent, neighborhood,
                     parse_graph, path_graph, random_graph, to_edge_list)
from .ke import is_koenig_egervary
from .matching import (Matching, maximum_matching_bipartite,
                       maximum_matching_general, saturating_matching)
from .mis import alpha
from .oracle import (Config, Facts, MisProfile, core_and_corona,
                     enumerate_critical_independent_sets,
                     enumerate_maximum_independent_sets,
                     enumerate_side_critical_sets, is_ke_via_critical,
                     maximum_critical_independent_set,
                     verify_ker_characterization)
from .ore import OreProfile, is_side_critical, ore_profile

# the names imported on first use, by module
_LAZY = {
    "Property": "props", "PropertyResult": "props", "registry": "props",
    "run": "props",
    "CorpusSpec": "corpus", "conjecture_scan": "corpus",
    "exhaustive_corpus": "corpus", "files_corpus": "corpus",
    "fixtures_corpus": "corpus", "parse_corpus_spec": "corpus",
    "random_corpus": "corpus", "shrink": "corpus",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module == "props":
        from . import props as source
    elif module == "corpus":
        from . import corpus as source
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(source, name)


__version__ = "0.1.0"

__all__ = [
    "BipartitePartition", "Config", "CorpusSpec", "Facts",
    "Graph", "LimitExceeded", "Matching", "MisProfile", "OreProfile",
    "ParseError", "Property", "PropertyResult",
    "alpha", "bipartition", "complete_bipartite", "complete_graph",
    "conjecture_scan", "core_and_corona", "critical_difference",
    "critical_independent_witness", "cycle_graph",
    "delete_edge", "delete_vertices", "diadem",
    "difference", "empty_graph", "enumerate_critical_independent_sets",
    "enumerate_maximum_independent_sets",
    "enumerate_side_critical_sets", "exhaustive_corpus", "files_corpus",
    "fixtures_corpus", "is_critical_independent",
    "is_critical_set", "is_independent", "is_ke_via_critical",
    "is_koenig_egervary", "is_side_critical", "ker",
    "maximum_critical_independent_set",
    "maximum_matching_bipartite", "maximum_matching_general",
    "neighborhood", "ore_profile",
    "parse_corpus_spec", "parse_graph", "path_graph", "random_corpus",
    "random_graph", "registry", "run", "saturating_matching", "shrink",
    "to_edge_list",
    "verify_ker_characterization",
]
