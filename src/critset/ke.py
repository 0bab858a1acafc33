"""König-Egerváry recognition, by the one rule Facts holds.

A graph qualifies when its independence number plus its matching number
covers every vertex; all bipartite graphs do. The rule, the identities that
hold on such graphs and the second recognition route, through a maximum
critical independent set, are in oracle.py.
"""

from __future__ import annotations

from .graphs import Graph
from .oracle import Facts


def is_koenig_egervary(g: Graph) -> bool:
    """True iff alpha(g) + mu(g) = |V|, by Facts.is_ke: bipartite graphs
    short-circuit to True without computing alpha, and past alpha's limit
    LimitExceeded comes before any matching runs."""
    return Facts(g).is_ke()
