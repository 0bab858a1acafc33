"""König-Egerváry recognition and the identities that hold on such graphs.

A graph qualifies when its independence number plus its matching number
covers every vertex; all bipartite graphs do. The second recognition
route, through a maximum critical independent set, is in oracle.py.
"""

from __future__ import annotations

from .graphs import Graph, VertexSet, bipartition, difference, neighborhood
from .matching import maximum_matching_general
from .mis import ALPHA_LIMIT, alpha


def is_koenig_egervary(g: Graph, limit: int = ALPHA_LIMIT) -> bool:
    """True iff alpha(g) + mu(g) = |V|. Bipartite graphs short-circuit to
    True without computing alpha."""
    if bipartition(g) is not None:
        return True
    mu = len(maximum_matching_general(g))
    return alpha(g, limit) + mu == g.n


def identity_checks(g: Graph, a: int, mu: int, d: int, core: VertexSet,
                    corona: VertexSet, kr: VertexSet,
                    dia: VertexSet) -> list[dict]:
    """The nine identities that hold on a König-Egerváry graph g, from its
    alpha, mu, d, core, corona, ker and diadem; the list `analyze` reports.

    Each check records both sides, so a report reader can re-verify it
    without recomputation; set values appear as sorted label lists.
    """
    dfc = g.n - 2 * mu
    n_core = neighborhood(g, core)
    labels = g.label_list

    def check(name, holds, lhs, rhs):
        return {"name": name, "holds": holds, "lhs": lhs, "rhs": rhs}

    return [
        check("d_eq_core_minus_ncore", d == difference(g, core),
              d, difference(g, core)),
        check("d_eq_alpha_minus_mu", d == a - mu, d, a - mu),
        check("d_eq_deficiency", d == dfc, d, dfc),
        check("core_plus_corona_eq_two_alpha",
              core.bit_count() + corona.bit_count() == 2 * a,
              core.bit_count() + corona.bit_count(), 2 * a),
        check("diadem_eq_corona", dia == corona,
              labels(dia), labels(corona)),
        check("ncore_eq_complement_of_corona", n_core == g.full & ~corona,
              labels(n_core), labels(g.full & ~corona)),
        check("core_is_critical", difference(g, core) == d,
              difference(g, core), d),
        check("corona_is_critical", difference(g, corona) == d,
              difference(g, corona), d),
        check("ker_plus_diadem_le_two_alpha",
              kr.bit_count() + dia.bit_count() <= 2 * a,
              kr.bit_count() + dia.bit_count(), 2 * a),
    ]
