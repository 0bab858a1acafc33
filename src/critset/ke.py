"""König-Egerváry recognition and the identities that hold on such graphs.

A graph qualifies when its independence number plus its matching number
covers every vertex; all bipartite graphs do.
"""

from __future__ import annotations

from typing import NamedTuple

from .critical import critical_difference, diadem, ker
from .graphs import (Graph, VertexSet, bipartition, difference,
                     neighborhood)
from .matching import maximum_matching_general
from .mis import (ALPHA_LIMIT, ENUM_LIMIT, alpha, core_and_corona,
                  maximum_critical_independent_set)


class IdentityCheck(NamedTuple):
    """One evaluated identity: both sides are recorded so a report reader can
    re-verify without recomputation. Set values appear as sorted label lists."""

    name: str
    holds: bool
    lhs: object
    rhs: object


class KeReport(NamedTuple):
    is_ke: bool
    alpha: int
    mu: int
    d: int
    deficiency: int
    identity_checks: tuple[IdentityCheck, ...]


def is_koenig_egervary(g: Graph, limit: int = ALPHA_LIMIT) -> bool:
    """True iff alpha(g) + mu(g) = |V|. Bipartite graphs short-circuit to
    True without computing alpha."""
    if bipartition(g) is not None:
        return True
    mu = len(maximum_matching_general(g))
    return alpha(g, limit) + mu == g.n


def is_ke_via_critical(g: Graph, limit: int = ENUM_LIMIT) -> bool:
    """Equivalent recognition route: some critical independent set is maximum."""
    j = maximum_critical_independent_set(g, limit)
    return j.bit_count() == alpha(g)


def ke_identities(g: Graph, limit: int = ENUM_LIMIT) -> KeReport:
    """Evaluate the identity bundle that is guaranteed on König-Egerváry
    graphs; raises ValueError when g is not one."""
    a = alpha(g)
    mu = len(maximum_matching_general(g))
    if a + mu != g.n:
        raise ValueError(f"not a König-Egerváry graph: alpha + mu = "
                         f"{a} + {mu} != {g.n}")
    d = critical_difference(g)
    profile = core_and_corona(g, limit)
    checks = identity_checks(g, a, mu, d, profile.core, profile.corona,
                             ker(g), diadem(g))
    return KeReport(True, a, mu, d, g.n - 2 * mu, checks)


def identity_checks(g: Graph, a: int, mu: int, d: int, core: VertexSet,
                    corona: VertexSet, kr: VertexSet,
                    dia: VertexSet) -> tuple[IdentityCheck, ...]:
    """The nine identities of ke_identities, from alpha, mu, d, core, corona,
    ker and diadem of the KE graph g."""
    dfc = g.n - 2 * mu
    n_core = neighborhood(g, core)

    def labels(mask):
        return g.label_list(mask)

    return (
        IdentityCheck("d_eq_core_minus_ncore", d == difference(g, core),
                      d, difference(g, core)),
        IdentityCheck("d_eq_alpha_minus_mu", d == a - mu, d, a - mu),
        IdentityCheck("d_eq_deficiency", d == dfc, d, dfc),
        IdentityCheck("core_plus_corona_eq_two_alpha",
                      core.bit_count() + corona.bit_count() == 2 * a,
                      core.bit_count() + corona.bit_count(), 2 * a),
        IdentityCheck("diadem_eq_corona", dia == corona,
                      labels(dia), labels(corona)),
        IdentityCheck("ncore_eq_complement_of_corona",
                      n_core == g.full & ~corona,
                      labels(n_core), labels(g.full & ~corona)),
        IdentityCheck("core_is_critical", difference(g, core) == d,
                      difference(g, core), d),
        IdentityCheck("corona_is_critical", difference(g, corona) == d,
                      difference(g, corona), d),
        IdentityCheck("ker_plus_diadem_le_two_alpha",
                      kr.bit_count() + dia.bit_count() <= 2 * a,
                      kr.bit_count() + dia.bit_count(), 2 * a),
    )
