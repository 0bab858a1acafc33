"""Invariant registry, corpus plumbing, conjecture scan, counterexample shrinking.

Every registered property is a named predicate over one graph with an
applicability guard and a witness-producing check. The runner hands each graph
one lazily filled fact cache, so a registry sweep costs one set of invariants
per graph rather than one per property. Anything exponential sits behind the
oracle limit and reports itself as skipped instead of silently passing.
"""

from __future__ import annotations

import json
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from . import critical, ke, mis, ore
from .critical import ORACLE_LIMIT
from .graphs import (Graph, LimitExceeded, VertexSet, all_graphs, bipartition,
                     delete_edge, delete_vertices, difference, iter_bits,
                     neighborhood, parse_graph, random_graph)
from .matching import maximum_matching_general, saturating_matching

FAMILY_CAP = 20000


def default_workers() -> int:
    """Worker count from CRITSET_WORKERS; anything unusable means 1."""
    raw = os.environ.get("CRITSET_WORKERS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


@dataclass(frozen=True)
class Config:
    oracle_limit: int = ORACLE_LIMIT
    use_oracle: bool = True
    strict: bool = False
    workers: int = 1


# -- per-graph fact cache --------------------------------------------------------

class Facts:
    """Lazily computed invariants for one graph, shared across checks."""

    def __init__(self, g: Graph, config: Config | None = None):
        self.g = g
        self.config = config if config is not None else Config()
        self._cache: dict[str, object] = {}

    def _get(self, key: str, compute: Callable[[], object]):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def require_oracle(self) -> None:
        if not self.config.use_oracle:
            raise LimitExceeded("oracle disabled")

    # polynomial facts

    def d(self) -> int:
        return self._get("d", lambda: critical.critical_difference(self.g))

    def witness(self) -> VertexSet:
        return self._get(
            "witness", lambda: critical.critical_independent_witness(self.g))

    def ker(self) -> VertexSet:
        return self._get("ker", lambda: critical.ker(self.g))

    def diadem(self) -> VertexSet:
        return self._get("diadem", lambda: critical.diadem(self.g))

    def mu(self) -> int:
        return len(self.matching())

    def matching(self):
        return self._get("matching", lambda: maximum_matching_general(self.g))

    def parts(self):
        return self._get("parts", lambda: bipartition(self.g))

    def alpha(self) -> int:
        return self._get("alpha", lambda: mis.alpha(self.g))

    def is_ke(self) -> bool:
        # ke.is_koenig_egervary's rule on the cached parts, alpha and mu
        return self._get("is_ke", lambda: self.parts() is not None
                         or self.alpha() + self.mu() == self.g.n)

    def ore_profile(self) -> ore.OreProfile:
        def compute():
            parts = self.parts()
            if parts is None:
                raise ValueError("not bipartite")
            return ore.ore_profile(self.g, parts)
        return self._get("ore_profile", compute)

    # enumeration-backed facts, all behind the oracle limit

    def mis_profile(self) -> mis.MisProfile:
        def compute():
            self.require_oracle()
            return mis._core_and_corona(self.g, self.alpha(),
                                        self.config.oracle_limit)
        return self._get("mis_profile", compute)

    def core(self) -> VertexSet:
        return self.mis_profile().core

    def corona(self) -> VertexSet:
        return self.mis_profile().corona

    def first_mis(self) -> VertexSet:
        def compute():
            self.require_oracle()
            return next(mis.enumerate_maximum_independent_sets(
                self.g, self.config.oracle_limit))
        return self._get("first_mis", compute)

    def tables(self) -> tuple[list[int], list[int]]:
        """d(X) and N(X) for every subset mask; the brute-force ground truth."""
        def compute():
            self.require_oracle()
            g = self.g
            if g.n > self.config.oracle_limit:
                raise LimitExceeded(
                    f"n={g.n} exceeds oracle limit {self.config.oracle_limit}")
            size = 1 << g.n
            nb = [0] * size
            d = [0] * size
            adj = g.adj
            for m in range(1, size):
                low = m & -m
                nb[m] = nb[m ^ low] | adj[low.bit_length() - 1]
                d[m] = m.bit_count() - nb[m].bit_count()
            return d, nb
        return self._get("tables", compute)

    def critical_ind_family(self) -> list[VertexSet]:
        def compute():
            self.require_oracle()
            fam: list[VertexSet] = []
            for s in critical.enumerate_critical_independent_sets(
                    self.g, self.config.oracle_limit):
                fam.append(s)
                if len(fam) > FAMILY_CAP:
                    raise LimitExceeded(
                        f"more than {FAMILY_CAP} critical independent sets")
            return fam
        return self._get("critical_ind_family", compute)

    def ker_oracle(self) -> VertexSet:
        def compute():
            inter = self.g.full
            for s in self.critical_ind_family():
                inter &= s
            return inter
        return self._get("ker_oracle", compute)

    def maximal_critical_ind(self) -> list[VertexSet]:
        """Inclusion-maximal members of the critical independent family.

        Scans by size descending; a candidate is maximal iff it sits inside no
        already accepted maximal set, since any strict superset contains one.
        """
        def compute():
            fam = sorted(self.critical_ind_family(),
                         key=lambda s: (-s.bit_count(), s))
            out: list[VertexSet] = []
            for s in fam:
                if not any(s & ~m == 0 for m in out):
                    out.append(s)
            return out
        return self._get("maximal_critical_ind", compute)

    def minimal_positives(self) -> list[VertexSet]:
        def compute():
            self.require_oracle()
            return list(critical.minimal_positive_independent_sets(
                self.g, self.config.oracle_limit))
        return self._get("minimal_positives", compute)

    def max_critical_ind(self) -> VertexSet:
        def compute():
            self.require_oracle()
            return mis.maximum_critical_independent_set(
                self.g, self.config.oracle_limit)
        return self._get("max_critical_ind", compute)

    def side_critical_samples(self, side: ore.Side,
                              cap: int = 16) -> list[VertexSet]:
        def compute():
            self.require_oracle()
            return list(islice(ore.enumerate_side_critical_sets(
                self.g, self.parts(), side, self.config.oracle_limit), cap))
        return self._get(f"side_crit_{side}", compute)

    def labels(self, mask: VertexSet) -> list[str]:
        return self.g.label_list(mask)


# -- property shell --------------------------------------------------------------

class Property(NamedTuple):
    name: str
    description: str
    applies: Callable[[Facts], str | None]
    check: Callable[[Facts], tuple[bool, dict | None]]


@dataclass
class PropertyResult:
    prop: str
    verdict: str  # holds | fails | skipped
    reason: str | None = None
    witness: dict | None = None
    limit: bool = False  # skipped because a limit was hit, not applicability

    def as_dict(self) -> dict:
        out: dict = {"property": self.prop, "verdict": self.verdict}
        if self.verdict == "skipped":
            out["skip"] = "limit" if self.limit else "applicability"
        if self.reason is not None:
            out["reason"] = self.reason
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def evaluate(prop: Property, facts: Facts) -> PropertyResult:
    """Run one property on one fact cache; limits turn into skips, never passes."""
    try:
        reason = prop.applies(facts)
    except LimitExceeded as exc:
        return PropertyResult(prop.name, "skipped", str(exc), limit=True)
    if reason is not None:
        return PropertyResult(prop.name, "skipped", reason)
    try:
        ok, witness = prop.check(facts)
    except LimitExceeded as exc:
        return PropertyResult(prop.name, "skipped", str(exc), limit=True)
    if ok:
        return PropertyResult(prop.name, "holds")
    return PropertyResult(prop.name, "fails", None, witness)


def _always(f: Facts) -> str | None:
    return None


def _ke_only(f: Facts) -> str | None:
    return None if f.is_ke() else "not KE"


def _bipartite_only(f: Facts) -> str | None:
    return None if f.parts() is not None else "not bipartite"


def _positive_d_only(f: Facts) -> str | None:
    return None if f.d() >= 1 else "d(G) < 1"


# -- the checks ------------------------------------------------------------------

def _check_d_eq_id(f: Facts) -> tuple[bool, dict | None]:
    d_list, nb = f.tables()
    best_all = max(d_list)
    best_ind = max(d for m, d in enumerate(d_list) if nb[m] & m == 0)
    ok = f.d() == best_all == best_ind
    return ok, None if ok else {
        "d_polynomial": f.d(), "max_over_subsets": best_all,
        "max_over_independent": best_ind}


def _check_supermodular(f: Facts) -> tuple[bool, dict | None]:
    d_list, _ = f.tables()
    size = 1 << f.g.n
    if size <= 128:
        masks: list[int] = list(range(size))
    else:
        rng = random.Random(0x5D1A + f.g.n)
        masks = sorted({rng.randrange(size) for _ in range(128)})
    for a in masks:
        for b in masks:
            if d_list[a | b] + d_list[a & b] < d_list[a] + d_list[b]:
                return False, {
                    "a": f.labels(a), "b": f.labels(b),
                    "d_union_plus_d_intersection": d_list[a | b] + d_list[a & b],
                    "d_a_plus_d_b": d_list[a] + d_list[b]}
    return True, None


def _check_critical_closure(f: Facts) -> tuple[bool, dict | None]:
    d_list, _ = f.tables()
    d0 = f.d()
    crit = [m for m, d in enumerate(d_list) if d == d0]
    if len(crit) > 256:
        crit = crit[::len(crit) // 256 + 1]
    for a in crit:
        for b in crit:
            if d_list[a | b] != d0 or d_list[a & b] != d0:
                return False, {
                    "a": f.labels(a), "b": f.labels(b), "d": d0,
                    "d_union": d_list[a | b], "d_intersection": d_list[a & b]}
    return True, None


def _check_unique_minimal(f: Facts) -> tuple[bool, dict | None]:
    inter = f.ker_oracle()
    ok = difference(f.g, inter) == f.d() and inter == f.ker()
    return ok, None if ok else {
        "intersection_of_family": f.labels(inter),
        "d_of_intersection": difference(f.g, inter), "d": f.d(),
        "ker_by_deletion_rule": f.labels(f.ker())}


def _check_diadem_critical(f: Facts) -> tuple[bool, dict | None]:
    dia = f.diadem()
    ok = difference(f.g, dia) == f.d()
    return ok, None if ok else {
        "diadem": f.labels(dia), "d_of_diadem": difference(f.g, dia),
        "d": f.d()}


def _check_ke_core_corona_critical(f: Facts) -> tuple[bool, dict | None]:
    d0 = f.d()
    dc, dn = difference(f.g, f.core()), difference(f.g, f.corona())
    ok = dc == d0 and dn == d0
    return ok, None if ok else {
        "core": f.labels(f.core()), "corona": f.labels(f.corona()),
        "d_of_core": dc, "d_of_corona": dn, "d": d0}


def _applies_core_critical(f: Facts) -> str | None:
    if difference(f.g, f.core()) != f.d():
        return "core is not a critical set"
    return None


def _check_core_in_maximal(f: Facts) -> tuple[bool, dict | None]:
    core = f.core()
    for s in f.maximal_critical_ind():
        if core & ~s:
            return False, {"core": f.labels(core),
                           "maximal_set_missing_it": f.labels(s)}
    return True, None


def _check_corona_covers_maximal(f: Facts) -> tuple[bool, dict | None]:
    corona = f.corona()
    for s in f.maximal_critical_ind():
        if s & ~corona:
            return False, {"corona": f.labels(corona),
                           "maximal_set_outside": f.labels(s)}
    return True, None


def _check_deletion_rule(f: Facts) -> tuple[bool, dict | None]:
    g, d0 = f.g, f.d()
    ko = f.ker_oracle()
    for v in range(g.n):
        smaller, _ = delete_vertices(g, 1 << v)
        drops = critical.critical_difference(smaller) == d0 - 1
        if drops != bool(ko >> v & 1):
            return False, {
                "vertex": g.labels[v], "d": d0,
                "d_after_delete": critical.critical_difference(smaller),
                "in_ker": bool(ko >> v & 1)}
    if f.ker() != ko:
        return False, {"ker_by_deletion_rule": f.labels(f.ker()),
                       "ker_by_enumeration": f.labels(ko)}
    return True, None


def _check_matching_from_neighborhood(f: Facts) -> tuple[bool, dict | None]:
    g = f.g
    samples = {f.witness(), f.ker()}
    try:
        samples.update(islice(f.critical_ind_family(), 32))
        samples.add(f.max_critical_ind())
    except LimitExceeded:
        pass  # the polynomial witnesses alone still make a real check
    for s in sorted(samples):
        found, _ = saturating_matching(g, neighborhood(g, s), s)
        if found is None:
            return False, {"set": f.labels(s),
                           "neighborhood": f.labels(neighborhood(g, s))}
    return True, None


def _check_ker_characterization(f: Facts) -> tuple[bool, dict | None]:
    g, k = f.g, f.ker()
    if not critical.is_critical_independent(g, k):
        return False, {"ker": f.labels(k),
                       "problem": "not a critical independent set"}
    try:
        ok, wit = critical.verify_ker_characterization(
            g, k, f.config.oracle_limit)
    except RuntimeError as exc:
        return False, {"ker": f.labels(k), "problem": str(exc)}
    if not ok:
        assert wit is not None
        return False, {
            "ker": f.labels(k),
            "tight_set": f.labels(wit["tight_set"]),
            "unmatchable_vertex": g.labels[wit["unmatchable_vertex"]]}
    other = next((s for s in f.critical_ind_family() if s != k), None)
    if other is not None:
        try:
            ok_other, _ = critical.verify_ker_characterization(
                g, other, f.config.oracle_limit)
        except RuntimeError as exc:
            return False, {"set": f.labels(other), "problem": str(exc)}
        if ok_other:
            return False, {
                "set": f.labels(other),
                "problem": "passes the ker conditions but differs from ker"}
    return True, None


def _check_ker_union_minimal_positive(f: Facts) -> tuple[bool, dict | None]:
    union = 0
    for s in f.minimal_positives():
        union |= s
    ok = union == f.ker()
    return ok, None if ok else {
        "union_of_minimal_positive": f.labels(union),
        "ker": f.labels(f.ker())}


def _check_minimal_positive_d1(f: Facts) -> tuple[bool, dict | None]:
    for s in f.minimal_positives():
        if difference(f.g, s) != 1:
            return False, {"set": f.labels(s), "d": difference(f.g, s)}
    return True, None


def _check_minimal_positive_bound(f: Facts) -> tuple[bool, dict | None]:
    sizes = [s.bit_count() for s in f.minimal_positives()]
    if not sizes:
        return False, {"problem": "no positive independent set although d >= 1"}
    bound = f.ker().bit_count() - f.d() + 1
    ok = min(sizes) <= bound
    return ok, None if ok else {
        "min_size": min(sizes), "ker_size": f.ker().bit_count(), "d": f.d(),
        "bound": bound}


def _check_ker_subset_core(f: Facts) -> tuple[bool, dict | None]:
    ok = f.ker() & ~f.core() == 0
    return ok, None if ok else {
        "ker": f.labels(f.ker()), "core": f.labels(f.core())}


def _check_d_ge_alpha_minus_mu(f: Facts) -> tuple[bool, dict | None]:
    ok = f.d() >= f.alpha() - f.mu()
    return ok, None if ok else {
        "d": f.d(), "alpha": f.alpha(), "mu": f.mu()}


def _check_bipartite_ker_eq_core(f: Facts) -> tuple[bool, dict | None]:
    ok = f.ker() == f.core()
    return ok, None if ok else {
        "ker": f.labels(f.ker()), "core": f.labels(f.core())}


def _check_ke_matching_structure(f: Facts) -> tuple[bool, dict | None]:
    g = f.g
    m = f.matching()
    s = f.first_mis()
    for v in iter_bits(g.full & ~s):
        mate = m.mate[v]
        if mate == -1 or not s >> mate & 1:
            return False, {"unmatched_outside_mis": g.labels[v],
                           "mis": f.labels(s)}
    core, corona = f.core(), f.corona()
    ncore = neighborhood(g, core)
    for v in iter_bits(ncore):
        mate = m.mate[v]
        if mate == -1 or not core >> mate & 1:
            return False, {"neighbor_of_core_unmatched_into_core": g.labels[v],
                           "core": f.labels(core)}
    if ncore != g.full & ~corona:
        return False, {"neighborhood_of_core": f.labels(ncore),
                       "complement_of_corona": f.labels(g.full & ~corona)}
    return True, None


def _check_ke_difference_identities(f: Facts) -> tuple[bool, dict | None]:
    d0 = f.d()
    routes = {"core_route": difference(f.g, f.core()),
              "alpha_minus_mu": f.alpha() - f.mu(),
              "deficiency": f.g.n - 2 * f.mu()}
    ok = all(v == d0 for v in routes.values())
    return ok, None if ok else {"d": d0, **routes}


def _check_ke_iff_every_mis_critical(f: Facts) -> tuple[bool, dict | None]:
    g, d0 = f.g, f.d()
    recognized = f.is_ke()
    bad_mis = None
    for s in mis.enumerate_maximum_independent_sets(g, f.config.oracle_limit):
        if difference(g, s) != d0:
            bad_mis = s
            break
    all_critical = bad_mis is None
    via_critical = ke.is_ke_via_critical(g, f.config.oracle_limit)
    ok = recognized == all_critical == via_critical
    return ok, None if ok else {
        "alpha_plus_mu_route": recognized,
        "every_mis_critical": all_critical,
        "maximum_critical_route": via_critical,
        "non_critical_mis": None if bad_mis is None else f.labels(bad_mis)}


def _check_ke_identities(f: Facts) -> tuple[bool, dict | None]:
    f.require_oracle()
    report = ke.ke_identities(f.g, f.config.oracle_limit)
    failing = [c for c in report.identity_checks if not c.holds]
    if not failing:
        return True, None
    return False, {"failing": [
        {"name": c.name, "lhs": c.lhs, "rhs": c.rhs} for c in failing]}


def _check_ore_kernel_separation(f: Facts) -> tuple[bool, dict | None]:
    g = f.g
    profile = f.ore_profile()
    pairs = [("A", profile.ker_a, f.side_critical_samples("B")),
             ("B", profile.ker_b, f.side_critical_samples("A"))]
    for side, kernel, opposites in pairs:
        for y in opposites:
            if kernel & neighborhood(g, y) or neighborhood(g, kernel) & y:
                return False, {
                    "side": side, "kernel": f.labels(kernel),
                    "opposite_critical": f.labels(y)}
    if (profile.ker_a & neighborhood(g, profile.ker_b)
            or neighborhood(g, profile.ker_a) & profile.ker_b):
        return False, {"ker_a": f.labels(profile.ker_a),
                       "ker_b": f.labels(profile.ker_b)}
    return True, None


def _check_bipartite_kernel_split(f: Facts) -> tuple[bool, dict | None]:
    p = f.ore_profile()
    kr, dia, a = f.ker(), f.diadem(), f.alpha()
    checks = {
        "side_kernels_union_to_ker": p.ker_a | p.ker_b == kr,
        "ker_plus_diadem_eq_two_alpha":
            kr.bit_count() + dia.bit_count() == 2 * a,
        "ker_a_plus_diadem_b_eq_alpha":
            p.ker_a.bit_count() + p.diadem_b.bit_count() == a,
        "ker_b_plus_diadem_a_eq_alpha":
            p.ker_b.bit_count() + p.diadem_a.bit_count() == a,
        "side_diadems_union_to_diadem": p.diadem_a | p.diadem_b == dia,
    }
    if all(checks.values()):
        return True, None
    return False, {
        "failing": sorted(k for k, v in checks.items() if not v),
        "ker_a": f.labels(p.ker_a), "ker_b": f.labels(p.ker_b),
        "diadem_a": f.labels(p.diadem_a), "diadem_b": f.labels(p.diadem_b),
        "ker": f.labels(kr), "diadem": f.labels(dia), "alpha": a}


def _check_core_corona_bound(f: Facts) -> tuple[bool, dict | None]:
    total = f.core().bit_count() + f.corona().bit_count()
    ok = 2 * f.alpha() <= total
    return ok, None if ok else {
        "two_alpha": 2 * f.alpha(), "core_plus_corona": total}


def _pendants_outside_k2(g: Graph) -> VertexSet:
    out = 0
    for v in range(g.n):
        if g.degree(v) == 1:
            u = g.adj[v].bit_length() - 1
            if g.degree(u) > 1:
                out |= 1 << v
    return out


def _applies_has_pendants(f: Facts) -> str | None:
    if _pendants_outside_k2(f.g) == 0:
        return "no pendant vertices outside K2 components"
    return None


def _check_pendants_in_diadem(f: Facts) -> tuple[bool, dict | None]:
    pendants = _pendants_outside_k2(f.g)
    missing = pendants & ~f.diadem()
    ok = missing == 0
    return ok, None if ok else {
        "pendants_outside_diadem": f.labels(missing),
        "diadem": f.labels(f.diadem())}


def _check_is_ke(f: Facts) -> tuple[bool, dict | None]:
    ok = ke.is_ke_via_critical(f.g, f.config.oracle_limit)
    return ok, None if ok else {
        "alpha": f.alpha(), "mu": f.mu(), "n": f.g.n,
        "max_critical_independent_size": f.max_critical_ind().bit_count()}


def _check_selftest_alpha(f: Facts) -> tuple[bool, dict | None]:
    if f.alpha() <= 2:
        return True, None
    g = f.g
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.adj[u] >> v & 1:
                continue
            for w in range(v + 1, g.n):
                if (g.adj[u] | g.adj[v]) >> w & 1:
                    continue
                return False, {"alpha": f.alpha(), "independent_triple":
                               [g.labels[u], g.labels[v], g.labels[w]]}
    return False, {"alpha": f.alpha()}


# -- the registry ----------------------------------------------------------------

_REGISTRY: list[Property] | None = None

SELFTEST = Property(
    "selftest.alpha_le_two",
    "deliberately false claim: alpha is at most 2; exercises failure plumbing",
    _always, _check_selftest_alpha)


def registry() -> list[Property]:
    """All registered graph properties, in reporting order."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = [
            Property("zhang.d_eq_id",
                     "the subset maximum of d equals the independent-set "
                     "maximum and the matching route computes both",
                     _always, _check_d_eq_id),
            Property("th4.supermodular",
                     "d(A|B) + d(A&B) >= d(A) + d(B) for vertex sets A, B",
                     _always, _check_supermodular),
            Property("th4.critical_closed_union_intersection",
                     "unions and intersections of critical sets are critical",
                     _always, _check_critical_closure),
            Property("th4.unique_minimal_critical_independent",
                     "the intersection of all critical independent sets is "
                     "itself critical and matches the deletion-rule ker",
                     _always, _check_unique_minimal),
            Property("diadem.critical",
                     "the union of all critical independent sets is critical",
                     _always, _check_diadem_critical),
            Property("cor2.ke_core_corona_critical",
                     "on KE graphs both core and corona are critical sets",
                     _ke_only, _check_ke_core_corona_critical),
            Property("core.inside_maximal_critical_independent",
                     "a critical core lies inside every inclusion-maximal "
                     "critical independent set",
                     _applies_core_critical, _check_core_in_maximal),
            Property("corona.covers_maximal_critical_independent",
                     "corona contains every inclusion-maximal critical "
                     "independent set",
                     _always, _check_corona_covers_maximal),
            Property("deletion.d_drop_iff_ker",
                     "deleting v lowers d by one exactly when v is in ker",
                     _always, _check_deletion_rule),
            Property("th2.matching_from_neighborhood",
                     "N(S) matches into S for critical independent S",
                     _always, _check_matching_from_neighborhood),
            Property("th9.ker_characterization",
                     "ker alone passes the tight-set and per-vertex matching "
                     "conditions, and the two conditions agree",
                     _always, _check_ker_characterization),
            Property("th1.ker_union_of_minimal_positive",
                     "ker is the union of the inclusion-minimal independent "
                     "sets of positive difference",
                     _positive_d_only, _check_ker_union_minimal_positive),
            Property("prop3.minimal_positive_difference_one",
                     "inclusion-minimal positive independent sets have d = 1",
                     _always, _check_minimal_positive_d1),
            Property("minsize.positive_bound",
                     "some positive independent set has size at most "
                     "|ker| - d + 1",
                     _positive_d_only, _check_minimal_positive_bound),
            Property("th6.ker_subset_core",
                     "ker is contained in core",
                     _always, _check_ker_subset_core),
            Property("cor1.d_ge_alpha_minus_mu",
                     "d is at least alpha - mu",
                     _always, _check_d_ge_alpha_minus_mu),
            Property("th10.bipartite_ker_eq_core",
                     "on bipartite graphs ker equals core",
                     _bipartite_only, _check_bipartite_ker_eq_core),
            Property("ke.matching_structure",
                     "on KE graphs a maximum matching sends the complement "
                     "of a maximum independent set into it, N(core) into "
                     "core, and N(core) is the complement of corona",
                     _ke_only, _check_ke_matching_structure),
            Property("th8.ke_difference_identities",
                     "on KE graphs d equals |core| - |N(core)|, alpha - mu, "
                     "and the deficiency",
                     _ke_only, _check_ke_difference_identities),
            Property("th5.ke_iff_every_mis_critical",
                     "KE recognition, criticality of every maximum "
                     "independent set, and the maximum-critical route agree",
                     _always, _check_ke_iff_every_mis_critical),
            Property("th11.ke_identities",
                     "the KE identity bundle holds",
                     _ke_only, _check_ke_identities),
            Property("ore.kernel_separation",
                     "side kernels neither touch nor neighbor the other "
                     "side's critical sets",
                     _bipartite_only, _check_ore_kernel_separation),
            Property("bipartite.kernel_split",
                     "side kernels and diadems assemble ker, diadem and "
                     "alpha by the two-sided identities",
                     _bipartite_only, _check_bipartite_kernel_split),
            Property("core_corona.lower_bound",
                     "|core| + |corona| is at least twice alpha",
                     _always, _check_core_corona_bound),
            Property("pendant.in_diadem",
                     "pendant vertices outside K2 components belong to the "
                     "diadem",
                     _applies_has_pendants, _check_pendants_in_diadem),
            Property("ke.is_ke",
                     "the maximum-critical-independent route certifies the "
                     "KE property",
                     _ke_only, _check_is_ke),
        ]
    return _REGISTRY


def lookup(name: str) -> Property:
    for prop in registry():
        if prop.name == name:
            return prop
    if name == SELFTEST.name:
        return SELFTEST
    raise ValueError(f"unknown property {name!r}")


def select_properties(names: list[str] | None) -> list[Property]:
    if names is None:
        return registry()
    return [lookup(name) for name in names]


# -- corpora ---------------------------------------------------------------------

class CorpusSource(NamedTuple):
    kind: str  # fixtures | exhaustive | random | files
    params: tuple

    def describe(self) -> dict:
        if self.kind == "fixtures":
            return {"kind": "fixtures"}
        if self.kind == "exhaustive":
            return {"kind": "exhaustive", "n": self.params[0]}
        if self.kind == "random":
            lo, hi, p, count, seed = self.params
            return {"kind": "random", "n": [lo, hi], "p": p,
                    "count": count, "seed": seed}
        return {"kind": "files", "paths": list(self.params)}


class CorpusSpec(NamedTuple):
    sources: tuple[CorpusSource, ...]

    def describe(self) -> dict:
        return {"sources": [s.describe() for s in self.sources]}


def fixtures_corpus() -> CorpusSpec:
    return CorpusSpec((CorpusSource("fixtures", ()),))


def exhaustive_corpus(*ns: int) -> CorpusSpec:
    return CorpusSpec(tuple(CorpusSource("exhaustive", (n,)) for n in ns))


def random_corpus(lo: int, hi: int, p: float, count: int,
                  seed: int) -> CorpusSpec:
    return CorpusSpec((CorpusSource("random", (lo, hi, p, count, seed)),))


def files_corpus(paths: list[str]) -> CorpusSpec:
    return CorpusSpec((CorpusSource("files", tuple(paths)),))


def parse_corpus_spec(text: str) -> CorpusSpec:
    """Read the JSON corpus description used by the command line."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"corpus spec is not valid JSON: {exc}")
    if not isinstance(doc, dict) or "sources" not in doc:
        raise ValueError("corpus spec must be an object with a 'sources' list")
    sources = []
    for entry in doc["sources"]:
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ValueError(f"corpus source needs a 'kind': {entry!r}")
        kind = entry["kind"]
        try:
            if kind == "fixtures":
                sources.append(CorpusSource("fixtures", ()))
            elif kind == "exhaustive":
                sources.append(CorpusSource("exhaustive", (int(entry["n"]),)))
            elif kind == "random":
                lo, hi = entry["n"]
                sources.append(CorpusSource("random", (
                    int(lo), int(hi), float(entry["p"]),
                    int(entry["count"]), int(entry["seed"]))))
            elif kind == "files":
                sources.append(CorpusSource(
                    "files", tuple(str(p) for p in entry["paths"])))
            else:
                raise ValueError(f"unknown corpus source kind {kind!r}")
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad corpus source {entry!r}: {exc}")
    return CorpusSpec(tuple(sources))


def random_graph_at(lo: int, hi: int, p: float, seed: int, k: int) -> Graph:
    """Graph #k of a random corpus; the generator is keyed by (seed, k), so
    any single index is reproducible without replaying the stream."""
    rng = random.Random(seed * 1_000_003 + k)
    n = rng.randrange(lo, hi + 1)
    return random_graph(n, p, rng.getrandbits(32))


def iter_graphs(spec: CorpusSpec) -> Iterator[tuple[str, Graph]]:
    for src in spec.sources:
        if src.kind == "fixtures":
            from . import fixtures
            for name in fixtures.fixture_names():
                yield f"fixture:{name}", fixtures.load(name).graph
        elif src.kind == "exhaustive":
            n = src.params[0]
            for i, g in enumerate(all_graphs(n)):
                yield f"exhaustive:n={n}:{i}", g
        elif src.kind == "random":
            lo, hi, p, count, seed = src.params
            for k in range(count):
                yield (f"random:seed={seed}:{k}",
                       random_graph_at(lo, hi, p, seed, k))
        elif src.kind == "files":
            for path in src.params:
                text = Path(path).read_text()
                fmt = "dimacs" if path.endswith((".col", ".dimacs")) \
                    else "edge-list"
                yield f"file:{path}", parse_graph(text, fmt)
        else:
            raise ValueError(f"unknown corpus source kind {src.kind!r}")


# -- the runner ------------------------------------------------------------------

def _eval_graph(args: tuple[str, Graph, list[str] | None, Config]) -> dict:
    key, g, names, config = args
    facts = Facts(g, config)
    results = [evaluate(prop, facts).as_dict()
               for prop in select_properties(names)]
    return {"key": key, "n": g.n, "m": g.m, "results": results}


def run(corpus: CorpusSpec, properties: list[str] | None = None,
        config: Config | None = None) -> dict:
    """Evaluate properties over a corpus; the report is in corpus order and
    carries every failure witness. Worker count never changes the output."""
    config = config if config is not None else Config()
    select_properties(properties)  # fail fast on unknown names
    jobs = [(key, g, properties, config) for key, g in iter_graphs(corpus)]
    if config.workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            graph_reports = list(pool.map(_eval_graph, jobs, chunksize=16))
    else:
        graph_reports = [_eval_graph(job) for job in jobs]

    holds = fails = skipped = limit_skips = 0
    skip_reasons: dict[str, int] = {}
    failures = []
    for report in graph_reports:
        for result in report["results"]:
            if result["verdict"] == "holds":
                holds += 1
            elif result["verdict"] == "fails":
                fails += 1
                failures.append({
                    "graph": report["key"], "property": result["property"],
                    "witness": result.get("witness")})
            else:
                skipped += 1
                if result.get("skip") == "limit":
                    limit_skips += 1
                reason = result.get("reason", "")
                skip_reasons[reason] = skip_reasons.get(reason, 0) + 1

    return {
        "schema": 1,
        "kind": "property-run",
        "corpus": corpus.describe(),
        "properties": [p.name for p in select_properties(properties)],
        "config": {"oracle_limit": config.oracle_limit,
                   "use_oracle": config.use_oracle},
        "graphs": graph_reports,
        "summary": {
            "graphs": len(graph_reports),
            "checks": holds + fails + skipped,
            "holds": holds,
            "fails": fails,
            "skipped": skipped,
            "limit_skips": limit_skips,
            "skip_reasons": dict(sorted(skip_reasons.items())),
            "failures": failures,
        },
    }


# -- conjecture scan ---------------------------------------------------------

def _slack(g: Graph) -> int:
    """2*alpha - |ker| - |diadem|; negative means a counterexample."""
    return (2 * mis.alpha(g) - critical.ker(g).bit_count()
            - critical.diadem(g).bit_count())


def _graph_doc(g: Graph) -> dict:
    return {"n": g.n, "m": g.m,
            "edges": [[g.labels[u], g.labels[v]] for u, v in g.edge_pairs()]}


def conjecture_scan(corpus: CorpusSpec,
                    config: Config | None = None) -> dict:
    """Check |ker| + |diadem| <= 2*alpha <= |core| + |corona| per graph.

    The lower bound is the open conjecture, so the scan is evidence, not
    proof: it records the minimum slack per graph order and shrinks any
    violation it finds. Limit-exceeded graphs are listed, never dropped.
    """
    config = config if config is not None else Config()
    per_n: dict[int, dict] = {}
    violations = []
    skipped = []
    graphs = checked = 0

    for key, g in iter_graphs(corpus):
        graphs += 1
        facts = Facts(g, config)
        try:
            a = facts.alpha()
            lower = 2 * a - facts.ker().bit_count() - facts.diadem().bit_count()
        except LimitExceeded as exc:
            skipped.append({"graph": key, "reason": str(exc)})
            continue
        try:
            upper = (facts.core().bit_count() + facts.corona().bit_count()
                     - 2 * a)
        except LimitExceeded:
            upper = None
        checked += 1
        slot = per_n.setdefault(g.n, {"graphs": 0, "min_slack": None,
                                      "min_slack_upper": None})
        slot["graphs"] += 1
        if slot["min_slack"] is None or lower < slot["min_slack"]:
            slot["min_slack"] = lower
        if upper is not None and (slot["min_slack_upper"] is None
                                  or upper < slot["min_slack_upper"]):
            slot["min_slack_upper"] = upper

        if lower < 0:
            small = shrink(g, lambda h: _slack(h) < 0)
            violations.append({
                "graph": key, "kind": "ker-diadem", **_graph_doc(g),
                "ker": g.label_list(facts.ker()),
                "diadem": g.label_list(facts.diadem()),
                "alpha": a,
                "lhs": facts.ker().bit_count() + facts.diadem().bit_count(),
                "rhs": 2 * a,
                "shrunk": {**_graph_doc(small),
                           "lhs": 2 * mis.alpha(small) - _slack(small),
                           "rhs": 2 * mis.alpha(small)}})
        if upper is not None and upper < 0:
            small = shrink(g, lambda h: mis.core_and_corona(
                h, config.oracle_limit).core.bit_count()
                + mis.core_and_corona(h, config.oracle_limit).corona.bit_count()
                < 2 * mis.alpha(h))
            violations.append({
                "graph": key, "kind": "core-corona", **_graph_doc(g),
                "alpha": a, "lhs": 2 * a, "rhs": 2 * a + upper,
                "shrunk": _graph_doc(small)})

    mins = [slot["min_slack"] for slot in per_n.values()
            if slot["min_slack"] is not None]
    mins_up = [slot["min_slack_upper"] for slot in per_n.values()
               if slot["min_slack_upper"] is not None]
    return {
        "schema": 1,
        "kind": "conjecture-scan",
        "corpus": corpus.describe(),
        "per_n": {str(n): per_n[n] for n in sorted(per_n)},
        "summary": {
            "graphs": graphs,
            "checked": checked,
            "skipped": skipped,
            "violations": violations,
            "min_slack": min(mins) if mins else None,
            "min_slack_upper": min(mins_up) if mins_up else None,
        },
    }


# -- shrinking -----------------------------------------------------------------

def shrink(g: Graph, failing: Callable[[Graph], bool]) -> Graph:
    """Greedily delete vertices (by id), then edges (lexicographic), keeping
    the predicate failing; restarts after every success, so the result is a
    deterministic local minimum."""
    if not failing(g):
        raise ValueError("shrink needs a graph the predicate fails on")
    current = g
    while True:
        for v in range(current.n):
            smaller, _ = delete_vertices(current, 1 << v)
            if failing(smaller):
                current = smaller
                break
        else:
            for u, v in current.edge_pairs():
                smaller = delete_edge(current, u, v)
                if failing(smaller):
                    current = smaller
                    break
            else:
                return current
