"""Invariant registry and the property runner.

Every registered property is a named predicate over one graph with an
applicability guard and a witness-producing check. The runner hands each graph
one lazily filled fact cache, oracle.Facts, so a registry sweep costs one set
of invariants per graph rather than one per property: every check reads that
cache, and one pass over the registry runs alpha and the critical and maximum
independent enumerations at most once per graph and the blossom matching
once. Anything exponential sits behind the oracle limit and reports itself as
skipped instead of silently passing. The corpora the runner reads, the
conjecture scan and shrinking live in corpus, which this module imports only
when a run starts. Facts and Config are re-exported here.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import chain, combinations, islice
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

from . import critical, oracle
from .graphs import (Graph, LimitExceeded, VertexSet, difference,
                     is_independent, neighborhood, vlist, vset)
from .oracle import _LANES_IN_RANGE, LATTICE_MAX_N, Config, Facts

if TYPE_CHECKING:  # the runner's annotations only
    from .corpus import CorpusSpec

# -- property shell --------------------------------------------------------------

class Property(NamedTuple):
    name: str
    description: str
    applies: Callable[[Facts], str | None]
    check: Callable[[Facts], tuple[bool, dict | None]]


class PropertyResult:
    """The verdict of one property on one graph: holds, fails or skipped.

    limit marks a skip caused by a limit rather than by applicability. A
    plain slotted class: one is built per property per graph.
    """

    __slots__ = ("prop", "verdict", "reason", "witness", "limit")

    def __init__(self, prop: str, verdict: str, reason: str | None = None,
                 witness: dict | None = None, limit: bool = False):
        self.prop = prop
        self.verdict = verdict
        self.reason = reason
        self.witness = witness
        self.limit = limit

    def _key(self) -> tuple:
        return (self.prop, self.verdict, self.reason, self.witness,
                self.limit)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None  # mutable, so unhashable

    def __repr__(self) -> str:
        return (f"PropertyResult(prop={self.prop!r}, "
                f"verdict={self.verdict!r}, reason={self.reason!r}, "
                f"witness={self.witness!r}, limit={self.limit!r})")

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
        if reason is not None:
            return PropertyResult(prop.name, "skipped", reason)
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

def _masks_at(table: bytes, lane: int) -> Iterator[VertexSet]:
    """The masks whose lane holds lane, in increasing order."""
    m = -1
    while (m := table.find(lane, m + 1)) >= 0:
        yield m


def _check_d_eq_id(f: Facts) -> tuple[bool, dict | None]:
    table, n, top = f.tables(), f.g.n, f.top_lane()
    # by byte searches from the top lane down; on a valid table the first
    # candidate is ker, the least critical mask: every critical set holds it
    best_ind = next(lane for lane in range(top, -1, -1) if any(
        is_independent(f.g, m) for m in _masks_at(table, lane))) - n
    ok = f.d() == top - n == best_ind
    return ok, None if ok else {
        "d_polynomial": f.d(), "max_over_subsets": top - n,
        "max_over_independent": best_ind}


@lru_cache(maxsize=None)
def _supermodular_masks(n: int) -> tuple[int, ...]:
    """The vertex sets th4.supermodular pairs up: all of them up to n = 7,
    else a seeded sample of at most 128. Kept per n, as it depends on n
    alone."""
    size = 1 << n
    if size <= 128:
        return tuple(range(size))
    rng = random.Random(0x5D1A + n)
    return tuple(sorted({rng.randrange(size) for _ in range(128)}))


@lru_cache(maxsize=None)
def _sample_gatherers(n: int) -> tuple[itemgetter, itemgetter, int]:
    """For the sample test of th4.supermodular on n vertices: a gatherer of
    the lanes a | b and then a & b over the P sampled pairs with b >= a in
    row-major order, one of the sampled lanes, and 0x80 in each of P lanes.
    Kept per n: about 0.6 MB each at n = 13..20."""
    masks = _supermodular_masks(n)
    rows = [(a, masks[i:]) for i, a in enumerate(masks)]
    return (itemgetter(*[a | b for a, bs in rows for b in bs],
                       *[a & b for a, bs in rows for b in bs]),
            itemgetter(*masks),
            int.from_bytes(b"\x80" * sum(len(bs) for _, bs in rows), "little"))


def _sample_holds(table: bytes, n: int) -> bool:
    """Whether t(a | b) + t(a & b) >= t(a) + t(b) for every sampled pair,
    decided at once: with U, I, A and B holding t(a | b), t(a & b), t(a) and
    t(b) in the pair's lane, U + I + pad - (A + B) has its 0x80 bit set in
    a lane iff that pair holds. With lanes in 0..63 each lane of it stays in
    2..254, so none borrows."""
    pairs, sample, pad = _sample_gatherers(n)
    # bytearray() takes a tuple of ints in half the time bytes() does
    both, values = bytearray(pairs(table)), bytes(sample(table))
    half, k = len(both) >> 1, len(values)
    # row i pairs a_i with the sample from a_i on
    a = b"".join([values[i:i + 1] * (k - i) for i in range(k)])
    b = b"".join([values[i:] for i in range(k)])
    lanes = (int.from_bytes(both[:half], "little") + pad
             + int.from_bytes(both[half:], "little")
             - int.from_bytes(a, "little") - int.from_bytes(b, "little"))
    return lanes & pad == pad


def _check_supermodular(f: Facts) -> tuple[bool, dict | None]:
    table, n = f.tables(), f.g.n
    # where every square holds, so does every pair, and where every sampled
    # pair holds, so does the pair scan; otherwise, or where a lane is past
    # 63 and would carry, the pair scan names the first failing pair, or
    # holds where its sample misses them
    if f.squares_hold() or (n > LATTICE_MAX_N and not table.translate(
            None, _LANES_IN_RANGE) and _sample_holds(table, n)):
        return True, None
    masks, table = _supermodular_masks(n), list(table)  # faster subscripts
    # each side sums two lanes, so the offset n cancels; the inequality is
    # symmetric, so the first failing pair in row-major order has b >= a
    for i, a in enumerate(masks):
        da = table[a]
        for b in masks[i:]:
            if table[a | b] + table[a & b] < da + table[b]:
                return False, {
                    "a": f.labels(a), "b": f.labels(b),
                    "d_union_plus_d_intersection":
                        table[a | b] + table[a & b] - 2 * n,
                    "d_a_plus_d_b": da + table[b] - 2 * n}
    return True, None


def _check_critical_closure(f: Facts) -> tuple[bool, dict | None]:
    table, n, d0 = f.tables(), f.g.n, f.d()
    lane = d0 + n
    # on a supermodular table, critical a and b at the top lane have
    # t(a | b) + t(a & b) >= 2 top, and no lane passes top: both are top
    if f.squares_hold() and lane == f.top_lane():
        return True, None
    # critical lanes hold d0 + n, found by byte searches; (a, b) fails iff
    # (b, a) does, and (a, a) holds, so b is scanned after a
    crit = list(_masks_at(table, lane))
    if len(crit) > 256:
        crit = crit[::len(crit) // 256 + 1]
    for i, a in enumerate(crit):
        for b in crit[i + 1:]:
            if table[a | b] != lane or table[a & b] != lane:
                return False, {
                    "a": f.labels(a), "b": f.labels(b), "d": d0,
                    "d_union": table[a | b] - n,
                    "d_intersection": table[a & b] - n}
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
    if difference(f.g, dia) != f.d():
        return False, {
            "diadem": f.labels(dia), "d_of_diadem": difference(f.g, dia),
            "d": f.d()}
    try:
        family = f.critical_ind_family()
    except LimitExceeded:
        return True, None  # past the family's reach, d(diadem) alone decides
    union = 0
    for s in family:
        union |= s
    ok = union == dia
    return ok, None if ok else {
        "diadem": f.labels(dia), "union_of_family": f.labels(union)}


def _check_ke_core_corona_critical(f: Facts) -> tuple[bool, dict | None]:
    d0 = f.d()
    dc, dn = difference(f.g, f.core()), difference(f.g, f.corona())
    ok = dc == d0 and dn == d0
    return ok, None if ok else {
        "core": f.labels(f.core()), "corona": f.labels(f.corona()),
        "d_of_core": dc, "d_of_corona": dn, "d": d0}


def _applies_core_critical(f: Facts) -> str | None:
    return None if difference(f.g, f.core()) == f.d() else (
        "core is not a critical set")


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
        d_v = critical._d_without(g, v)
        if (d_v == d0 - 1) != bool(ko >> v & 1):
            return False, {
                "vertex": g.labels[v], "d": d0, "d_after_delete": d_v,
                "in_ker": bool(ko >> v & 1)}
    if f.ker() != ko:
        return False, {"ker_by_deletion_rule": f.labels(f.ker()),
                       "ker_by_enumeration": f.labels(ko)}
    return True, None


def _check_matching_from_neighborhood(f: Facts) -> tuple[bool, dict | None]:
    """Theorem 2 on ker, up to 32 members of the critical independent family
    and the largest one: each sample S is independent and N(S) matches into
    S. critical._neighborhood_matching decides the matching from the N(S)
    computed here: the memoised cover matching's checked pairs, else one
    saturating_matching."""
    g = f.g
    samples = {f.ker()}
    try:
        samples.update(islice(f.critical_ind_family(), 32))
        samples.add(f.max_critical_ind())
    except LimitExceeded:
        pass  # the polynomial witnesses alone still make a real check
    for s in sorted(samples):
        nb = neighborhood(g, s)
        # a sample that meets its own neighbourhood is not independent
        if nb & s or critical._neighborhood_matching(g, s, nb) is None:
            return False, {"set": f.labels(s), "neighborhood": f.labels(nb)}
    return True, None


def _check_ker_characterization(f: Facts) -> tuple[bool, dict | None]:
    g, k = f.g, f.ker()
    if not critical.is_critical_independent(g, k):
        return False, {"ker": f.labels(k),
                       "problem": "not a critical independent set"}

    def conditions(key: str, a: VertexSet, verify: Callable
                   ) -> tuple[bool | None, dict | None]:
        """The ker conditions on a, by verify, or (None, witness naming a
        under key). A limit reaches evaluate as a skip; a disagreement of
        the two conditions, or a set they refuse as not critical
        independent (ValueError), is a failure."""
        try:
            return verify(g, a, f.config.oracle_limit)
        except LimitExceeded:
            raise
        except (RuntimeError, ValueError) as exc:
            return None, {key: f.labels(a), "problem": str(exc)}

    # ker is critical independent, checked above
    ok, wit = conditions("ker", k, oracle._ker_conditions)
    if ok is None:
        return False, wit
    if not ok:
        assert wit is not None
        return False, {
            "ker": f.labels(k),
            "tight_set": f.labels(wit["tight_set"]),
            "unmatchable_vertex": g.labels[wit["unmatchable_vertex"]]}
    other = next((s for s in f.critical_ind_family() if s != k), None)
    if other is not None:
        ok, wit = conditions("set", other,
                             oracle.verify_ker_characterization)
        if ok is None:
            return False, wit
        if ok:
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
    for v in vlist(g.full & ~s):
        mate = m.mate[v]
        if mate == -1 or not s >> mate & 1:
            return False, {"unmatched_outside_mis": g.labels[v],
                           "mis": f.labels(s)}
    core, corona = f.core(), f.corona()
    ncore = neighborhood(g, core)
    for v in vlist(ncore):
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
    # no oracle guard, as before: one would change --no-oracle reports
    sets = f._maximum_independent_sets()
    bad_mis = next((s for s in sets if difference(g, s) != d0), None)
    via_critical = f.ke_via_critical()
    # alpha is the maximum independent DFS's target: a larger independent
    # set, the first non-critical one it gave, the largest critical one or
    # one in the rest of its stream, proves alpha wrong
    a = f.alpha()
    larger = next((s for s in chain((bad_mis, f._critical_pass()[1]), sets)
                   if s is not None and s.bit_count() > a), None)
    if larger is not None:
        return False, {"alpha": a, "larger_independent_set": f.labels(larger)}
    all_critical = bad_mis is None
    ok = recognized == all_critical == via_critical
    return ok, None if ok else {
        "alpha_plus_mu_route": recognized,
        "every_mis_critical": all_critical,
        "maximum_critical_route": via_critical,
        "non_critical_mis": None if bad_mis is None else f.labels(bad_mis)}


def _check_ke_identities(f: Facts) -> tuple[bool, dict | None]:
    failing = [c for c in f.ke_identity_checks() if not c["holds"]]
    if not failing:
        return True, None
    return False, {"failing": [
        {"name": c["name"], "lhs": c["lhs"], "rhs": c["rhs"]}
        for c in failing]}


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
    nbrs = g.nbrs
    return vset(v for v, nb in enumerate(nbrs)
                if len(nb) == 1 and len(nbrs[nb[0]]) > 1)


def _pendants(f: Facts) -> VertexSet:
    """_pendants_outside_k2 of the graph, once per fact cache: the guard and
    the check of pendant.in_diadem both read it."""
    return f._get("pendants", lambda: _pendants_outside_k2(f.g))


def _applies_has_pendants(f: Facts) -> str | None:
    return None if _pendants(f) else (
        "no pendant vertices outside K2 components")


def _check_pendants_in_diadem(f: Facts) -> tuple[bool, dict | None]:
    pendants = _pendants(f)
    missing = pendants & ~f.diadem()
    ok = missing == 0
    return ok, None if ok else {
        "pendants_outside_diadem": f.labels(missing),
        "diadem": f.labels(f.diadem())}


def _check_is_ke(f: Facts) -> tuple[bool, dict | None]:
    # no oracle guard, as before: one would change --no-oracle reports
    ok = f.ke_via_critical()
    return ok, None if ok else {
        "alpha": f.alpha(), "mu": f.mu(), "n": f.g.n,
        "max_critical_independent_size": f.max_critical_ind().bit_count()}


def _check_selftest_alpha(f: Facts) -> tuple[bool, dict | None]:
    if f.alpha() <= 2:
        return True, None
    g = f.g
    for u, v, w in combinations(range(g.n), 3):
        if not (g.adj[u] >> v & 1 or (g.adj[u] | g.adj[v]) >> w & 1):
            return False, {"alpha": f.alpha(), "independent_triple":
                           [g.labels[u], g.labels[v], g.labels[w]]}
    return False, {"alpha": f.alpha()}


# -- the registry ----------------------------------------------------------------

SELFTEST = Property(
    "selftest.alpha_le_two",
    "deliberately false claim: alpha is at most 2; exercises failure plumbing",
    _always, _check_selftest_alpha)


_PROPERTIES = [
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
             "diadem is critical and is the union of all critical "
             "independent sets",
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


def registry() -> list[Property]:
    """All registered graph properties, in reporting order."""
    return _PROPERTIES


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


# -- the runner ------------------------------------------------------------------

def _eval_graph(args: tuple[str, Graph, list[str] | None, Config]) -> dict:
    key, g, names, config = args
    facts = Facts(g, config)
    results = [evaluate(prop, facts).as_dict()
               for prop in select_properties(names)]
    return {"key": key, "n": g.n, "m": g.m, "results": results}


# graphs a run with workers > 1 hands the pool at once; two windows are in
# flight, so the workers do not wait between them, and at most two windows
# of reports are held whatever the corpus size
POOL_WINDOW = 256


def _graph_reports(corpus: CorpusSpec, properties: list[str] | None,
                   config: Config) -> Iterator[dict]:
    """_eval_graph of each corpus graph in corpus order, as iter_graphs
    yields them; with config.workers > 1, a process pool evaluates them
    POOL_WINDOW graphs at a time."""
    from .corpus import iter_graphs
    jobs = ((key, g, properties, config) for key, g in iter_graphs(corpus))
    window = list(islice(jobs, POOL_WINDOW)) if config.workers > 1 else []
    if len(window) <= 1:
        yield from map(_eval_graph, chain(window, jobs))
        return
    # imported here, so a one-process run never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=config.workers) as pool:
        pending = pool.map(_eval_graph, window, chunksize=16)
        while window:
            window = list(islice(jobs, POOL_WINDOW))
            ahead = pool.map(_eval_graph, window, chunksize=16)
            yield from pending
            pending = ahead


def _tallied(reports: Iterable[dict], summary: dict) -> Iterator[dict]:
    """The per-graph reports, passed through; once the last has passed,
    summary holds the run's summary of them."""
    graphs = holds = fails = skipped = limit_skips = 0
    skip_reasons: dict[str, int] = {}
    failures = []
    for report in reports:
        graphs += 1
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
        yield report
    summary.update({
        "graphs": graphs,
        "checks": holds + fails + skipped,
        "holds": holds,
        "fails": fails,
        "skipped": skipped,
        "limit_skips": limit_skips,
        "skip_reasons": dict(sorted(skip_reasons.items())),
        "failures": failures,
    })


def stream_run(corpus: CorpusSpec, properties: list[str] | None = None,
               config: Config | None = None
               ) -> tuple[dict, Iterator[dict], dict]:
    """run's report in three parts, for a writer that never holds it whole:
    the report without "graphs" and "summary"; an iterator over the
    per-graph reports in corpus order, which evaluates each graph as it is
    read; and the summary, filled in once that iterator is exhausted."""
    config = config if config is not None else Config()
    selected = select_properties(properties)  # fail fast on unknown names
    head = {
        "schema": 1,
        "kind": "property-run",
        "corpus": corpus.describe(),
        "properties": [p.name for p in selected],
        "config": {"oracle_limit": config.oracle_limit,
                   "use_oracle": config.use_oracle},
    }
    summary: dict = {}
    graphs = _tallied(_graph_reports(corpus, properties, config), summary)
    return head, graphs, summary


def run(corpus: CorpusSpec, properties: list[str] | None = None,
        config: Config | None = None) -> dict:
    """Evaluate properties over a corpus; the report is in corpus order and
    carries every failure witness. Worker count never changes the output."""
    head, graphs, summary = stream_run(corpus, properties, config)
    return {**head, "graphs": list(graphs), "summary": summary}
