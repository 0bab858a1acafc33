"""Invariant registry, corpus plumbing, conjecture scan, counterexample shrinking.

Every registered property is a named predicate over one graph with an
applicability guard and a witness-producing check. The runner hands each graph
one lazily filled fact cache, oracle.Facts, so a registry sweep costs one set
of invariants per graph rather than one per property: every check reads that
cache, and one pass over the registry runs alpha and the critical and maximum
independent enumerations at most once per graph and the blossom matching
once. Anything exponential sits behind the oracle limit and reports itself as
skipped instead of silently passing. Facts and Config are re-exported here,
so imports and pickles that name them through this module stay valid.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter
from functools import lru_cache
from itertools import chain, islice
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple

from . import critical, oracle
from .graphs import (EXHAUSTIVE_MAX_N, Graph, LimitExceeded, VertexSet,
                     all_graphs, delete_edge, delete_vertices, difference,
                     graph_from_code, neighborhood, orbit_leaders,
                     random_graph, read_graph_file, vlist)
from .matching import saturating_matching
from .oracle import Config, Facts, _subset_lanes

# the largest n at which th4.supermodular first checks the 2x2 squares of
# the subset lattice on the table read as one integer (BENCH_19.json); above
# it, it decides its 128-mask sample at once off two cached gathers
# (BENCH_30.json). Either way the pair scan runs only where that test fails
LATTICE_MAX_N = 12

# the lane tests are exact while every lane holds 0..63; deleting those
# values leaves nothing of such a table
_LANES_IN_RANGE = bytes(range(64))


def default_workers() -> int:
    """Worker count from CRITSET_WORKERS; anything unusable means 1."""
    raw = os.environ.get("CRITSET_WORKERS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


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
    table, n = f.tables(), f.g.n
    # corrupted lanes above 2n, else the top lane
    top = table.translate(None, bytes(range(2 * n + 1)))
    best_all = (max(top) if top else next(
        v for v in range(2 * n, -1, -1) if v in table)) - n
    best_ind = max(map(table.__getitem__, f._independent_masks())) - n
    ok = f.d() == best_all == best_ind
    return ok, None if ok else {
        "d_polynomial": f.d(), "max_over_subsets": best_all,
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
def _square_masks(n: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """For the square test of th4.supermodular on n vertices: 0x80 in each
    of the 2^n byte lanes, and per u, one per v > u, 0x80 in each lane X
    that holds neither u nor v. Kept per n: under 300 KB at n = 12."""
    planes, _ = _subset_lanes(n)
    ones = int.from_bytes(b"\1" * (1 << n), "little")
    return ones << 7, tuple(tuple((ones ^ (planes[u] | planes[v])) << 7
                                  for v in range(u + 1, n))
                            for u in range(n))


def _squares_hold(table: bytes, n: int) -> bool:
    """Whether t(X+u+v) + t(X) >= t(X+u) + t(X+v) for every X and u != v
    outside X, which on the subset lattice is supermodularity over all pairs
    (Topkis, Oper. Res. 26, 1978; Lovász 1983).

    The lanes of table are read as one integer t, and pad holds 128 in
    each lane. Per u, m = (t shifted down 2^u lanes) + pad - t holds
    t(X+u) - t(X) + 128 in each lane X without u; per v > u,
    (m shifted down 2^v lanes) + pad - m holds m(X+v) - m(X) + 128, which
    has its 0x80 bit set in a lane X without u and v iff the square at X
    holds. A lane of a graph's table holds 0..2n, and the caller sees to
    0..63, so each lane of m, and each lane of the second sum below its top
    2^v, stays in 0..255. Those top lanes, where the shift reads past m, can
    fall below 0, but they all hold v, and a borrow runs only upward.
    """
    pad, masks = _square_masks(n)
    t = int.from_bytes(table, "little")
    for u, row in enumerate(masks):
        m = (t >> (8 << u)) + pad - t
        rest = pad - m
        for v, valid in enumerate(row, u + 1):
            if ((m >> (8 << v)) + rest) & valid != valid:
                return False
    return True


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
    if not table.translate(None, _LANES_IN_RANGE) and (
            _squares_hold(table, n) if n <= LATTICE_MAX_N
            else _sample_holds(table, n)):
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
    # critical lanes hold d0 + n, found by byte searches; (a, b) fails iff
    # (b, a) does, and (a, a) holds, so b is scanned after a
    crit, m = [], -1
    for _ in range(table.count(lane)):
        m = table.index(lane, m + 1)
        crit.append(m)
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
    g = f.g
    samples = {f.ker()}
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
    # a limit reaches evaluate as a skip; only a disagreement of the two
    # conditions is a failure
    try:
        ok, wit = oracle.verify_ker_characterization(
            g, k, f.config.oracle_limit)
    except LimitExceeded:
        raise
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
            ok_other, _ = oracle.verify_ker_characterization(
                g, other, f.config.oracle_limit)
        except LimitExceeded:
            raise
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
    bad_mis = next((s for s in f._maximum_independent_sets()
                    if difference(g, s) != d0), None)
    all_critical = bad_mis is None
    via_critical = f.ke_via_critical()
    ok = recognized == all_critical == via_critical
    return ok, None if ok else {
        "alpha_plus_mu_route": recognized,
        "every_mis_critical": all_critical,
        "maximum_critical_route": via_critical,
        "non_critical_mis": None if bad_mis is None else f.labels(bad_mis)}


def _check_ke_identities(f: Facts) -> tuple[bool, dict | None]:
    f.require_oracle()
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
    out = 0
    for v in range(g.n):
        if g.degree(v) == 1 and g.degree(g.nbrs[v][0]) > 1:
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
    # no oracle guard, as before: one would change --no-oracle reports
    ok = f.ke_via_critical()
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
    if not 0 <= lo <= hi:
        raise ValueError(f"random source needs 0 <= lo <= hi, got n = "
                         f"[{lo}, {hi}]")
    if not 0 <= p <= 1:  # NaN fails both comparisons
        raise ValueError(f"random source needs 0 <= p <= 1, got p = {p}")
    if count < 0:
        raise ValueError(f"random source needs count >= 0, got {count}")
    return CorpusSpec((CorpusSource("random", (lo, hi, p, count, seed)),))


def files_corpus(paths: list[str]) -> CorpusSpec:
    return CorpusSpec((CorpusSource("files", tuple(paths)),))


# the fields each kind of corpus source takes besides "kind"
_SOURCE_FIELDS = {"fixtures": (), "exhaustive": ("n",),
                  "random": ("n", "p", "count", "seed"), "files": ("paths",)}


def _spec_int(kind: str, field: str, value) -> int:
    """An integer field of a corpus source. Anything but a JSON integer is
    refused: int() would truncate a float, read a bool as 0 or 1 and a
    numeric string as its number."""
    if type(value) is not int:
        raise ValueError(f"{kind} source needs an integer {field}, "
                         f"got {json.dumps(value)}")
    return value


def parse_corpus_spec(text: str) -> CorpusSpec:
    """Read the JSON corpus description used by the command line."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"corpus spec is not valid JSON: {exc}")
    if not isinstance(doc, dict) or not isinstance(doc.get("sources"), list):
        raise ValueError("corpus spec must be an object with a 'sources' list")
    sources = []
    for entry in doc["sources"]:
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ValueError(f"corpus source needs a 'kind': {entry!r}")
        kind = entry["kind"]
        fields = _SOURCE_FIELDS.get(kind) if isinstance(kind, str) else None
        if fields is None:
            raise ValueError(f"unknown corpus source kind {kind!r}")
        for key in entry:
            if key != "kind" and key not in fields:
                raise ValueError(
                    f"{kind} source has no field {json.dumps(key)}")
        try:
            if kind == "fixtures":
                sources.append(CorpusSource("fixtures", ()))
            elif kind == "exhaustive":
                n = _spec_int(kind, "n", entry["n"])
                if n > EXHAUSTIVE_MAX_N:
                    raise ValueError(f"exhaustive source supports n <= "
                                     f"{EXHAUSTIVE_MAX_N}, got {n}")
                sources.append(CorpusSource("exhaustive", (n,)))
            elif kind == "random":
                if not (isinstance(entry["n"], list) and len(entry["n"]) == 2):
                    raise ValueError(f"random source needs n = [lo, hi], "
                                     f"got {json.dumps(entry['n'])}")
                lo, hi = (_spec_int(kind, "n", v) for v in entry["n"])
                if type(entry["p"]) not in (int, float):
                    raise ValueError(f"random source needs a number p, "
                                     f"got {json.dumps(entry['p'])}")
                sources += random_corpus(
                    lo, hi, float(entry["p"]),
                    _spec_int(kind, "count", entry["count"]),
                    _spec_int(kind, "seed", entry["seed"])).sources
            else:
                paths = entry["paths"]
                if not isinstance(paths, list):
                    raise ValueError(
                        f"files source needs a list of paths, got {paths!r}")
                for path in paths:
                    if type(path) is not str:
                        raise ValueError(f"files source needs a path string "
                                         f"in paths, got {json.dumps(path)}")
                sources.append(CorpusSource("files", tuple(paths)))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad corpus source {entry!r}: {exc}")
    return CorpusSpec(tuple(sources))


def random_graph_at(lo: int, hi: int, p: float, seed: int, k: int) -> Graph:
    """Graph #k of a random corpus; the generator is keyed by (seed, k), so
    any single index is reproducible without replaying the stream."""
    rng = random.Random(seed * 1_000_003 + k)
    n = rng.randrange(lo, hi + 1)
    return random_graph(n, p, rng.getrandbits(32))


def _exhaustive_key(n: int, code: int) -> str:
    return f"exhaustive:n={n}:{code}"


def iter_graphs(spec: CorpusSpec) -> Iterator[tuple[str, Graph]]:
    for src in spec.sources:
        if src.kind == "fixtures":
            from . import fixtures
            for name in fixtures.fixture_names():
                yield f"fixture:{name}", fixtures.load(name).graph
        elif src.kind == "exhaustive":
            n = src.params[0]
            for code, g in enumerate(all_graphs(n)):
                yield _exhaustive_key(n, code), g
        elif src.kind == "random":
            lo, hi, p, count, seed = src.params
            for k in range(count):
                yield (f"random:seed={seed}:{k}",
                       random_graph_at(lo, hi, p, seed, k))
        elif src.kind == "files":
            for path in src.params:
                yield f"file:{path}", read_graph_file(path)
        else:
            raise ValueError(f"unknown corpus source kind {src.kind!r}")


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


# -- conjecture scan ---------------------------------------------------------

def _lower_slack(f: Facts) -> int:
    """2*alpha - |ker| - |diadem|; negative means a counterexample to the
    proved lower bound."""
    return 2 * f.alpha() - f.ker().bit_count() - f.diadem().bit_count()


def _upper_slack(f: Facts) -> int:
    """|core| + |corona| - 2*alpha, behind the oracle limit; negative means
    a counterexample to the proved upper bound."""
    p = f.mis_profile()
    return p.core.bit_count() + p.corona.bit_count() - 2 * p.alpha


def _graph_doc(g: Graph) -> dict:
    return {"n": g.n, "m": g.m,
            "edges": [[g.labels[u], g.labels[v]] for u, v in g.edge_pairs()]}


def _slacks(facts: Facts) -> tuple[int, int | None] | str:
    """The lower and upper slack of one graph, the upper one None past the
    oracle limit, or the reason the lower one was skipped."""
    try:
        lower = _lower_slack(facts)
    except LimitExceeded as exc:
        return str(exc)
    try:
        upper = _upper_slack(facts)
    except LimitExceeded:
        upper = None
    return lower, upper


@lru_cache(maxsize=None)
def _class_sizes(n: int) -> tuple[tuple[int, int], ...]:
    """(leader, size) of each isomorphism class of all_graphs(n), in
    increasing leader order, as a leader is the first code of its class.
    Kept per n (1,044 pairs at n = 7); the leader list is not."""
    return tuple(Counter(orbit_leaders(n)).items())


def _scan_slacks(corpus: CorpusSpec, config: Config
                 ) -> Iterator[tuple[str, int, int, Facts, tuple | str]]:
    """Key, order, count, facts and _slacks of the corpus graphs; count is
    how many corpus graphs the entry stands for.

    Both slacks and every limit are isomorphism invariants, as relabelling
    maps ker, diadem, core and corona onto those of the relabelled graph.
    So an exhaustive source evaluates the first graph of each isomorphism
    class and counts its outcome once for the whole class. A class whose
    outcome is a skip or a violation is evaluated again member by member, in
    code order, so each report entry names its own graph. The class sizes
    are kept per n; only that member pass builds the leader list again.
    """
    for src in corpus.sources:
        if src.kind != "exhaustive":
            for key, g in iter_graphs(CorpusSpec((src,))):
                facts = Facts(g, config)
                yield key, g.n, 1, facts, _slacks(facts)
            continue
        n = src.params[0]
        recheck = set()
        for leader, size in _class_sizes(n):
            facts = Facts(graph_from_code(n, leader), config)
            outcome = _slacks(facts)
            if type(outcome) is str or min(outcome[0], outcome[1] or 0) < 0:
                recheck.add(leader)
            else:
                yield _exhaustive_key(n, leader), n, size, facts, outcome
        if recheck:
            for code, leader in enumerate(orbit_leaders(n)):
                if leader in recheck:
                    facts = Facts(graph_from_code(n, code), config)
                    yield (_exhaustive_key(n, code), n, 1, facts,
                           _slacks(facts))


def conjecture_scan(corpus: CorpusSpec,
                    config: Config | None = None) -> dict:
    """Check |ker| + |diadem| <= 2*alpha <= |core| + |corona| per graph.

    T. Short proved the lower bound (Electron. J. Combin. 23(2) (2016),
    #P2.43), so a violation would be a fault in the library, not in the
    theory: the scan records the minimum slack per graph order and shrinks
    any violation it finds. Limit-exceeded graphs are listed, never dropped.
    Exhaustive sources evaluate one graph per isomorphism class.
    """
    config = config if config is not None else Config()
    per_n: dict[int, dict] = {}
    violations = []
    skipped = []
    graphs = checked = 0

    for key, n, count, facts, outcome in _scan_slacks(corpus, config):
        graphs += count
        if type(outcome) is str:
            skipped.append({"graph": key, "reason": outcome})
            continue
        lower, upper = outcome
        checked += count
        slot = per_n.setdefault(n, {"graphs": 0, "min_slack": None,
                                    "min_slack_upper": None})
        slot["graphs"] += count
        if slot["min_slack"] is None or lower < slot["min_slack"]:
            slot["min_slack"] = lower
        if upper is not None and (slot["min_slack_upper"] is None
                                  or upper < slot["min_slack_upper"]):
            slot["min_slack_upper"] = upper

        if lower < 0:
            g, a = facts.g, facts.alpha()
            small = shrink(g, lambda h: _lower_slack(Facts(h, config)) < 0)
            shrunk = Facts(small, config)
            violations.append({
                "graph": key, "kind": "ker-diadem", **_graph_doc(g),
                "ker": g.label_list(facts.ker()),
                "diadem": g.label_list(facts.diadem()),
                "alpha": a, "lhs": 2 * a - lower, "rhs": 2 * a,
                "shrunk": {**_graph_doc(small),
                           "lhs": 2 * shrunk.alpha() - _lower_slack(shrunk),
                           "rhs": 2 * shrunk.alpha()}})
        if upper is not None and upper < 0:
            g, a = facts.g, facts.alpha()
            small = shrink(g, lambda h: _upper_slack(Facts(h, config)) < 0)
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
