"""Per-layer metrics from a span file written by tracer.Tracer.

Suffixes: `.calls` (calls, or generators created), `.ms` (inclusive time; a
span inside a span of the same name is not counted twice), `.self_ms` (span
time minus the time of the traced spans directly inside it), `.vertices` (sum
of n over calls), `.yielded` (items produced by a generator).
"""

from __future__ import annotations

# (span name, suffixes) in the order the metrics are reported
LAYER_METRICS = (
    ("graphs.parse_graph", ("calls", "self_ms")),
    ("graphs.delete_vertices", ("calls", "self_ms")),
    ("graphs.bipartition", ("calls", "self_ms")),
    ("critical.double_cover", ("calls", "self_ms")),
    ("critical.critical_difference", ("calls", "self_ms", "vertices")),
    ("critical.critical_independent_witness", ("self_ms",)),
    ("critical.ker", ("calls", "ms")),
    ("critical.diadem", ("calls", "ms")),
    ("critical.enumerate_critical_independent_sets", ("self_ms", "yielded")),
    ("critical.minimal_positive_independent_sets", ("self_ms",)),
    ("critical.verify_ker_characterization", ("self_ms",)),
    ("matching.maximum_matching_general", ("calls", "self_ms", "vertices")),
    ("matching.maximum_matching_bipartite", ("calls", "self_ms")),
    ("matching.saturating_matching", ("calls", "self_ms")),
    ("mis.alpha", ("calls", "self_ms")),
    ("mis.enumerate_maximum_independent_sets", ("self_ms", "yielded")),
    ("mis.core_and_corona", ("calls", "self_ms")),
    ("mis.maximum_critical_independent_set", ("self_ms",)),
    ("ore.delta0", ("calls", "self_ms")),
    ("ore.side_kernel", ("ms",)),
    ("ore.side_diadem", ("ms",)),
    ("ore.enumerate_side_critical_sets", ("self_ms",)),
    ("ke.is_koenig_egervary", ("self_ms",)),
    ("ke.is_ke_via_critical", ("self_ms",)),
    ("ke.ke_identities", ("ms",)),
    ("props.evaluate", ("calls",)),
    ("props.facts.tables", ("self_ms",)),
    ("props.iter_graphs", ("self_ms",)),
    ("cli.main", ("self_ms",)),
    ("cli.analyze_graph", ("ms",)),
)

# every registry property, as the seed's registry names them
PROPERTIES = (
    "zhang.d_eq_id", "th4.supermodular",
    "th4.critical_closed_union_intersection",
    "th4.unique_minimal_critical_independent", "diadem.critical",
    "cor2.ke_core_corona_critical", "core.inside_maximal_critical_independent",
    "corona.covers_maximal_critical_independent", "deletion.d_drop_iff_ker",
    "th2.matching_from_neighborhood", "th9.ker_characterization",
    "th1.ker_union_of_minimal_positive", "prop3.minimal_positive_difference_one",
    "minsize.positive_bound", "th6.ker_subset_core", "cor1.d_ge_alpha_minus_mu",
    "th10.bipartite_ker_eq_core", "ke.matching_structure",
    "th8.ke_difference_identities", "th5.ke_iff_every_mis_critical",
    "th11.ke_identities", "ore.kernel_separation", "bipartite.kernel_split",
    "core_corona.lower_bound", "pendant.in_diadem", "ke.is_ke",
)

OVERHEAD = "bench.trace_overhead_frac"

UNITS = {"calls": "count", "vertices": "count", "yielded": "count",
         "ms": "ms", "self_ms": "ms"}


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for span, suffixes in LAYER_METRICS:
        out += [(f"{span}.{s}", UNITS[s], "lower") for s in suffixes]
    out += [(f"props.prop.{p}.ms", "ms", "lower") for p in PROPERTIES]
    out += [("props.facts.hit_ratio", "frac", "higher"),
            ("props.facts.lookups", "count", "lower"),
            ("props.skips.limit", "count", "lower"),
            ("props.skips.applicability", "count", "lower"),
            (OVERHEAD, "frac", "lower")]
    return out


def aggregate(spans: dict) -> dict[str, dict[str, float]]:
    """Per span name: calls, ms, self_ms, vertices, yielded."""
    names = spans["names"]
    name, start, end, parent = (spans["name"], spans["start"], spans["end"],
                                spans["parent"])
    nested = spans["nested"]
    count = len(start)
    child = [0.0] * count
    for i in range(count):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    out = {nm: {"calls": spans["calls"][k], "vertices": spans["vertices"][k],
                "yielded": spans["yielded"][k], "ms": 0.0, "self_ms": 0.0}
           for k, nm in enumerate(names)}
    for i in range(count):
        slot = out[names[name[i]]]
        dur = end[i] - start[i]
        slot["self_ms"] += (dur - child[i]) * 1e3
        if not nested[i]:
            slot["ms"] += dur * 1e3
    return out


def per_layer(spans: dict, overhead_frac: float) -> dict[str, dict]:
    """Every metric of metric_specs(), 0 for layers the workload never reached."""
    agg = aggregate(spans)
    counters = spans["counters"]
    lookups = counters.get("facts.lookups", 0)
    values = {
        "props.facts.hit_ratio":
            counters.get("facts.hits", 0) / lookups if lookups else 0.0,
        "props.facts.lookups": lookups,
        "props.skips.limit": counters.get("skips.limit", 0),
        "props.skips.applicability": counters.get("skips.applicability", 0),
        OVERHEAD: overhead_frac,
    }
    out = {}
    for metric, unit, _ in metric_specs():
        if metric in values:
            value = values[metric]
        else:
            span, suffix = metric.rsplit(".", 1)
            value = agg.get(span, {}).get(suffix, 0)
        out[metric] = {"value": value, "unit": unit}
    return out
