"""Names, units and directions of the benchmark's metrics.  BENCHMARK.json
lists the same names; this module imports nothing from bmlab."""

# (metric, unit, better): the end-to-end metrics of an untraced run
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("unit_p50_ms", "ms", "lower"),
    ("unit_p99_ms", "ms", "lower"),
]

CLAIM_IDS = (
    "2c3-proper-count", "allreps-2c3", "allreps-contracted-tube", "allreps-k4",
    "allreps-t2prime-splits", "allreps-tube-frame", "allreps-tube-lift", "base-count",
    "canonical-frame", "canonical-lift", "contraction-inequiv", "deltawye-gains",
    "deltawye-matroid", "inequivalence-localized", "lemma-2c3-frame",
    "lemma-2c3-frame-vs-lift", "lemma-2c3-lift", "lemma-k4-frame",
    "lemma-k4-frame-vs-lift", "lemma-k4-lift", "lemma-tube-frame", "lemma-tube-lift",
    "main2", "main3-roundtrip", "main4-samples", "rollup-frame", "seven-dwarves",
    "subdivision-classes", "tangled-minor", "tangled-no-extend", "tangled-subgraph",
    "tube-count", "u2-criterion", "u3-lift-criterion", "unique-balancing-subdivision",
)

SUBCOMMANDS = (
    "classify", "check-theta", "rank", "bias", "matrix", "switch-equiv", "proj-equiv",
    "canonicalize", "enumerate-reps", "minor", "deltawye", "wyedelta", "rollup", "unroll",
)

LAYERS = ("catalog", "graph", "bias", "gains", "matroid", "linalg", "canonical",
          "cli", "formats")

# (metric, unit, better) reported by every traced run, from the trace.  The
# answer counts (graphs, orbits) and the layer shares are printed by the
# traced run too, but not as metrics: a count fixed by expected.json, or a
# share of a wall that the shares add up to, has no better direction.
TRACE_METRICS = [
    ("catalog.multigraphs_up_to_iso.self_s", "s", "lower"),
    ("catalog.bias_sets_up_to_aut.self_s", "s", "lower"),
    ("catalog.theta_closed_subsets.self_s", "s", "lower"),
    ("catalog.theta_closed_subsets.kept_ratio", "ratio", "higher"),
    ("catalog.tangled_family.self_s", "s", "lower"),
    ("catalog.named.self_s", "s", "lower"),
    ("graph.cycles.calls", "count", "lower"),
    ("graph.cycles.self_s", "s", "lower"),
    ("graph.cycles.memo_ratio", "ratio", "higher"),
    ("graph.minor.calls", "count", "lower"),
    ("graph.minor.self_s", "s", "lower"),
    ("graph.iter_subdivisions.self_s", "s", "lower"),
    ("graph.iter_subdivisions.embeddings", "count", "lower"),
    ("graph.graph_isomorphisms.self_s", "s", "lower"),
    ("graph.edge_bijections.self_s", "s", "lower"),
    ("graph.is_vertically_k_connected.self_s", "s", "lower"),
    ("bias.BiasedGraph.calls", "count", "lower"),
    ("bias.check_theta_property.calls", "count", "lower"),
    ("bias.check_theta_property.self_s", "s", "lower"),
    ("bias.theta_subgraphs.self_s", "s", "lower"),
    ("bias.biased_minor.calls", "count", "lower"),
    ("bias.biased_minor.self_s", "s", "lower"),
    ("bias.find_link_minor.calls", "count", "lower"),
    ("bias.find_link_minor.self_s", "s", "lower"),
    ("bias.find_link_minor.found_ratio", "ratio", "higher"),
    ("bias.biased_isomorphisms.calls", "count", "lower"),
    ("bias.biased_isomorphisms.self_s", "s", "lower"),
    ("bias.find_biased_subdivision.calls", "count", "lower"),
    ("bias.find_biased_subdivision.self_s", "s", "lower"),
    ("bias.find_biased_subdivision.found_ratio", "ratio", "higher"),
    ("bias.is_tangled.self_s", "s", "lower"),
    ("gains.realizations.self_s", "s", "lower"),
    ("gains.switching_equivalent.calls", "count", "lower"),
    ("gains.switching_equivalent.self_s", "s", "lower"),
    ("gains.induced_gain.calls", "count", "lower"),
    ("gains.induced_gain.self_s", "s", "lower"),
    ("gains.induced_bias.self_s", "s", "lower"),
    ("matroid.MatroidOracle.calls", "count", "lower"),
    ("matroid.rank_mask.calls", "count", "lower"),
    ("matroid.rank_mask.hit_ratio", "ratio", "higher"),
    ("matroid.rank_eval.calls", "count", "lower"),
    ("matroid.rank_eval.self_s", "s", "lower"),
    ("matroid.matroids_equal.calls", "count", "lower"),
    ("matroid.matroids_equal.self_s", "s", "lower"),
    ("linalg.rank_of_columns.calls", "count", "lower"),
    ("linalg.rank_of_columns.self_s", "s", "lower"),
    ("linalg.all_column_ranks.calls", "count", "lower"),
    ("linalg.all_column_ranks.self_s", "s", "lower"),
    ("linalg.rref.calls", "count", "lower"),
    ("linalg.rref.self_s", "s", "lower"),
    ("linalg.projective_key.calls", "count", "lower"),
    ("linalg.projective_key.self_s", "s", "lower"),
    ("linalg.projectively_equivalent.self_s", "s", "lower"),
    ("canonical.enumerate_representations.calls", "count", "lower"),
    ("canonical.enumerate_representations.self_s", "s", "lower"),
    ("canonical.enumerate_representations.match_ratio", "ratio", "higher"),
    ("canonical.canonicalize_representation.calls", "count", "lower"),
    ("canonical.canonicalize_representation.self_s", "s", "lower"),
    ("canonical.canonicalize_representation.ok_ratio", "ratio", "higher"),
    ("canonical.matrices.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("formats.parse.self_s", "s", "lower"),
    ("formats.emit.self_s", "s", "lower"),
]


def per_layer():
    """(metric, unit, better) of a traced run, in the order printed."""
    return (
        TRACE_METRICS
        + [("verify.%s.s" % c, "s", "lower") for c in CLAIM_IDS]
        + [("cli.%s.p50_ms" % s, "ms", "lower") for s in SUBCOMMANDS]
        + [("trace.overhead_ratio", "ratio", "lower")]
    )
