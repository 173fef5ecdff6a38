"""Mutants on record: each row breaks src/ in one place, and the tests it
names must then fail.

A row gives the file under src/bmlab, the exact old text (it must occur
exactly once there, which tests/test_mutants.py checks), the replacement
and the pytest ids that must fail.  Check every row, or only some, with

    python tests/mutants.py            # every row
    python tests/mutants.py 0 2        # rows 0 and 2

from the repository root.  Each row is applied to a fresh copy of src/ in
a temporary directory, only its named tests run against that copy, and
the runner lists every named test that still passes: the mutant survived
it.  A name with parameters, test_x[a], counts as failed only when that
case fails; a bare test_x when any of its cases does.  The exit status
is 1 when any mutant survives or a row cannot run.  A mutant that runs
away is stopped by a memory limit (its test then fails with MemoryError)
or by a timeout, and both count as caught.  The full run takes minutes,
so it is not part of the test suite.  A change that claims "a mutant
fails test X" adds its row here.
"""

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

Mutant = namedtuple("Mutant", "file old new tests")

MUTANTS = [
    # the choice rule with its 1 and 2 swapped: a theta with one balanced
    # lower cycle forbids unbalanced, one with two forbids balanced
    Mutant(
        "catalog.py",
        "for bit, bad in ((1 << i, 1), (0, 2))",
        "for bit, bad in ((1 << i, 2), (0, 1))",
        ["tests/test_catalog.py::test_theta_closed_subsets_matches_oracle_on_small_graphs",
         "tests/test_catalog.py::test_theta_closed_subsets_matches_oracle_on_catalog_pools",
         "tests/test_catalog.py::test_theta_closed_subsets_matches_the_per_node_theta_test",
         "tests/test_catalog.py::test_seven_dwarves"],
    ),
    # the sort key without popcount: masks by value, not by size
    Mutant(
        "catalog.py",
        "found.sort(key=int.bit_count)",
        "found.sort()",
        ["tests/test_catalog.py::test_theta_closed_subsets_matches_oracle_on_small_graphs",
         "tests/test_catalog.py::test_classifiers_return_the_pairwise_iso_classes_in_order"],
    ),
    # unbalanced before balanced: each size's masks in reverse order
    Mutant(
        "catalog.py",
        "for bit, bad in ((1 << i, 1), (0, 2))",
        "for bit, bad in ((0, 2), (1 << i, 1))",
        ["tests/test_catalog.py::test_theta_closed_subsets_matches_oracle_on_small_graphs",
         "tests/test_catalog.py::test_theta_closed_subsets_matches_the_per_node_theta_test",
         "tests/test_catalog.py::test_classifiers_return_the_pairwise_iso_classes_in_order"],
    ),
    # an orbit loop that never marks its images seen runs away
    Mutant(
        "catalog.py",
        "                    seen.add(img)\n",
        "",
        ["tests/test_catalog.py::test_bias_sets_up_to_aut_matches_every_automorphism_oracle"],
    ),
    # a byte table that drops the generator's image of the byte's top cycle
    Mutant(
        "catalog.py",
        "tables[i >> 3] += [x | bit for x in tables[i >> 3]]",
        "tables[i >> 3] += [x | bit * (i % 8 < 7) for x in tables[i >> 3]]",
        ["tests/test_catalog.py::test_bias_sets_up_to_aut_matches_every_automorphism_oracle"],
    ),
    # the tangled family keeps every bias set: is_tangled's (flag, witness)
    # pair is always true
    Mutant(
        "catalog.py",
        "return is_tangled(om)[0]",
        "return is_tangled(om)",
        ["tests/test_catalog.py::test_tangled_family_small",
         "tests/test_catalog.py::test_tangled_family_caches_only_a_complete_build"],
    ),
    # every tangled family stays cached
    Mutant(
        "catalog.py",
        "@functools.lru_cache(maxsize=1)\ndef _tangled_family",
        "@functools.lru_cache(maxsize=None)\ndef _tangled_family",
        ["tests/test_catalog.py::test_tangled_family_caches_only_the_latest_bounds",
         "tests/test_caches.py::test_every_unbounded_cache_has_a_finite_key_space"],
    ),
    # properly_unbalanced also takes the almost balanced graphs, so
    # inequivalence-localized checks them too
    Mutant(
        "catalog.py",
        "return classify_balance(om).tag == PROPERLY_UNBALANCED",
        'return classify_balance(om).tag != "balanced"',
        ["tests/test_verify.py::test_inequivalence_localized_negative_control_claim",
         "tests/test_perfbench.py::test_benchmark_claims_report_their_recorded_counts"],
    ),
    # the frame step lets a link join two unbalanced components
    Mutant(
        "matroid.py",
        "if frame and unbal >> a & unbal >> b & 1:",
        "if frame and unbal >> a & unbal >> b & 0:",
        ["tests/test_matroid.py::test_independence_step_agrees_with_rank_on_every_chain",
         "tests/test_matroid.py::test_bases_rule_matches_the_subset_scan",
         "tests/test_matroid.py::test_step_ranks_match_the_rank_formulas_on_every_subset"],
    ),
    # unrolling unbalances every loop (loopless sweeps alone let it through)
    Mutant(
        "bias.py",
        "lambda c: c in omega.balanced if len(c) == 1",
        "lambda c: False if len(c) == 1",
        ["tests/test_bias.py::test_edits_match_their_by_hand_rebuilds"],
    ),
    # the bias stage tries only the first vertex isomorphism of a pair
    Mutant(
        "bias.py",
        "for iso in ((perm, em) for perm in isos for em",
        "for iso in ((perm, em) for perm in isos[:1] for em",
        ["tests/test_bias.py::test_link_minors_recipe_for_recipe",
         "tests/test_bias.py::test_find_link_minor_matches_parent_loop"],
    ),
    # the bias stage skips the balanced-image length test
    Mutant(
        "bias.py",
        "if sorted(map(len, images)) != lengths:",
        "if sorted(map(len, images)) != lengths and False:",
        ["tests/test_bias.py::test_link_minors_builds_only_pairs_with_the_vertex_count"],
    ),
    # Delta-Y glues the first two star columns onto each other's edges
    Mutant(
        "canonical.py",
        "star = {idx[0]: f.scale(beta, b),\n            idx[1]:",
        "star = {idx[1]: f.scale(beta, b),\n            idx[0]:",
        ["tests/test_canonical.py::test_delta_y_matrix_matches_the_template_construction",
         "tests/test_canonical.py::test_y_delta_matrix_matches_the_direct_construction"],
    ),
    # Delta-Y with -alpha replaced by alpha (the same in characteristic 2)
    Mutant(
        "canonical.py",
        "idx[1]: f.scale(f.neg(alpha), a),",
        "idx[1]: f.scale(alpha, a),",
        ["tests/test_canonical.py::test_delta_y_matrix_matches_the_template_construction",
         "tests/test_canonical.py::test_y_delta_matrix_matches_the_direct_construction"],
    ),
    # host paths may pass through branch vertices: they start unblocked
    Mutant(
        "graph.py",
        "yield from assign_edges(0, vmap, frozenset(), used)",
        "yield from assign_edges(0, vmap, frozenset(), frozenset())",
        ["tests/test_bias.py::test_iter_subdivisions_matches_the_two_generator_search"],
    ),
    # a placed path's edges stay free for the later paths
    Mutant(
        "graph.py",
        "yield from assign_edges(e + 1, vmap, used.union(path), inner)",
        "yield from assign_edges(e + 1, vmap, used, inner)",
        ["tests/test_bias.py::test_iter_subdivisions_matches_the_two_generator_search"],
    ),
    # link_minors searches hosts above its bound
    Mutant(
        "bias.py",
        "if g.n > LINK_MINOR_BOUND[0] or g.m > LINK_MINOR_BOUND[1]:",
        "if False:",
        ["tests/test_bias.py::test_link_minors_checks_its_bound_at_the_first_step"],
    ),
    # the projection key misses a theta's second lower cycle, so masks that
    # differ there share one memoised choice
    Mutant(
        "catalog.py",
        "rel[c] |= 1 << a | 1 << b",
        "rel[c] |= 1 << a",
        ["tests/test_catalog.py::test_theta_closed_subsets_matches_oracle_on_small_graphs",
         "tests/test_catalog.py::test_theta_closed_subsets_matches_the_per_node_theta_test"],
    ),
    # classify_balance tests balancing vertices on the loops too
    Mutant(
        "bias.py",
        "    unb &= masks.links\n",
        "",
        ["tests/test_bias.py::test_balance_and_tangledness_match_the_span_oracles"],
    ),
    # is_tangled takes a pair with one unbalanced cycle as its witness
    Mutant(
        "bias.py",
        "if unb & d == d:",
        "if unb & d:",
        ["tests/test_bias.py::test_balance_and_tangledness_match_the_span_oracles",
         "tests/test_verify.py::test_tube_minor_property_sampled"],
    ),
    # the cycle-count cut rejects a host with exactly the pattern's counts
    Mutant(
        "bias.py",
        "return all(len(h) >= len(p) and all(a >= b for a, b in zip(h, p))",
        "return all(len(h) > len(p) and all(a >= b for a, b in zip(h, p))",
        ["tests/test_bias.py::test_subdivision_cuts_reject_only_fruitless_searches",
         "tests/test_bias.py::test_link_minor_cut_rejects_only_fruitless_searches",
         "tests/test_bias.py::test_find_biased_subdivision_b0_in_itself",
         "tests/test_bias.py::test_find_link_minor_identity"],
    ),
    # the cycle-count cut rejects nothing
    Mutant(
        "bias.py",
        "    return all(len(h) >= len(p) and all(a >= b for a, b in zip(h, p))\n"
        "               for h, p in zip(_cycle_lengths(omega), _cycle_lengths(pattern)))\n",
        "    return True\n",
        ["tests/test_bias.py::test_subdivision_cuts_reject_only_fruitless_searches",
         "tests/test_bias.py::test_link_minor_cut_rejects_only_fruitless_searches"],
    ),
    # the cycle cut compares counts only, not lengths
    Mutant(
        "bias.py",
        " and all(a >= b for a, b in zip(h, p))",
        "",
        ["tests/test_bias.py::test_subdivision_cuts_reject_only_fruitless_searches",
         "tests/test_bias.py::test_link_minor_cut_rejects_only_fruitless_searches"],
    ),
    # the cycle lengths compared shortest first
    Mutant(
        "bias.py",
        "return [sorted(ls, reverse=True) for ls in lengths]",
        "return [sorted(ls) for ls in lengths]",
        ["tests/test_bias.py::test_subdivision_cuts_reject_only_fruitless_searches",
         "tests/test_bias.py::test_link_minor_cut_rejects_only_fruitless_searches"],
    ),
    # the degree cut compares the degrees smallest first
    Mutant(
        "graph.py",
        "zip(sorted(host_degree, reverse=True),\n"
        "                                      sorted(pattern_degree, reverse=True))",
        "zip(sorted(host_degree),\n"
        "                                      sorted(pattern_degree))",
        ["tests/test_bias.py::test_subdivision_cuts_reject_only_fruitless_searches",
         "tests/test_bias.py::test_iter_subdivisions_matches_the_two_generator_search"],
    ),
    # the degree cut rejects nothing
    Mutant(
        "graph.py",
        "if not all(h >= p for h, p in zip(sorted(host_degree, reverse=True),",
        "if not all(True for h, p in zip(sorted(host_degree, reverse=True),",
        ["tests/test_bias.py::test_subdivision_cuts_reject_only_fruitless_searches"],
    ),
    # the subdivision cycle-count cut ahead of the search's argument checks
    Mutant(
        "bias.py",
        "    check_subdivision_args(omega.graph, pattern.graph)\n"
        "    if not _holds_cycles(omega, pattern):\n"
        "        return None\n",
        "    if not _holds_cycles(omega, pattern):\n"
        "        return None\n"
        "    check_subdivision_args(omega.graph, pattern.graph)\n",
        ["tests/test_bias.py::test_cuts_come_after_the_argument_checks"],
    ),
    # the link-minor cycle-count cut ahead of the bound check
    Mutant(
        "bias.py",
        "    g = omega.graph\n    if g.n > LINK_MINOR_BOUND[0]",
        "    g = omega.graph\n    if not _holds_cycles(omega, pattern):\n        return\n"
        "    if g.n > LINK_MINOR_BOUND[0]",
        ["tests/test_bias.py::test_link_minors_checks_its_bound_at_the_first_step",
         "tests/test_bias.py::test_cuts_come_after_the_argument_checks"],
    ),
    # the cycle-count cut enumerates a pattern with more edges than the host
    Mutant(
        "bias.py",
        "    if pattern.graph.m > omega.graph.m:\n        return False\n",
        "",
        ["tests/test_bias.py::test_cuts_come_after_the_argument_checks"],
    ),
    # the catalog lookup matches on the first three characters of a name,
    # so T_2' finds T_2
    Mutant(
        "catalog.py",
        "if nb.name == name:",
        "if nb.name[:3] == name[:3]:",
        ["tests/test_catalog.py::test_t2_split_by_delta_image",
         "tests/test_catalog.py::test_named_graphs_lists_every_family_once_in_table_order"],
    ),
    # the T_2 / T_2' split swapped
    Mutant(
        "catalog.py",
        """return "T_2'" if biased_isomorphic(img, dwarf("D_{1,0}").omega) else "T_2"\n""",
        """return "T_2" if biased_isomorphic(img, dwarf("D_{1,0}").omega) else "T_2'"\n""",
        ["tests/test_catalog.py::test_t2_split_by_delta_image",
         "tests/test_catalog.py::test_t2_prime_splits"],
    ),
    # a family keeps the search order instead of the name order
    Mutant(
        "catalog.py",
        "key=lambda nb: nb.name)",
        "key=lambda nb: 0)",
        ["tests/test_catalog.py::test_seven_dwarves"],
    ),
    # tangled_family bypasses its cache
    Mutant(
        "catalog.py",
        "return _tangled_family(max_vertices, max_edges)",
        "return _tangled_family.__wrapped__(max_vertices, max_edges)",
        ["tests/test_catalog.py::test_tangled_family_caches_only_the_latest_bounds",
         "tests/test_catalog.py::test_tangled_family_cache_is_keyed_by_the_bound_values"],
    ),
    # the catalog table leaves out the contracted tubes
    Mutant(
        "catalog.py",
        "    yield from contracted_tubes()\n",
        "",
        ["tests/test_catalog.py::test_named_graphs_lists_every_family_once_in_table_order",
         "tests/test_cli.py::test_catalog_all_json"],
    ),
    # the contracted tubes contract a doubled link
    Mutant(
        "catalog.py",
        "if len(es) == 1)",
        "if len(es) == 2)",
        ["tests/test_catalog.py::test_contracted_tubes_shape"],
    ),
    # an unknown catalog name exits as a negative answer
    Mutant(
        "cli.py",
        "        return EXIT_USAGE\n    text = formats.emit_biased_graph(nb.omega)",
        "        return EXIT_FAIL\n    text = formats.emit_biased_graph(nb.omega)",
        ["tests/test_cli.py::test_catalog_unknown_name_is_a_usage_error"],
    ),
    # biased_family keeps every graph, whatever graph_ok says
    Mutant(
        "catalog.py",
        "if graph_ok is None or graph_ok(g):",
        "if True:",
        ["tests/test_catalog.py::test_tangled_family_caches_only_a_complete_build",
         "tests/test_catalog.py::test_family_members_keep_their_order",
         "tests/test_verify.py::test_localization_certificate_matches_parent"],
    ),
    # the lift key without the division by the first nonzero gain: scalar
    # multiples get keys of their own, so orbits split
    Mutant(
        "canonical.py",
        "return tuple(group.scale(group.field.inv(lead), x) for x in gains)",
        "return tuple(gains)",
        ["tests/test_canonical.py::test_lift_gain_classes_match_the_scaling_orbits_oracle",
         "tests/test_canonical.py::test_enumerate_counts_match_gain_classes",
         "tests/test_canonical.py::test_enumerating_claims_stay_far_inside_the_work_bound",
         "tests/test_acceptance.py::test_criterion_3_biconditionals"],
    ),
    # the lift key divides by the gain of edge 0 (when it is nonzero): the
    # classes then depend on how the edges are numbered
    Mutant(
        "canonical.py",
        "lead = next((x for x in gains if x != group.identity), group.field.one)",
        "lead = next(iter(gains)) or group.field.one",
        ["tests/test_invariance.py::test_balance_and_gain_class_counts_survive_a_relabelling",
         "tests/test_canonical.py::test_lift_gain_classes_match_the_scaling_orbits_oracle"],
    ),
    # the scaling witness reads the scalar as n1 / n2 instead of n2 / n1
    Mutant(
        "gains.py",
        "group.field.div(n2.gains[lead], n1.gains[lead])",
        "group.field.div(n1.gains[lead], n2.gains[lead])",
        ["tests/test_gains.py::test_switching_scaling_matches_the_per_scalar_oracle",
         "tests/test_gains.py::test_scaling_equivalence_trivial",
         "tests/test_cli.py::test_switch_equiv_scaling"],
    ),
    # the zero function's scalar is the last one, not the first
    Mutant(
        "gains.py",
        "a = group.scalars[0] if lead is None",
        "a = group.scalars[-1] if lead is None",
        ["tests/test_gains.py::test_switching_scaling_matches_the_per_scalar_oracle"],
    ),
    # the forest walk roots each component at its greatest vertex: eta
    # changes, the normal forms do not
    Mutant(
        "gains.py",
        "    for root in range(graph.n):\n",
        "    for root in reversed(range(graph.n)):\n",
        ["tests/test_gains.py::test_normalize_and_switching_match_the_dfs_reference"],
    ),
    # the potential steps by the inverse gain, so the forest keeps its gains
    Mutant(
        "gains.py",
        "eta[w] = group.op(gg.gain(step), eta[x])",
        "eta[w] = group.op(group.inv(gg.gain(step)), eta[x])",
        ["tests/test_gains.py::test_normalize_path",
         "tests/test_gains.py::test_normalize_and_switching_match_the_dfs_reference"],
    ),
    # the scaling witness switches by eta1 instead of a . eta1 (the same
    # when gg1 is normalized, as every gg1 of the per-scalar test is)
    Mutant(
        "gains.py",
        "group.op(group.scale(a, x), group.inv(eta2[v]))",
        "group.op(x, group.inv(eta2[v]))",
        ["tests/test_gains.py::test_normalize_and_switching_match_the_dfs_reference"],
    ),
    # a keyed class marks only the leaf's own vector seen: every other
    # degree-sorted vector of the class is keyed again and listed again
    Mutant(
        "catalog.py",
        "seen.update(get(mult) for get in within_classes())",
        "seen.add(own(mult))",
        ["tests/test_catalog.py::test_multigraph_generation_keys_degree_sorted_vectors_only",
         "tests/test_catalog.py::test_multigraph_classes_match_the_burnside_count",
         "tests/test_catalog.py::test_multigraphs_match_degree_class_oracle",
         "tests/test_catalog.py::test_multigraphs_keep_their_labels_and_order"],
    ),
    # the seen vectors from one order per degree class, not every order
    # within it: classes come out more than once
    Mutant(
        "catalog.py",
        "blocks = [permutations(c) for _, c in groupby(range(nv)",
        "blocks = [[tuple(c)] for _, c in groupby(range(nv)",
        ["tests/test_catalog.py::test_multigraph_classes_match_the_burnside_count",
         "tests/test_catalog.py::test_multigraphs_match_degree_class_oracle",
         "tests/test_catalog.py::test_multigraphs_match_full_scan_oracle"],
    ),
    # the ordering key over the identity relabeling only: the same classes
    # in the order of their first degree-sorted vectors
    Mutant(
        "catalog.py",
        "found.append((min([get(mult) for get in relabel.values()]), g))",
        "found.append((own(mult), g))",
        ["tests/test_catalog.py::test_multigraphs_match_degree_class_oracle",
         "tests/test_catalog.py::test_multigraphs_match_full_scan_oracle",
         "tests/test_catalog.py::test_multigraphs_keep_their_labels_and_order"],
    ),
    # the degree-deficit cut counts each edge left as one missing degree,
    # not two: it drops classes whose last edges cover two vertices each
    Mutant(
        "catalog.py",
        "if short > 2 * left:",
        "if short > left:",
        ["tests/test_catalog.py::test_multigraph_classes_match_the_burnside_count",
         "tests/test_catalog.py::test_multigraphs_match_degree_class_oracle",
         "tests/test_catalog.py::test_multigraphs_keep_their_labels_and_order"],
    ),
    # a shared build serves smaller bounds filtered by edges only, so it
    # hands back graphs with too many vertices
    Mutant(
        "catalog.py",
        "return [g for g in graphs if g.n <= max_vertices and g.m <= max_edges]",
        "return [g for g in graphs if g.m <= max_edges]",
        ["tests/test_catalog.py::test_shared_multigraph_build_serves_every_bound_it_covers"],
    ),
    # automorphism edge maps that ignore the vertex map: every class maps
    # onto itself
    Mutant(
        "catalog.py",
        "            a, b = perm[u], perm[v]\n",
        "            a, b = u, v\n",
        ["tests/test_catalog.py::test_automorphism_generators_match_the_edge_bijection_oracle",
         "tests/test_catalog.py::test_automorphism_generators_generate_every_automorphism"],
    ),
    # the isomorphism backtrack checks a new vertex against every vertex
    # placed before it except the last two (skipping only the last one
    # changes no answer: once every other pair at a vertex agrees, its
    # adjacency profile forces the one left)
    Mutant(
        "graph.py",
        "if all(row[u] == image[perm[u]] for u in range(v)):",
        "if all(row[u] == image[perm[u]] for u in range(v - 2)):",
        ["tests/test_graph.py::test_graph_isomorphisms_match_the_permutation_filter"],
    ),
    # the row kernel multiplies y where it should multiply x: c*y + y
    Mutant(
        "fields.py",
        "return [add[mc[x]][y] for x, y in zip(xs, ys)]",
        "return [add[mc[y]][y] for x, y in zip(xs, ys)]",
        ["tests/test_linalg.py::test_row_kernels_match_the_entry_operations",
         "tests/test_linalg.py::test_rref_and_products_match_the_entry_oracles_on_every_small_matrix",
         "tests/test_linalg.py::test_rref_and_products_match_the_entry_oracles_on_seeded_matrices"],
    ),
    # rref leaves the pivot row unscaled, so pivots need not be 1 and the
    # other rows are reduced by the wrong multiple (no change over GF(2))
    Mutant(
        "linalg.py",
        "prow = rows[pr] = f.scale(f.inv(rows[pr][col]), rows[pr])",
        "prow = rows[pr]",
        ["tests/test_linalg.py::test_rref_and_products_match_the_entry_oracles_on_every_small_matrix",
         "tests/test_linalg.py::test_rref_and_products_match_the_entry_oracles_on_seeded_matrices"],
    ),
    # a vector-matroid pivot kept unscaled: reducing by it leaves its lead
    # entry standing, so spanned columns count as new pivots
    Mutant(
        "linalg.py",
        "return lead, f.scale(f.inv(x), vec)",
        "return lead, vec",
        ["tests/test_linalg.py::test_rref_and_products_match_the_entry_oracles_on_every_small_matrix",
         "tests/test_linalg.py::test_rref_and_products_match_the_entry_oracles_on_seeded_matrices"],
    ),
    # the vertical-connectivity memo keyed without k: every k gets the
    # first k's answer
    Mutant(
        "graph.py",
        "    @kept\n    def is_vertically_k_connected(self, k):\n",
        "    @lambda build: lambda self, k: self._kept.setdefault(build, build(self, k))\n"
        "    def is_vertically_k_connected(self, k):\n",
        ["tests/test_graph.py::test_vertical_connectivity_memo_matches_a_fresh_graph",
         "tests/test_graph.py::test_vertical_connectivity_matches_the_parent_routine"],
    ),
    # the F = L deduction inverted: the other kind is matched exactly when
    # F(omega) != L(omega)
    Mutant(
        "canonical.py",
        "return [first, other] if same else [first]",
        "return [first] if same else [first, other]",
        ["tests/test_canonical.py::test_kinds_and_results_match_the_two_walk_match"],
    ),
    # the reachability memo keyed without the bias: a variant's graph under
    # another bias gets the first answer on that graph
    Mutant(
        "canonical.py",
        "    return _reachable(omega, variant.graph, variant.balanced)\n",
        "    return omega._kept.setdefault(\n"
        "        variant.graph, _reachable(omega, variant.graph, variant.balanced))\n",
        ["tests/test_canonical.py::test_roll_reachability_matches_fresh_unrollings"],
    ),
    # rank_table counting a dependent element: the rank grows below it as
    # if the step had accepted it.  _extension_exists still answers right
    # with it (every rank is then |S|, so no S cuts W and every vector of
    # the space is tried), so only the table test names it
    Mutant(
        "matroid.py",
        "        if grown is not None:\n"
        "            state, r = grown, r + 1\n",
        "        if grown is not None:\n"
        "            state = grown\n"
        "        r += 1\n",
        ["tests/test_matroid.py::test_rank_table_matches_the_per_subset_ranks"],
    ),
    # the lift row of the tube representations checked on the frame side:
    # every tube passes there too, so only the pinned counts tell
    Mutant(
        "verify.py",
        '("allreps-tube-lift", _allreps_check, "tube", LIFT),',
        '("allreps-tube-lift", _allreps_check, "tube", FRAME),',
        ["tests/test_verify.py::test_claim_counts_at_default_options[allreps-tube-lift]"],
    ),
    # the K4 lemmas run on every biased K4, balanced triangles and all
    Mutant(
        "verify.py",
        '    ("lemma-k4-frame", _biconditional_check, "proper-k4", FRAME),\n'
        '    ("lemma-k4-lift", _biconditional_check, "proper-k4", LIFT),\n'
        '    ("lemma-k4-frame-vs-lift", _cross_check, "proper-k4", None),\n',
        '    ("lemma-k4-frame", _biconditional_check, "k4", FRAME),\n'
        '    ("lemma-k4-lift", _biconditional_check, "k4", LIFT),\n'
        '    ("lemma-k4-frame-vs-lift", _cross_check, "k4", None),\n',
        ["tests/test_verify.py::test_claim_counts_at_default_options[lemma-k4-frame]",
         "tests/test_verify.py::test_claim_counts_at_default_options[lemma-k4-lift]",
         "tests/test_verify.py::test_claim_counts_at_default_options[lemma-k4-frame-vs-lift]"],
    ),
    # a family bound at import: a replaced catalog builder no longer reaches
    # the claims that read it
    Mutant(
        "verify.py",
        '"k4": lambda: catalog.classify_k4(),',
        '"k4": catalog.classify_k4,',
        ["tests/test_verify.py::test_rewritten_claims_fail_under_sabotage"
         "[seven-dwarves-classify_k4]"],
    ),
    # the modular cut's superset skip loosened to any overlap: sets of the
    # cut that are not supersets of a kept one are skipped, and W grows
    Mutant(
        "verify.py",
        "if any(K & S == K for K in kept):",
        "if any(K & S for K in kept):",
        ["tests/test_verify.py::test_cut_span_and_answer_match_every_set_of_the_cut"],
    ),
    # GF's reduce skipping its last pivot row
    Mutant(
        "fields.py",
        "        mul, neg, add = self._mul, self._neg, self._add\n"
        "        for lead, b in basis:\n",
        "        mul, neg, add = self._mul, self._neg, self._add\n"
        "        for lead, b in basis[:-1]:\n",
        ["tests/test_linalg.py::test_reduce_matches_one_axpy_per_pivot_row",
         "tests/test_linalg.py::test_rref_and_products_match_the_entry_oracles_on_every_small_matrix"],
    ),
    # left_null_space reading one row too many of the identity block
    Mutant(
        "linalg.py",
        "return [tuple(row[m:]) for row in rows[r:]]",
        "return [tuple(row[m:]) for row in rows[r - 1:]]",
        ["tests/test_linalg.py::test_left_null_space",
         "tests/test_verify.py::test_cut_span_and_answer_match_every_set_of_the_cut"],
    ),
    # automorphism generators without the transpositions inside parallel
    # classes: orbits split, and the family outgrows the Burnside count
    Mutant(
        "catalog.py",
        "    for es in classes.values():\n        for a, b in zip(es, es[1:]):",
        "    for es in ():\n        for a, b in zip(es, es[1:]):",
        ["tests/test_catalog.py::test_bias_set_orbits_match_the_burnside_count[v2c-proper-4-7]",
         "tests/test_catalog.py::test_bias_set_orbits_match_the_burnside_count[tangled-5-8]"],
    ),
    # the orbits kept on a graph are the ones the first call's predicate
    # kept, so a later call with another predicate loses the rest
    Mutant(
        "catalog.py",
        "            reps.append(om)\n    return reps\n",
        "            reps.append(om)\n"
        "    g._kept[_orbit_masks.__wrapped__] = tuple(\n"
        "        bal for bal in _orbit_masks(g) if predicate is None or predicate(\n"
        "            BiasedGraph(g, [c.edges for i, c in enumerate(cycles) if bal >> i & 1])))\n"
        "    return reps\n",
        ["tests/test_catalog.py::test_bias_sets_up_to_aut_keeps_orbits_that_no_predicate_filtered"],
    ),
    # the degree table counting a loop once
    Mutant(
        "graph.py",
        "            deg[u] += 1\n            deg[v] += 1\n",
        "            deg[u] += 1\n            deg[v] += u != v\n",
        ["tests/test_graph.py::test_graph_tables_match_their_oracles"],
    ),
    # the link-minor edge map of G\\D, which keeps K's edges and so
    # numbers the kept edges wrongly
    Mutant(
        "graph.py",
        "                minor, _, emap = self.minor(K, D)\n",
        "                minor, emap = self.minor(K, D)[0], self.minor((), D)[2]\n",
        ["tests/test_bias.py::test_link_minor_memo_matches_the_parent_search",
         "tests/test_bias.py::test_link_minors_recipe_for_recipe"],
    ),
    # the pattern's cycle table recording every cycle as balanced
    Mutant(
        "bias.py",
        "append((c.edges, c.edges in pattern.balanced))",
        "append((c.edges, True))",
        ["tests/test_bias.py::test_find_biased_subdivision_matches_filter_oracle_on_tangled_members",
         "tests/test_bias.py::"
         "test_find_biased_subdivision_matches_filter_oracle_on_unique_balancing_instances"],
    ),
    # the kept-value helper keyed on the builder alone: a call with other
    # arguments gets the first call's value
    Mutant(
        "graph.py",
        "        key = (build, args) if args else build\n",
        "        key = build\n",
        ["tests/test_caches.py::test_one_builder_with_other_arguments_does_not_collide",
         "tests/test_graph.py::test_vertical_connectivity_memo_matches_a_fresh_graph"],
    ),
]

TIMEOUT_S = 120
MEMORY_LIMIT = 1 << 30  # bytes of address space for each pytest run


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def _failed_ids(report):
    """The ids of the failed test cases in a junit XML report, parameters
    included, as "tests/test_x.py::test_name[param]"."""
    out = set()
    for case in ET.parse(report).iter("testcase"):
        if case.find("failure") is not None or case.find("error") is not None:
            module = case.get("classname").replace(".", "/") + ".py"
            out.add(module + "::" + case.get("name"))
    return out


def _caught(test, failed):
    """A named test_name[param] is caught only when that case failed, and
    a bare test_name when any of its cases did."""
    return test in failed or "[" not in test and any(
        t.split("[")[0] == test for t in failed)


def run(mutant):
    """The named tests that pass with the mutant applied: [] when it is
    caught, or a one-line reason it could not be checked."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp, "src")
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "bmlab" / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return "old text occurs %d times in %s" % (text.count(mutant.old), mutant.file)
        path.write_text(text.replace(mutant.old, mutant.new))
        report = Path(tmp, "report.xml")
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
               "--junitxml", str(report), *mutant.tests]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S, preexec_fn=_limit_memory)
        except subprocess.TimeoutExpired:
            return []
        if proc.returncode not in (0, 1):
            return "pytest exit status %d: %s" % (proc.returncode, proc.stdout[-300:])
        failed = _failed_ids(report)
        return [t for t in mutant.tests if not _caught(t, failed)]


def main(argv):
    rows = [int(a) for a in argv] or range(len(MUTANTS))
    bad = 0
    for i in rows:
        mutant = MUTANTS[i]
        result = run(mutant)
        if result == []:
            print("row %d caught: %s %r" % (i, mutant.file, mutant.old.strip()[:60]))
            continue
        bad += 1
        if isinstance(result, str):
            print("row %d cannot run: %s" % (i, result))
        else:
            print("row %d SURVIVED %s" % (i, ", ".join(result)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
