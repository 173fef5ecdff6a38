"""The benchmark's own tests: one doctored case per workload must fail its
check (negative controls), the metric lists must match BENCHMARK.json, and
the tracer must restore what it patched.  Run from the repository root:

    python3 perfbench/selftest.py
"""

import json
import os
import shutil
import sys
import unittest

import common

sys.path.insert(0, common.SRC)

from bmlab import bias, catalog, verify  # noqa: E402

import metric_names  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import representations, requests, structure  # noqa: E402
from workloads.claims import run_claim_unit  # noqa: E402


def failed_ratio(units):
    return len(units.failures) / len(units.records)


class NegativeControls(unittest.TestCase):
    def test_structure_balanced_member_has_no_tangled_link_minor(self):
        good = structure.tangled_targets()[0].omega
        g = catalog.graph_k4()
        balanced = bias.BiasedGraph(g, [c.edges for c in g.cycles()])
        units = common.Units()
        structure.run_members([good, balanced], units, structure.tangled_targets(),
                              structure.subdivision_patterns())
        self.assertEqual([r[3] for r in units.records], [None, "no tangled link minor"])
        self.assertGreater(failed_ratio(units), 0)

    def test_representations_wrong_recorded_count(self):
        units = common.Units()
        run_claim_unit(units, "seven-dwarves", {}, 0, {"seven-dwarves": {"classes": 7}})
        run_claim_unit(units, "seven-dwarves", {}, 0, {"seven-dwarves": {"classes": 8}})
        self.assertIsNone(units.records[0][3])
        self.assertIn("recorded", units.records[1][3])
        self.assertGreater(failed_ratio(units), 0)

    def test_requests_wrong_expected_exit_code(self):
        workdir = os.path.join(common.OUT, "selftest-requests")
        try:
            inputs = requests.setup(0, workdir, common.load_expected())
            counts = {sub: 0 for sub in metric_names.SUBCOMMANDS}
            for t in inputs["stream"]:
                counts[t["argv"][0]] += 1
            self.assertEqual(set(counts.values()), {len(inputs["stream"]) // len(counts)})
            self.assertGreaterEqual(len(inputs["stream"]), requests.REQUESTS_PER_PASS)
            template = inputs["templates"]["check-theta"][0]
            doctored = dict(template, code=1 - template["code"])
            units = common.Units()
            sink = requests.io.StringIO()
            requests.run_request(units, template, sink)
            requests.run_request(units, doctored, sink)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        self.assertIsNone(units.records[0][3])
        self.assertIn("exit", units.records[1][3])
        self.assertGreater(failed_ratio(units), 0)


class Consistency(unittest.TestCase):
    def test_every_claim_runs_in_exactly_one_workload(self):
        names = [n for n, _ in structure.CLAIMS + representations.CLAIMS]
        self.assertEqual(sorted(names), sorted(verify.CLAIMS))
        self.assertEqual(tuple(sorted(verify.CLAIMS)), metric_names.CLAIM_IDS)

    def test_layer_split_fails_a_doctored_share(self):
        shares = dict.fromkeys(metric_names.LAYERS, 0.0)
        shares.update(graph=0.6, linalg=0.05)
        self.assertIsNone(run.layer_split("structure", shares)[1])
        self.assertIn("algebraic", run.layer_split("representations", shares)[1])
        shares["linalg"] = 0.15
        self.assertIn("needs < 0.1", run.layer_split("structure", shares)[1])
        self.assertIsNone(run.layer_split("requests", shares)[1])

    def test_benchmark_json_lists_the_metrics(self):
        with open(os.path.join(common.ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         [m[0] for m in metric_names.END_TO_END])
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         metric_names.per_layer())

    def test_latency_summary(self):
        lat = common.latency_summary([i / 1000 for i in range(1, 1001)])
        self.assertAlmostEqual(lat["p50_ms"], 500.5)
        self.assertAlmostEqual(lat["p99_ms"], 990.01)
        self.assertEqual(lat["samples_beyond_p99"], 10)
        # Beta(2, 2) masses on the thirds of [0, 1] are 7/27, 13/27 and 7/27
        self.assertAlmostEqual(common.hd_median([10, 1, 2]), (7 + 26 + 70) / 27)
        self.assertEqual(common.hd_median([4.0]), 4.0)


class Tracing(unittest.TestCase):
    def test_install_records_and_uninstall_restores(self):
        orig_fn = catalog.theta_closed_subsets
        orig_cycles = catalog.MultiGraph.cycles
        units = common.Units()
        tracer = Tracer(units)
        tracer.install()
        try:
            self.assertIsNot(catalog.theta_closed_subsets, orig_fn)
            units.run("claim", "probe", lambda: None if catalog.theta_closed_subsets(
                catalog.graph_k4()) else "empty")
        finally:
            tracer.uninstall()
        self.assertIs(catalog.theta_closed_subsets, orig_fn)
        self.assertIs(catalog.MultiGraph.cycles, orig_cycles)
        m = tracer.metrics()
        self.assertGreater(m["catalog.theta_closed_subsets.self_s"], 0)
        self.assertGreater(m["graph.cycles.calls"], 0)
        self.assertGreater(m["catalog.theta_closed_subsets.kept_ratio"], 0)
        self.assertTrue(all(s[5] == "claim:probe" for s in tracer.spans))


if __name__ == "__main__":
    unittest.main()
