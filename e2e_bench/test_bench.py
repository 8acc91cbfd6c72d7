#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 e2e_bench/test_bench.py

- a tiny run of each workload prints every named metric with its unit, and
  the result line carries exactly the metrics BENCHMARK.json lists;
- a deliberately corrupted oracle expectation yields error_ratio > 0;
- in the traced output, each operation's child self times sum to no more
  than its wall time;
- without the simulator sources next to it, the benchmark exits non-zero
  without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "e2e_out")

# The named metrics each workload prints on its "metric" lines: untraced
# and traced (the traced run prints both sets).
COMMON = ["setup_s", "peak_rss_mib", "error_ratio", "samples"]
NAMED = {
    "replay_colocation": (
        ["sim_events_per_s", "mix_ms_p50", "mix_ms_p90"],
        ["sim.prepare_ms", "sim.replay_us_per_mix", "sim.ns_per_global_event",
         "sim.global_event_ratio", "sim.l2_miss_ratio", "sim.bus_wait_cycles",
         "trace.generate_ms"]),
    "datapath_mix": (
        ["packets_per_s", "burst_us_p50", "burst_us_p99"],
        ["core.deliver_ns", "core.receive_ns", "core.send_ns",
         "core.transmit_ns", "core.advance_clock_ns", "core.vnic_post_ns",
         "core.vnic_harvest_ns", "core.chain_tick_ns", "nf.process_ns.fw",
         "nf.process_ns.dpi", "nf.process_ns.nat", "nf.process_ns.lb",
         "nf.process_ns.lpm", "nf.process_ns.mon", "nf.forward_ratio",
         "accel.dispatch_ns", "accel.fallbacks",
         "obs.ring_records_per_packet", "core.rx_drops.queue_full",
         "core.rx_drops.no_descriptor", "core.chain_stalls",
         "crypto.boot_ms", "trace.generate_ms"]),
    "tenant_churn": (
        ["lifecycles_per_s", "lifecycle_ms_p50", "lifecycle_ms_p95"],
        ["mgmt.nf_create_ms", "mgmt.expected_measurement_ms",
         "core.nf_attest_ms", "core.verify_quote_ms", "mgmt.nf_destroy_ms",
         "crypto.sha256_bytes_per_lifecycle", "crypto.boot_ms"]),
    "scenario_curated": (
        ["scenarios_per_s", "scenario_s_p50"],
        ["scenario.subject_ms", "scenario.twin_ms", "mgmt.restarts",
         "mgmt.reattestations", "mgmt.crashes", "fault.injected",
         "scenario.parse_ms", "crypto.boot_ms"]),
}


def run(workload, trace, *extra, cwd=ROOT, script=RUN):
    command = [sys.executable, script, "--workload", workload, "--seed", "7",
               "--seconds", "0.5", "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def metric_lines(stdout):
    """{name: (value, unit)} of the "metric <name> <value> <unit>" lines."""
    lines = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            lines[parts[1]] = (float(parts[2]), parts[3])
    return lines


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.config = json.load(f)

    def check_result(self, proc, listed):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in listed}
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], expected[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)
        return result

    def test_tiny_runs_print_every_metric(self):
        for workload, (untraced, traced) in NAMED.items():
            with self.subTest(workload=workload, trace=0):
                proc = run(workload, 0)
                result = self.check_result(proc, self.config["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                for value in result["metrics"].values():
                    self.assertGreater(value["value"], 0)
                lines = metric_lines(proc.stdout)
                for name in COMMON + untraced:
                    self.assertIn(name, lines)
                    self.assertTrue(lines[name][1])
            with self.subTest(workload=workload, trace=1):
                proc = run(workload, 1)
                result = self.check_result(proc, self.config["per_layer"])
                self.assertEqual(result["failed"], 0)
                lines = metric_lines(proc.stdout)
                for name in COMMON + untraced + traced:
                    self.assertIn(name, lines)
                self.check_self_times(workload)

    def check_self_times(self, workload):
        path = os.path.join(SPANS_DIR, workload + ".spans.jsonl")
        with open(path) as f:
            spans = [json.loads(line) for line in f]
        self.assertTrue(spans)
        wall = {}
        child_self = {}
        for span in spans:
            if span["name"].startswith("op."):
                wall[span["op"]] = span["end_ns"] - span["start_ns"]
            else:
                child_self[span["op"]] = (child_self.get(span["op"], 0.0) +
                                          span["self_ns"])
                self.assertGreaterEqual(span["self_ns"], -0.5, span)
        self.assertTrue(wall)
        for op, time in wall.items():
            # Printed to 0.1 ns: allow that much rounding per span.
            self.assertLessEqual(child_self.get(op, 0.0), time + 1.0,
                                 "op %d of %s" % (op, workload))

    def test_corrupted_oracle_counts_failures(self):
        for workload in NAMED:
            with self.subTest(workload=workload):
                proc = run(workload, 0, "--corrupt-oracle")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.splitlines()[-1])
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertGreater(
                    metric_lines(proc.stdout)["error_ratio"][0], 0)

    def test_refuses_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare_checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "e2e_bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run("tenant_churn", 0, cwd=bare,
                       script=os.path.join(bare, "e2e_bench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
