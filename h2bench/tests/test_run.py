"""Self-tests of the h2bench harness (run.py).

    python3 -m unittest discover -s h2bench/tests

The tests feed run.py's metric code synthetic driver output, so they need no
build. Set H2BENCH_SMOKE=1 to also build and run every workload briefly on
seed 1 and on the held-out seed 4242 and compare their metric sets.
"""

from __future__ import annotations

import importlib.util
import json
import os
import random
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
spec = importlib.util.spec_from_file_location("h2bench_run", BENCH / "run.py")
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)

# Every metric the benchmark's specification names, end-to-end and per layer.
SPEC_NAMES = [
    "setup_s", "ops_per_s", "op_ms_p50", "op_ms_tail", "cpu_ms_per_op",
    "attack_recovered_pct", "op_failed_pct", "peak_rss_mib",
    "sim.events_per_op", "sim.heap_depth_max", "sim.dispatch_ms_per_op",
    "net.packets_per_op", "net.drops_per_op", "net.held_per_op",
    "tcp.segments_per_op", "tcp.retransmit_ratio", "tcp.rto_per_op",
    "tls.records_per_op", "tls.seal_ms_per_op", "tls.open_ms_per_op",
    "tls.pad_bytes_per_op", "web.body_ms_per_op", "h2.frames_per_op",
    "h2.data_bytes_per_op", "h2.pad_bytes_per_op", "h2.rst_streams_per_op",
    "client.rerequests_per_op", "client.reset_episodes_per_op",
    "core.run_ms_per_op", "core.monitor_ms_per_op", "core.residual_ms_per_op",
    "pool.reuse_ratio", "capture.write_ms_per_op", "capture.read_ms_per_op",
    "capture.bytes_per_trace", "capture.compress_ratio", "codec.cache_hit_ratio",
    "codec.blocks_decoded_per_op", "corpus.score_ms_per_trace",
    "corpus.bytes_mapped_per_op", "analysis.classify_ms_per_op",
    "fleet.plan_ms_per_op", "fleet.run_ms_per_op", "cache.hit_ratio",
    "cache.evictions_per_op", "defense.pad_overhead_pct", "obs.tracing_overhead_pct",
]
# Metrics that are a quotient of two counts or times: their base is printed.
RATIO_NAMES = [
    "attack_recovered_pct", "op_failed_pct", "tcp.retransmit_ratio",
    "tls.run_share_pct", "pool.reuse_ratio", "capture.bytes_per_trace",
    "capture.compress_ratio", "codec.cache_hit_ratio", "corpus.score_ms_per_trace",
    "cache.hit_ratio", "defense.pad_overhead_pct", "obs.tracing_overhead_pct",
    "ops_per_s",
]
METRIC_LINE = re.compile(r"^metric (\S+) (\S+) (\S+)(?:  \((.*)\))?$")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPAN_NAMES = ["core.run_once", "tls.seal", "tls.open", "web.body", "sim.dispatch",
              "capture.write", "capture.read", "core.monitor", "corpus.score_corpus",
              "analysis.classify", "fleet.plan_fleet", "fleet.run_fleet"]


def fake_raw(n: int = 30, seed: int = 7) -> dict:
    """Driver output shaped like h2bench's, with every counter non-zero."""
    rng = random.Random(seed)
    counters = {
        "sim.events_executed": 18000, "sim.heap_depth_max": 400, "net.mb_seen": 5700,
        "net.mb_dropped": 10, "net.link_lost": 3, "net.mb_held": 360,
        "tcp.segments_sent": 5700, "tcp.retransmits_fast": 40, "tcp.rto_fired": 20,
        "tls.records_sealed": 1200, "tls.pad_bytes_sealed": 900, "h2.data_sent": 900,
        "h2.headers_sent": 300, "h2.data_bytes_sent": 2_800_000, "h2.pad_bytes_sent": 700,
        "h2.rst_stream_sent": 110, "core.browser_rerequests": 110,
        "core.reset_episodes": 2, "pool.chunks_served": 7000, "pool.chunks_reused": 6990,
        "pool.chunks_fresh": 10, "capture.bytes_written": 40000,
        "capture.traces_written": 1, "capture.raw_bytes": 300000,
        "codec.cache_hits": 30, "codec.cache_misses": 5, "codec.blocks_decoded": 9,
        "corpus.traces_scored": 16, "corpus.bytes_mapped": 600000, "cache.hits": 700,
        "cache.misses": 50, "cache.evictions": 40,
    }

    def op(i: int) -> dict:
        return {"i": i, "wall_ns": rng.randint(40_000_000, 60_000_000),
                "cpu_ns": rng.randint(39_000_000, 59_000_000),
                "ref_wall_ns": rng.randint(5_800_000, 6_200_000),
                "ref_cpu_ns": rng.randint(5_800_000, 6_200_000), "ok": True, "why": "",
                "recovered": 7, "positions": 8, "counters": dict(counters)}

    spans = [["setup", -1, -1, 0, 90, 0, 90], ["core.run_once", 0, -1, 10, 80, 10, 80]]
    t = 100
    for i in range(n):
        root = len(spans)
        spans.append(["op", -1, i, t, t + 100, t, t + 100])
        spans.append(["redrive", root, i, t + 50, t + 100, t + 50, t + 100])
        for k, name in enumerate(SPAN_NAMES):
            spans.append([name, root + 1, i, t + 50 + k, t + 51 + k, t + 50 + k,
                          t + 51 + k])
        t += 1000
    return {"workload": "attack", "seed": 1, "peak_rss_kib": 8000,
            "setup_s": [0.41, 0.40, 0.43],
            "setup_ref_ns": [6_100_000, 5_900_000, 6_000_000], "setup_counters": {},
            "ops": [op(i) for i in range(n)], "traced_ops": [op(i) for i in range(n)],
            "spans": spans}


def metric_lines(lines: list[str]) -> dict[str, tuple[str, str, str]]:
    out = {}
    for line in lines:
        m = METRIC_LINE.match(line)
        if m:
            out[m.group(1)] = (m.group(2), m.group(3), m.group(4) or "")
    return out


class TailRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        for n in (11, 20, 30, 42, 200, 280, 420, 1000, 5000):
            values = [float(v) for v in range(n)]
            pct = run.tail_percentile(n)
            _, beyond = run.nearest_rank(values, pct)
            self.assertGreaterEqual(beyond, 10, n)
            if pct < 100:
                _, next_beyond = run.nearest_rank(values, pct + 1)
                self.assertLess(next_beyond, 10, n)

    def test_known_values(self):
        self.assertEqual(run.tail_percentile(420), 97)
        self.assertEqual(run.tail_percentile(200), 95)
        self.assertEqual(run.tail_percentile(30), 66)
        self.assertEqual(run.tail_percentile(10), 0)

    def test_output_names_percentile_and_sample_count(self):
        lines, _ = run.report(fake_raw(n=42), trace=False)
        _, unit, note = metric_lines(lines)["op_ms_tail"]
        self.assertEqual(unit, "ms")
        self.assertRegex(note, r"^p76 over 42 samples, 10 beyond$")


class Names(unittest.TestCase):
    def test_names_and_units_are_well_formed(self):
        names = [n for n, _ in run.END_TO_END + run.PER_LAYER] + list(run.WHY)
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        for _, unit in run.END_TO_END + run.PER_LAYER:
            self.assertTrue(UNIT_RE.fullmatch(unit), unit)
        for why in run.WHY.values():
            self.assertLessEqual(len(why), 200)

    def test_every_workload_has_an_op_plan(self):
        self.assertEqual(set(run.WORKLOADS), set(run.WHY))


class Output(unittest.TestCase):
    def test_every_specified_name_is_printed_with_a_unit(self):
        printed = {}
        for trace in (False, True):
            lines, _ = run.report(fake_raw(), trace)
            printed.update(metric_lines(lines))
        for name in SPEC_NAMES:
            self.assertIn(name, printed)
            value, unit, _ = printed[name]
            float(value)
            self.assertTrue(UNIT_RE.fullmatch(unit), (name, unit))

    def test_ratio_metrics_print_their_base(self):
        printed = {}
        for trace in (False, True):
            lines, _ = run.report(fake_raw(), trace)
            printed.update(metric_lines(lines))
        for name in RATIO_NAMES:
            note = printed[name][2]
            self.assertRegex(note, r"\d.* (?:/|vs) .*\d", name)

    def test_result_object_has_exactly_the_contract_keys(self):
        for trace, wanted in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            _, result = run.report(fake_raw(), trace)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(list(result["metrics"]), [n for n, _ in wanted])
            for name, unit in wanted:
                self.assertEqual(result["metrics"][name]["unit"], unit)

    def test_failed_op_makes_the_result_incorrect(self):
        raw = fake_raw()
        raw["ops"][3]["ok"] = False
        raw["ops"][3]["why"] = "page load broken"
        lines, result = run.report(raw, trace=False)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertIn("FAIL op 3: page load broken", lines)
        self.assertEqual(result["attempted"], 60)


class HostScaling(unittest.TestCase):
    def test_a_uniformly_slower_host_reads_the_same(self):
        raw = fake_raw()
        slow = json.loads(json.dumps(raw))
        for o in slow["ops"]:
            for key in ("wall_ns", "cpu_ns", "ref_wall_ns", "ref_cpu_ns"):
                o[key] = o[key] * 5 // 4
        slow["setup_s"] = [s * 1.25 for s in slow["setup_s"]]
        slow["setup_ref_ns"] = [r * 5 // 4 for r in slow["setup_ref_ns"]]
        fast = {m.name: m.value for m in run.end_to_end(raw)}
        for m in run.end_to_end(slow):
            self.assertAlmostEqual(m.value, fast[m.name], delta=1e-6 * fast[m.name])

    def test_a_slower_program_reads_slower(self):
        raw = fake_raw()
        for o in raw["ops"]:
            o["wall_ns"] = o["wall_ns"] * 11 // 10
        before = {m.name: m.value for m in run.end_to_end(fake_raw())}
        after = {m.name: m.value for m in run.end_to_end(raw)}
        self.assertAlmostEqual(after["op_ms_p50"] / before["op_ms_p50"], 1.1, places=3)

    def test_output_names_the_raw_times(self):
        lines, _ = run.report(fake_raw(), trace=False)
        self.assertTrue(any(line.startswith("host reference kernel: median ")
                            for line in lines))
        self.assertIn("raw ", metric_lines(lines)["op_ms_p50"][2])


class Spans(unittest.TestCase):
    def test_self_time_subtracts_children_and_keeps_setup_apart(self):
        spans = [["setup", -1, -1, 0, 100, 0, 100],
                 ["core.run_once", 0, -1, 10, 60, 10, 60],
                 ["op", -1, 0, 200, 300, 200, 300],
                 ["tls.seal", 2, 0, 210, 240, 210, 240]]
        ops = run.self_times(spans)
        self.assertEqual(set(ops), {"op", "tls.seal"})
        self.assertAlmostEqual(ops["op"][1], 70e-6)
        setup = run.self_times(spans, setup=True)
        self.assertAlmostEqual(setup["setup"][1], 50e-6)
        self.assertEqual(run.span_totals(spans), {"op": 100e-6, "tls.seal": 30e-6})


class Fidelity(unittest.TestCase):
    def test_identical_work_passes(self):
        raw = fake_raw()
        raw["traced_ops"][0]["counters"]["pool.chunks_fresh"] = 99  # pool state only
        self.assertEqual(run.fidelity_failures(raw), {})

    def test_changed_work_fails(self):
        raw = fake_raw()
        raw["traced_ops"][2]["counters"]["tcp.segments_sent"] += 1
        raw["traced_ops"][4]["recovered"] = 0
        problems = run.fidelity_failures(raw)
        self.assertEqual(sorted(problems), [2, 4])
        self.assertIn("tcp.segments_sent", problems[2])
        self.assertIn("recovered positions", problems[4])
        lines, result = run.report(raw, trace=True)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 2)
        self.assertIn("check tracing fidelity over 30 ops: FAILED", lines)


@unittest.skipUnless(os.environ.get("H2BENCH_SMOKE") == "1", "set H2BENCH_SMOKE=1")
class Smoke(unittest.TestCase):
    def run_bench(self, workload: str, seed: int, trace: int) -> dict:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
             str(seed), "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_held_out_seed_gives_the_same_metric_set(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                a = self.run_bench(workload, 1, trace)
                b = self.run_bench(workload, 4242, trace)
                self.assertTrue(a["correct"] and b["correct"])
                self.assertEqual(list(a["metrics"]), list(b["metrics"]))


if __name__ == "__main__":
    unittest.main()
