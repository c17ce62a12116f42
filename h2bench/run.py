#!/usr/bin/env python3
"""h2bench: end-to-end and per-layer benchmark of the h2priv stack.

    python3 h2bench/run.py --workload attack --seed 1 --seconds 20 --trace 0

Builds the measurement driver (h2bench/src/main.cpp) together with the
program's libraries from ../src, runs one workload's fixed op list from a
single thread, checks every op's output and prints one metric per line,
then a final JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

--trace 0 measures the end-to-end metrics; their times are host-scaled by a
fixed reference kernel the driver runs after every op and set-up (REF_MS
below). --trace 1 runs the same ops with
spans on and prints the per-layer metrics, the tracing-fidelity check and a
per-span self-time table; the raw samples and spans stay in
<build dir>/out/. The build directory is $CARGO_TARGET_DIR (relative paths
are taken from the repository root) or .bench_build.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Workload names and reasons, metric names and units: BENCHMARK.json at the
# repository root is their one copy.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]

# Planned op rate per workload: ops = ceil(seconds * rate). The op count is a
# function of --seconds only, so every run of a given length does identical
# work, and a run lasts about --seconds on the reference machine. `setups` is
# how often a run repeats its set-up; setup_s is the median. corpus repeats
# fewer times because one of its set-ups already lasts seconds.
WORKLOADS = {
    "attack": {"rate": 21.0, "setups": 5},
    "defended": {"rate": 12.5, "setups": 5},
    "corpus": {"rate": 12.0, "setups": 3},
    "fleet": {"rate": 1.4, "setups": 5},
}
MIN_OPS = 30  # so the tail rule reaches at least p66

# The time metrics are host-scaled: each op's (or set-up's) time is divided by
# the time of the driver's fixed reference kernel run right after it, and
# multiplied by REF_MS, the kernel's time on the reference machine. A host
# that is 20% slower for a while slows op and kernel alike, so the quotient
# stays put while a change to the program still moves it in full.
REF_MS = 7.0

# Counters whose reuse/fresh split depends on the state the buffer pool was
# left in, not on the op (the repo's own obs tests exclude them the same
# way); pool.chunks_served is still compared.
SCHEDULING_DEPENDENT = {"pool.chunks_reused", "pool.chunks_fresh"}

H2_FRAME_COUNTERS = [
    "h2.data_sent", "h2.headers_sent", "h2.priority_sent", "h2.rst_stream_sent",
    "h2.settings_sent", "h2.push_promise_sent", "h2.ping_sent", "h2.goaway_sent",
    "h2.window_update_sent", "h2.continuation_sent", "h2.other_sent",
]

class Metric:
    """One printed metric: value, unit and, for ratios, the counts behind it."""

    def __init__(self, name: str, value: float, unit: str, note: str = ""):
        self.name, self.value, self.unit, self.note = name, float(value), unit, note

    def line(self) -> str:
        note = f"  ({self.note})" if self.note else ""
        return f"metric {self.name} {self.value:.6g} {self.unit}{note}"


def ratio(num: float, den: float, scale: float = 1.0) -> tuple[float, str]:
    """num/den (0 when den is 0) and the base counts to print beside it."""
    value = scale * num / den if den else 0.0
    return value, f"{num:.6g} / {den:.6g}"


# --- statistics ----------------------------------------------------------------


def tail_percentile(n: int) -> int:
    """The highest integer percentile with at least 10 samples beyond it."""
    if n <= 10:
        return 0
    return (100 * (n - 10)) // n


def nearest_rank(sorted_values: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    n = len(sorted_values)
    rank = max(1, math.ceil(pct * n / 100))
    return sorted_values[rank - 1], n - rank


# --- end-to-end metrics ----------------------------------------------------------


def host_scaled(ns: float, ref_ns: float) -> float:
    """A time in ms, scaled to the reference machine by the kernel run after it."""
    return ns / ref_ns * REF_MS


def end_to_end(raw: dict) -> list[Metric]:
    ops = raw["ops"]
    n = len(ops)
    wall = sorted(host_scaled(o["wall_ns"], o["ref_wall_ns"]) for o in ops)
    cpu = [host_scaled(o["cpu_ns"], o["ref_cpu_ns"]) for o in ops]
    raw_wall = statistics.median(o["wall_ns"] / 1e6 for o in ops)
    raw_cpu = statistics.median(o["cpu_ns"] / 1e6 for o in ops)
    pct = tail_percentile(n)
    tail, beyond = nearest_rank(wall, pct)
    setups = [host_scaled(s * 1e9, ref) / 1e3
              for s, ref in zip(raw["setup_s"], raw["setup_ref_ns"])]
    busy_s = sum(wall) / 1e3
    return [
        Metric("setup_s", statistics.median(setups), "s",
               f"median of {len(setups)} set-ups: "
               + ", ".join(f"{s:.3f}" for s in setups)
               + "; raw " + ", ".join(f"{s:.3f}" for s in raw["setup_s"])),
        Metric("ops_per_s", n / busy_s, "ops/s", f"{n} ops / {busy_s:.3f} s busy"),
        Metric("op_ms_p50", statistics.median(wall), "ms",
               f"{n} samples; raw {raw_wall:.4g} ms"),
        Metric("op_ms_tail", tail, "ms",
               f"p{pct} over {n} samples, {beyond} beyond"),
        Metric("cpu_ms_per_op", statistics.median(cpu), "ms",
               f"median thread-CPU of {n} ops; raw {raw_cpu:.4g} ms"),
        Metric("peak_rss_mib", raw["peak_rss_kib"] / 1024.0, "MiB", "process peak RSS"),
    ]


def host_line(raw: dict) -> str:
    """How fast the host ran during the ops, as the reference kernel saw it."""
    ref = statistics.median(o["ref_wall_ns"] for o in raw["ops"]) / 1e6
    return (f"host reference kernel: median {ref:.4g} ms after each op "
            f"(reference machine {REF_MS:g} ms), host speed {REF_MS / ref:.3f}")


def outcome_metrics(samples: list[dict]) -> list[Metric]:
    recovered = sum(o["recovered"] for o in samples)
    positions = sum(o["positions"] for o in samples)
    failed = sum(not o["ok"] for o in samples)
    rec, rec_note = ratio(recovered, positions, 100.0)
    fail, fail_note = ratio(failed, len(samples), 100.0)
    return [
        Metric("attack_recovered_pct", rec, "%", f"positions {rec_note}"),
        Metric("op_failed_pct", fail, "%", f"ops {fail_note}"),
    ]


# --- per-layer metrics -----------------------------------------------------------


def span_totals(spans: list[list]) -> dict[str, float]:
    """Total wall ms per span name over all traced ops (set-up spans excluded)."""
    totals: dict[str, float] = {}
    for name, _parent, op, t0, t1, _c0, _c1 in spans:
        if op >= 0:
            totals[name] = totals.get(name, 0.0) + (t1 - t0) / 1e6
    return totals


def self_times(spans: list[list], setup: bool = False
               ) -> dict[str, tuple[float, float, float, float]]:
    """Per span name: (total wall, self wall, total cpu, self cpu) in ms, over
    the op spans or, with `setup`, over the set-up spans.

    Self time is a span's duration minus the time its child spans cover.
    """
    child_wall = [0.0] * len(spans)
    child_cpu = [0.0] * len(spans)
    for _name, parent, _op, t0, t1, c0, c1 in spans:
        if parent >= 0:
            child_wall[parent] += (t1 - t0) / 1e6
            child_cpu[parent] += (c1 - c0) / 1e6
    out: dict[str, list[float]] = {}
    for i, (name, _parent, op, t0, t1, c0, c1) in enumerate(spans):
        if (op < 0) != setup:
            continue
        wall, cpu = (t1 - t0) / 1e6, (c1 - c0) / 1e6
        acc = out.setdefault(name, [0.0, 0.0, 0.0, 0.0])
        acc[0] += wall
        acc[1] += wall - child_wall[i]
        acc[2] += cpu
        acc[3] += cpu - child_cpu[i]
    return {k: tuple(v) for k, v in out.items()}


def traced_op_ms(spans: list[list]) -> list[float]:
    """Per traced op: the root span minus its re-drive child, in ms."""
    per_op: dict[int, float] = {}
    for name, parent, op, t0, t1, _c0, _c1 in spans:
        if name == "op" and parent < 0:
            per_op[op] = per_op.get(op, 0.0) + (t1 - t0) / 1e6
        elif name == "redrive":
            per_op[op] = per_op.get(op, 0.0) - (t1 - t0) / 1e6
    return [per_op[k] for k in sorted(per_op)]


def per_layer(raw: dict) -> list[Metric]:
    traced = raw["traced_ops"]
    n = len(traced)
    tot: dict[str, int] = {}
    for o in traced:
        for k, v in o["counters"].items():
            tot[k] = tot.get(k, 0) + v
    setup = raw.get("setup_counters", {})

    def c(name: str) -> int:
        return tot.get(name, 0)

    def per_op(value: float) -> float:
        return value / n

    spans = span_totals(raw["spans"])

    def span_ms(name: str) -> float:
        return spans.get(name, 0.0) / n

    m: list[Metric] = outcome_metrics(traced)

    def add(name: str, value: float, unit: str, note: str = "") -> None:
        m.append(Metric(name, value, unit, note))

    def add_ratio(name: str, num: float, den: float, unit: str = "ratio",
                  scale: float = 1.0) -> None:
        value, note = ratio(num, den, scale)
        add(name, value, unit, note)

    heap = max((o["counters"].get("sim.heap_depth_max", 0) for o in traced), default=0)
    add("sim.events_per_op", per_op(c("sim.events_executed")), "count")
    add("sim.heap_depth_max", heap, "count", "max over ops")
    add("sim.dispatch_ms_per_op", span_ms("sim.dispatch"), "ms", "re-driven")
    add("net.packets_per_op", per_op(c("net.mb_seen")), "count")
    add("net.drops_per_op",
        per_op(c("net.mb_dropped") + c("net.link_lost") + c("net.link_burst_dropped")),
        "count")
    add("net.held_per_op", per_op(c("net.mb_held")), "count")
    add("tcp.segments_per_op", per_op(c("tcp.segments_sent")), "count")
    add_ratio("tcp.retransmit_ratio",
              c("tcp.retransmits_fast") + c("tcp.retransmits_timeout")
              + c("tcp.retransmits_hole"), c("tcp.segments_sent"))
    add("tcp.rto_per_op", per_op(c("tcp.rto_fired")), "count")
    add("tls.records_per_op", per_op(c("tls.records_sealed")), "count")
    seal, opn = span_ms("tls.seal"), span_ms("tls.open")
    add("tls.seal_ms_per_op", seal, "ms", "re-driven")
    add("tls.open_ms_per_op", opn, "ms", "re-driven")
    add("tls.pad_bytes_per_op", per_op(c("tls.pad_bytes_sealed")), "bytes")
    run_ms = span_ms("core.run_once") or span_ms("fleet.run_fleet")
    add_ratio("tls.run_share_pct", seal + opn, run_ms, "%", 100.0)
    body = span_ms("web.body")
    add("web.body_ms_per_op", body, "ms", "re-driven")
    add("h2.frames_per_op", per_op(sum(c(k) for k in H2_FRAME_COUNTERS)), "count")
    add("h2.data_bytes_per_op", per_op(c("h2.data_bytes_sent")), "bytes")
    add("h2.pad_bytes_per_op", per_op(c("h2.pad_bytes_sent")), "bytes")
    add("h2.rst_streams_per_op", per_op(c("h2.rst_stream_sent")), "count")
    add("client.rerequests_per_op", per_op(c("core.browser_rerequests")), "count")
    add("client.reset_episodes_per_op", per_op(c("core.reset_episodes")), "count")
    add("core.run_ms_per_op", span_ms("core.run_once"), "ms")
    add("core.monitor_ms_per_op", span_ms("core.monitor"), "ms", "re-driven replay")
    redriven = seal + opn + body + span_ms("sim.dispatch")
    add("core.residual_ms_per_op", run_ms - redriven if run_ms else 0.0, "ms",
        f"run {run_ms:.4g} ms - re-driven tls/web/sim {redriven:.4g} ms")
    add_ratio("pool.reuse_ratio", c("pool.chunks_reused"), c("pool.chunks_served"))
    add("capture.write_ms_per_op", span_ms("capture.write"), "ms", "re-driven")
    add("capture.read_ms_per_op", span_ms("capture.read"), "ms", "re-driven")

    # Traces are written by the ops (fleet) or by the set-up (corpus).
    def written(name: str) -> int:
        return c(name) + setup.get(name, 0)

    add_ratio("capture.bytes_per_trace", written("capture.bytes_written"),
              written("capture.traces_written"), "bytes")
    add_ratio("capture.compress_ratio", written("capture.raw_bytes"),
              written("capture.bytes_written"))
    add_ratio("codec.cache_hit_ratio", c("codec.cache_hits"),
              c("codec.cache_hits") + c("codec.cache_misses"))
    add("codec.blocks_decoded_per_op", per_op(c("codec.blocks_decoded")), "count")
    add_ratio("corpus.score_ms_per_trace", spans.get("corpus.score_corpus", 0.0),
              c("corpus.traces_scored"), "ms")
    add("corpus.bytes_mapped_per_op", per_op(c("corpus.bytes_mapped")), "bytes")
    add("analysis.classify_ms_per_op", span_ms("analysis.classify"), "ms", "re-driven")
    add("fleet.plan_ms_per_op", span_ms("fleet.plan_fleet"), "ms", "re-driven")
    add("fleet.run_ms_per_op", span_ms("fleet.run_fleet"), "ms")
    add_ratio("cache.hit_ratio", c("cache.hits") + c("cache.stale"),
              c("cache.hits") + c("cache.stale") + c("cache.misses"))
    add("cache.evictions_per_op", per_op(c("cache.evictions")), "count")
    add_ratio("defense.pad_overhead_pct",
              c("h2.pad_bytes_sent") + c("tls.pad_bytes_sealed"), c("h2.data_bytes_sent"),
              "%", 100.0)
    plain = statistics.median(o["wall_ns"] / 1e6 for o in raw["ops"])
    with_spans = statistics.median(traced_op_ms(raw["spans"]))
    add("obs.tracing_overhead_pct", 100.0 * (with_spans - plain) / plain, "%",
        f"traced p50 {with_spans:.4g} ms vs untraced p50 {plain:.4g} ms")
    return m


def fidelity_failures(raw: dict) -> dict[int, str]:
    """Traced ops must do exactly the work of their untraced twins: the
    problems found, by op index."""
    problems = {}
    plain = {o["i"]: o for o in raw["ops"]}
    for t in raw["traced_ops"]:
        p = plain[t["i"]]
        keys = (set(p["counters"]) | set(t["counters"])) - SCHEDULING_DEPENDENT
        diff = sorted(k for k in keys if p["counters"].get(k) != t["counters"].get(k))
        if (p["recovered"], p["positions"]) != (t["recovered"], t["positions"]):
            diff.append("recovered positions")
        if diff:
            problems[t["i"]] = "traced op differs from untraced: " + ", ".join(diff)
    return problems


# --- report ----------------------------------------------------------------------


def report(raw: dict, trace: bool) -> tuple[list[str], dict]:
    """Text lines and the final result object for one driver output."""
    lines = [f"# {raw['workload']}: {WHY[raw['workload']]}", host_line(raw)]
    failures = {("op", o["i"]): o["why"] for o in raw["ops"] if not o["ok"]}
    failures.update({("traced op", o["i"]): o["why"]
                     for o in raw["traced_ops"] if not o["ok"]})
    if trace:
        metrics = per_layer(raw)
        fidelity = fidelity_failures(raw)
        lines.append(f"check tracing fidelity over {len(raw['traced_ops'])} ops: "
                     + ("FAILED" if fidelity else "identical counters and verdicts"))
        for i, why in fidelity.items():
            failures.setdefault(("traced op", i), why)
    else:
        metrics = end_to_end(raw) + outcome_metrics(raw["ops"])
    lines += [m.line() for m in metrics]
    if trace:
        for setup, label, n in ((False, "op", len(raw["traced_ops"])),
                                (True, "setup", len(raw["setup_s"]))):
            lines.append(f"span self-times per {label} (ms): name total_wall self_wall "
                         "total_cpu self_cpu")
            for name, (tw, sw, tc, sc) in sorted(self_times(raw["spans"], setup).items()):
                lines.append(f"{label}-span {name} {tw / n:.4f} {sw / n:.4f} "
                             f"{tc / n:.4f} {sc / n:.4f}")
    lines += [f"FAIL {kind} {i}: {why}" for (kind, i), why in sorted(failures.items())]
    wanted = PER_LAYER if trace else END_TO_END
    by_name = {m.name: m for m in metrics}
    result = {
        "correct": not failures,
        "attempted": len(raw["ops"]) + len(raw["traced_ops"]),
        "failed": len(failures),
        "metrics": {name: {"value": by_name[name].value, "unit": unit}
                    for name, unit in wanted},
    }
    return lines, result


# --- build and run ---------------------------------------------------------------


def build_dir() -> Path:
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (d if d.is_absolute() else ROOT / d) / "h2bench"


def build(bdir: Path) -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("h2bench: program sources (src/) not found next to h2bench/")
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(bdir), "--target", "h2bench", "-j", jobs]]
    if not (bdir / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(bdir),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(log.read_text()[-4000:])
                sys.exit(f"h2bench: build failed, see {log}")
    return bdir / "h2bench"


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bdir = build_dir()
    exe = build(bdir)
    plan = WORKLOADS[args.workload]
    ops = max(MIN_OPS, math.ceil(args.seconds * plan["rate"]))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = bdir / "work" / f"{tag}-{os.getpid()}"
    out = bdir / "out" / f"{tag}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--ops", str(ops), "--setups", str(plan["setups"]), "--trace", str(args.trace),
           "--work-dir", str(work), "--out", str(out)]
    # A traced op runs the op twice plus its re-drives: about 3x the op time.
    timeout_s = 120 + 4 * args.seconds
    try:
        proc = subprocess.run(cmd, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        print(f"FAIL driver still running after {timeout_s} s, killed")
        print(json.dumps({"correct": False, "attempted": ops, "failed": ops,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.exit(f"h2bench: driver exited with {proc.returncode}")
    raw = json.loads(out.read_text())

    print(f"h2bench workload={args.workload} seed={args.seed} ops={ops} "
          f"trace={args.trace} setups={plan['setups']} jobs=1 closed-loop clients=1")
    lines, result = report(raw, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
