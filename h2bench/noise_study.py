#!/usr/bin/env python3
"""Back-to-back noise study of the h2bench end-to-end metrics.

    python3 h2bench/noise_study.py --runs 10 --seconds 15 --seed-base 100 \
        --out .bench_build/noise.json attack defended corpus fleet

    python3 h2bench/noise_study.py --compare h2bench/noise/seeds600.json \
        h2bench/noise/seeds700.json

Runs h2bench/run.py --trace 0 `--runs` times per workload, each with its own
seed (seed-base, seed-base+1, ...), and prints per metric the median, the
quartiles (statistics.quantiles(values, n=4)) and the quartile distance as
a share of the median, next to the bound BENCHMARK.json fixes for it.

--compare takes two such study files of the same code and prints, per
workload and metric, how far each set's median is worse than the other's,
in both directions, against the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def end_to_end_spec() -> dict[str, dict]:
    path = HERE.parent / "BENCHMARK.json"
    return {m["name"]: m for m in json.loads(path.read_text())["end_to_end"]}


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse `change` is than `parent`, as a share of `parent`."""
    rel = (change - parent) / parent
    return rel if better == "lower" else -rel


def compare(a_path: Path, b_path: Path) -> int:
    """Median drift between two studies, both ways; 1 if any passes its bound."""
    spec = end_to_end_spec()
    a, b = json.loads(a_path.read_text()), json.loads(b_path.read_text())
    over = 0
    for wl in sorted(set(a) & set(b)):
        for name, m in spec.items():
            ma, mb = a[wl][name]["median"], b[wl][name]["median"]
            ab = worse_by(ma, mb, m["better"])
            ba = worse_by(mb, ma, m["better"])
            worst = max(ab, ba)
            flag = "OVER" if worst > m["bound"] else "ok"
            over += worst > m["bound"]
            print(f"{wl} {name}: medians {ma:.5g} / {mb:.5g}; second worse by "
                  f"{ab:+.4f}, first worse by {ba:+.4f}; bound {m['bound']:.2f} {flag}")
    return 1 if over else 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--seed-base", type=int, default=100)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workloads or args.out is None:
        ap.error("give the workloads to study and --out")

    bound = {name: m["bound"] for name, m in end_to_end_spec().items()}
    study: dict[str, dict] = {}
    for wl in args.workloads:
        values: dict[str, list[float]] = {}
        for r in range(args.runs):
            seed = args.seed_base + r
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed",
                 str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
                sys.exit(f"{wl} seed {seed}: run.py exited with {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {seed}: " + " ".join(
                f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        study[wl] = {}
        for name, vals in values.items():
            med, q1, q3, rel = spread(vals)
            study[wl][name] = {"values": vals, "median": med, "q1": q1, "q3": q3,
                               "spread": rel}
            b = bound.get(name)
            flag = "" if b is None else f" bound {b:.2f} ({rel / b:.2f} of it)"
            print(f"{wl} {name}: median {med:.5g} q1 {q1:.5g} q3 {q3:.5g} "
                  f"spread {rel:.4f}{flag}", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(study, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
