#!/usr/bin/env python3
"""CPU sampler: a flat profile of where a command spends its CPU time.

    tools/cpu_sampler/cpu_sampler.py [--top K] [--out DIR] -- CMD...

Builds the LD_PRELOAD shim (sampler.c, needs only gcc), runs CMD under it,
names every sampled address by the symbol whose extent holds it (nm,
binutils) and prints one line per function: its share of the samples, the
sample count and the object it lives in. A sample in code the compiler
inlined is charged to the function it was inlined into, the outermost of
its inline chain: the function that was actually called. In a stripped
object (libc, the allocator) the dynamic symbols name the code, and the
libc entry points (memcpy, malloc, ...) name the code the dynamic linker
resolved them to, which has no symbol of its own; anything else is
"(unnamed)".

Examples:
    tools/cpu_sampler/cpu_sampler.py -- build/bench/bench_table2_attack 20 --jobs 1
    tools/cpu_sampler/cpu_sampler.py -- .bench_build/h2bench/h2bench \\
        --workload attack --seed 3 --ops 300 --setups 1 --trace 0 \\
        --work-dir /tmp/sampler-work --out /tmp/sampler.json

Only the command's own process is sampled, on its CPU-time clock
(ITIMER_PROF): the profile covers user and kernel time of every thread it
runs, set-up included, and nothing else on the machine.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def build_shim(out_dir: Path) -> Path:
    lib = out_dir / "libcpu_sampler.so"
    src = HERE / "sampler.c"
    if not lib.exists() or lib.stat().st_mtime < src.stat().st_mtime:
        subprocess.run(["gcc", "-O2", "-shared", "-fPIC", "-o", str(lib), str(src),
                        "-ldl"], check=True)
    return lib


def strip_args(name: str) -> str:
    """'ns::f(int) const' -> 'ns::f', keeping '(anonymous namespace)'."""
    name = name.removesuffix(" const")
    if not name.endswith(")"):
        return name
    depth = 0
    for i in range(len(name) - 1, -1, -1):
        depth += {")": 1, "(": -1}.get(name[i], 0)
        if depth == 0:
            return name[:i]
    return name


def symbol_table(obj: str, entries: dict[int, str]) -> list[tuple[int, int | None, str]]:
    """(start, size or None, name) of the object's functions, by start."""
    syms: dict[int, tuple[int | None, str]] = {}
    for flags in (["-S"], ["-S", "-D"]):
        out = subprocess.run(["nm", "-C", *flags, "--defined-only", obj],
                             capture_output=True, text=True).stdout
        for line in out.splitlines():
            parts = line.split(" ", 3)
            if len(parts) == 4 and parts[2] in "tTwWiI":
                syms.setdefault(int(parts[0], 16), (int(parts[1], 16), parts[3]))
        if syms:
            break
    for start, name in entries.items():
        syms[start] = (None, name)  # extends to the next known start
    return [(start, *syms[start]) for start in sorted(syms)]


def resolve(obj: str, offs: list[str], entries: dict[int, str]) -> dict[str, str]:
    """offset -> the function whose symbol holds it.

    Code the compiler inlined lies inside the symbol of the function it was
    inlined into, so this is the outermost function of the inline chain.
    Clones gcc splits off a function (f.cold, f.constprop.0) count as f.
    """
    names = {o: "??" for o in offs}
    if obj == "?" or not os.path.exists(obj):
        return names
    table = symbol_table(obj, entries)
    starts = [t[0] for t in table]
    for o in offs:
        off = int(o, 16)
        i = bisect.bisect_right(starts, off) - 1
        if i >= 0 and (table[i][1] is None or off < table[i][0] + table[i][1]):
            names[o] = strip_args(table[i][2].split("@")[0].split(" [clone ")[0])
        else:
            names[o] = "(unnamed)"
    return names


def main(argv: list[str]) -> int:
    if "--" not in argv:
        sys.exit(__doc__)
    split = argv.index("--")
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--top", type=int, default=25, help="functions to list")
    ap.add_argument("--out", default=None, help="directory for the shim and raw table")
    args = ap.parse_args(argv[:split])
    cmd = argv[split + 1:]

    out_dir = Path(args.out or tempfile.mkdtemp(prefix="cpu_sampler."))
    out_dir.mkdir(parents=True, exist_ok=True)
    lib = build_shim(out_dir)
    table = out_dir / "samples.tsv"
    env = dict(os.environ, LD_PRELOAD=str(lib), CPU_SAMPLER_OUT=str(table))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        sys.exit(f"cpu_sampler: command exited with {proc.returncode}")

    by_object: dict[str, dict[str, int]] = collections.defaultdict(dict)
    entries: dict[str, dict[int, str]] = collections.defaultdict(dict)
    for line in table.read_text().splitlines():
        if line.startswith("#entry\t"):
            _, name, obj, off = line.split("\t")
            entries[obj][int(off, 16)] = name
            continue
        count, obj, off = line.split("\t")
        by_object[obj][off] = by_object[obj].get(off, 0) + int(count)
    per_function: collections.Counter[tuple[str, str]] = collections.Counter()
    per_object: collections.Counter[str] = collections.Counter()
    for obj, counts in by_object.items():
        names = resolve(obj, sorted(counts), entries[obj])
        for off, n in counts.items():
            per_function[(names[off], os.path.basename(obj))] += n
            per_object[os.path.basename(obj)] += n
    total = sum(per_object.values())
    if total == 0:
        sys.exit("cpu_sampler: no samples (the command used too little CPU)")
    print(f"cpu sampler: {' '.join(cmd)}")
    # The timer asks for one sample per millisecond of CPU time, but the kernel
    # delivers ITIMER_PROF on its scheduler tick (every 4 ms at CONFIG_HZ=250),
    # so the command's CPU time comes from its rusage, not the sample count.
    print(f"{total} samples over {cpu_s:.2f} s of CPU")
    print("by object: " + ", ".join(f"{o} {n / total:.1%}"
                                    for o, n in per_object.most_common()))
    print(f"{'self%':>6} {'samples':>8}  function [object]")
    ranked = per_function.most_common()
    for (func, obj), n in ranked[:args.top]:
        print(f"{100 * n / total:6.2f} {n:8d}  {func} [{obj}]")
    rest = sum(n for _, n in ranked[args.top:])
    if rest:
        print(f"{100 * rest / total:6.2f} {rest:8d}  (other {len(ranked) - args.top} "
              "functions)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
