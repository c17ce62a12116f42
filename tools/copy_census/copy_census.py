#!/usr/bin/env python3
"""Copy census: MB moved by memcpy/memmove/memset per op, by call site.

    tools/copy_census/copy_census.py [--ops N] [--top K] [--out DIR] -- CMD...

Builds the LD_PRELOAD shim (census.c, needs only gcc), runs CMD under it,
resolves each call site with addr2line (binutils) and prints one line per
site: MB per op, calls per op, kind and the first frame that resolves to a
source line of the program (a copy inside an out-of-line libstdc++ helper is
charged to the caller). The op count is --ops, else the "runs" of a bench
binary's BENCH_JSON line, else the "ops"/"attempted" of a final JSON line.

Examples:
    tools/copy_census/copy_census.py -- build/bench/bench_table2_attack 20 --jobs 1
    tools/copy_census/copy_census.py --ops 30 -- .bench_build/h2bench/h2bench \\
        --workload attack --seed 3 --ops 30 --setups 1 --trace 0 \\
        --work-dir /tmp/census-work --out /tmp/census.json

Everything the process does is counted, set-up included, so use enough ops
that set-up is small beside them. Copies the compiler inlines never reach
the shim; the table is a lower bound on bytes moved.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def build_shim(out_dir: Path) -> Path:
    lib = out_dir / "libcopy_census.so"
    src = HERE / "census.c"
    if not lib.exists() or lib.stat().st_mtime < src.stat().st_mtime:
        subprocess.run(["gcc", "-O2", "-shared", "-fPIC", "-fno-builtin",
                        "-fno-tree-loop-distribute-patterns", "-o", str(lib),
                        str(src), "-ldl"], check=True)
    return lib


def ops_from_stdout(stdout: str) -> int | None:
    for line in reversed(stdout.splitlines()):
        line = line.strip()
        if line.startswith("BENCH_JSON "):
            return int(json.loads(line[len("BENCH_JSON "):])["runs"])
        if line.startswith("{"):
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue
            for key in ("ops", "attempted"):
                if key in obj:
                    return int(obj[key])
    return None


# Source trees whose lines count as the program's; anything else (libstdc++
# headers, glibc) is looked through to the next frame out.
PROGRAM_DIRS = ("src/", "h2bench/", "bench/", "tools/", "tests/", "examples/")


def program_line(path: str) -> str:
    """The path from its leftmost program directory on, or '' if it has none."""
    if path.startswith("/usr/"):
        return ""
    hits = [at for at in (path.find("/" + m) for m in PROGRAM_DIRS) if at >= 0]
    return path[min(hits) + 1:] if hits else ""


def resolve(sites: set[tuple[str, str]]) -> dict[tuple[str, str], list[tuple[str, str]]]:
    """(object, offset) -> the program lines of its inline chain, innermost
    first, as (function, 'file:line') pairs."""
    by_object: dict[str, list[str]] = collections.defaultdict(list)
    for obj, off in sites:
        by_object[obj].append(off)
    names: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for obj, offs in by_object.items():
        names.update({(obj, o): [] for o in offs})
        if obj == "?" or not os.path.exists(obj):
            continue
        out = subprocess.run(["addr2line", "-a", "-i", "-f", "-C", "-e", obj, *offs],
                             capture_output=True, text=True, check=True).stdout
        off, chain = None, []
        for line in out.splitlines() + ["0x"]:
            if line.startswith("0x"):
                if off is not None:
                    for func, where in zip(chain[0::2], chain[1::2]):
                        path, _, lineno = where.partition(":")
                        rel = program_line(path)
                        if rel:
                            names[(obj, offs[off])].append(
                                (func.split("(")[0], f"{rel}:{lineno.split(' ')[0]}"))
                off = 0 if off is None else off + 1
                chain = []
            else:
                chain.append(line)
    return names


def main(argv: list[str]) -> int:
    if "--" not in argv:
        sys.exit(__doc__)
    split = argv.index("--")
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ops", type=int, help="op count (default: read from the output)")
    ap.add_argument("--top", type=int, default=20, help="sites to list")
    ap.add_argument("--out", default=None, help="directory for the shim and raw table")
    args = ap.parse_args(argv[:split])
    cmd = argv[split + 1:]

    out_dir = Path(args.out or tempfile.mkdtemp(prefix="copy_census."))
    out_dir.mkdir(parents=True, exist_ok=True)
    lib = build_shim(out_dir)
    table = out_dir / "census.tsv"
    env = dict(os.environ, LD_PRELOAD=str(lib), COPY_CENSUS_OUT=str(table))
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        sys.exit(f"copy_census: command exited with {proc.returncode}")
    ops = args.ops or ops_from_stdout(proc.stdout)
    if not ops:
        sys.exit("copy_census: no op count in the output; pass --ops")

    rows = []
    for line in table.read_text().splitlines():
        kind, calls, nbytes, *where = line.split("\t")
        frames = list(zip(where[0::2], where[1::2]))
        rows.append((kind, int(calls), int(nbytes), frames))
    names = resolve({f for r in rows for f in r[3]})

    totals: dict[tuple[str, str], list[int]] = collections.defaultdict(lambda: [0, 0])
    for kind, calls, nbytes, frames in rows:
        # The innermost program line, then the first program function that
        # called into it (a shared helper such as ByteWriter::bytes is charged
        # per caller).
        lines = [entry for f in frames for entry in names.get(f, [])]
        if not lines:
            site = f"{frames[0][0]}+{frames[0][1]}"
        else:
            site = f"{lines[0][0]} ({lines[0][1]})"
            caller = next((e for e in lines if e[0] != lines[0][0]), None)
            if caller:
                site += f" < {caller[0]} ({caller[1]})"
        totals[(kind, site)][0] += calls
        totals[(kind, site)][1] += nbytes
    all_bytes = sum(b for _, b in totals.values())
    all_calls = sum(c for c, _ in totals.values())
    print(f"copy census: {' '.join(cmd)}")
    print(f"{ops} ops; {all_bytes / ops / 1e6:.3f} MB and {all_calls / ops:.0f} calls "
          f"per op (memcpy+memmove+memset)")
    print(f"{'MB/op':>8} {'calls/op':>9}  kind     site")
    ranked = sorted(totals.items(), key=lambda kv: -kv[1][1])
    for (kind, site), (calls, nbytes) in ranked[:args.top]:
        print(f"{nbytes / ops / 1e6:8.3f} {calls / ops:9.0f}  {kind:<8} {site}")
    rest = [counts for _, counts in ranked[args.top:]]
    if rest:
        print(f"{sum(r[1] for r in rest) / ops / 1e6:8.3f} "
              f"{sum(r[0] for r in rest) / ops:9.0f}  (other {len(rest)} sites)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
