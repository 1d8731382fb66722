"""Run benchmark pairs of a parent checkout and this one into ``BENCH_<label>.json``.

    python3 tools/bench_pairs.py --parent ../parent --label fixed_cost \\
        --workload ladder-tiny --pairs 10 --trace-pairs 2

Each pair runs ``benchmark/run.py`` once in each checkout, alternating which
goes first, with the same workload, seed and run length.  Both sides run
from sibling copies, ``parent`` and ``change`` in one temporary directory,
of what the benchmark reads (``src``, ``benchmark`` and ``BENCHMARK.json``),
so that neither side's timings, ``setup_s`` above all, depend on where its
checkout lies.  ``--pairs`` pairs give the end-to-end metrics and
``--trace-pairs`` more pairs, run with ``--trace 1``, the per-layer ones.
The file holds every run's metrics and, for each metric, both medians, the
parent's quartiles and how many pairs the change won.  A gain may be claimed
only when the change wins at least nine pairs in ten and the medians differ
by more than the parent's quartile gap.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def sibling_copies(parent: Path, base: Path) -> dict[str, Path]:
    """Copies of what the benchmark reads from ``parent`` and from this
    checkout, side by side under ``base``."""
    dirs = {}
    for side, source in (("parent", parent), ("change", ROOT)):
        dest = dirs[side] = base / side
        for tree in ("src", "benchmark"):
            shutil.copytree(source / tree, dest / tree,
                            ignore=shutil.ignore_patterns("__pycache__", "out"))
        shutil.copy2(source / "BENCHMARK.json", dest / "BENCHMARK.json")
    return dirs


def run_pairs(dirs: dict[str, Path], workload: str, seed: int, seconds: float, pairs: int,
              trace: int):
    """``[(parent metrics, change metrics), ...]``, each run's last JSON line."""
    out = []
    for i in range(pairs):
        sides = {}
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            proc = subprocess.run(
                [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=dirs[side], stdout=subprocess.PIPE, text=True, check=True,
            )
            sides[side] = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"pair {i} {side}: {json.dumps(sides[side])}", file=sys.stderr)
        out.append((sides["parent"], sides["change"]))
    return out


def summarize(pairs, spec) -> dict:
    """Medians, the parent's quartiles and the change's wins, per metric."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    table = {}
    for name in pairs[0][0]["metrics"]:
        p = [a["metrics"][name]["value"] for a, _ in pairs]
        c = [b["metrics"][name]["value"] for _, b in pairs]
        sign = 1 if better[name] == "higher" else -1
        q1, _, q3 = statistics.quantiles(p, n=4) if len(p) > 1 else (p[0],) * 3
        table[name] = {
            "unit": pairs[0][0]["metrics"][name]["unit"], "better": better[name],
            "parent_median": statistics.median(p), "parent_quartiles": [q1, q3],
            "change_median": statistics.median(c),
            "change_wins": sum(sign * (y - x) > 0 for x, y in zip(p, c)), "pairs": len(p),
        }
    return table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--label", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace-pairs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(), "numpy": np.__version__},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as base:
        dirs = sibling_copies(args.parent.resolve(), Path(base))
        for key, trace, count in (("end_to_end", 0, args.pairs),
                                  ("per_layer", 1, args.trace_pairs)):
            if count:
                pairs = run_pairs(dirs, args.workload, args.seed, seconds, count, trace)
                result[key] = {"summary": summarize(pairs, spec),
                               "runs": [{"parent": a, "change": b} for a, b in pairs]}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {path.name}")


if __name__ == "__main__":
    main()
