"""Steadiness check: two separate sets of runs of every workload, compared.

    python3 benchmark/steady.py

Two sets of ten runs of every workload in BENCHMARK.json, each run ``run.py``
with its own seed (no seed repeats across sets).  For every workload and
end-to-end metric it prints each set's median and quartiles, the spread
(quartile distance over median) and the gap between the two sets' medians,
signed so that positive is worse, next to the bound in BENCHMARK.json.  It
also prints the spread of the measuring process's own set-up, which
``setup_s`` takes the median of with two more.  The numbers also go to
``benchmark/out/steady.json``.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

from common import OUT, ROOT

SEED_BASE = 1000
SETS = 2
RUNS = 10


def one_run(workload: str, seed: int, seconds: int) -> dict:
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmark" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    res["wall_s"] = time.monotonic() - started
    # the same figures before the host speed adjustment
    res["raw"] = json.loads(next(line[4:] for line in lines if line.startswith("raw ")))
    return res


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    runs = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for w in workloads:
            for i in range(RUNS):
                seed = SEED_BASE + s * RUNS + i
                res = one_run(w, seed, seconds)
                runs[w][s].append(res)
                vals = " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items())
                print(f"set {s} {w} seed {seed}: {vals} attempted={res['attempted']} "
                      f"failed={res['failed']} correct={res['correct']} "
                      f"wall={res['wall_s']:.1f}s", flush=True)

    report = {"run_seconds": seconds, "runs": runs, "summary": {}}
    print()
    for w in workloads:
        walls = [r["wall_s"] for rs in runs[w] for r in rs]
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in runs[w]]
        print(f"{w}: wall per run mean {statistics.fmean(walls):.1f} s, max {max(walls):.1f} s; "
              f"failed share per set {shares}; all correct: "
              f"{all(r['correct'] for rs in runs[w] for r in rs)}")
        for m in spec["end_to_end"]:
            name, sign = m["name"], (1.0 if m["better"] == "lower" else -1.0)
            cells = []
            stats = []
            for rs in runs[w]:
                q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in rs])
                stats.append({"q1": q1, "median": med, "q3": q3, "spread": (q3 - q1) / med})
                cells.append(f"median {med:.5g} [{q1:.5g}, {q3:.5g}] spread {(q3 - q1) / med:.1%}")
            if name in rs[0]["raw"]:
                for rs in runs[w]:
                    q1, med, q3 = quartiles([r["raw"][name] for r in rs])
                    cells.append(f"raw spread {(q3 - q1) / med:.1%}")
            line = f"  {name:12s} " + " | ".join(cells)
            gap = sign * (stats[1]["median"] - stats[0]["median"]) / stats[0]["median"]
            stats.append({"gap": gap})
            print(f"{line} | gap {gap:+.1%} (bound {m['bound']:.0%})")
            report["summary"].setdefault(w, {})[name] = stats
        cells = []
        for rs in runs[w]:
            q1, med, q3 = quartiles([r["raw"]["own_setup_s"] for r in rs])
            cells.append(f"median {med:.5g} [{q1:.5g}, {q3:.5g}] spread {(q3 - q1) / med:.1%}")
        print("  own set-up   " + " | ".join(cells))
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "steady.json").write_text(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
