"""Run one benchmark workload in fresh processes and print its metrics.

    python3 benchmark/run.py --workload net-smc --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it prints every end-to-end metric of BENCHMARK.json, with
``--trace 1`` every per-layer metric, each as ``name value unit`` and then all
of them as one JSON object on the last line.  ``setup_s`` is the median of
three set-ups: two processes that only set up, and the measuring process.

Every time is in adjusted seconds: scaled by the host speed that
``hostspeed.py`` sampled while it ran, so that the host's drift cancels.  The
raw figures are printed too.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from common import ROOT, use_checkout_source

SETUP_ONLY_PROCESSES = 2
TIMEOUT_S = 170  # the whole command must end within 180 s
# one thread per workload process: no BLAS or OpenMP pools
ENV = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1"}


def spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run worker.py; return its set-up time, raw and adjusted, and its JSON result.

    The set-up runs from the process start to its first timed run.
    """
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmark" / "worker.py"), *args],
        cwd=ROOT, env=ENV, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - started),
    )
    if proc.returncode != 0:
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    raw = res["ready"] - started - res["setup_stolen_s"]
    return raw, raw * res["setup_speed"], res


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + TIMEOUT_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    use_checkout_source()  # exits 2 when the sources are not there

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_ONLY_PROCESSES):
            setups.append(spawn([*common, "--setup-only"], deadline)[:2])
    *setup, res = spawn([*common, "--seconds", str(args.seconds),
                         "--trace", str(args.trace)], deadline)
    setups.append(tuple(setup))

    if args.trace:
        values = res["layers"]
        wanted = spec["per_layer"]
        print(f"trace written to {res['trace_file']}")
        print("runs_per_s untraced vs traced (overhead):")
        for name, (plain, traced) in res["overhead"].items():
            print(f"  {name:12s} {plain:12.3f} {traced:12.3f} ({plain / traced - 1.0:+.1%})")
    else:
        values = {
            "setup_s": statistics.median(adj for _, adj in setups),
            "runs_per_s": res["runs"] / res["timed_s"],
            "steps_per_s": res["steps"] / res["timed_s"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
        # the same figures in plain seconds, the host's speed relative to REF_NS
        # (hostspeed.py), and the measuring process's own adjusted set-up
        print("raw " + json.dumps({
            "setup_s": statistics.median(raw for raw, _ in setups),
            "own_setup_s": setups[-1][1],
            "runs_per_s": res["runs"] / res["raw_timed_s"],
            "steps_per_s": res["steps"] / res["raw_timed_s"],
            "host_speed": res["timed_s"] / res["raw_timed_s"],
        }))
    for problem in res["problems"]:
        print(f"problem: {problem}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
