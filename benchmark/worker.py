"""One workload in one fresh process: set up, run whole rounds, check, report.

Started by ``run.py``; prints one JSON object on its last stdout line.

    python3 benchmark/worker.py --workload net-smc --seed 1 --seconds 20 --trace 0
"""
from __future__ import annotations

import time

STARTED_NS = time.perf_counter_ns()

from hostspeed import HostSampler  # noqa: E402

SAMPLER = HostSampler()
if __name__ == "__main__":
    SAMPLER.start()  # the imports below are part of the set-up it samples

import argparse  # noqa: E402  (imports below count towards setup.import_s)
import gzip  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402

from common import OUT, engine_seeds, use_checkout_source  # noqa: E402

use_checkout_source()

from resplit.netmodel import NetParams, NetSimulator  # noqa: E402
from resplit.toys import LadderSim  # noqa: E402
from spans import summarize, tracing  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

IMPORTED_NS = time.perf_counter_ns()
IMPORTED_STOLEN_NS = SAMPLER.stolen_ns

BLOCK_NS = 50_000_000  # untraced engine time before the same calls are repeated traced


class Tally:
    """Work and outcomes of the engine runs of one pass."""

    def __init__(self) -> None:
        self.runs = 0  # runs that returned; the rates count these
        self.steps = 0
        self.raw_ns = 0  # time inside engine calls, host probes left out
        self.adjusted_ns = 0.0  # the same scaled by the host speed
        self.wall_ns = 0  # the same with the probes in, as spans see it
        self.attempted = 0
        self.failed = 0
        self.counters: dict[str, int] = {}
        self.problems: list[str] = []

    def timed_s(self) -> float:
        return self.adjusted_ns / 1e9

    def runs_per_s(self) -> float:
        return self.runs / self.timed_s()

    def note(self, problems) -> None:
        self.problems.extend(problems[: max(0, 10 - len(self.problems))])


def _timed_call(w, seed, tally: Tally):
    stolen = SAMPLER.stolen_ns
    start = time.perf_counter_ns()
    try:
        rep = w.call(seed)
    except Exception as exc:  # an engine run that raises counts as failed
        rep = exc
    end = time.perf_counter_ns()
    raw = end - start - (SAMPLER.stolen_ns - stolen)
    tally.raw_ns += raw
    tally.adjusted_ns += raw * SAMPLER.speed(start, end)
    tally.wall_ns += end - start
    return rep


def account(w, i, rep, tally: Tally, expected: bytes | None = None):
    """Check the report of seed ``i``; given ``expected``, the digest of an
    earlier report for that seed, it must repeat that report bit for bit.

    Returns the report's digest and ``w.summary`` of it, or ``(None, None)``
    when the engine raised; the report itself is not kept.
    """
    tally.attempted += 1
    if isinstance(rep, Exception):
        tally.failed += 1
        tally.note([f"{w.name}: {rep!r}"])
        return None, None
    tally.runs += 1
    tally.steps += w.steps(rep)
    for key, value in w.counters(rep).items():
        tally.counters[key] = tally.counters.get(key, 0) + value
    errs = w.problems(rep)
    got = digest(rep)
    if expected is not None and got != expected:
        errs.append("report differs from the same seed's earlier one")
    if errs:
        tally.failed += 1
        tally.note([f"{w.name} seed {w.seeds[i]}: {e}" for e in errs])
    return got, w.summary(rep)


def run_round(w, tally: Tally, expected=None, traced: Tally | None = None, spans=None):
    """Call the engine once per seed, timing each call alone and checking its
    report at once; given ``expected`` (digests), each must repeat it.

    With ``traced``, every block of calls that took BLOCK_NS is repeated at
    once under tracing, timed into ``traced``: both sides of the tracing
    overhead then see the same host, and the bindings are swapped once per
    block rather than once per call.  Returns the round's digests and summaries.
    """
    digests, summaries = [], []
    block_start, since = 0, time.perf_counter_ns()
    for i, seed in enumerate(w.seeds):
        got, summary = account(w, i, _timed_call(w, seed, tally), tally,
                               expected[i] if expected else None)
        digests.append(got)
        summaries.append(summary)
        if traced is not None and (time.perf_counter_ns() - since >= BLOCK_NS
                                   or i == len(w.seeds) - 1):
            with tracing(spans):
                for j in range(block_start, i + 1):
                    account(w, j, _timed_call(w, w.seeds[j], traced), traced, digests[j])
            block_start, since = i + 1, time.perf_counter_ns()
    return digests, summaries


def finish_round_checks(w, first, tally: Tally) -> list[str]:
    """Pooled checks over the first round, then the untimed replay runs."""
    digests, summaries = first
    if None in digests:  # a run failed: it is counted already
        return []
    pooled = w.pooled_problems(summaries)
    made, errs = w.extra_runs(summaries, digests)
    tally.attempted += made
    if errs:
        tally.failed += made
        tally.note(errs)
    return pooled


def timed_rounds(w, seconds: float, tally: Tally, traced: Tally | None = None, spans=None):
    """Whole rounds while another would end within half a round of ``seconds``.

    Returns the first round's digests and summaries.
    """
    start = time.monotonic()
    first = None
    rounds = 0
    while True:
        result = run_round(w, tally, first[0] if first else None, traced, spans)
        first = first or result
        rounds += 1
        elapsed = time.monotonic() - start
        if elapsed + elapsed / rounds / 2 > seconds:
            return first


def l0_figures(seed: int) -> dict[str, float]:
    """ns per step of each simulator, stepped directly along one long trajectory."""
    net_seed, ladder_seed = engine_seeds("l0", seed, 2)
    out = {}
    for key, sim, reps, s in (
        # 600 s of the default network is a 12000-step trajectory
        ("netmodel.step_ns", NetSimulator(NetParams(horizon_seconds=600.0)), 20, net_seed),
        # a sure-footed ladder climbs every one of its 20000 rungs
        ("toys.ladder_step_ns", LadderSim((1.0,) * 20_000), 10, ladder_seed),
    ):
        rng = np.random.Generator(np.random.Philox(s))
        step, coordinate, n = sim.step, sim.coordinate, sim.horizon_steps
        origin = sim.snapshot()
        stolen = SAMPLER.stolen_ns
        start = time.perf_counter_ns()
        for _ in range(reps):
            sim.restore(origin)
            for _ in range(n):
                step(rng)
                coordinate()
        end = time.perf_counter_ns()
        raw = end - start - (SAMPLER.stolen_ns - stolen)
        out[key] = raw * SAMPLER.speed(start, end) / (reps * n)
    return out


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_figures(passes, setup) -> dict[str, float]:
    """Per-layer metrics, each from the traced pass of the workload that exercises it.

    Span times are scaled by the pass's host speed, as the engine time is.
    """
    out = dict(setup)
    t = passes["ladder-tiny"]["traced"]
    s, ns = t["spans"], 1e-9 * t["host"]  # seconds per raw span ns
    out["core.stream_us"] = _per(s["core.stream"]["self_ns"], s["core.stream"]["count"]) * ns * 1e6
    out["core.streams_per_run"] = _per(s["core.stream"]["count"], t["runs"])
    out["smc.overhead_us_per_run"] = _per(
        s["run_smc"]["total_ns"] - s["run_level"]["total_ns"], t["runs"]) * ns * 1e6

    t = passes["net-smc"]["traced"]
    s, c, ns = t["spans"], t["counters"], 1e-9 * t["host"]
    out["smc.run_level_s_per_run"] = _per(s["run_level"]["total_ns"], t["runs"]) * ns
    out["smc.run_level_steps_per_s"] = _per(s["run_level"]["work"], s["run_level"]["total_ns"]) / ns
    out["smc.steps_per_run"] = _per(t["steps"], t["runs"])
    out["smc.attempts_per_run"] = _per(c["attempts"], t["runs"])
    out["smc.success_ratio"] = _per(c["successes"], c["attempts"])
    out["smc.resample_us"] = _per(s["resample_pool"]["total_ns"], s["resample_pool"]["count"]) * ns * 1e6

    t = passes["net-mc"]["traced"]
    s, ns = t["spans"], 1e-9 * t["host"]
    out["mc.trajectories_per_s"] = _per(t["counters"]["trajectories"], s["run_mc"]["total_ns"]) / ns
    out["mc.steps_per_run"] = _per(t["steps"], t["runs"])
    out["mc.stream_share"] = _per(s["core.stream"]["total_ns"], s["run_mc"]["total_ns"])

    t = passes["net-policy"]["traced"]
    s, c, ns = t["spans"], t["counters"], 1e-9 * t["host"]
    ev = s["evaluate_candidate"]
    out["policy.evaluate_candidate_s_per_run"] = _per(ev["total_ns"], t["runs"]) * ns
    out["policy.lookahead_steps_per_s"] = _per(ev["work"], ev["total_ns"]) / ns
    out["policy.candidates_per_run"] = _per(ev["count"], t["runs"])
    out["policy.lookahead_step_share"] = _per(c["inner_steps"], c["inner_steps"] + c["outer_steps"])
    return out


def pass_record(tally: Tally, spans=None) -> dict:
    rec = {"runs": tally.runs, "steps": tally.steps, "timed_s": tally.timed_s(),
           "raw_timed_s": tally.raw_ns / 1e9, "runs_per_s": tally.runs_per_s(),
           "host": tally.adjusted_ns / tally.wall_ns, "counters": tally.counters}
    if spans is not None:
        rec["spans"] = summarize(spans)
    return rec


def traced_run(name, seed, seconds, setup) -> dict:
    """Each engine run of ``name`` untraced and then traced, for ``seconds``; then
    the same for a few runs of each other workload, so that every layer is
    measured on a workload that exercises it."""
    passes, raw, total = {}, {}, Tally()
    pooled = []
    for wname, cls in WORKLOADS.items():
        w = cls(seed)
        plain, traced, spans = Tally(), Tally(), []
        if wname == name:
            first = timed_rounds(w, seconds, plain, traced, spans)
            pooled = finish_round_checks(w, first, plain)
        else:
            w.seeds = w.seeds[: w.probe_size]
            run_round(w, plain, None, traced, spans)
        passes[wname] = {"untraced": pass_record(plain), "traced": pass_record(traced, spans)}
        raw[wname] = spans
        for t in (plain, traced):
            total.attempted += t.attempted
            total.failed += t.failed
            total.note(t.problems)
    layers = layer_figures(passes, setup)
    layers.update(l0_figures(seed))
    SAMPLER.stop()
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{name}-seed{seed}.json.gz"
    with gzip.open(path, "wt") as fh:
        json.dump({"workload": name, "seed": seed, "layers": layers, "passes": passes,
                   "span_fields": ["name", "start_ns", "end_ns", "parent", "work"],
                   "spans": raw}, fh)
    overhead = {k: [p["untraced"]["runs_per_s"], p["traced"]["runs_per_s"]]
                for k, p in passes.items()}
    return {"tally": total, "pooled": pooled, "layers": layers, "overhead": overhead,
            "trace_file": str(path.relative_to(OUT.parent.parent))}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload](args.seed)
    ready = time.monotonic()
    ready_ns = time.perf_counter_ns()
    # adjusted seconds, probes left out, as run.py gives setup_s
    setup = {
        "setup.import_s": (IMPORTED_NS - STARTED_NS - IMPORTED_STOLEN_NS)
        * SAMPLER.speed(STARTED_NS, IMPORTED_NS) / 1e9,
        "setup.inputs_s": (ready_ns - IMPORTED_NS - (SAMPLER.stolen_ns - IMPORTED_STOLEN_NS))
        * SAMPLER.speed(IMPORTED_NS, ready_ns) / 1e9,
    }
    # set-up as run.py measures it, from the process start, leaves the probes out
    out = {"ready": ready, "setup_stolen_s": SAMPLER.stolen_ns / 1e9,
           "setup_speed": SAMPLER.speed(STARTED_NS, ready_ns), **setup}
    if not args.setup_only:
        if args.trace:
            res = traced_run(args.workload, args.seed, args.seconds, setup)
            tally, pooled = res.pop("tally"), res.pop("pooled")
            out.update(res)
        else:
            tally = Tally()
            first = timed_rounds(w, args.seconds, tally)
            pooled = finish_round_checks(w, first, tally)
            out.update(runs=tally.runs, steps=tally.steps, timed_s=tally.timed_s(),
                       raw_timed_s=tally.raw_ns / 1e9)
        out.update(attempted=tally.attempted, failed=tally.failed,
                   correct=not pooled, problems=pooled + tally.problems)
    SAMPLER.stop()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main()
