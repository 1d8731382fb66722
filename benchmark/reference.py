"""Reference figures the net-smc and net-mc checks compare with.

    python3 benchmark/reference.py

First, the failure probability of the default network point: ``run_smc`` on
the default ``NetParams`` and ``default_levels()`` with ten times the default
success and attempt targets, so the stopping bias of each stage, about
``(1 - p) / success_target``, is a fraction of a percent.  Then the spread of
one run at the default ``SmcConfig()``, as net-smc runs it, and how often the
pooled net-smc check trips on rounds resampled from those runs.  The seeds
come from the labels ``reference`` and ``reference-default``, disjoint from
every workload's.
"""
from __future__ import annotations

import math
import random
import statistics
import time

from common import engine_seeds, use_checkout_source

LONG_RUNS = 40
DEFAULT_RUNS = 200
RESAMPLES = 200_000


def long_runs(factory, levels, smc) -> None:
    cfg = smc.SmcConfig(success_target=200, attempt_target=1000, initial_pool=200,
                        pool_min=200, pool_max=2000, budget_steps=200_000_000)
    estimates = []
    t0 = time.perf_counter()
    for i, s in enumerate(engine_seeds("reference", 0, LONG_RUNS)):
        rep = smc.run_smc(factory, levels, cfg, s)
        if rep.budget_exhausted:
            raise SystemExit(f"reference run {i} exhausted its budget")
        estimates.append(rep.estimate)
        print(f"run {i}: estimate {rep.estimate:.6e} steps {rep.cost_steps_used}", flush=True)
    mean = statistics.fmean(estimates)
    se = statistics.stdev(estimates) / math.sqrt(len(estimates))
    print(f"p_ref {mean:.6e} se {se:.3e} ({se / mean:.1%}) over {len(estimates)} runs, "
          f"{time.perf_counter() - t0:.0f} s")


def default_runs(factory, levels, smc) -> None:
    import checks
    from workloads import NetSmc

    t0 = time.perf_counter()
    estimates = [smc.run_smc(factory, levels, smc.SmcConfig(), s).estimate
                 for s in engine_seeds("reference-default", 0, DEFAULT_RUNS)]
    mean = statistics.fmean(estimates)
    sd = statistics.stdev(estimates)
    print(f"default runs: mean {mean / checks.P_REF:.3f} +- {sd / math.sqrt(len(estimates)) / checks.P_REF:.3f}"
          f" x p_ref, sd {sd / checks.P_REF:.3f} x p_ref, max {max(estimates) / checks.P_REF:.2f} x p_ref,"
          f" over {len(estimates)} runs, {time.perf_counter() - t0:.0f} s")
    # rounds drawn from these runs, scaled to the reference mean: a sound engine
    scaled = [e / mean for e in estimates]
    rng = random.Random("reference-resample")
    means = sorted(statistics.fmean(rng.choices(scaled, k=NetSmc.round_size))
                   for _ in range(RESAMPLES))
    lo, hi = means[RESAMPLES // 100_000], means[-1 - RESAMPLES // 100_000]
    widen = 3 * checks.P_REF_SE / checks.P_REF
    print(f"round means of {RESAMPLES} resampled rounds: 1e-5 quantile {lo:.3f}, 1 - 1e-5 "
          f"quantile {hi:.3f}; widened by three reference errors: "
          f"[{lo * (1 - widen):.3f}, {hi * (1 + widen):.3f}]")
    tripped = sum(not checks.SMC_LOW <= m <= checks.SMC_HIGH for m in means)
    print(f"pooled check [{checks.SMC_LOW}, {checks.SMC_HIGH}] x p_ref trips on "
          f"{tripped} of the {RESAMPLES} rounds")


def main() -> None:
    use_checkout_source()
    from resplit import smc
    from resplit.netmodel import NetParams, default_levels, simulator_factory

    factory = simulator_factory(NetParams())
    long_runs(factory, default_levels(), smc)
    default_runs(factory, default_levels(), smc)


if __name__ == "__main__":
    main()
