"""Checks on the engine reports the benchmark produces.

Each function returns a list of problems, empty when the report is sound.  The
checks test properties the method must have, or compare with figures computed
here, apart from ``resplit``: the law of a success-stopped ratio is summed
below, and the reference failure probability comes from ``reference.py``.
"""
from __future__ import annotations

import math
import statistics

# Failure probability of the default network point (NetParams(), default_levels()),
# from `python3 benchmark/reference.py`: 40 splitting runs at ten
# times the default success and attempt targets, on seeds disjoint from the
# workloads'.  See README.md for the run's output.
P_REF = 1.1755e-3
P_REF_SE = 9.3e-5

# The round means that the pooled net-smc check accepts, as multiples of P_REF.
# One default splitting run's estimate has a long upper tail (up to 8x P_REF in
# 200 runs), so a normal approximation of the mean of 24 runs would trip
# falsely; `reference.py` instead resamples rounds of 24 from 200 default runs,
# scaled to P_REF, takes the 1e-5 and 1 - 1e-5 quantiles of their means (0.297
# and 2.563) and widens them by three reference standard errors, to 0.226 and
# 3.172.
SMC_LOW = 0.22
SMC_HIGH = 3.2

# Standard errors the ladder's mean estimate may sit from its exact law.  The
# mean of 2000 stopped ratios is close to normal: a sound engine trips this
# about once in 1.7 million runs.
LADDER_Z_LIMIT = 5.0

# A pooled Monte Carlo hit count whose upper-tail probability under the
# reference is below this trips the net-mc check.
MC_TAIL_LIMIT = 1e-6


def smc_problems(rep, thresholds, success_target, attempt_target, budget) -> list[str]:
    """Outer accounting of one splitting run (``SmcReport``)."""
    errs = []
    levels = rep.levels
    if rep.cost_steps_used > budget:
        errs.append(f"cost {rep.cost_steps_used} over the budget {budget}")
    stage_cost = sum(rec.cost_steps for rec in levels)
    if stage_cost != rep.cost_steps_used:
        errs.append(f"stage costs sum to {stage_cost}, report says {rep.cost_steps_used}")
    for k, rec in enumerate(levels):
        if rec.level != k:
            errs.append(f"stage {k} is labelled level {rec.level}")
        if rec.stopping_met and (rec.successes < success_target or rec.attempts < attempt_target):
            errs.append(f"stage {k} stopped at {rec.successes}/{rec.attempts}, "
                        f"below the targets {success_target}/{attempt_target}")
        if rec.attempts and rec.p_hat != rec.successes / rec.attempts:
            errs.append(f"stage {k} p_hat {rec.p_hat} is not {rec.successes}/{rec.attempts}")
        if len(rec.checkpoints) != rec.successes:
            errs.append(f"stage {k} kept {len(rec.checkpoints)} checkpoints "
                        f"for {rec.successes} successes")
        low = [cp for cp in rec.checkpoints
               if cp.level_index != k + 1 or cp.coordinate < thresholds[k + 1]]
        if low:
            errs.append(f"stage {k}: {len(low)} checkpoints below level {k + 1}'s "
                        f"threshold {thresholds[k + 1]}")
    if rep.budget_exhausted:
        if rep.estimate != 0.0:
            errs.append(f"budget ran out but the estimate is {rep.estimate}")
    else:
        if len(levels) != len(thresholds) - 1 or not all(rec.stopping_met for rec in levels):
            errs.append("run claims completion without every stage meeting its targets")
        product = 1.0
        for rec in levels:
            product *= rec.p_hat
        if rep.estimate != product:
            errs.append(f"estimate {rep.estimate} is not the product of stage p_hat {product}")
    return errs


def mc_problems(rep, budget, horizon, grace) -> list[str]:
    """Budget accounting of one plain Monte Carlo run (``McReport``)."""
    errs = []
    n = budget // horizon
    if rep.trajectories != n:
        errs.append(f"{rep.trajectories} trajectories, budget // horizon is {n}")
    if not 0 <= rep.hits <= rep.trajectories:
        errs.append(f"{rep.hits} hits out of {rep.trajectories}")
    elif rep.estimate != rep.hits / rep.trajectories:
        errs.append(f"estimate {rep.estimate} is not {rep.hits}/{rep.trajectories}")
    # a miss runs the whole horizon; a hit needs at least the full grace window
    floor = horizon * (rep.trajectories - rep.hits) + grace * rep.hits
    if rep.cost_steps_used < floor:
        errs.append(f"cost {rep.cost_steps_used} below the least possible {floor}")
    if rep.cost_steps_used > budget:
        errs.append(f"cost {rep.cost_steps_used} over the budget {budget}")
    return errs


def ladder_problems(rep, success_target) -> list[str]:
    """One single-stage run on the one-rung ladder: every attempt is one step."""
    if len(rep.levels) != 1:
        return [f"{len(rep.levels)} stages, expected 1"]
    rec = rep.levels[0]
    errs = []
    if rec.successes != success_target:
        errs.append(f"{rec.successes} successes, target {success_target}")
    if rec.cost_steps != rec.attempts or rep.cost_steps_used != rec.attempts:
        errs.append(f"cost {rec.cost_steps}/{rep.cost_steps_used} steps for {rec.attempts} attempts")
    if rep.estimate != success_target / rec.attempts:
        errs.append(f"estimate {rep.estimate} is not {success_target}/{rec.attempts}")
    return errs


def policy_problems(rep, size, host, thresholds, success_target, attempt_target,
                    budget) -> list[str]:
    """A splitting run with lookahead selection (``PolicySmcReport``)."""
    errs = smc_problems(rep.smc, thresholds, success_target, attempt_target, budget)
    levels = rep.smc.levels
    feeding = levels[host - 1] if len(levels) >= host else None
    expected = len(feeding.checkpoints) if feeding is not None and feeding.stopping_met else 0
    sel = rep.selections
    if len(sel) != expected:
        errs.append(f"{len(sel)} selections for {expected} host-level checkpoints")
    if any(not 0 <= i < size for i in sel):
        errs.append(f"selection index outside 0..{size - 1}")
    counts = tuple(sel.count(i) for i in range(size))
    if rep.selection_counts != counts or sum(rep.selection_counts) != len(sel):
        errs.append(f"selection counts {rep.selection_counts}, selections give {counts}")
    if len(rep.evaluations) != len(sel) - rep.fallback_count:
        errs.append(f"{len(rep.evaluations)} evaluations for {len(sel)} selections "
                    f"and {rep.fallback_count} fallbacks")
    if rep.degenerate_count != sum(ev.degenerate for ev in rep.evaluations):
        errs.append("degenerate count disagrees with the evaluations")
    for ev in rep.evaluations:
        if len(ev.objectives) != size or not 0 <= ev.selected < size:
            errs.append(f"evaluation over {len(ev.objectives)} candidates selected {ev.selected}")
        elif not ev.degenerate and ev.objectives[ev.selected] != min(ev.objectives):
            errs.append(f"selected candidate {ev.selected} does not minimise the objective")
    if rep.inner_cost_steps < 0:
        errs.append(f"negative lookahead cost {rep.inner_cost_steps}")
    return errs


def stopped_ratio_moments(p: float, s: int) -> tuple[float, float]:
    """Mean and variance of ``s / A`` for ``A = s + K``, ``K ~ NegBin(s, p)`` failures.

    Sums the negative-binomial series directly: P(K = 0) = p**s and
    P(K = k + 1) / P(K = k) = (s + k) (1 - p) / (k + 1).
    """
    term = p**s
    mean = second = mass = 0.0
    k = 0
    while term > 1e-300 or k < s / p:
        ratio = s / (s + k)
        mass += term
        mean += ratio * term
        second += ratio * ratio * term
        term *= (s + k) * (1.0 - p) / (k + 1)
        k += 1
    if abs(mass - 1.0) > 1e-12:
        raise ArithmeticError(f"negative-binomial mass sums to {mass}")
    return mean, second - mean * mean


def ladder_pooled_problems(estimates, p, s) -> list[str]:
    """The mean of many stopped ratios against their exact law."""
    mean, var = stopped_ratio_moments(p, s)
    got = statistics.fmean(estimates)
    z = (got - mean) / math.sqrt(var / len(estimates))
    if abs(z) > LADDER_Z_LIMIT:
        return [f"mean estimate {got:.6f} vs exact {mean:.6f}: z = {z:+.1f}"]
    return []


def smc_pooled_problems(estimates) -> list[str]:
    """Mean splitting estimate against the reference probability."""
    ratio = statistics.fmean(estimates) / P_REF
    if not SMC_LOW <= ratio <= SMC_HIGH:
        return [f"mean splitting estimate is {ratio:.2f} x the reference {P_REF:.3e}, "
                f"outside [{SMC_LOW}, {SMC_HIGH}]"]
    return []


def binomial_upper_tail(k: int, n: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p), summed term by term."""
    if k <= 0:
        return 1.0
    log_term = (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                + k * math.log(p) + (n - k) * math.log1p(-p))
    term, total = math.exp(log_term), 0.0
    for i in range(k, n + 1):
        total += term
        if term < 1e-20 * total:
            break
        term *= (n - i) / (i + 1) * p / (1.0 - p)
    return total


def mc_tail(hits: int, trajectories: int) -> float:
    """Chance of ``hits`` or more, for a failure probability drawn from the
    reference's normal error: the binomial tail averaged over a grid of
    P_REF +- 5 standard errors."""
    num = den = 0.0
    for j in range(-50, 51):
        weight = math.exp(-0.5 * (j / 10) ** 2)
        num += weight * binomial_upper_tail(hits, trajectories, P_REF + j / 10 * P_REF_SE)
        den += weight
    return num / den


def mc_pooled_problems(hits: int, trajectories: int) -> list[str]:
    """Pooled Monte Carlo hit count against the reference probability.

    One-sided: a round expects few hits (about 3 in 2499 trajectories), and no
    hit at all has a chance of about 5%, so only a count too high can be told
    from chance.
    """
    tail = mc_tail(hits, trajectories)
    if tail < MC_TAIL_LIMIT:
        return [f"{hits} hits in {trajectories} trajectories, {trajectories * P_REF:.1f} "
                f"expected: chance of as many {tail:.1e}"]
    return []
