"""Budget-aware fixed-level splitting estimator.

The failure probability is factorised over a level schedule: each stage draws
checkpoints from the previous stage's pool (uniformly, with replacement),
propagates them until they reach the next threshold, the horizon or the
absorbing failure set, and reports the fraction that made it.  A stage keeps
attempting until it has banked both enough successes and enough attempts, so
downstream pools never run dry and every stage ratio rests on at least
``attempt_target`` attempts.  Every simulated step is charged against one
global step budget; runs that exhaust it before completing all stages, or that
lose every trajectory at some stage, report an estimate of zero with the cause
flagged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from resplit.analysis import chain_prediction
from resplit.core import (
    BudgetLedger,
    Checkpoint,
    EmptyPoolError,
    LevelSchedule,
    NoiseBuffer,
    Simulator,
    stream,
)

__all__ = [
    "LevelRecord",
    "SmcConfig",
    "SmcDiagnostics",
    "SmcReport",
    "next_pool_size",
    "predict_diagnostics",
    "resample_pool",
    "run_attempts",
    "run_level",
    "run_smc",
]

SimFactory = Callable[[], Simulator]

# next_pool_size's margin over the expected attempts per success, and the
# stage estimate below which it stops growing the pool
SAFETY_FACTOR = 1.5
PROB_FLOOR = 0.05


@dataclass(frozen=True)
class SmcConfig:
    """Splitting controls: stopping targets, pool sizing, budget.

    ``initial_pool`` is validated but not read: stage 0 always attempts from
    the one fresh checkpoint every simulator starts in.
    """

    success_target: int = 20
    attempt_target: int = 100
    initial_pool: int = 20
    pool_min: int = 20
    pool_max: int = 200
    budget_steps: int = 5_000_000

    def __post_init__(self) -> None:
        if self.success_target < 1:
            raise ValueError(f"success_target must be >= 1, got {self.success_target}")
        if self.attempt_target < 1:
            raise ValueError(f"attempt_target must be >= 1, got {self.attempt_target}")
        if self.initial_pool < 1:
            raise ValueError(f"initial_pool must be >= 1, got {self.initial_pool}")
        if not 1 <= self.pool_min <= self.pool_max:
            raise ValueError(
                f"need 1 <= pool_min <= pool_max, got {self.pool_min}, {self.pool_max}"
            )
        if self.budget_steps < 1:
            raise ValueError(f"budget_steps must be >= 1, got {self.budget_steps}")


@dataclass(frozen=True)
class LevelRecord:
    """Outcome of one stage: counts, estimate, cost, and the retained checkpoints."""

    level: int
    attempts: int
    successes: int
    p_hat: float
    cost_steps: int
    stopping_met: bool
    next_pool_size: int | None = None
    checkpoints: tuple[Checkpoint, ...] = ()


StageHook = Callable[[LevelRecord, list[Checkpoint], Simulator], list[Checkpoint]]


@dataclass(frozen=True)
class SmcReport:
    """Result of a full splitting run."""

    levels: tuple[LevelRecord, ...]
    estimate: float
    cost_steps_used: int
    budget_exhausted: bool
    extinction_level: int | None


def next_pool_size(p_hat: float, cfg: SmcConfig) -> int:
    """Pool size for the next stage: enough attempts to bank the success target.

    Scales the success target by ``SAFETY_FACTOR / max(p_hat, PROB_FLOOR)``
    and clamps into ``[pool_min, pool_max]``.
    """
    if not 0.0 <= p_hat <= 1.0:
        raise ValueError(f"stage estimate must be in [0, 1], got {p_hat}")
    demand = math.ceil(SAFETY_FACTOR * cfg.success_target / max(p_hat, PROB_FLOOR))
    return min(cfg.pool_max, max(cfg.pool_min, demand))


def resample_pool(
    checkpoints: Sequence[Checkpoint], size: int, rng: np.random.Generator
) -> list[Checkpoint]:
    """Draw the next stage's pool uniformly with replacement from the survivors."""
    if len(checkpoints) == 0:
        raise EmptyPoolError("cannot resample from zero surviving checkpoints")
    if size < 1:
        raise ValueError(f"pool size must be >= 1, got {size}")
    indices = rng.integers(0, len(checkpoints), size=size)
    return [checkpoints[i] for i in indices]


# picks drawn per refill; batch boundaries do not change the picks
_PICK_BATCH = 512


def run_attempts(
    sim: Simulator,
    pool: Sequence[Checkpoint],
    target: float,
    next_level: int,
    success_target: int,
    attempt_target: int,
    ledger: BudgetLedger,
    noise: NoiseBuffer,
    select_rng: np.random.Generator | None,
    rows: Sequence[int] | None = None,
) -> tuple[int, list[Checkpoint], list[int]]:
    """Attempt from ``pool`` until both targets are met or the budget runs out.

    This is the one attempt loop: a splitting stage (:func:`run_level`), a
    candidate's lookahead (``policy.evaluate_candidate``) and a plain Monte
    Carlo run (``mc.run_mc``) are each one pass of it.

    Each attempt restores a checkpoint drawn uniformly with ``select_rng``
    (None for a one-checkpoint pool) and steps it on ``noise`` until it
    crosses ``target`` (success: captured at ``next_level``), reaches the
    horizon (failure) or runs out of budget mid-flight (void: cost paid,
    counted as neither).  A failure or a void attempt costs its whole
    window, also when ``advance`` ended it early, at its checkpoint's own
    state or later, under the early-stop rule of ``core.Simulator``.
    Targets and budget are checked before every attempt.  Returns the
    attempt count, the captures and the attempt index of each;
    ``ledger.used`` and ``noise.pos`` are written back on exit.

    By default each attempt reads on from where the last one stopped.  With
    ``rows`` (one-checkpoint pools only), attempt ``a`` reads from
    ``rows[a] * (horizon_steps - hit_step)`` instead, so attempts replay
    fixed rows of a block of noise; ``noise`` must then already hold that
    many values for every row.
    """
    attempts = 0
    successes = 0
    checkpoints: list[Checkpoint] = []
    success_attempts: list[int] = []
    n_pool = len(pool)

    # hot path: the loop below runs ~attempt_target times per stage, so
    # per-sim constants are hoisted, and the noise cursor and the ledger are
    # kept in locals flushed on every exit
    cap = math.inf if ledger.budget is None else ledger.budget
    used = ledger.used
    horizon = sim.horizon_steps
    advance = sim.advance
    restore = sim.restore
    take_snapshot = sim.snapshot
    values, pos = noise.values, noise.pos
    n_values = len(values)

    # a one-checkpoint pool (select_rng None) never picks again; restoring a
    # snapshot reproduces its recorded step and coordinate
    source = pool[0]
    snap, j, g_source = source.snapshot, source.hit_step, source.coordinate
    stride = horizon - j  # one row of a rows-mode block
    sel_buf: list[int] = []
    sel_pos = 0
    try:
        while successes < success_target or attempts < attempt_target:
            if used >= cap:
                break
            if select_rng is not None:
                if sel_pos == len(sel_buf):
                    sel_buf = select_rng.integers(0, n_pool, size=_PICK_BATCH).tolist()
                    sel_pos = 0
                source = pool[sel_buf[sel_pos]]
                sel_pos += 1
                snap, j, g_source = source.snapshot, source.hit_step, source.coordinate
            if g_source >= target:
                # source already past this threshold (multi-level jump or
                # checkpointed failure): immediate success, zero steps
                checkpoints.append(Checkpoint(snap, next_level, j, g_source))
                success_attempts.append(attempts)
                successes += 1
                attempts += 1
                continue
            restore(snap)
            if rows is not None:
                pos = rows[attempts] * stride
            # propagate to the threshold, the horizon or the end of the budget
            room = horizon - j
            if cap - used < room:
                room = cap - used
            if n_values - pos < room:
                noise.pos = pos
                noise.reserve(room)
                values, pos = noise.values, noise.pos
                n_values = len(values)
            pos, g = advance(values, pos, pos + room, target)
            if g >= target:
                hit_step = sim.step_index
                used += hit_step - j
                checkpoints.append(Checkpoint(take_snapshot(), next_level, hit_step, g))
                success_attempts.append(attempts)
                successes += 1
            else:
                # no crossing: the attempt costs every step it was allowed,
                # whether advance stepped them all or stopped at a proven miss
                used += room
                if room < horizon - j:
                    break  # budget ran out mid-flight: the attempt is void
            attempts += 1
    finally:
        ledger.used = used
        noise.pos = pos
    return attempts, checkpoints, success_attempts


def run_level(
    sim: Simulator,
    pool: Sequence[Checkpoint],
    level: int,
    schedule: LevelSchedule,
    cfg: SmcConfig,
    ledger: BudgetLedger,
    seed: int,
) -> LevelRecord:
    """Estimate one stage probability from ``pool`` by repeated attempts.

    The attempts (see :func:`run_attempts`) read their noise from the stage's
    ``"level-propagate"`` stream and their picks from its ``"level-select"``
    stream.  The absorbing failure set sits at the top threshold, so crossing
    checks subsume absorption.
    """
    if len(pool) == 0:
        raise EmptyPoolError(f"stage {level} started with an empty pool")
    noise = NoiseBuffer(sim, stream(seed, "level-propagate", level))
    # a one-checkpoint pool only ever picks index 0, so it needs no select stream
    select_rng = stream(seed, "level-select", level) if len(pool) > 1 else None
    cost_before = ledger.used
    attempts, checkpoints, _ = run_attempts(
        sim, pool, schedule.target(level), level + 1, cfg.success_target, cfg.attempt_target,
        ledger, noise, select_rng,
    )
    successes = len(checkpoints)
    return LevelRecord(
        level=level,
        attempts=attempts,
        successes=successes,
        p_hat=successes / attempts if attempts else 0.0,
        cost_steps=ledger.used - cost_before,
        stopping_met=successes >= cfg.success_target and attempts >= cfg.attempt_target,
        checkpoints=tuple(checkpoints),
    )


def _initial_pool(factory: SimFactory, schedule: LevelSchedule):
    """Stage 0's pool, one fresh checkpoint, and its simulator.

    A factory takes no argument and every simulator it builds starts in the
    same state, so one checkpoint is the whole pool and stage 0 draws no
    picks.  Every attempt restores a checkpoint before it steps, so the same
    simulator serves as the run's worker.  A schedule that the fresh state
    starts below, or whose top threshold no coordinate reaches, is a
    ``ValueError``.
    """
    sim = factory()
    g = sim.coordinate()
    base, top = schedule.thresholds[0], schedule.thresholds[-1]
    if g < base:
        raise ValueError(f"fresh initial state has coordinate {g} below the base threshold {base}")
    if top > sim.failure_value:
        raise ValueError(
            f"top threshold {top} is above the failure value {sim.failure_value}, "
            "which no coordinate passes"
        )
    return [Checkpoint(sim.snapshot(), 0, sim.step_index, g)], sim


def run_smc(
    factory: SimFactory,
    schedule: LevelSchedule,
    cfg: SmcConfig,
    seed: int,
    *,
    on_stage: StageHook | None = None,
) -> SmcReport:
    """Full splitting run over the schedule; estimate is the product of stage ratios.

    Returns an estimate of zero, with flags, when some stage lost every
    trajectory (extinction) or the step budget ran out before the final stage
    finished.  Identical ``(factory, schedule, cfg, seed)`` give an identical
    report, bit for bit.

    ``on_stage(record, pool, sim)`` is called after every stage that met its
    stopping targets and is followed by another, once the next stage's pool
    has been resampled from ``record.checkpoints``; the next stage runs from
    the pool it returns.  So a hook sees exactly the checkpoints the next
    stage restarts from, each as often as it was drawn.  ``sim`` is the
    run's worker simulator, free to use until the hook returns.
    """
    stages = schedule.stage_count
    ledger = BudgetLedger(cfg.budget_steps)
    pool, sim = _initial_pool(factory, schedule)

    records: list[LevelRecord] = []
    budget_exhausted = False
    extinction_level: int | None = None

    for level in range(stages):
        rec = run_level(sim, pool, level, schedule, cfg, ledger, seed)
        if not rec.stopping_met:
            # only the budget interrupts a stage before its targets are met
            records.append(rec)
            budget_exhausted = True
            if rec.successes == 0:
                extinction_level = level
            break
        if level == stages - 1:
            records.append(rec)
            break
        size = next_pool_size(rec.p_hat, cfg)
        rec = replace(rec, next_pool_size=size)
        records.append(rec)
        pool = resample_pool(rec.checkpoints, size, stream(seed, "resample", level))
        if on_stage is not None:
            pool = on_stage(rec, pool, sim)
        if ledger.exhausted:
            budget_exhausted = True
            break

    estimate = 0.0
    if not budget_exhausted:
        estimate = 1.0
        for rec in records:
            estimate *= rec.p_hat

    return SmcReport(
        levels=tuple(records),
        estimate=estimate,
        cost_steps_used=ledger.used,
        budget_exhausted=budget_exhausted,
        extinction_level=extinction_level,
    )


@dataclass(frozen=True)
class SmcDiagnostics:
    """Predicted estimator quality, with observed stage estimates substituted in.

    Per stage the relative bias and the relative variance are the same
    value, ``stage_rel_bias``.
    """

    stage_rel_bias: tuple[float, ...]
    rel_bias: float
    rel_var: float


def predict_diagnostics(report: SmcReport, cfg: SmcConfig) -> SmcDiagnostics | None:
    """Stopping-bias and variance predictions for a completed run.

    Per stage both relative bias and relative variance are
    ``(1 - p_hat) / success_target``, and stages compose multiplicatively.
    None when the run reported zero.
    """
    if report.estimate <= 0.0 or any(rec.p_hat <= 0.0 for rec in report.levels):
        return None
    q = tuple((1.0 - rec.p_hat) / cfg.success_target for rec in report.levels)
    chain = chain_prediction((q_k, q_k) for q_k in q)
    return SmcDiagnostics(stage_rel_bias=q, rel_bias=chain.rel_bias, rel_var=chain.rel_var)
