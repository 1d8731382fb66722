"""Checkpoint-triggered mitigation selection layered on the splitting engine.

A policy set is a family of recovery rates, one knob stronger per index, each
with a price proportional to how far it pushes past the baseline.  When an
outer trajectory first reaches a designated level, a short lookahead branches
the stored checkpoint into fresh continuations under every candidate, scores
each by accumulated log stage probability plus cost, and fixes the cheapest
adequate candidate for that trajectory's continuation.  Each lookahead stage
is one pass of the splitting attempt loop, ``smc.run_attempts``.  Lookahead
simulation is charged to its own budget so the outer estimator's accounting
is untouched, and its random streams are disjoint from the outer ones, so the
resumed trajectory never depends on how the decision was reached.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from resplit.core import BudgetLedger, Checkpoint, LevelSchedule, NoiseBuffer, stream
from resplit.netmodel import NetParams
from resplit.smc import LevelRecord, SimFactory, SmcConfig, SmcReport, run_attempts, run_smc
from resplit.smc import resample_pool, run_level  # not called here; benchmark/spans.py wraps them

__all__ = [
    "CandidateResult",
    "LookaheadConfig",
    "PolicyEvaluation",
    "PolicySet",
    "PolicySmcReport",
    "evaluate_candidate",
    "run_smc_with_reconfiguration",
    "select_policy",
]


@dataclass(frozen=True)
class PolicySet:
    """Candidate recovery rates ``base_rate * (1 + i * increment_fraction)``.

    Candidate 0 is always the do-nothing baseline.  The cost of candidate ``i``
    is ``cost_scale * i * increment_fraction``, the relative acceleration of
    recovery scaled by the price knob.  When ``step_seconds`` is given the
    strongest candidate is checked against the one-step stability bound up
    front instead of blowing up mid-run.
    """

    size: int
    base_rate: float
    increment_fraction: float = 0.5
    cost_scale: float = 0.5
    step_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"need at least one candidate, got size {self.size}")
        if not self.base_rate > 0.0:
            raise ValueError(f"base_rate must be > 0, got {self.base_rate}")
        if not 0.0 < self.increment_fraction <= 1.0:
            raise ValueError(
                f"increment_fraction must be in (0, 1], got {self.increment_fraction}"
            )
        if not self.cost_scale >= 0.0:
            raise ValueError(f"cost_scale must be >= 0, got {self.cost_scale}")
        if self.step_seconds is not None:
            if not self.step_seconds > 0.0:
                raise ValueError(f"step_seconds must be > 0, got {self.step_seconds}")
            top = self.rate(self.size - 1)
            if top * self.step_seconds > 1.0:
                raise ValueError(
                    f"strongest candidate rate {top} violates stability for "
                    f"step {self.step_seconds} s"
                )

    @classmethod
    def from_params(
        cls,
        params: NetParams,
        size: int,
        increment_fraction: float = 0.5,
        cost_scale: float = 0.5,
    ) -> "PolicySet":
        """Family anchored at the model's own baseline rate."""
        return cls(
            size=size,
            base_rate=params.recovery_rate,
            increment_fraction=increment_fraction,
            cost_scale=cost_scale,
            step_seconds=params.step_seconds,
        )

    def _check(self, index: int) -> None:
        if not 0 <= index < self.size:
            raise IndexError(f"candidate index {index} outside 0..{self.size - 1}")

    def rate(self, index: int) -> float:
        self._check(index)
        return self.base_rate * (1.0 + index * self.increment_fraction)

    def cost(self, index: int) -> float:
        self._check(index)
        return self.cost_scale * index * self.increment_fraction

    def costs(self) -> tuple[float, ...]:
        return tuple(self.cost(i) for i in range(self.size))


@dataclass(frozen=True)
class LookaheadConfig:
    """Where selection triggers and how much evidence it gathers.

    ``host_level`` is the level whose first hit triggers selection;
    ``continuations`` is the branch count per candidate and stage.  ``depth``
    is the last stage the lookahead scores (inclusive); None means myopic, the
    host stage only.  ``inner_budget_steps`` caps total lookahead simulation;
    None leaves it uncapped.
    """

    host_level: int = 2
    continuations: int = 25
    depth: int | None = None
    inner_budget_steps: int | None = None

    def __post_init__(self) -> None:
        if self.host_level < 1:
            raise ValueError(
                f"host_level must be >= 1 (selection needs a parent stage), "
                f"got {self.host_level}"
            )
        if self.continuations < 1:
            raise ValueError(f"continuations must be >= 1, got {self.continuations}")
        if self.depth is not None and self.depth < self.host_level:
            raise ValueError(
                f"depth {self.depth} is above (before) host_level {self.host_level}"
            )
        if self.inner_budget_steps is not None and self.inner_budget_steps < 1:
            raise ValueError(
                f"inner_budget_steps must be >= 1 or None, got {self.inner_budget_steps}"
            )

    @property
    def last_level(self) -> int:
        return self.host_level if self.depth is None else self.depth


@dataclass(frozen=True)
class CandidateResult:
    """Stage estimates from one candidate's continuations at one checkpoint."""

    estimates: tuple[float, ...]
    successes: tuple[int, ...]
    truncated: bool


@dataclass(frozen=True)
class PolicyEvaluation:
    """Scored candidates at one checkpoint and the selection they produced.

    ``objectives`` is the per-candidate sum of log stage estimates plus cost,
    with zero estimates scored as half a count (``1 / (2 * continuations)``)
    so the argmin stays finite; candidates that needed the substitution are
    flagged in ``zero_adjusted``.  When every candidate needed it the ranking
    is meaningless and ``degenerate`` selection falls back to the raw failure
    counts (fewest threshold crossings wins) with the price as tie-break.
    """

    stage_estimates: tuple[tuple[float, ...], ...]
    costs: tuple[float, ...]
    continuations: int
    objectives: tuple[float, ...]
    zero_adjusted: tuple[bool, ...]
    selected: int
    degenerate: bool


def select_policy(
    stage_estimates: Sequence[Sequence[float]],
    costs: Sequence[float],
    continuations: int,
) -> PolicyEvaluation:
    """Score candidates and pick the argmin of log-probability-plus-cost.

    Exact ties resolve toward the cheaper, then lower-indexed candidate.
    """
    rows = tuple(tuple(float(e) for e in row) for row in stage_estimates)
    cost_row = tuple(float(c) for c in costs)
    if len(rows) == 0:
        raise ValueError("need at least one candidate to select from")
    if len(cost_row) != len(rows):
        raise ValueError(f"{len(rows)} candidates but {len(cost_row)} costs")
    width = len(rows[0])
    if width == 0 or any(len(row) != width for row in rows):
        raise ValueError("every candidate needs the same nonzero number of stages")
    if continuations < 1:
        raise ValueError(f"continuations must be >= 1, got {continuations}")

    floor = 0.5 / continuations
    objectives = []
    adjusted = []
    for row, cost in zip(rows, cost_row):
        adjusted.append(any(e <= 0.0 for e in row))
        objectives.append(
            math.fsum(math.log(e if e > 0.0 else floor) for e in row) + cost
        )
    degenerate = all(adjusted)
    indices = range(len(rows))
    if degenerate:
        # every candidate had a stage with zero crossings, so the adjusted
        # objectives carry no real signal; rank by total crossing fraction
        # (fewest crossings, i.e. most failed continuations, wins), then price
        selected = min(indices, key=lambda i: (math.fsum(rows[i]), cost_row[i], i))
    else:
        selected = min(indices, key=lambda i: (objectives[i], cost_row[i], i))
    return PolicyEvaluation(
        stage_estimates=rows,
        costs=cost_row,
        continuations=continuations,
        objectives=tuple(objectives),
        zero_adjusted=tuple(adjusted),
        selected=selected,
        degenerate=degenerate,
    )


def evaluate_candidate(
    sim,
    source: Checkpoint,
    rate: float,
    schedule: LevelSchedule,
    look: LookaheadConfig,
    rng: np.random.Generator,
    ledger: BudgetLedger,
) -> CandidateResult:
    """Branch ``source`` into fresh continuations under one candidate recovery rate.

    Each stage from ``host_level`` through ``last_level`` is one pass of the
    splitting attempt loop (:func:`resplit.smc.run_attempts`) with exactly
    ``look.continuations`` attempts; stages past the first draw their start
    points uniformly from the previous stage's hits, which inherit the policy
    through their snapshots.  A stage with zero hits ends the chain and the
    remaining stages score zero, so every candidate reports the same number
    of stages.  Steps are charged to ``ledger``, which is checked before every
    attempt; running dry aborts the evaluation with ``truncated`` set and
    whatever was measured so far.

    The steps read their noise from ``rng``; the start-point picks of later
    stages come from a generator spawned from ``rng`` on first need, so a
    myopic lookahead draws nothing but noise.
    """
    n = look.continuations
    estimates: list[float] = []
    successes: list[int] = []
    pool = [_stamp(sim, source, rate)]
    width = look.last_level + 1 - look.host_level
    noise = NoiseBuffer(sim, rng)
    select_rng = None
    for level in range(look.host_level, look.last_level + 1):
        if len(pool) > 1 and select_rng is None:
            select_rng = rng.spawn(1)[0]
        attempts, hits, _ = run_attempts(
            sim, pool, schedule.target(level), level + 1, 0, n, ledger, noise,
            select_rng if len(pool) > 1 else None,
        )
        if attempts < n:
            return CandidateResult(tuple(estimates), tuple(successes), True)
        estimates.append(len(hits) / n)
        successes.append(len(hits))
        if not hits:
            break
        pool = hits
    while len(estimates) < width:
        estimates.append(0.0)
        successes.append(0)
    return CandidateResult(tuple(estimates), tuple(successes), False)


def _stamp(sim, cp: Checkpoint, rate: float) -> Checkpoint:
    """Rewrite a checkpoint's snapshot with the selected recovery rate in force."""
    sim.restore(cp.snapshot)
    sim.set_policy(rate)
    return Checkpoint(sim.snapshot(), cp.level_index, cp.hit_step, cp.coordinate)


@dataclass(frozen=True)
class PolicySmcReport:
    """Splitting report plus what the selection layer did along the way.

    ``selections`` lists the chosen candidate per host-level checkpoint in
    creation order; ``evaluations`` holds the scored candidates behind each
    non-trivial decision.  Checkpoints decided after the inner budget ran dry
    fall back to the baseline and are counted in ``fallback_count``.
    """

    smc: SmcReport
    host_level: int
    selections: tuple[int, ...]
    selection_counts: tuple[int, ...]
    evaluations: tuple[PolicyEvaluation, ...]
    fallback_count: int
    degenerate_count: int
    inner_cost_steps: int
    inner_budget_exhausted: bool

    @property
    def estimate(self) -> float:
        return self.smc.estimate

    @property
    def levels(self) -> tuple[LevelRecord, ...]:
        return self.smc.levels

    @property
    def selection_frequencies(self) -> tuple[float, ...]:
        total = len(self.selections)
        if total == 0:
            return tuple(0.0 for _ in self.selection_counts)
        return tuple(c / total for c in self.selection_counts)


def _select_for_checkpoints(
    sim,
    checkpoints: Sequence[Checkpoint],
    schedule: LevelSchedule,
    policies: PolicySet,
    look: LookaheadConfig,
    seed: int,
    ledger: BudgetLedger,
):
    """Run the lookahead at every host-level checkpoint and stamp the winners.

    Returns the stamped checkpoints and ``(selections, evaluations, fallbacks,
    degenerates)``.
    """
    stamped: list[Checkpoint] = []
    selections: list[int] = []
    evaluations: list[PolicyEvaluation] = []
    fallbacks = 0
    degenerates = 0
    for ordinal, cp in enumerate(checkpoints):
        results: list[tuple[float, ...]] = []
        truncated = ledger.exhausted
        if not truncated:
            for cand in range(policies.size):
                rng = stream(seed, "lookahead", ordinal, cand)
                res = evaluate_candidate(
                    sim, cp, policies.rate(cand), schedule, look, rng, ledger
                )
                if res.truncated:
                    truncated = True
                    break
                results.append(res.estimates)
        if truncated:
            # not enough inner budget to finish scoring: keep the baseline
            fallbacks += 1
            selections.append(0)
            stamped.append(_stamp(sim, cp, policies.rate(0)))
            continue
        ev = select_policy(results, policies.costs(), look.continuations)
        if ev.degenerate:
            degenerates += 1
        selections.append(ev.selected)
        evaluations.append(ev)
        stamped.append(_stamp(sim, cp, policies.rate(ev.selected)))
    return stamped, (selections, evaluations, fallbacks, degenerates)


def run_smc_with_reconfiguration(
    factory: SimFactory,
    schedule: LevelSchedule,
    cfg: SmcConfig,
    policies: PolicySet,
    look: LookaheadConfig,
    seed: int,
) -> PolicySmcReport:
    """Splitting run that may switch the mitigation policy at ``host_level``.

    The plain splitting run with the selection as its per-stage hook: once
    the stage feeding ``host_level`` completes, each checkpoint captured there
    is scored by lookahead, gets its winning policy written into its snapshot,
    and all its resampled descendants inherit the choice.  The simulator must
    support ``set_policy(rate)`` and carry the recovery rate inside snapshots.
    With a single candidate the layer does nothing at all: no inner simulation
    runs and the report wraps the bit-identical plain run.  The lookahead's
    streams are disjoint from the outer ones, so the resumed trajectories
    depend only on the selected policies, never on the lookahead draws
    themselves.
    """
    stages = schedule.stage_count
    host = look.host_level
    if host > stages - 1:
        raise ValueError(
            f"host_level {host} needs a later stage to matter; schedule has "
            f"stages 0..{stages - 1}"
        )
    if look.last_level > stages - 1:
        raise ValueError(
            f"lookahead depth {look.last_level} past the last stage {stages - 1}"
        )

    inner_ledger = BudgetLedger(look.inner_budget_steps)
    picks = ([], [], 0, 0)  # selections, evaluations, fallbacks, degenerates

    def select_at_host(level: int, rec: LevelRecord, sim) -> LevelRecord:
        nonlocal picks
        if level != host - 1:
            return rec
        if policies.size == 1:
            # singleton set: the baseline is already in every snapshot
            picks = ([0] * len(rec.checkpoints), [], 0, 0)
            return rec
        stamped, picks = _select_for_checkpoints(
            sim, rec.checkpoints, schedule, policies, look, seed, inner_ledger
        )
        return replace(rec, checkpoints=tuple(stamped))

    report = run_smc(factory, schedule, cfg, seed, on_stage=select_at_host)
    selections, evaluations, fallbacks, degenerates = picks
    return PolicySmcReport(
        smc=report,
        host_level=host,
        selections=tuple(selections),
        selection_counts=tuple(selections.count(i) for i in range(policies.size)),
        evaluations=tuple(evaluations),
        fallback_count=fallbacks,
        degenerate_count=degenerates,
        inner_cost_steps=inner_ledger.used,
        inner_budget_exhausted=inner_ledger.exhausted,
    )
