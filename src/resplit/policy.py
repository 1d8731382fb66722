"""Checkpoint-triggered mitigation selection layered on the splitting engine.

A policy set is a family of recovery rates, one knob stronger per index, each
with a price proportional to how far it pushes past the baseline.  When an
outer trajectory first reaches a designated level, a short lookahead branches
the stored checkpoint into fresh continuations under every candidate, scores
each by the log of the fraction that goes on to reach the next level plus
cost, and fixes the cheapest adequate candidate for that trajectory's
continuation.  The lookahead is one pass of the splitting attempt loop,
``smc.run_attempts``, at the host stage.  Lookahead simulation is charged to
its own budget so the outer estimator's accounting is untouched, and its
random streams are disjoint from the outer ones, so the resumed trajectory
never depends on how the decision was reached.
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

    ``host_level`` is the level whose first hit triggers selection, and the
    stage the lookahead runs; ``continuations`` is the branch count per
    candidate.  ``inner_budget_steps`` caps total lookahead simulation; None
    leaves it uncapped.
    """

    host_level: int = 2
    continuations: int = 25
    inner_budget_steps: int | None = None

    def __post_init__(self) -> None:
        if self.host_level < 1:
            raise ValueError(
                f"host_level must be >= 1 (selection needs a parent stage), "
                f"got {self.host_level}"
            )
        if self.continuations < 1:
            raise ValueError(f"continuations must be >= 1, got {self.continuations}")
        if self.inner_budget_steps is not None and self.inner_budget_steps < 1:
            raise ValueError(
                f"inner_budget_steps must be >= 1 or None, got {self.inner_budget_steps}"
            )


@dataclass(frozen=True)
class PolicyEvaluation:
    """Scored candidates at one checkpoint and the selection they produced.

    ``estimates`` holds each candidate's lookahead crossing fraction (see
    :func:`evaluate_candidate`) and ``objectives`` its log plus cost, with a
    zero estimate scored as half a count (``1 / (2 * continuations)``) so the
    argmin stays finite; candidates that needed the substitution are flagged
    in ``zero_adjusted``.
    When every candidate needed it the evaluation is ``degenerate``: no
    continuation crossed under any candidate, and the argmin is the cheapest.
    """

    estimates: tuple[float, ...]
    costs: tuple[float, ...]
    continuations: int
    objectives: tuple[float, ...]
    zero_adjusted: tuple[bool, ...]
    selected: int
    degenerate: bool


def select_policy(
    estimates: Sequence[float],
    costs: Sequence[float],
    continuations: int,
) -> PolicyEvaluation:
    """Score candidates and pick the argmin of log-probability-plus-cost.

    Exact ties resolve toward the cheaper, then lower-indexed candidate.
    """
    row = tuple(float(e) for e in estimates)
    cost_row = tuple(float(c) for c in costs)
    if len(row) == 0:
        raise ValueError("need at least one candidate to select from")
    if len(cost_row) != len(row):
        raise ValueError(f"{len(row)} candidates but {len(cost_row)} costs")
    if continuations < 1:
        raise ValueError(f"continuations must be >= 1, got {continuations}")

    floor = 0.5 / continuations
    adjusted = tuple(e <= 0.0 for e in row)
    objectives = tuple(
        math.log(floor if zero else e) + cost for e, zero, cost in zip(row, adjusted, cost_row)
    )
    selected = min(range(len(row)), key=lambda i: (objectives[i], cost_row[i], i))
    return PolicyEvaluation(
        estimates=row,
        costs=cost_row,
        continuations=continuations,
        objectives=objectives,
        zero_adjusted=adjusted,
        selected=selected,
        degenerate=all(adjusted),
    )


def evaluate_candidate(
    sim,
    source: Checkpoint,
    rate: float,
    schedule: LevelSchedule,
    look: LookaheadConfig,
    rng: np.random.Generator,
    ledger: BudgetLedger,
) -> float | None:
    """Crossing fraction of fresh branches of ``source`` under one recovery rate.

    ``look.continuations`` branches of the host-level checkpoint ``source``
    try to reach the next level: one pass of the splitting attempt loop
    (:func:`resplit.smc.run_attempts`) at ``host_level``, stepping on noise
    from ``rng``.  Steps are charged to ``ledger``, which is checked before
    every attempt; None means it ran dry before every branch had run.
    """
    n = look.continuations
    host = look.host_level
    attempts, hits, _ = run_attempts(
        sim, [_stamp(sim, source, rate)], schedule.target(host), host + 1, 0, n, ledger,
        NoiseBuffer(sim, rng), None,
    )
    return len(hits) / n if attempts == n else None


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

    inner_ledger = BudgetLedger(look.inner_budget_steps)
    selections: list[int] = []
    evaluations: list[PolicyEvaluation] = []

    def select_at_host(level: int, rec: LevelRecord, sim) -> LevelRecord:
        if level != host - 1:
            return rec
        if policies.size == 1:
            # singleton set: the baseline is already in every snapshot
            selections.extend([0] * len(rec.checkpoints))
            return rec
        stamped = []
        for ordinal, cp in enumerate(rec.checkpoints):
            estimates: list[float] = []
            while not inner_ledger.exhausted and len(estimates) < policies.size:
                cand = len(estimates)
                rng = stream(seed, "lookahead", ordinal, cand)
                e = evaluate_candidate(
                    sim, cp, policies.rate(cand), schedule, look, rng, inner_ledger
                )
                if e is None:
                    break
                estimates.append(e)
            if len(estimates) < policies.size:
                # not enough inner budget to finish scoring: keep the baseline
                selections.append(0)
            else:
                ev = select_policy(estimates, policies.costs(), look.continuations)
                evaluations.append(ev)
                selections.append(ev.selected)
            stamped.append(_stamp(sim, cp, policies.rate(selections[-1])))
        return replace(rec, checkpoints=tuple(stamped))

    report = run_smc(factory, schedule, cfg, seed, on_stage=select_at_host)
    return PolicySmcReport(
        smc=report,
        host_level=host,
        selections=tuple(selections),
        selection_counts=tuple(selections.count(i) for i in range(policies.size)),
        evaluations=tuple(evaluations),
        fallback_count=len(selections) - len(evaluations) if policies.size > 1 else 0,
        degenerate_count=sum(ev.degenerate for ev in evaluations),
        inner_cost_steps=inner_ledger.used,
        inner_budget_exhausted=inner_ledger.exhausted,
    )
