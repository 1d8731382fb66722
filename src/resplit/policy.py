"""Checkpoint-triggered mitigation selection layered on the splitting engine.

A policy set is a family of recovery rates, one knob stronger per index, each
with a price proportional to how far it pushes past the baseline.  When an
outer trajectory first reaches a designated level, a short lookahead branches
the stored checkpoint into fresh continuations under every candidate, scores
each by the log of the fraction that goes on to reach the next level plus
cost, and fixes the cheapest adequate candidate for that trajectory's
continuation.  Each candidate's lookahead is one pass of the splitting
attempt loop, ``smc.run_attempts``, at the host stage.

Only the host-level checkpoints that the next stage's pool holds are scored:
the pool is resampled first, and a checkpoint it never drew has no
continuation for a policy to act on, so it keeps the baseline rate its
snapshot already carries, with no simulation and no noise drawn.

All candidates of one checkpoint share one block of noise, drawn once from
the stream ``("lookahead", ordinal)``: branch ``k`` steps on row ``k`` under
every candidate (common random numbers), so candidates differ only by their
rate.  Where the simulator declares a ``monotone_rate_bound`` (for the
network model ``((1 + phi) / phi) ** (phi + 1)``, 3.375 at ``phi = 2``)
and the strongest candidate is within it, a stronger rate can only hold a
branch back, so candidate ``i`` reruns only the rows that crossed under
candidate ``i - 1``, and once no row is left the rest score zero without
simulating.
Otherwise every candidate runs every row.  Lookahead simulation is counted
on its own uncapped ledger so the outer estimator's accounting is untouched,
and its random streams are disjoint from the outer ones, so the resumed
trajectory never depends on how the decision was reached.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
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
    "lookahead_noise",
    "run_smc_with_reconfiguration",
    "select_policy",
]


@dataclass(frozen=True)
class PolicySet:
    """Candidate recovery rates ``base_rate * (1 + i * increment_fraction)``.

    Candidate 0 is always the do-nothing baseline.  The cost of candidate ``i``
    is ``cost_scale * i * increment_fraction``, the relative acceleration of
    recovery scaled by the price knob.
    """

    size: int
    base_rate: float
    increment_fraction: float = 0.5
    cost_scale: float = 0.5

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"need at least one candidate, got size {self.size}")
        for name in ("base_rate", "increment_fraction", "cost_scale"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.base_rate > 0.0:
            raise ValueError(f"base_rate must be > 0, got {self.base_rate}")
        if not 0.0 < self.increment_fraction <= 1.0:
            raise ValueError(
                f"increment_fraction must be in (0, 1], got {self.increment_fraction}"
            )
        if not self.cost_scale >= 0.0:
            raise ValueError(f"cost_scale must be >= 0, got {self.cost_scale}")

    @classmethod
    def from_params(
        cls,
        params: NetParams,
        size: int,
        increment_fraction: float = 0.5,
        cost_scale: float = 0.5,
    ) -> "PolicySet":
        """Family anchored at the model's own baseline rate.

        The strongest candidate is checked against the model's one-step
        stability bound up front instead of blowing up mid-run.
        """
        family = cls(size, params.recovery_rate, increment_fraction, cost_scale)
        top = family.rate(size - 1)
        if top * params.step_seconds > 1.0:
            raise ValueError(
                f"strongest candidate rate {top} violates stability for "
                f"step {params.step_seconds} s"
            )
        return family

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
    candidate, and the row count of each checkpoint's shared noise block,
    drawn from ``stream(seed, "lookahead", ordinal)`` (see
    :func:`lookahead_noise`).
    """

    host_level: int = 2
    continuations: int = 25

    def __post_init__(self) -> None:
        if self.host_level < 1:
            raise ValueError(
                f"host_level must be >= 1 (selection needs a parent stage), "
                f"got {self.host_level}"
            )
        if self.continuations < 1:
            raise ValueError(f"continuations must be >= 1, got {self.continuations}")


@dataclass(frozen=True)
class PolicyEvaluation:
    """Scored candidates at one checkpoint and the selection they produced.

    ``estimates`` holds each candidate's lookahead crossing fraction (see
    :func:`evaluate_candidate`) and ``objectives`` its log plus cost, with a
    zero estimate scored as half a count (``1 / (2 * continuations)``) so the
    argmin stays finite.  ``steps`` holds the lookahead steps charged to
    each candidate; a candidate the nesting made free shows 0 steps with a
    zero estimate.
    """

    estimates: tuple[float, ...]
    objectives: tuple[float, ...]
    selected: int
    steps: tuple[int, ...]

    @property
    def degenerate(self) -> bool:
        """No continuation crossed under any candidate, so the argmin is the cheapest."""
        return all(e <= 0.0 for e in self.estimates)


def select_policy(
    estimates: Sequence[float],
    costs: Sequence[float],
    continuations: int,
    steps: Sequence[int],
) -> PolicyEvaluation:
    """Score candidates and pick the argmin of log-probability-plus-cost.

    Exact ties resolve toward the cheaper, then lower-indexed candidate.
    ``steps``, one count per candidate, is recorded and not scored.
    """
    row = tuple(float(e) for e in estimates)
    cost_row = tuple(float(c) for c in costs)
    step_row = tuple(int(n) for n in steps)
    if len(row) == 0:
        raise ValueError("need at least one candidate to select from")
    if len(cost_row) != len(row):
        raise ValueError(f"{len(row)} candidates but {len(cost_row)} costs")
    if len(step_row) != len(row):
        raise ValueError(f"{len(row)} candidates but {len(step_row)} step counts")
    if continuations < 1:
        raise ValueError(f"continuations must be >= 1, got {continuations}")

    floor = 0.5 / continuations
    objectives = tuple(
        math.log(floor if e <= 0.0 else e) + cost for e, cost in zip(row, cost_row)
    )
    selected = min(range(len(row)), key=lambda i: (objectives[i], cost_row[i], i))
    return PolicyEvaluation(row, objectives, selected, step_row)


def lookahead_noise(
    sim, source: Checkpoint, look: LookaheadConfig, rng: np.random.Generator
) -> NoiseBuffer:
    """The noise block every candidate at ``source`` shares.

    ``look.continuations`` rows of ``horizon_steps - source.hit_step``
    values, drawn from ``rng`` in one go: row ``k`` is all the noise branch
    ``k`` can read before the horizon.
    """
    noise = NoiseBuffer(sim, rng)
    noise.reserve(look.continuations * (sim.horizon_steps - source.hit_step))
    return noise


def evaluate_candidate(
    sim,
    source: Checkpoint,
    rate: float,
    schedule: LevelSchedule,
    look: LookaheadConfig,
    noise: NoiseBuffer,
    ledger: BudgetLedger,
    rows: Sequence[int],
) -> list[int]:
    """The rows whose branch of ``source`` reaches the next level under one rate.

    Branch ``k`` of the host-level checkpoint ``source`` steps on row ``k``
    of ``noise``, the checkpoint's shared block (:func:`lookahead_noise`),
    and tries to reach the next level; only the branches in ``rows`` run.
    That is one pass of the splitting attempt loop
    (:func:`resplit.smc.run_attempts`) at ``host_level``, one attempt per
    row.  The candidate's estimate is the number of rows returned over
    ``look.continuations``.  Steps are counted on ``ledger``, which must be
    uncapped (``BudgetLedger(None)``) so that every row runs.

    :func:`run_smc_with_reconfiguration` draws the block from
    ``stream(seed, "lookahead", ordinal)`` and passes every row to
    candidate 0.  When the strongest candidate is within the simulator's
    ``monotone_rate_bound`` it passes candidate ``i`` only the rows that
    candidate ``i - 1`` returned, since on common noise a stronger rate
    never lets a branch cross that a weaker one held back; otherwise every
    row, every time.
    """
    host = look.host_level
    _, _, success_attempts = run_attempts(
        sim, [_stamp(sim, source, rate)], schedule.target(host), host + 1, 0, len(rows), ledger,
        noise, None, rows,
    )
    return [rows[a] for a in success_attempts]


def _score(
    sim,
    source: Checkpoint,
    policies: PolicySet,
    schedule: LevelSchedule,
    look: LookaheadConfig,
    noise: NoiseBuffer,
    ledger: BudgetLedger,
    nested: bool,
) -> PolicyEvaluation:
    """Score every candidate at ``source`` on its shared block.

    Nested, candidate ``i`` runs only the rows that crossed under candidate
    ``i - 1``, and no row left means a zero estimate with no simulation.
    """
    every = range(look.continuations)
    rows: Sequence[int] = every
    estimates: list[float] = []
    steps: list[int] = []
    for cand in range(policies.size):
        before = ledger.used
        crossed = (
            evaluate_candidate(sim, source, policies.rate(cand), schedule, look, noise, ledger, rows)
            if rows else []
        )
        estimates.append(len(crossed) / look.continuations)
        steps.append(ledger.used - before)
        rows = crossed if nested else every
    return select_policy(estimates, policies.costs(), look.continuations, steps)


def _stamp(sim, cp: Checkpoint, rate: float) -> Checkpoint:
    """Rewrite a checkpoint's snapshot with the selected recovery rate in force."""
    sim.restore(cp.snapshot)
    sim.set_policy(rate)
    return Checkpoint(sim.snapshot(), cp.level_index, cp.hit_step, cp.coordinate)


@dataclass(frozen=True)
class PolicySmcReport:
    """Splitting report plus what the selection layer did along the way.

    ``selections`` lists the candidate per host-level checkpoint in creation
    order.  Only the checkpoints the next stage's pool drew are scored:
    ``evaluations`` holds their scored candidates in ordinal order and
    ``scored`` the ordinal behind each.  Every other entry of ``selections``
    is 0, the baseline rate its snapshot carries, and is counted in
    ``fallback_count``: a checkpoint the pool never drew, or any checkpoint
    of a one-candidate set, which scores none.  ``selection_counts``
    counts those zeros too, so the choices made are
    ``ev.selected for ev in evaluations``.
    """

    smc: SmcReport
    selections: tuple[int, ...]
    selection_counts: tuple[int, ...]
    evaluations: tuple[PolicyEvaluation, ...]
    scored: tuple[int, ...]
    fallback_count: int
    degenerate_count: int
    inner_cost_steps: int

    @property
    def estimate(self) -> float:
        return self.smc.estimate

    @property
    def levels(self) -> tuple[LevelRecord, ...]:
        return self.smc.levels


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
    the stage feeding ``host_level`` completes and the host stage's pool is
    resampled, each distinct checkpoint in that pool is scored by lookahead,
    in ascending ordinal order, and every pool entry drawn from it restarts
    with its winning policy written into the snapshot, so all its
    descendants inherit the choice.  Checkpoints the pool never drew are not
    scored (see :class:`PolicySmcReport`).  The simulator must support
    ``set_policy(rate)`` and carry the recovery rate inside snapshots.  With
    a single candidate the layer does nothing at all: no inner simulation
    runs and the report wraps the bit-identical plain run.

    The ``ordinal``-th checkpoint's candidates share one noise block from
    ``stream(seed, "lookahead", ordinal)``, so a checkpoint's evaluation does
    not depend on which others were picked, and the outer run is that of
    scoring every checkpoint.

    Scoring is nested when the simulator declares ``monotone_rate_bound``,
    the largest rate up to which a stronger rate never lets a branch cross
    that a weaker one held back, and the strongest candidate is within it;
    otherwise every candidate runs every row.  The estimates are the same
    either way, and nesting only skips steps.  The lookahead's streams are
    disjoint from the outer ones, so the resumed trajectories depend only on
    the selected policies, never on the lookahead draws themselves.
    """
    stages = schedule.stage_count
    host = look.host_level
    if host > stages - 1:
        raise ValueError(
            f"host_level {host} needs a later stage to matter; schedule has "
            f"stages 0..{stages - 1}"
        )

    inner_ledger = BudgetLedger(None)
    selections: list[int] = []
    evaluations: list[PolicyEvaluation] = []
    scored: list[int] = []

    def select_at_host(rec: LevelRecord, pool: list[Checkpoint], sim) -> list[Checkpoint]:
        if rec.level != host - 1:
            return pool
        # the baseline is already in every snapshot; only picked checkpoints are scored
        selections.extend([0] * len(rec.checkpoints))
        if policies.size == 1:
            return pool
        bound = getattr(sim, "monotone_rate_bound", None)
        nested = bound is not None and policies.rate(policies.size - 1) <= bound
        # the pool holds the record's own checkpoint objects, some several times
        ordinal_of = {id(cp): ordinal for ordinal, cp in enumerate(rec.checkpoints)}
        stamped = {}
        for ordinal in sorted({ordinal_of[id(cp)] for cp in pool}):
            cp = rec.checkpoints[ordinal]
            noise = lookahead_noise(sim, cp, look, stream(seed, "lookahead", ordinal))
            ev = _score(sim, cp, policies, schedule, look, noise, inner_ledger, nested)
            evaluations.append(ev)
            scored.append(ordinal)
            selections[ordinal] = ev.selected
            stamped[ordinal] = _stamp(sim, cp, policies.rate(ev.selected))
        return [stamped[ordinal_of[id(cp)]] for cp in pool]

    report = run_smc(factory, schedule, cfg, seed, on_stage=select_at_host)
    return PolicySmcReport(
        smc=report,
        selections=tuple(selections),
        selection_counts=tuple(selections.count(i) for i in range(policies.size)),
        evaluations=tuple(evaluations),
        scored=tuple(scored),
        fallback_count=len(selections) - len(evaluations),
        degenerate_count=sum(ev.degenerate for ev in evaluations),
        inner_cost_steps=inner_ledger.used,
    )
