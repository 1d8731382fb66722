"""Naive Monte Carlo baseline at a matched step budget.

Runs as many full trajectories as the step budget affords, each from the
initial state, and reports the hit fraction.  This is splitting with one
level, the failure set: one pass of the attempt loop,
:func:`resplit.smc.run_attempts`.  The report carries the accounting needed
to compare against splitting runs: the trajectory count ``N``, whose inverse
is the smallest resolvable probability, and the predicted relative variance
``(1 - p) / (p N)``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from resplit.core import BudgetLedger, Checkpoint, NoiseBuffer, Simulator, stream
from resplit.smc import run_attempts

__all__ = ["McConfig", "McReport", "mc_plan", "run_mc"]


@dataclass(frozen=True)
class McConfig:
    """A step budget; the trajectory count is ``budget_steps // horizon``."""

    budget_steps: int = 5_000_000

    def __post_init__(self) -> None:
        if self.budget_steps < 1:
            raise ValueError(f"budget_steps must be >= 1, got {self.budget_steps}")


def mc_plan(cfg: McConfig, horizon_steps: int) -> int:
    """Trajectory count, before any simulation.

    The count is ``budget // horizon``: every planned trajectory must be
    affordable at full length.
    """
    if horizon_steps < 1:
        raise ValueError(f"horizon_steps must be >= 1, got {horizon_steps}")
    count = cfg.budget_steps // horizon_steps
    if count < 1:
        raise ValueError(
            f"budget of {cfg.budget_steps} steps is below one {horizon_steps}-step trajectory"
        )
    return count


@dataclass(frozen=True)
class McReport:
    trajectories: int
    hits: int
    estimate: float
    cost_steps_used: int
    rel_var_pred: float | None  # (1 - p)(p N)^-1, None when no hits landed


def run_mc(factory: Callable[[], Simulator], cfg: McConfig, seed: int) -> McReport:
    """Run the planned trajectories; each stops at its first failure or the horizon.

    The trajectories are the attempts of one :func:`resplit.smc.run_attempts`
    pass from a one-checkpoint pool, the factory's initial state, with the
    failure set as target; its captures are the hits.  They read one
    stream, ``("mc",)``, each on from where the last one stopped.  The
    planned count affords every trajectory at full length, so the budget
    never cuts one short.
    """
    sim = factory()
    count = mc_plan(cfg, sim.horizon_steps)
    pool = [Checkpoint(sim.snapshot(), 0, sim.step_index, sim.coordinate())]
    ledger = BudgetLedger(cfg.budget_steps)
    noise = NoiseBuffer(sim, stream(seed, "mc"))
    _, captures, _ = run_attempts(sim, pool, sim.failure_value, 1, 0, count, ledger, noise, None)

    hits = len(captures)
    estimate = hits / count
    rel_var = None
    if hits > 0 and estimate < 1.0:
        rel_var = (1.0 - estimate) / (estimate * count)
    elif hits == count:
        rel_var = 0.0
    return McReport(
        trajectories=count,
        hits=hits,
        estimate=estimate,
        cost_steps_used=ledger.used,
        rel_var_pred=rel_var,
    )
