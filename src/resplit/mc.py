"""Naive Monte Carlo baseline at a matched step budget.

Runs as many full trajectories as the step budget affords, each from a fresh
initial state, and reports the hit fraction.  The report carries the
accounting needed to compare against splitting runs: the trajectory count
``N``, whose inverse is the smallest resolvable probability, and the
predicted relative variance ``(1 - p) / (p N)``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from resplit.core import Simulator, stream

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
    """Run the planned trajectories; each stops at its first absorption or the horizon.

    Every trajectory starts from the factory's initial state, which one
    simulator captures once and restores before each trajectory.  The run
    reads one stream, ``("mc",)``, and randomness enters only there: each
    trajectory draws its whole ``n = horizon - start`` values whether or not
    it fails early, so trajectory ``i`` reads block ``i``, values
    ``[i n, (i + 1) n)`` of the stream.

    A hit costs the steps to its failure and a miss its whole ``n`` steps,
    also when ``advance`` ended it early under the early-stop rule of
    ``core.Simulator``.
    """
    sim = factory()
    count = mc_plan(cfg, sim.horizon_steps)
    origin = sim.snapshot()
    rng = stream(seed, "mc")

    hits = 0
    cost = 0
    for _ in range(count):
        sim.restore(origin)
        start = sim.step_index
        g = sim.coordinate()
        if g < sim.failure_value:
            # one bulk draw covers the horizon, so the next trajectory starts at its
            # own block; draws past the failure step are never read
            n = sim.horizon_steps - start
            _, g = sim.advance(sim.draw_noise(rng, n), 0, n, sim.failure_value)
            # a miss costs its whole window, however few steps advance took
            cost += sim.step_index - start if g >= sim.failure_value else n
        hits += g >= sim.failure_value

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
        cost_steps_used=cost,
        rel_var_pred=rel_var,
    )
