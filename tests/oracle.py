"""The network model one step at a time, as pure functions: the oracle that
``NetSimulator.advance`` must match bit for bit; and a one-step driver."""
from __future__ import annotations

import math
from dataclasses import dataclass

from resplit.core import HorizonExceededError
from resplit.netmodel import NetParams, capacity


@dataclass(frozen=True, slots=True)
class NetState:
    """Full model state at one step: the first five fields of a ``NetSimulator`` snapshot."""

    step_index: int
    backlog: float
    health: float
    log_stress: float
    exceed_count: int


def state_of(sim) -> NetState:
    return NetState(*sim.snapshot()[:5])


def step(sim, rng) -> None:
    """One step of any simulator on a fresh draw, taken even where the step reads none."""
    sim.advance(sim.draw_noise(rng, 1), 0, 1, math.inf)


def service_delay(state: NetState) -> float:
    """Current backlog expressed in time units at the current capacity."""
    return state.backlog / capacity(state.health)


def is_failure(state: NetState, params: NetParams) -> bool:
    """True once the delay threshold has been exceeded for the whole grace window."""
    return state.exceed_count >= params.grace_steps


def reaction_coordinate(state: NetState, params: NetParams) -> float:
    """Progress towards failure in [0, 2]; exactly 2 on the failure set.

    Sum of the delay's closeness to threshold (capped at 1) and the filled
    fraction of the grace window.  The failure branch is pinned to 2 so the
    equivalence ``g == 2  <=>  failed`` holds even if the queue drains on the
    very step the window fills.
    """
    grace = params.grace_steps
    if state.exceed_count >= grace:
        return 2.0
    ratio = service_delay(state) / params.delay_threshold
    if ratio > 1.0:
        ratio = 1.0
    return ratio + state.exceed_count / grace


def step_dynamics(state: NetState, params: NetParams, rate: float, gamma: float) -> NetState:
    """One step of the dynamics, as a pure function of the pre-step state.

    Health recovers at ``rate``, the mitigation setting in force, with the
    model's own ``params.recovery_exponent``.  The queue, health and
    persistence updates all read the time-``j`` values: in particular the
    delay that feeds the exceedance counter is the pre-step one.  ``gamma``
    is the standard-normal stress innovation.
    """
    if state.step_index >= params.horizon_steps:
        raise HorizonExceededError(
            f"step {state.step_index} is already at the {params.horizon_steps}-step horizon"
        )
    c = capacity(state.health)
    backlog = state.backlog + (params.arrival_load - c) * params.step_seconds
    if backlog < 0.0:
        backlog = 0.0
    health = (
        state.health
        + rate * (1.0 - c) ** params.recovery_exponent
        - math.exp(state.log_stress)
    )
    log_stress = (
        params.stress_persistence * state.log_stress
        + (1.0 - params.stress_persistence) * params.stress_log_mean
        + gamma * params.stress_log_sd
    )
    delay = state.backlog / c
    if delay >= params.delay_threshold:
        exceed = state.exceed_count + 1
        if exceed > params.grace_steps:
            exceed = params.grace_steps
    else:
        exceed = 0
    return NetState(
        step_index=state.step_index + 1,
        backlog=backlog,
        health=health,
        log_stress=log_stress,
        exceed_count=exceed,
    )
