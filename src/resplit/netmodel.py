"""Delay-critical network model with persistence-triggered failure.

A single queue is fed at constant load and drained at a capacity that follows
a logistic function of a scalar health state.  Health recovers at a
configurable rate when capacity is depressed and is knocked down by a
log-AR(1) stress process.  Service delay is backlog over capacity; when the
delay stays at or above the threshold for a full grace window the system has
failed to recover in time and the trajectory is absorbed.

The reaction coordinate ``g`` maps a state onto ``[0, 2]``: the closeness of
the current delay to its threshold (capped at 1) plus the filled fraction of
the grace window.  ``g == 2`` exactly on the failure set, so level schedules
over ``g`` interpolate between "nominal" and "failed".
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, fields
from itertools import islice
from typing import Callable, Sequence

import numpy as np

from resplit.core import HorizonExceededError, LevelSchedule, horizon_step_count

__all__ = [
    "NetParams",
    "NetSimulator",
    "capacity",
    "default_levels",
    "simulator_factory",
]

_HEALTH_CLIP = 50.0  # logistic input clamp; capacity saturates far before this


@dataclass(frozen=True)
class NetParams:
    """Model constants.  Defaults reproduce the documented baseline profile."""

    arrival_load: float = 0.7
    step_seconds: float = 0.05
    horizon_seconds: float = 60.0
    initial_backlog: float = 0.0
    initial_health: float = 0.95
    recovery_rate: float = 0.2
    recovery_exponent: float = 2.0
    stress_persistence: float = 0.75
    stress_log_mean: float = -5.0
    stress_log_sd: float = 0.55
    delay_threshold: float = 0.1
    grace_seconds: float = 5.0
    initial_log_stress: float | None = None

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if not 0.0 < self.arrival_load < 1.0:
            raise ValueError(f"arrival_load must be in (0, 1), got {self.arrival_load}")
        horizon_step_count(self.horizon_seconds, self.step_seconds)  # validates both
        if not self.initial_backlog >= 0.0:
            raise ValueError(f"initial_backlog must be >= 0, got {self.initial_backlog}")
        if not self.recovery_rate > 0.0:
            raise ValueError(f"recovery_rate must be > 0, got {self.recovery_rate}")
        if self.recovery_rate * self.step_seconds > 1.0:
            raise ValueError(
                f"recovery_rate {self.recovery_rate} unstable for step {self.step_seconds} s"
            )
        if not self.recovery_exponent > 1.0:
            raise ValueError(f"recovery_exponent must be > 1, got {self.recovery_exponent}")
        if not 0.0 <= self.stress_persistence < 1.0:
            raise ValueError(
                f"stress_persistence must be in [0, 1), got {self.stress_persistence}"
            )
        if not self.stress_log_sd >= 0.0:
            # 0 is allowed: it freezes the stress at its mean, handy for exact tests
            raise ValueError(f"stress_log_sd must be >= 0, got {self.stress_log_sd}")
        if not self.delay_threshold > 0.0:
            raise ValueError(f"delay_threshold must be > 0, got {self.delay_threshold}")
        if not self.grace_seconds > 0.0:
            raise ValueError(f"grace_seconds must be > 0, got {self.grace_seconds}")
        if not math.isfinite(self.grace_seconds / self.step_seconds):
            raise ValueError(
                f"grace_seconds / step_seconds = {self.grace_seconds} / {self.step_seconds}"
                " is not finite"
            )
        if self.grace_steps > self.horizon_steps:
            # the counter rises at most once a step, so the failure set is out of reach
            raise ValueError(
                f"grace window of {self.grace_steps} steps is longer than the"
                f" {self.horizon_steps}-step horizon"
            )

    @property
    def horizon_steps(self) -> int:
        return horizon_step_count(self.horizon_seconds, self.step_seconds)

    @property
    def grace_steps(self) -> int:
        # ceil with a guard so 5.0 / 0.05 lands on 100, not 101
        return max(1, math.ceil(self.grace_seconds / self.step_seconds - 1e-9))

    @property
    def start_log_stress(self) -> float:
        if self.initial_log_stress is None:
            return self.stress_log_mean
        return self.initial_log_stress


def default_levels() -> LevelSchedule:
    """Default splitting schedule over ``g``: faint congestion, onset, critical, failed."""
    return LevelSchedule(
        thresholds=(0.0, 0.1, 1.0, 1.5, 2.0),
        labels=("nominal", "onset", "degraded", "critical", "failed"),
    )


def _reach(grace: int, target: float) -> int:
    """The least exceedance count whose coordinate can reach ``target``.

    Below the failure set the coordinate is at most ``1.0 + e / grace``, so
    this is the least ``e <= grace`` with ``e == grace`` or
    ``1.0 + e / grace >= target``, in the kernel's own arithmetic.
    """
    for e in range(grace):
        if 1.0 + e / grace >= target:
            return e
    return grace


def capacity(health: float) -> float:
    """Service capacity in (0, 1): logistic in the health state."""
    h = -_HEALTH_CLIP if health < -_HEALTH_CLIP else (_HEALTH_CLIP if health > _HEALTH_CLIP else health)
    return 1.0 / (1.0 + math.exp(-h))


class NetSimulator:
    """Stateful, restartable trajectory of the network model.

    :meth:`advance` is the one implementation of the dynamics: a
    local-variable loop over a noise list that carries the capacity and the
    delay it computes for each step's coordinate into the next step.  While
    the queue is idle, empty with capacity at or above the load, it steps
    only health and stress (see :meth:`advance`).  The test suite
    holds a plain one-step reimplementation of the model (``tests/oracle.py``)
    that it must match bit for bit.  Snapshots are plain value tuples
    ``(step, backlog, health, log_stress, exceed_count, recovery_rate)``, so
    restoring a checkpoint also restores the mitigation setting, the recovery
    rate, that produced it.  The recovery exponent is a model constant and
    stays out of snapshots.
    """

    failure_value = 2.0

    __slots__ = (
        "_j", "_backlog", "_health", "_log_stress", "_exceed",
        "_nu", "_phi", "_horizon", "_grace", "_load", "_dt", "_delta",
        "_rho", "_mu_blend", "_sigma", "_c", "_reaches",
    )

    def __init__(self, params: NetParams) -> None:
        self._phi = params.recovery_exponent
        self._horizon = params.horizon_steps
        self._grace = params.grace_steps
        self._load = params.arrival_load
        self._dt = params.step_seconds
        self._delta = params.delay_threshold
        self._rho = params.stress_persistence
        self._mu_blend = (1.0 - params.stress_persistence) * params.stress_log_mean
        self._sigma = params.stress_log_sd
        self.set_policy(params.recovery_rate)
        self._j = 0
        self._backlog = params.initial_backlog
        self._health = params.initial_health
        self._c = capacity(self._health)  # kept equal to capacity(health) throughout
        self._log_stress = params.start_log_stress
        self._exceed = 0
        self._reaches: dict[float, int] = {}  # _reach(grace, target) by target

    @property
    def step_index(self) -> int:
        return self._j

    @property
    def horizon_steps(self) -> int:
        return self._horizon

    @property
    def monotone_rate_bound(self) -> float:
        """The largest recovery rate up to which the model is monotone in the rate.

        On common noise the log-stress path does not depend on the state, and
        the health step ``h + nu * (1 - c(h)) ** phi`` rises with ``nu`` and,
        for ``nu <= ((1 + phi) / phi) ** (phi + 1)``, with ``h``.  Capacity
        rises with health, and backlog, delay, the exceedance counter and the
        coordinate never rise with capacity.  So for rates up to this bound,
        a path that misses a level under one rate misses it under every
        stronger rate (3.375 at the default exponent 2).
        """
        phi = self._phi
        return ((1.0 + phi) / phi) ** (phi + 1.0)

    def set_policy(self, rate: float) -> None:
        """Switch the recovery rate in force (takes effect from the next step)."""
        if not 0.0 < rate * self._dt <= 1.0:
            raise ValueError(
                f"recovery_rate must be > 0 and stable for step {self._dt} s, got {rate}"
            )
        self._nu = rate

    def snapshot(self) -> tuple:
        return (self._j, self._backlog, self._health, self._log_stress, self._exceed, self._nu)

    def restore(self, snap: tuple) -> None:
        self._j, self._backlog, self._health, self._log_stress, self._exceed, self._nu = snap
        self._c = capacity(self._health)

    def draw_noise(self, rng: np.random.Generator, n: int) -> array:
        """``n`` standard normals packed in an ``array('d')``: the kernel makes
        a Python float of a value only when it reads it."""
        return array("d", rng.standard_normal(n).tobytes())

    def advance(
        self, noise: Sequence[float], pos: int, stop: int, target: float
    ) -> tuple[int, float]:
        """Step until the coordinate reaches ``target`` or ``stop``; see ``core.Simulator``.

        Idle steps are exact without the queue.  When the pre-step backlog
        is 0 and capacity ``c >= load``, the backlog update gives
        ``0 + (load - c) * dt <= 0``, clamped to ``+0.0``.  The pre-step
        delay is 0, below the threshold, so the exceedance counter resets.
        The coordinate is then ``0 / c / delta + 0 = 0.0``, which misses
        every target above 0.  So while capacity covers the load, a step
        changes only health and stress, and the inner loop updates only
        those until capacity falls below the load or ``stop`` is reached.

        A miss may stop early, at an idle state from which no step left can
        reach the target.  Below the failure set the coordinate is at most
        ``1.0 + e / grace`` for a counter ``e < grace``, so a target in
        ``(1, failure_value]`` needs the counter at ``reach``, the least
        ``e`` with ``e == grace`` or ``1.0 + e / grace >= target``.  The
        step after an idle state reads a pre-step delay of 0 and resets the
        counter, so ``k`` steps from an idle state leave it at most
        ``k - 1``; with at most ``reach`` steps left the target is out of
        reach, and the idle loop stops there.  Such a miss still returns
        ``stop`` as its cursor, but ``step_index`` and the state are those of
        the idle state it stopped at.  Targets at or below 1, and above
        ``failure_value``, are never cut.

        The loops read one iterator over ``noise[pos:stop]``, in place, so
        setting up a call costs the same whatever the window's size, and the
        cursor returned on a hit is how far that iterator got.  ``noise`` is
        a list or an ``array('d')``, whose iterators both report their index
        through ``__reduce__``.
        """
        j = self._j
        if stop - pos > self._horizon - j:
            raise HorizonExceededError(
                f"{stop - pos} steps from step {j} pass the {self._horizon}-step horizon"
            )
        n = len(noise)
        if stop > n:  # the iterator would stop short at the end without a word
            raise IndexError(f"noise window [{pos}, {stop}) passes the end of {n} values")
        load, dt, delta, grace = self._load, self._dt, self._delta, self._grace
        nu, phi, rho, mu_blend, sigma = self._nu, self._phi, self._rho, self._mu_blend, self._sigma
        # capacity(h) with one comparison: above the clip exp(-h) < 2**-53, so c is 1.0 either way
        exp, clip, floor = math.exp, _HEALTH_CLIP, -_HEALTH_CLIP
        b, h, x, e, c = self._backlog, self._health, self._log_stress, self._exceed, self._c
        r = b / c  # the pre-step delay, carried from each step into the next
        zero_misses = target > 0.0  # an idle step's coordinate, 0.0, cannot reach the target
        reach = 0  # steps left at which an idle state is cut; 0 never cuts
        if 1.0 < target <= 2.0:
            reach = self._reaches.get(target)
            if reach is None:
                reach = self._reaches[target] = _reach(grace, target)
        # noise[pos:stop] read in place: a slice would copy stop - pos values per call;
        # each busy stretch and each idle stretch is one islice of this iterator
        unread = iter(noise)
        unread.__setstate__(pos)
        i = pos
        while True:
            for z in islice(unread, stop - i):
                h = h + nu * (1.0 - c) ** phi - exp(x)
                x = rho * x + mu_blend + z * sigma
                if b == 0.0 and zero_misses and c >= load:
                    # idle queue: it stays empty while capacity covers the load
                    b, e, r, g = 0.0, 0, 0.0, 0.0
                    c = 1.0 / (1.0 + exp(clip if h < floor else -h))
                    if c >= load:
                        break
                    continue
                b = b + (load - c) * dt
                if b < 0.0:
                    b = 0.0
                if r >= delta:
                    e += 1
                    if e > grace:
                        e = grace
                else:
                    e = 0
                c = 1.0 / (1.0 + exp(clip if h < floor else -h))
                r = b / c
                if e >= grace:
                    g = 2.0
                else:
                    g = r / delta
                    if g > 1.0:
                        g = 1.0
                    g = g + e / grace
                if g >= target:
                    break
            else:
                break  # every step of the window taken
            if g >= target:
                break
            # an idle state: step health and stress while capacity covers the load,
            # up to the last idle state from which the target is still in reach
            i = unread.__reduce__()[2]
            if stop - i <= reach:
                break
            for z in islice(unread, stop - i - reach):
                h = h + nu * (1.0 - c) ** phi - exp(x)
                x = rho * x + mu_blend + z * sigma
                c = 1.0 / (1.0 + exp(clip if h < floor else -h))
                if not c >= load:  # a NaN capacity leaves too
                    break
            else:
                break  # at stop, or cut with reach steps left
            i = unread.__reduce__()[2]
        # the iterator's index; never exhausted, since every islice stops at or before stop
        i = unread.__reduce__()[2]
        self._j = j + (i - pos)
        self._backlog, self._health, self._log_stress, self._exceed, self._c = b, h, x, e, c
        # the loop's g, where it stopped on one, is this same formula of the same state
        g = self.coordinate()
        return (i if g >= target else stop), g

    # only benchmark/worker.py's l0_figures probe calls this
    def step(self, rng: np.random.Generator) -> None:
        self.advance([rng.standard_normal()], 0, 1, math.inf)

    def coordinate(self) -> float:
        exceed = self._exceed
        grace = self._grace
        if exceed >= grace:
            return 2.0
        ratio = self._backlog / self._c / self._delta
        if ratio > 1.0:
            ratio = 1.0
        return ratio + exceed / grace


def simulator_factory(params: NetParams) -> Callable[[], NetSimulator]:
    """Factory with the engine-facing signature: no argument, a fresh simulator."""

    def make() -> NetSimulator:
        return NetSimulator(params)

    return make
