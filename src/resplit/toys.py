"""Tiny synthetic simulators with exactly known hitting probabilities.

These exist so the estimation engines can be checked against closed forms and
against exhaustive path enumeration, with no model noise in the way.  They
implement the same restartable-simulator contract as the network model.
"""
from __future__ import annotations

import math

import numpy as np

from resplit.core import HorizonExceededError

__all__ = [
    "LadderSim",
    "ThreeStateSim",
    "enumerate_three_state_hitting",
    "ladder_factory",
    "three_state_factory",
]


class LadderSim:
    """Climbs one rung per step with a rung-specific probability; a miss absorbs.

    Stage ``k`` of a schedule over ``g = rung`` is then an independent
    Bernoulli trial with probability ``probs[k]``: exactly one decisive step,
    no path dependence.  Reaching the top rung is the failure event, so the
    overall hitting probability is ``prod(probs)``.  The failure value is
    the top rung.  Only a live climb below the top draws a uniform: the steps
    of a dead or finished ladder read no noise.  The state is one tuple
    ``(step, rung, dead)``, which is also the snapshot: restoring stores it
    and snapshotting returns it, with no copy, since a tuple is immutable.
    """

    __slots__ = ("probs", "_state", "_top", "failure_value")

    def __init__(self, probs) -> None:
        self.probs = tuple(float(p) for p in probs)
        if not self.probs:
            raise ValueError("need at least one rung")
        for p in self.probs:
            if not 0.0 < p <= 1.0:
                raise ValueError(f"rung probability must be in (0, 1], got {p}")
        self._top = len(self.probs)
        self.failure_value = float(self._top)
        self._state = (0, 0, False)

    @property
    def step_index(self) -> int:
        return self._state[0]

    @property
    def horizon_steps(self) -> int:
        return self._top

    def draw_noise(self, rng: np.random.Generator, n: int) -> list[float]:
        return rng.random(n).tolist()

    def advance(self, noise: list[float], pos: int, stop: int, target: float) -> tuple[int, float]:
        j, rung, dead = self._state
        steps = stop - pos
        top = self._top
        if steps > top - j:
            raise HorizonExceededError(f"{steps} steps from step {j} pass horizon {top}")
        probs = self.probs
        taken = 0
        while taken < steps:
            taken += 1
            if not dead and rung < top:
                if noise[pos] < probs[rung]:
                    rung += 1
                else:
                    dead = True
                pos += 1
            if rung >= target:
                break
        self._state = (j + taken, rung, dead)
        return pos, float(rung)

    # only benchmark/worker.py's l0_figures probe calls this
    def step(self, rng: np.random.Generator) -> None:
        _, rung, dead = self._state
        noise = [rng.random()] if not dead and rung < self._top else []
        self.advance(noise, 0, 1, math.inf)

    def snapshot(self) -> tuple:
        return self._state

    def restore(self, snap: tuple) -> None:
        self._state = snap

    def coordinate(self) -> float:
        return float(self._state[1])


def ladder_factory(probs):
    probs = tuple(probs)

    def make() -> LadderSim:
        return LadderSim(probs)

    return make


class ThreeStateSim:
    """Random walk 0 -> 1 -> 2 with relapse from 1 back to 0; state 2 absorbs.

    Unlike the ladder this is genuinely path dependent: a trajectory can reach
    1, relapse, and climb again, and the success probability of a stage-1
    checkpoint depends on how many steps remain.  Small horizons keep the path
    tree exhaustively enumerable (see :func:`enumerate_three_state_hitting`).
    """

    failure_value = 2.0

    __slots__ = ("advance_lo", "advance_hi", "relapse", "_state", "_j", "_horizon")

    def __init__(self, advance_lo: float, advance_hi: float, relapse: float, horizon_steps: int) -> None:
        if not 0.0 < advance_lo <= 1.0:
            raise ValueError(f"advance_lo must be in (0, 1], got {advance_lo}")
        if not 0.0 < advance_hi <= 1.0:
            raise ValueError(f"advance_hi must be in (0, 1], got {advance_hi}")
        if relapse < 0.0 or advance_hi + relapse > 1.0:
            raise ValueError(f"need advance_hi + relapse <= 1, got {advance_hi} + {relapse}")
        if horizon_steps < 1:
            raise ValueError(f"horizon_steps must be >= 1, got {horizon_steps}")
        self.advance_lo = advance_lo
        self.advance_hi = advance_hi
        self.relapse = relapse
        self._state = 0
        self._j = 0
        self._horizon = horizon_steps

    @property
    def step_index(self) -> int:
        return self._j

    @property
    def horizon_steps(self) -> int:
        return self._horizon

    def draw_noise(self, rng: np.random.Generator, n: int) -> list[float]:
        return rng.random(n).tolist()

    def advance(self, noise: list[float], pos: int, stop: int, target: float) -> tuple[int, float]:
        if stop - pos > self._horizon - self._j:
            raise HorizonExceededError(
                f"{stop - pos} steps from step {self._j} pass horizon {self._horizon}"
            )
        lo, hi, back = self.advance_lo, self.advance_hi, self.advance_hi + self.relapse
        state = self._state
        g = float(state)
        i = pos
        while i < stop:
            u = noise[i]
            i += 1
            if state == 0:
                if u < lo:
                    state = 1
            elif state == 1:
                if u < hi:
                    state = 2
                elif u < back:
                    state = 0
            g = float(state)
            if g >= target:
                break
        self._j += i - pos
        self._state = state
        return i, g

    def snapshot(self) -> tuple:
        return (self._j, self._state)

    def restore(self, snap: tuple) -> None:
        self._j, self._state = snap

    def coordinate(self) -> float:
        return float(self._state)


def three_state_factory(advance_lo: float, advance_hi: float, relapse: float, horizon_steps: int):
    def make() -> ThreeStateSim:
        return ThreeStateSim(advance_lo, advance_hi, relapse, horizon_steps)

    return make


def enumerate_three_state_hitting(
    advance_lo: float, advance_hi: float, relapse: float, horizon_steps: int
) -> float:
    """Exact P(hit state 2 within the horizon) by exhaustive path enumeration.

    Walks every branch of the outcome tree (at most ``3**horizon_steps``
    leaves) and sums the probability of those that touch state 2.  Deliberately
    shares nothing with the simulator beyond the raw parameters.
    """
    if 3**horizon_steps > 100_000:
        raise ValueError(f"horizon {horizon_steps} makes the path tree too large to enumerate")
    total = 0.0
    stack = [(0, 0, 1.0)]
    while stack:
        state, j, prob = stack.pop()
        if state == 2:
            total += prob
            continue
        if j == horizon_steps:
            continue
        if state == 0:
            stack.append((1, j + 1, prob * advance_lo))
            stack.append((0, j + 1, prob * (1.0 - advance_lo)))
        else:
            stack.append((2, j + 1, prob * advance_hi))
            stack.append((0, j + 1, prob * relapse))
            stack.append((1, j + 1, prob * (1.0 - advance_hi - relapse)))
    return total
