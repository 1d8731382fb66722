"""Shared primitives: budget ledger, checkpoints, level schedules, RNG streams.

Everything here is engine-agnostic.  Simulators are restartable state machines
that propagate over a buffer of pre-drawn noise, stopping at the first step
whose reaction coordinate reaches a target, and that can be snapshotted and
restored by value; the splitting and plain Monte Carlo drivers are written
against that contract only, so any model exposing it can be plugged in.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Any, Protocol, Sequence, runtime_checkable

import numpy as np

__all__ = [
    "BudgetLedger",
    "Checkpoint",
    "EmptyPoolError",
    "HorizonExceededError",
    "LevelSchedule",
    "NoiseBuffer",
    "Simulator",
    "derive_seed",
    "stream",
]


class HorizonExceededError(RuntimeError):
    """Raised when a simulator is asked to step past its horizon."""


class EmptyPoolError(RuntimeError):
    """Raised when a checkpoint pool would be resampled from zero survivors."""


def horizon_step_count(horizon_seconds: float, step_seconds: float) -> int:
    """Number of steps in a horizon; the horizon must be an integer number of steps."""
    if step_seconds <= 0.0:
        raise ValueError(f"step_seconds must be positive, got {step_seconds}")
    ratio = horizon_seconds / step_seconds
    if not math.isfinite(ratio):
        raise ValueError(
            f"horizon_seconds / step_seconds = {horizon_seconds} / {step_seconds} is not finite"
        )
    steps = round(ratio)
    if steps < 1 or not math.isclose(steps * step_seconds, horizon_seconds, rel_tol=1e-9):
        raise ValueError(
            f"horizon {horizon_seconds} s is not an integral number of {step_seconds} s steps"
        )
    return steps


class BudgetLedger:
    """Counts simulation steps against a hard cap.

    ``budget=None`` means unlimited (used by side computations that are
    accounted but not capped).  Callers add to ``used`` directly and never
    past ``budget``.
    """

    __slots__ = ("budget", "used")

    def __init__(self, budget: int | None) -> None:
        if budget is not None:
            if budget < 1:
                raise ValueError(f"budget must be >= 1 step, got {budget}")
            budget = int(budget)
        self.budget = budget
        self.used = 0

    @property
    def exhausted(self) -> bool:
        return self.budget is not None and self.used >= self.budget

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cap = "inf" if self.budget is None else str(self.budget)
        return f"BudgetLedger(used={self.used}, budget={cap})"


_set_field = object.__setattr__  # how a frozen dataclass sets its fields


@dataclass(frozen=True, slots=True, init=False)
class Checkpoint:
    """A restorable state captured when a trajectory first reached a level.

    ``snapshot`` is the opaque value returned by ``Simulator.snapshot``;
    ``coordinate`` is the reaction-coordinate value at capture time, which may
    exceed the level threshold when a single step jumps several levels.

    The attempt loop builds one per success, so ``__init__`` is written out:
    it validates its arguments and sets the fields directly, where the
    generated one would also call ``__post_init__`` and read them back.
    """

    snapshot: Any
    level_index: int
    hit_step: int
    coordinate: float

    def __init__(self, snapshot: Any, level_index: int, hit_step: int, coordinate: float) -> None:
        if level_index < 0:
            raise ValueError(f"level_index must be >= 0, got {level_index}")
        if hit_step < 0:
            raise ValueError(f"hit_step must be >= 0, got {hit_step}")
        _set_field(self, "snapshot", snapshot)
        _set_field(self, "level_index", level_index)
        _set_field(self, "hit_step", hit_step)
        _set_field(self, "coordinate", coordinate)


@dataclass(frozen=True)
class LevelSchedule:
    """Strictly increasing reaction-coordinate thresholds ``l_0 < ... < l_K``.

    Stage ``k`` estimates the probability of reaching ``thresholds[k+1]`` from
    checkpoints at ``thresholds[k]``; the top threshold is the failure set.
    """

    thresholds: tuple[float, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "thresholds", tuple(float(t) for t in self.thresholds))
        if len(self.thresholds) < 2:
            raise ValueError("a schedule needs at least two thresholds (one stage)")
        for lo, hi in zip(self.thresholds, self.thresholds[1:]):
            if not lo < hi:
                raise ValueError(f"thresholds must be strictly increasing, got {self.thresholds}")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != len(self.thresholds):
                raise ValueError(
                    f"{len(self.labels)} labels for {len(self.thresholds)} thresholds"
                )

    @property
    def stage_count(self) -> int:
        return len(self.thresholds) - 1

    def target(self, stage: int) -> float:
        """Threshold a stage-``stage`` attempt must reach."""
        if not 0 <= stage < self.stage_count:
            raise IndexError(f"stage {stage} outside [0, {self.stage_count})")
        return self.thresholds[stage + 1]


@runtime_checkable
class Simulator(Protocol):
    """Restartable single-trajectory simulator.

    ``snapshot`` must return a value copy: mutating the live simulator never
    changes an existing snapshot, and restoring one must reproduce the saved
    state bit for bit.

    Randomness comes in as noise: ``draw_noise(rng, n)`` returns ``n`` values
    from ``rng`` as a list or an ``array('d')`` (the network model packs its
    normals), equal bit for bit to ``n`` one-at-a-time draws, so a buffer
    refilled in chunks of any size replays the same trajectory.
    ``advance(noise, pos, stop, target)`` is the propagation kernel: it takes
    up to ``stop - pos`` steps, reading the noise from ``noise[pos]`` on, and
    stops early after the first step whose coordinate is at or above
    ``target``.  It returns the cursor past the last value it read and the
    coordinate after its last step; the steps taken show in ``step_index``.
    Every step reads one value, except that a simulator may document steps
    that draw nothing (a dead ladder).  Asking for more steps than remain to
    the horizon raises :class:`HorizonExceededError`.

    The early-stop rule: a miss may stop at any state once proven, the
    call's first state included, with a coordinate below the target: once
    it is certain that no step left in the window can reach the target.  It
    still returns ``stop`` as its cursor, with the coordinate of the state
    it stopped at, and ``step_index`` and the state are those of that state.
    So callers charge a miss its whole window, never read its cost from
    ``step_index``, and read a missed trajectory's state only by restoring a
    snapshot: the budget counts model steps, whether simulated or not, and
    a report is the same whether a miss ran to ``stop`` or not.  A proof,
    whatever the last bits of its arithmetic, decides only whether the rest
    of a miss is simulated, never a reported number.  The toys never stop
    early.  The network model stops only at the call's first state or an
    idle one (an empty queue whose capacity covers the load): there, when
    too few steps are left to fill its exceedance counter, or when bounds on
    health, backlog, delay and the counter, with slacks for rounding, prove
    every coordinate to ``stop`` below the target (``NetSimulator.advance``).

    ``failure_value`` is the coordinate that marks the failure set: a
    trajectory has failed exactly when its coordinate is at or above it.
    These members are all the engines call.
    """

    failure_value: float

    @property
    def step_index(self) -> int: ...

    @property
    def horizon_steps(self) -> int: ...

    def draw_noise(self, rng: np.random.Generator, n: int) -> Sequence[float]: ...

    def advance(
        self, noise: Sequence[float], pos: int, stop: int, target: float
    ) -> tuple[int, float]: ...

    def snapshot(self) -> Any: ...

    def restore(self, snap: Any) -> None: ...

    def coordinate(self) -> float: ...


NOISE_CHUNK_MIN = 16  # a first refill draws at least this many values
NOISE_CHUNK_MAX = 1 << 14  # refills grow geometrically up to this many values


class NoiseBuffer:
    """One generator's noise for one simulator, drawn in bulk and read in order.

    ``values[pos:]`` are drawn but unread.  ``reserve(n)`` tops the buffer up
    so that at least ``n`` unread values follow ``pos``, keeping the unread
    tail in front of the fresh draws; so the values come out in exactly the
    order one-at-a-time draws would give them, whatever the chunk sizes.
    A refill draws at least the ``n`` values asked for, and otherwise twice
    the previous refill (``NOISE_CHUNK_MIN`` the first time), up to
    ``NOISE_CHUNK_MAX`` values.  ``values`` is whatever sequence the
    simulator's ``draw_noise`` returns, a list or an ``array('d')``: the
    unread tail and the fresh draws are of one type, so they concatenate.
    """

    __slots__ = ("values", "pos", "_draw", "_rng", "_chunk")

    def __init__(self, sim: Simulator, rng: np.random.Generator) -> None:
        self.values: Sequence[float] = []
        self.pos = 0
        self._draw = sim.draw_noise
        self._rng = rng
        self._chunk = 0

    def reserve(self, n: int) -> None:
        values = self.values
        pos = self.pos
        if len(values) - pos >= n:
            return
        size = self._chunk = max(n, min(max(2 * self._chunk, NOISE_CHUNK_MIN), NOISE_CHUNK_MAX))
        fresh = self._draw(self._rng, size)
        self.values = values[pos:] + fresh if pos < len(values) else fresh
        self.pos = 0


def _purpose_code(purpose: str) -> int:
    return int.from_bytes(hashlib.blake2b(purpose.encode(), digest_size=8).digest(), "little")


def stream(master_seed: int, purpose: str, *indices: int) -> np.random.Generator:
    """Independent counter-based generator keyed by ``(master_seed, purpose, indices)``.

    Streams with distinct keys are statistically independent, and a given key
    yields the same draw sequence on every platform, so results depend only on
    the seed and the order in which each consumer uses its own stream.  The
    generator is ``Generator(Philox(SeedSequence(entropy)))`` with entropy
    ``(master_seed & (2**63 - 1), blake2b-64(purpose), *indices)``.
    """
    entropy = (int(master_seed) & _SEED_MASK, _purpose_code(purpose), *(int(i) for i in indices))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=entropy)))


_SEED_MASK = (1 << 63) - 1


def derive_seed(master_seed: int, *parts: object) -> int:
    """Deterministic child seed for a labelled piece of work (sweep point, replication).

    Floats are canonicalised through ``repr`` so the same grid value always
    hashes identically regardless of how it was produced.
    """
    blob = repr(int(master_seed)).encode()
    for part in parts:
        if isinstance(part, float) and part.is_integer():
            part = int(part)  # 2.0 and 2 address the same grid point
        blob += b"|" + repr(part).encode()
    digest = hashlib.blake2b(blob, digest_size=8).digest()
    return int.from_bytes(digest, "little") & _SEED_MASK
