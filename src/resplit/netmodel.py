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

# The idle certificate of NetSimulator.advance (see _IdleBound).  Both the
# kernel's health path and numpy's bound round at about 2**-52 of magnitudes
# that stay under ~100 wherever the bound nears its threshold, so over a
# 1200-step window each differs from exact arithmetic by at most ~1e-11, and
# by ~1e-14 in practice: the slack covers that many times over.
_CERT_SLACK = 1e-6  # health margin a proof asks above logit(load)
_CERT_HEALTH_MAX = 100.0  # no proof from a health this high, which keeps the rounding small
_CERT_STEPS = 200  # what a proof costs (~40-60 us), counted in idle steps
_CERT_FORGET = 32  # refused proofs per proof made at which a rate's record halves
_CERT_SCALE_LOG = 500.0 * math.log(2.0)  # log of the largest power a proof's sums scale by
_CERT_LOG_STRESS_CAP = 300.0  # larger log-stress is capped: one such step fails any proof


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


class _IdleBound:
    """A proof that an idle queue stays idle to the end of a window.

    While the queue is idle, health follows ``h' = f(h) - exp(x)`` with
    ``f(h) = h + r(h)`` and ``r(h) = nu * (1 - c(h)) ** phi``.  For ``nu``
    up to ``monotone_rate_bound``, ``f`` is non-decreasing, and ``r`` is
    convex for ``h >= -log(phi)``, so for ``h >= 0`` it lies above its
    tangent at any ``H >= 0``: ``r(h) >= alpha - beta * h`` with
    ``beta = nu * phi * (1 - c(H)) ** phi * c(H)`` and
    ``alpha = r(H) + beta * H``.  So ``L' = (1 - beta) * L + alpha - exp(x)``
    from ``L = h`` bounds health from below for as long as ``L >= 0``.  The
    log-stress ``x`` follows the noise alone.  Both are linear recursions,
    which numpy sums for a whole window as cumulative sums scaled by powers
    of ``rho`` and ``1 - beta`` (kept per simulator and rate, in blocks short
    enough that no power overflows).  If every ``L`` is at or above
    ``theta``, ``logit(load)`` plus the slack (above 0 as ``load > 0.5``),
    capacity covers the load at every state to the window's end.

    ``H`` lies halfway between that threshold and the health at which
    recovery balances the stationary mean stress, where the tangent is tight
    on the paths that come near the threshold.  ``tries`` and ``wins`` count
    the proofs made and those that held, and ``refused`` the proofs
    ``worth_trying`` turned down since those counts last halved.
    """

    __slots__ = ("theta", "mu_rinv", "sigma_rinv", "rpow", "log_ainv", "apow", "ageo",
                 "block", "tries", "wins", "refused")

    def __init__(self, theta, H, nu, phi, rho, mu_blend, sigma, horizon):
        c = 1.0 / (1.0 + math.exp(-H))
        beta = nu * phi * (1.0 - c) ** phi * c
        alpha = nu * (1.0 - c) ** phi + beta * H
        a = 1.0 - beta
        block = horizon
        for base in (rho, a):
            if base < 1.0:
                block = min(block, int(_CERT_SCALE_LOG / -math.log(base)) if base > 0.0 else 0)
        k = np.arange(block + 1, dtype=float)
        rinv = rho ** -k[1:]
        self.theta, self.block = theta, block
        self.mu_rinv, self.sigma_rinv, self.rpow = mu_blend * rinv, sigma * rinv, rho ** k
        self.apow = a ** k
        self.log_ainv = -math.log(a) * k[1:] if block else k[1:]  # a ** -(k + 1) = exp(this)
        self.ageo = np.empty(block + 1)  # alpha * sum(a ** j for j < k)
        self.ageo[0] = 0.0
        np.cumsum(self.apow[:-1], out=self.ageo[1:])
        self.ageo *= alpha
        self.tries = self.wins = self.refused = 0

    def worth_trying(self, n: int) -> bool:
        """Whether a proof over ``n`` steps pays for itself: the steps it
        would save times the share of this rate's proofs that held, with one
        held and one failed proof as the prior, against ``_CERT_STEPS``.
        Refusals decay the record, so a rate whose early proofs failed is
        tried again rather than never."""
        if (self.wins + 1) * n >= (self.tries + 2) * _CERT_STEPS:
            return True
        self.refused += 1
        if self.refused > _CERT_FORGET * self.tries:
            self.tries //= 2
            self.wins //= 2
            self.refused = 0
        return False

    def first_failure(self, noise, i: int, n: int, h: float, x: float) -> int:
        """0 if every one of the ``n`` states after ``(h, x)``, stepped on
        ``noise[i:i + n - 1]``, is proven idle; else the number of steps to the
        first state the bound does not clear.  Counted in ``tries`` and ``wins``."""
        self.tries += 1
        if isinstance(noise, array):
            z = np.frombuffer(noise, count=n - 1, offset=noise.itemsize * i)
        else:
            z = np.array(noise[i:i + n - 1], dtype=float)
        theta, block = self.theta, self.block
        done = 0
        while done < n:
            m = min(n - done, block)
            # x_k = rho**k * (x_0 + sum_{j<k} rho**-(j+1) * (mu_blend + sigma * z_j)),
            # one past the block when another follows
            mx = m + 1 if done + m < n else m
            xs = np.empty(mx)
            xs[0] = x
            np.multiply(z[done:done + mx - 1], self.sigma_rinv[:mx - 1], out=xs[1:])
            xs[1:] += self.mu_rinv[:mx - 1]
            np.add.accumulate(xs, out=xs)
            xs *= self.rpow[:mx]
            if mx > m:
                x = float(xs[m])
            # L_k = a**k * (L_0 - sum_{j<k} a**-(j+1) * exp(x_j)) + alpha * (1 + ... + a**(k-1))
            low = xs[:m]
            np.minimum(low, _CERT_LOG_STRESS_CAP, out=low)
            low += self.log_ainv[:m]
            np.exp(low, out=low)
            np.add.accumulate(low, out=low)
            np.subtract(h, low, out=low)
            low *= self.apow[1:m + 1]
            low += self.ageo[1:m + 1]
            if not np.minimum.reduce(low) >= theta:  # a NaN fails too
                return done + 1 + int(np.argmin(low >= theta))
            h = float(low[-1])
            done += m
        self.wins += 1
        return 0


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
        "_rho", "_mu_blend", "_sigma", "_c", "_reaches", "_bounds",
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
        self._bounds: dict[float, _IdleBound | None] = {}  # _idle_bound(rate) by rate

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

    def _idle_bound(self, nu: float) -> _IdleBound | None:
        """The idle certificate at rate ``nu``, or None where its proof does not hold:
        ``nu`` above ``monotone_rate_bound``, a load at or below 1/2, or a
        ``rho`` or ``1 - beta`` so small that its powers overflow within 64 steps."""
        load, phi, rho = self._load, self._phi, self._rho
        if not (load > 0.5 and nu <= self.monotone_rate_bound):
            return None
        # capacity rounds to within 2**-52 of load, so near load it resolves
        # health only to about 2**-52 / (1 - load): the threshold adds that too
        theta = math.log(load / (1.0 - load)) + _CERT_SLACK + 2.0 ** -50 / (1.0 - load)
        # the balance point: nu * (1 - c) ** phi equals the mean of exp(x) at stationarity
        log_mean_stress = (self._mu_blend / (1.0 - rho)
                           + self._sigma ** 2 / (2.0 * (1.0 - rho * rho)))
        log_q = (log_mean_stress - math.log(nu)) / phi  # log(1 - c) there
        H = theta
        if log_q < 0.0:
            q = math.exp(log_q)
            H = max(theta, 0.5 * (theta + math.log((1.0 - q) / q)))
        bound = _IdleBound(theta, H, nu, phi, rho, self._mu_blend, self._sigma, self._horizon)
        return bound if bound.block >= 64 else None

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
        reach, and the idle loop stops there.  Targets at or below 1, and
        above ``failure_value``, are never cut this way.

        A miss may also stop at an idle state once a lower bound on health
        proves that capacity covers the load at every state left, so that
        every coordinate left is 0 (see ``_IdleBound``).  This holds for any
        target in ``(0, failure_value]``, where the recovery rate is at most
        ``monotone_rate_bound`` and the load above 1/2: the bound must clear
        ``logit(load)`` by a slack of ``_CERT_SLACK`` plus capacity's own
        rounding near the load, and the health must be under
        ``_CERT_HEALTH_MAX``.  A proof costs about as much as 200 idle steps,
        so it is tried only at an idle state whose steps left, times the
        share of this rate's proofs on this simulator that held, pay for it
        (``_IdleBound.worth_trying``), and, after a proof fails, not before
        the step at which its bound fell short.

        Either way, such a miss still returns ``stop`` as its cursor and the
        coordinate of the idle state it stopped at, below the target as every
        step's would be (a proven miss returns ``(stop, 0.0)``, as stepping to
        ``stop`` would); its ``step_index`` and state are those of that idle
        state.  Callers charge a miss its whole window and never read its
        state, so no result changes: numpy's last bits decide only whether a
        proof holds.

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
        # an idle state may be certified (see _IdleBound) only for a target that
        # every idle state misses, up to the failure value
        certify = zero_misses and target <= 2.0
        wait = pos  # no proof before this index: the last proof's bound failed there
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
            if certify and i >= wait and h < _CERT_HEALTH_MAX:
                bound = self._bounds.get(nu, False)
                if bound is False:
                    bound = self._bounds[nu] = self._idle_bound(nu)
                if bound and bound.worth_trying(stop - i):
                    k = bound.first_failure(noise, i, stop - i, h, x)
                    if not k:
                        break  # every state left is idle: the target is missed
                    wait = i + k
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
