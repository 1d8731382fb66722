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
import sys
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
_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # exp overflows past this

# The miss certificate of NetSimulator.advance (see _MissCertificate).  Each
# slack covers the rounding that separates the kernel's path from numpy's bound.
#
# Health: both the kernel's health path and numpy's bound round at about
# 2**-52 of magnitudes that stay under ~100 (no proof starts at
# _CERT_HEALTH_MAX or above, and the bound cannot climb past its start or
# its fixed point), and neither step amplifies an error (the health step's
# slope lies in [0, 1]), so over a 1200-step window each differs from exact
# arithmetic by at most ~1e-11, and by ~1e-14 in practice.  The bound's
# capacity is taken _CERT_SLACK lower in health, which moves exp(-h) by a
# relative 1e-6, far past the few ulps by which math.exp and np.exp may
# differ; rounding is monotone in the rest of the logistic, so C_k <= c_k.
# The proof asks L >= _CERT_SLACK rather than L >= 0, so that the same
# rounding cannot carry a state past the tangent's range.
#
# Backlog: with C_k <= c_k every bound increment (load - C_k) * dt is at least
# the kernel's, up to a few roundings of magnitude dt, and Lindley's recursion
# never amplifies an error.  The kernel rounds each step's backlog, numpy each
# partial sum of the increments and the final difference, all by at most
# 2**-53 of M = b + (m + 1) * dt, the largest backlog or sum a block of m steps
# can hold.  That is under 18 * 2**-53 * M a step, so each increment gets
# _CERT_BACKLOG_SLACK * M added, ~28 times that; where the minimum of the
# sums is the current one the bound is exactly 0 and so is the kernel's
# backlog.  Past the bound on backlog and capacity every comparison is
# IEEE-monotone: the delay, its flag, the counter and the coordinate the
# kernel computes never exceed the bound's.  The empty-queue test keeps 1e-9
# of low in hand for np.exp, and the sum of rises is inflated past its own
# rounding and divided in the kernel's order, B / C / delta.
_CERT_SLACK = 1e-6  # health margin a proof takes off its bound before capacity
_CERT_BACKLOG_SLACK = 2.0 ** -44  # backlog margin per step, times the block's largest backlog
_CERT_HEALTH_MAX = 100.0  # no proof from a health this high, which keeps the rounding small
# the gate's price of a proof in idle steps (~0.24 us each, 2-core x86_64), set when a
# proof cost ~50 us; the cheap tests brought that to ~25-60 us, and the price stays
_CERT_STEPS = 200
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
        # exp(log-stress) in the health step must not overflow: 40 stationary
        # standard deviations above the start and the mean bound every path drawn
        top = (max(self.start_log_stress, self.stress_log_mean)
               + 40.0 * self.stress_log_sd / math.sqrt(1.0 - self.stress_persistence ** 2))
        if not top < _LOG_FLOAT_MAX:
            raise ValueError(f"log-stress may reach {top:.6g}, where exp overflows past"
                             f" {_LOG_FLOAT_MAX:.6g}")
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


class _MissCertificate:
    """A proof that no state of a window reaches a target.

    Health follows ``h' = f(h) - exp(x)`` with ``f(h) = h + r(h)`` and
    ``r(h) = nu * (1 - c(h)) ** phi``, whatever the queue does.  For ``nu``
    up to ``monotone_rate_bound``, ``f`` is non-decreasing, and ``r`` is
    convex for ``h >= -log(phi)``, so for ``h >= 0`` it lies above its
    tangent at any ``H >= 0``: ``r(h) >= alpha - beta * h`` with
    ``beta = nu * phi * (1 - c(H)) ** phi * c(H)`` and
    ``alpha = r(H) + beta * H``.  So ``L' = (1 - beta) * L + alpha - exp(x)``
    from ``L = h`` bounds health from below for as long as ``L >= 0``; the
    proof asks ``L >= _CERT_SLACK`` at every state.  The log-stress ``x``
    follows the noise alone.  Both are linear recursions, which numpy sums
    for a whole window as cumulative sums scaled by powers of ``rho`` and
    ``1 - beta`` (kept per simulator and rate, in blocks short enough that no
    power overflows).

    From the health bound the proof bounds the queue, step by step of the
    kernel: capacity from below by ``C = c(L - _CERT_SLACK)``, the backlog
    from above by Lindley's recursion ``B' = max(0, B + d)`` from ``B = b``
    on the increments ``d = (load - C) * dt``, and the delay by ``B / C``.  A
    state whose delay bound reaches ``delta`` may raise the exceedance
    counter, so the counter is at most the length of the run of such states
    just before it, plus ``e`` for a run from the window's first state.  A
    target at or below 1 is missed when every state's delay bound, over
    ``delta``, is below it (then no counter rises); a target in ``(1, 2]``
    when every counter bound is below ``reach``, since below the failure set
    the coordinate is at most ``1 + e / grace``.

    Each block of the window tries three tests, cheapest first, and stops at
    the first that settles it; in exact arithmetic each one's premise makes
    the next one pass, so the order changes only the cost.  The empty queue:
    ``b = 0`` and every ``C`` covers the load plus the increments' slack,
    read off the health check's ``max(_CERT_SLACK - L)``, so every ``B`` is
    0.  The sum of rises: ``b + sum(max(d, 0))`` bounds every ``B``, and over
    the least ``C`` it is below ``delta * min(target, 1)`` (tried only when
    ``b / C_0`` is).  Lindley's recursion in closed form,
    ``B = S - min(0, S[:k + 1].min())`` for the sums ``S`` of the increments
    from ``S[0] = b``, with the counter runs.  See ``_CERT_SLACK`` for the
    rounding.

    ``H`` lies halfway between ``logit(load)`` and the health at which
    recovery balances the stationary mean stress, where the tangent is tight
    on the paths that come near the load.  ``tries`` and ``wins`` count
    the proofs made and those that held, ``settled`` the proofs that held by
    the costliest test a block of theirs needed (empty queue, rises,
    Lindley), and ``refused`` the proofs ``worth_trying`` turned down since
    ``tries`` and ``wins`` last halved.
    """

    __slots__ = ("mu_rinv", "sigma_rinv", "rpow", "log_ainv", "apow", "ageo", "block",
                 "load", "dt", "delta", "empty_low", "tries", "wins", "refused", "settled")

    def __init__(self, H, nu, phi, rho, mu_blend, sigma, horizon, load, dt, delta):
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
        self.block, self.load, self.dt, self.delta = block, load, dt, delta
        self.mu_rinv, self.sigma_rinv, self.rpow = mu_blend * rinv, sigma * rinv, rho ** k
        self.apow = a ** k
        self.log_ainv = -math.log(a) * k[1:] if block else k[1:]  # a ** -(k + 1) = exp(this)
        self.ageo = np.empty(block + 1)  # alpha * sum(a ** j for j < k) - _CERT_SLACK
        self.ageo[0] = 0.0
        np.cumsum(self.apow[:-1], out=self.ageo[1:])
        self.ageo *= alpha
        self.ageo -= _CERT_SLACK
        # the largest low = _CERT_SLACK - L at which C = 1 / (1 + exp(low)) covers the
        # load plus any block's increment slack, less a margin for np.exp's rounding
        q = load + _CERT_BACKLOG_SLACK * (block + 1)
        self.empty_low = math.log((1.0 - q) / q) - 1e-9 if q < 1.0 else math.nan
        self.tries = self.wins = self.refused = 0
        self.settled = [0, 0, 0]

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

    def first_failure(self, noise, i: int, n: int, target: float, reach: int,
                      b: float, h: float, x: float, e: int) -> int:
        """0 if none of the ``n`` states after ``(b, h, x, e)``, stepped on
        ``noise[i:i + n - 1]``, can reach ``target`` (``reach`` is the least
        counter a target in ``(1, 2]`` needs); else the number of steps, at
        least 1, to the first state the bound does not clear.  Counted in
        ``tries``, ``wins`` and ``settled``."""
        self.tries += 1
        if isinstance(noise, array):
            z = np.frombuffer(noise, count=n - 1, offset=noise.itemsize * i)
        else:
            z = np.array(noise[i:i + n - 1], dtype=float)
        block, load, dt, delta = self.block, self.load, self.dt, self.delta
        level = min(target, 1.0)  # a delay bound under delta * level keeps every coordinate below
        how = 0  # the costliest test a block needed: empty queue, sum of rises, Lindley
        done = 0
        while done < n:
            # states done .. done + m of the window are this block's 0 .. m
            m = min(n - done, block)
            # x_k = rho**k * (x_0 + sum_{j<k} rho**-(j+1) * (mu_blend + sigma * z_j)),
            # one past the block when another follows
            more = done + m < n
            mx = m + 1 if more else m
            xs = np.empty(m + 1)
            xs[0] = x
            path = xs[:mx]
            t = path[1:]
            np.multiply(z[done:done + mx - 1], self.sigma_rinv[:mx - 1], out=t)
            t += self.mu_rinv[:mx - 1]
            np.add.accumulate(path, out=path)
            path *= self.rpow[:mx]
            if more:
                x = float(xs[m])
            # low_k = _CERT_SLACK - L_k, where
            # L_k = a**k * (L_0 - sum_{j<k} a**-(j+1) * exp(x_j)) + alpha * (1 + ... + a**(k-1))
            low = np.empty(m + 1)
            low[0] = -h
            t = low[1:]
            np.minimum(xs[:m], _CERT_LOG_STRESS_CAP, out=t)
            t += self.log_ainv[:m]
            np.exp(t, out=t)
            np.add.accumulate(low, out=low)
            low *= self.apow[:m + 1]
            low -= self.ageo[:m + 1]
            worst = np.maximum.reduce(low)
            if not worst <= 0.0:  # L < _CERT_SLACK, or a NaN
                return done + max(1, int(np.argmin(low <= 0.0)))
            if more:
                h = _CERT_SLACK - float(low[m])
            if b == 0.0 and worst <= self.empty_low:
                e = 0  # every capacity bound covers the load: the queue stays empty
                done += m
                continue
            # capacity C_k = c(L_k - _CERT_SLACK), in place
            np.exp(low, out=low)
            low += 1.0
            np.divide(1.0, low, out=low)
            # the increments (load - C_k) * dt plus the slack
            d = xs[1:]
            np.multiply(low[:m], -dt, out=d)
            d += load * dt + _CERT_BACKLOG_SLACK * (b + (m + 1) * dt)
            # every B_k is at most b plus the sum of the rises max(d_j, 0), inflated
            # here for the sum's rounding, over the least C the delay test reads
            if b / float(low[0]) / delta < level:
                rises = float(b + np.add.reduce(np.maximum(d, 0.0))) * (1.0 + (m + 2) * 2.0 ** -52)
                least = float(np.minimum.reduce(low[:m + 1 if target <= 1.0 else m]))
                if rises / least / delta < level:
                    e = 0  # no delay bound reaches delta * level, so no counter rises
                    if more:  # the block's last B, as Lindley's recursion below gives it
                        xs[0] = b
                        np.add.accumulate(xs, out=xs)
                        b = float(xs[m]) - min(0.0, float(np.minimum.reduce(xs)))
                    how = max(how, 1)
                    done += m
                    continue
            how = 2
            # their sums S from b, and B_k = S_k - min(0, S_0, ..., S_k)
            xs[0] = b
            np.add.accumulate(xs, out=xs)
            top = np.fmin.accumulate(xs)  # no NaN gets here: the guard refused it
            if b > 0.0:
                np.minimum(top, 0.0, out=top)
            np.subtract(xs, top, out=xs)
            b = float(xs[m])
            np.divide(xs, low, out=xs)  # the delay bound B_k / C_k
            if target <= 1.0:
                if not np.maximum.reduce(xs) / delta < target:  # a NaN fails too
                    return done + max(1, int(np.argmin(xs / delta < target)))
                e = 0
            elif not np.maximum.reduce(xs[:m]) < delta:
                # a flagged state k raises the counter at k + 1: the run of
                # flags up to k, plus e for a run from state 0
                k = np.arange(m)
                runs = np.where(xs[:m] < delta, k, -1 - e)
                np.maximum.accumulate(runs, out=runs)
                np.subtract(k, runs, out=runs)
                if not np.maximum.reduce(runs) < reach:
                    return done + 1 + int(np.argmax(runs >= reach))
                e = int(runs[-1])
            else:
                e = 0
            done += m
        self.wins += 1
        self.settled[how] += 1
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
        "_rho", "_mu_blend", "_sigma", "_c", "_reaches", "_certs",
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
        self._certs: dict[float, _MissCertificate | None] = {}  # _certificate(rate) by rate

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

    def _certificate(self, nu: float) -> _MissCertificate | None:
        """The miss certificate at rate ``nu``, or None where its proof does not
        hold: ``nu`` above ``monotone_rate_bound``, a load at or below 1/2, or a
        ``rho`` or ``1 - beta`` so small that its powers overflow within 64 steps."""
        load, phi, rho = self._load, self._phi, self._rho
        if not (load > 0.5 and nu <= self.monotone_rate_bound):
            return None
        # the balance point: nu * (1 - c) ** phi equals the mean of exp(x) at stationarity
        log_mean_stress = (self._mu_blend / (1.0 - rho)
                           + self._sigma ** 2 / (2.0 * (1.0 - rho * rho)))
        log_q = (log_mean_stress - math.log(nu)) / phi  # log(1 - c) there
        H = math.log(load / (1.0 - load))
        # q rounds to 1 under a huge exponent and to 0 under a vanishing stress; the
        # balance point is then past float range, and any H >= 0 gives a valid tangent
        q = math.exp(log_q) if log_q < 0.0 else 1.0  # a large log_q would overflow exp
        if 0.0 < q < 1.0:
            H = max(H, 0.5 * (H + math.log((1.0 - q) / q)))
        cert = _MissCertificate(H, nu, phi, rho, self._mu_blend, self._sigma, self._horizon,
                                load, self._dt, self._delta)
        return cert if cert.block >= 64 else None

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
        """Step until the coordinate reaches ``target`` or ``stop``; see
        ``core.Simulator``, whose early-stop rule says how a miss may end.

        Idle steps are exact without the queue.  When the pre-step backlog
        is 0 and capacity ``c >= load``, the backlog update gives
        ``0 + (load - c) * dt <= 0``, clamped to ``+0.0``.  The pre-step
        delay is 0, below the threshold, so the exceedance counter resets.
        The coordinate is then ``0 / c / delta + 0 = 0.0``, which misses
        every target above 0.  So while capacity covers the load, a step
        changes only health and stress, and the idle loop updates only
        those until capacity falls below the load or ``stop`` is reached.

        A miss ends early in one place: the call's first state, and each
        idle state the busy loop reaches (an empty queue whose capacity
        covers the load, with a coordinate below the target).  There, in
        this order:

        1. The reach cut, at an idle state.  Below the failure set the
           coordinate is at most ``1.0 + e / grace`` for a counter
           ``e < grace``, so a target in ``(1, failure_value]`` needs the
           counter at ``reach``, the least ``e`` with ``e == grace`` or
           ``1.0 + e / grace >= target``.  The step after an idle state
           reads a pre-step delay of 0 and resets the counter, whatever it
           was, so ``k`` steps from an idle state leave it at most
           ``k - 1``: with at most ``reach`` steps left the target is out of
           reach.  Targets at or below 1, and above ``failure_value``, are
           never cut this way.
        2. A proof by ``_MissCertificate`` from the state ``(b, h, x, e)``,
           busy or idle: bounds on health, capacity, backlog, delay and the
           exceedance counter over the rest of the window keep every
           coordinate left below the target.  It holds for any target in
           ``(0, failure_value]``, where the recovery rate is at most
           ``monotone_rate_bound`` and the load above 1/2, from a health
           under ``_CERT_HEALTH_MAX``.  It costs about as much as
           ``_CERT_STEPS`` idle steps, so it is tried only where the steps
           left, times the share of this rate's proofs on this simulator
           that held, pay for it (``_MissCertificate.worth_trying``), and,
           after a proof fails, not before the step at which its bound fell
           short.
        3. At an idle state, the idle loop, up to the last idle state from
           which the target is still in reach.

        Then the busy loop steps the queue until the coordinate reaches the
        target, the window ends or an idle state comes, which goes back to
        that place.

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
        g = self.coordinate()  # the loop's g is always the coordinate of its state
        zero_misses = target > 0.0  # an idle step's coordinate, 0.0, cannot reach the target
        reach = 0  # steps left at which an idle state is cut; 0 never cuts
        if 1.0 < target <= 2.0:
            reach = self._reaches.get(target)
            if reach is None:
                reach = self._reaches[target] = _reach(grace, target)
        cert = None  # a miss may be proven only for a target up to the failure value
        if zero_misses and target <= 2.0:
            cert = self._certs.get(nu, False)
            if cert is False:
                cert = self._certs[nu] = self._certificate(nu)
        wait = pos  # no proof before this index: the last proof's bound failed there
        # noise[pos:stop] read in place: a slice would copy stop - pos values per call;
        # each busy stretch and each idle stretch is one islice of this iterator
        unread = iter(noise)
        unread.__setstate__(pos)
        i = pos
        while True:
            # the one place where a miss ends: the call's first state and each idle
            # state; an idle first state at or above the target (a failed one, say)
            # takes its first step in the busy loop, exact there too
            idle = b == 0.0 and c >= load and g < target
            if idle and stop - i <= reach:
                break  # too few steps left to fill the counter to reach
            if (cert is not None and i >= wait and g < target and h < _CERT_HEALTH_MAX
                    and cert.worth_trying(stop - i)):
                k = cert.first_failure(noise, i, stop - i, target, reach, b, h, x, e)
                if not k:
                    break  # no state left reaches the target
                wait = i + k
            if idle:
                # the queue stays empty while capacity covers the load, and a step
                # resets the counter, so every idle step's coordinate is 0.0
                b, e, r, g = 0.0, 0, 0.0, 0.0
                for z in islice(unread, stop - i - reach):
                    h = h + nu * (1.0 - c) ** phi - exp(x)
                    x = rho * x + mu_blend + z * sigma
                    c = 1.0 / (1.0 + exp(clip if h < floor else -h))
                    if not c >= load:  # a NaN capacity leaves too
                        g = 0.0 / c  # the empty queue's coordinate: 0.0, or NaN
                        break
                else:
                    break  # at stop, or cut with reach steps left
                i = unread.__reduce__()[2]
            for z in islice(unread, stop - i):
                h = h + nu * (1.0 - c) ** phi - exp(x)
                x = rho * x + mu_blend + z * sigma
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
                if b == 0.0 and zero_misses and c >= load:
                    break  # an idle state
            else:
                break  # every step of the window taken
            if g >= target:
                break
            i = unread.__reduce__()[2]
        # the iterator's index; never exhausted, since every islice stops at or before stop
        i = unread.__reduce__()[2]
        self._j = j + (i - pos)
        self._backlog, self._health, self._log_stress, self._exceed, self._c = b, h, x, e, c
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
