"""The propagation kernel ``advance`` against independent one-step references.

Each simulator is checked against a plain reimplementation of its step fed
scalar draws: ``step_dynamics`` and ``reaction_coordinate`` from
``tests/oracle.py`` for the network model, the rules as written in the
docstrings for the toys.  Stepped one draw at a time, and over a bulk-drawn
noise list, ``advance`` must reproduce the reference bit for bit, stop right
after the first step at or above its target, take exactly ``stop - pos``
steps otherwise and refuse to pass the horizon; the reference's failure set
must be exactly the coordinates at or above ``failure_value``.  The network
kernel may end a miss early under the early-stop rule of ``core.Simulator``:
the reference must then miss the target over the whole window, and the call
must report the state it stopped at, its first state or a later one on the
reference's path.  That state is either idle, with too few steps left to
fill the exceedance counter to the least count the target needs (which the
tests work out from the reference coordinate), or the target lies in
``(0, failure_value]`` at a rate and load where a proof may hold.  Each
simulator must satisfy the ``Simulator`` protocol, and the engines built on
it must not depend on how their noise buffers are chunked.  The network
kernel's idle-queue fast path is checked on paths that leave and re-enter
it, with snapshots compared by ``repr`` so that the sign of a zero backlog
shows.  The network kernel must read no noise outside ``[pos, stop)``, take
no step on an empty window, and match the oracle's clamped capacity at and
past the health clip and on non-finite health.  Noise comes as a list or as
an ``array('d')``, the network model's own packing, and every check holds for
both.
"""
from __future__ import annotations

import math
import warnings
from array import array
from dataclasses import replace
from functools import lru_cache, partial
from itertools import product

import numpy as np
import pytest
from oracle import NetState, is_failure, reaction_coordinate, step, step_dynamics
from test_netmodel import _random_params

from resplit import core, netmodel
from resplit.core import BudgetLedger, Checkpoint, HorizonExceededError, LevelSchedule, stream
from resplit.mc import McConfig, run_mc
from resplit.netmodel import (
    NetParams,
    NetSimulator,
    capacity,
    default_levels,
    simulator_factory,
)
from resplit.policy import LookaheadConfig, PolicySet, evaluate_candidate, lookahead_noise
from resplit.smc import SmcConfig, run_level, run_smc
from resplit.toys import LadderSim, ThreeStateSim, ladder_factory, three_state_factory


def net_reference(p):
    def run(rng):
        state = NetState(0, p.initial_backlog, p.initial_health, p.start_log_stress, 0)
        out = []
        for _ in range(p.horizon_steps):
            state = step_dynamics(state, p, p.recovery_rate, rng.standard_normal())
            snap = (*(getattr(state, f) for f in NetState.__slots__), p.recovery_rate)
            out.append((snap, reaction_coordinate(state, p), is_failure(state, p)))
        return out

    return run


def ladder_reference(probs):
    def run(rng):
        rung, dead, out = 0, False, []
        for j in range(1, len(probs) + 1):
            if not dead and rung < len(probs):  # only a live climb draws
                if rng.random() < probs[rung]:
                    rung += 1
                else:
                    dead = True
            out.append(((j, rung, dead), float(rung), rung == len(probs)))
        return out

    return run


def three_state_reference(lo, hi, relapse, horizon):
    def run(rng):
        state, out = 0, []
        for j in range(1, horizon + 1):
            u = rng.random()
            if state == 0 and u < lo:
                state = 1
            elif state == 1 and u < hi:
                state = 2
            elif state == 1 and u < hi + relapse:
                state = 0
            out.append(((j, state), float(state), state == 2))
        return out

    return run


# the two noise packings: a list of floats, and the network model's array('d')
PACKINGS = (list, partial(array, "d"))


@lru_cache(maxsize=None)
def top_coordinates(grace):
    """The oracle's largest coordinate at each exceedance count ``0..grace``."""
    p = NetParams(step_seconds=1.0, horizon_seconds=float(grace), grace_seconds=float(grace))
    # a backlog far over the threshold caps the delay term at 1
    return tuple(reaction_coordinate(NetState(0, 1e6, 0.0, -5.0, e), p)
                 for e in range(grace + 1))


def least_reach(grace, target):
    """The least exceedance count at which some network state's coordinate,
    by the oracle's ``reaction_coordinate``, is at or above ``target``."""
    return next(e for e, g in enumerate(top_coordinates(grace)) if g >= target)


def may_certify(p, rate):
    """Whether the network kernel's miss certificate may end a miss at rate
    ``rate``: the load is above 1/2 and ``rate`` is at most the monotone bound."""
    return p.arrival_load > 0.5 and rate <= NetSimulator(p).monotone_rate_bound


def check_contract(make, reference, seed, targets=(), params=None):
    for pack in PACKINGS:
        check_contract_on(make, reference, seed, pack, targets, params)


def check_contract_on(make, reference, seed, pack, targets, params):
    rng = stream(seed, "noise")
    states, coords, fails = map(list, zip(*reference(rng)))
    next_draw = make().draw_noise(rng, 1)[0]
    steps = len(states)
    start = make().step_index
    noise = pack(make().draw_noise(stream(seed, "noise"), steps + 1))

    # one-step calls on scalar draws follow the reference, whose failure set
    # is exactly the coordinates at or above the failure value
    assert isinstance(make(), core.Simulator)
    value = make().failure_value
    sim = make()
    rng = stream(seed, "noise")
    for want, g, failed in zip(states, coords, fails):
        step(sim, rng)
        assert sim.snapshot() == want and sim.coordinate() == g
        assert failed == (g >= value)

    # one call to the horizon replays the scalar steps; the cursor lands on
    # the first value the scalar path has not drawn
    sim = make()
    pos, g = sim.advance(noise, 0, steps, math.inf)
    assert sim.snapshot() == states[-1] and sim.step_index == start + steps
    assert g == coords[-1]
    assert noise[pos] == next_draw

    # any split of the horizon into calls gives the same states, and each
    # call takes exactly stop - pos steps
    sim = make()
    pos = done = 0
    for size in (1, 2, 3, 5, 8) * steps:
        size = min(size, steps - done)
        if size == 0:
            break
        pos, g = sim.advance(noise, pos, pos + size, math.inf)
        done += size
        assert sim.step_index == start + done
        assert sim.snapshot() == states[done - 1] and g == coords[done - 1]

    # a target stops the call right after the first step at or above it; a
    # miss either takes every step or, in the network model (``params``
    # given), may stop early with the window's end as its cursor: at an idle
    # state (backlog 0, capacity covering the load; the counter may still
    # run) with too few steps left to fill the counter to the target's least
    # reach, or, for a target in (0, failure_value], at any state once
    # proven; either may be the call's first state (k = 0) or a later one on
    # the reference's path.  No coordinate in the window reaches the target,
    # and the call reports the coordinate of the state it stopped at
    for target in (*targets, value, coords[steps // 2], max(coords), max(coords) + 1.0):
        sim = make()
        pos, g = sim.advance(noise, 0, steps, target)
        hit = next((k for k, c in enumerate(coords) if c >= target), None)
        if hit is None:
            assert g < target
            k = sim.step_index - start
            if k == steps:
                assert sim.snapshot() == states[-1] and g == coords[-1]
            else:
                assert params is not None and 0.0 < target <= value and 0 <= k < steps
                assert pos == steps
                snap = sim.snapshot()
                if k:
                    assert snap == states[k - 1] and g == coords[k - 1]
                else:
                    assert snap == make().snapshot() and g == make().coordinate()
                idle = snap[1] == 0.0 and capacity(snap[2]) >= params.arrival_load
                reach_cut = (idle and 1.0 < target
                             and steps - k <= least_reach(params.grace_steps, target))
                assert reach_cut or may_certify(params, snap[5])
        else:
            assert sim.step_index == start + hit + 1
            assert sim.snapshot() == states[hit] and g == coords[hit] >= target

    # past the horizon it raises and leaves the state alone
    sim = make()
    before = sim.snapshot()
    with pytest.raises(HorizonExceededError):
        sim.advance(noise, 0, steps + 1, math.inf)
    assert sim.snapshot() == before
    sim.advance(noise, 0, steps, math.inf)
    with pytest.raises(HorizonExceededError):
        sim.advance(noise, 0, 1, math.inf)
    # an empty call takes no step and reports the current coordinate
    assert sim.advance(noise, 3, 3, math.inf) == (3, coords[-1])


class TestKernelMatchesStepping:
    def test_network_random_params(self):
        master = np.random.default_rng(2026)
        for trial in range(8):
            p = _random_params(master)
            check_contract(lambda: NetSimulator(p), net_reference(p), 100 + trial,
                           targets=(0.1, 0.5, 1.0, 1.5), params=p)

    def test_network_baseline_from_a_stressed_start(self):
        p = NetParams(initial_backlog=0.3, initial_health=-1.0, horizon_seconds=20.0)
        for seed in range(3):
            check_contract(lambda: NetSimulator(p), net_reference(p), seed,
                           targets=default_levels().thresholds, params=p)

    @pytest.mark.parametrize("probs", [(0.5, 0.4, 0.3), (1.0, 1.0), (0.2,), (0.9, 0.9, 0.9, 0.9)])
    def test_ladder(self, probs):
        for seed in range(12):
            check_contract(lambda: LadderSim(probs), ladder_reference(probs), seed,
                           targets=(1.0, 2.0))

    def test_ladder_dead_steps_read_no_noise(self):
        for pack in PACKINGS:
            sim = LadderSim((0.5, 0.5, 0.5))
            pos, g = sim.advance(pack([0.9, 0.0, 0.0]), 0, 3, math.inf)  # dies on the first step
            assert (pos, g, sim.step_index) == (1, 0.0, 3)
            # a dead ladder at the target stops after one step, else takes them all
            for target, steps_taken in ((1.0, 1), (0.5, 1), (2.0, 2)):
                sim.restore((1, 1, True))
                assert sim.advance(pack([]), 0, 2, target) == (0, 1.0)
                assert sim.step_index == 1 + steps_taken

    def test_three_state(self):
        for seed in range(12):
            check_contract(lambda: ThreeStateSim(0.3, 0.2, 0.3, 9),
                           three_state_reference(0.3, 0.2, 0.3, 9), seed, targets=(1.0, 2.0))


def oracle_from(p, snap, noise):
    """The oracle's ``(snapshot, coordinate)`` after each step on ``noise`` from ``snap``."""
    state, rate = NetState(*snap[:5]), snap[5]
    out = []
    for gamma in noise:
        state = step_dynamics(state, p, rate, gamma)
        out.append(((*(getattr(state, f) for f in NetState.__slots__), rate),
                    reaction_coordinate(state, p)))
    return out


def oracle_path(p, noise):
    """The oracle's ``(snapshot, coordinate, idle)`` after each step on ``noise``.

    ``idle`` says whether the post-step state has an empty queue and a
    capacity that covers the load: the states ``advance`` steps through on
    its idle-queue fast path.  Snapshots are compared by ``repr``, so a
    backlog of ``-0.0`` does not pass for ``0.0``.
    """
    start = (0, p.initial_backlog, p.initial_health, p.start_log_stress, 0, p.recovery_rate)
    return [(snap, g, snap[1] == 0.0 and capacity(snap[2]) >= p.arrival_load)
            for snap, g in oracle_from(p, start, noise)]


def run_window(p, noise, path, start, target, first=None, rate=None, settled=None):
    """One fresh simulator's call from state ``start`` of ``path`` to the end
    of ``noise``, checked against ``path``: the oracle's ``(snapshot,
    coordinate, ...)`` after each step from ``first``, the model's initial
    state by default.  A hit must stop at the oracle's first crossing; a miss
    must be one for the oracle over the whole window, and may stop at the
    call's first state or any later one on the path, with the window's end
    as its cursor and that state's coordinate, below the target.  Returns the
    index of the state it stopped at (``start`` for the first state, ``k``
    for ``path[k - 1]``) and whether the call hit.  The proofs that held, by
    the test that settled them, are added into the list ``settled``."""
    steps = len(path)
    sim = NetSimulator(p)
    if first is not None:
        sim.restore(first)
    if start:
        sim.restore(path[start - 1][0])
    if rate is not None:
        sim.set_policy(rate)
    before = (sim.snapshot(), sim.coordinate())
    pos, g = sim.advance(noise, start, steps, target)
    k = start + (sim.step_index - before[0][0])
    if settled is not None:
        for cert in filter(None, sim._certs.values()):
            settled[:] = map(sum, zip(settled, cert.settled))
    hit = next((j for j in range(start, steps) if path[j][1] >= target), None)
    if hit is not None:
        assert (pos, g) == (hit + 1, path[hit][1])
        assert repr(sim.snapshot()) == repr(path[hit][0])
        return hit + 1, True
    want, coord = path[k - 1][:2] if k > start else before
    assert (pos, g) == (steps, coord) and g < target
    assert repr(sim.snapshot()) == repr(want)
    return k, False


def settled_by(p, noise, first, target):
    """The test that settled a proof from state ``first`` over ``noise`` at
    ``p``'s rate (0 empty queue, 1 sum of rises, 2 Lindley), or None where
    it did not hold."""
    cert = NetSimulator(p)._certificate(p.recovery_rate)
    reach = least_reach(p.grace_steps, target) if target > 1.0 else 0
    if cert.first_failure(array("d", noise), 0, len(noise), target, reach, *first[1:5]):
        return None
    return cert.settled.index(1)


def edge(holds, lo, hi):
    """Adjacent floats ``lo < hi`` between which ``holds`` turns from true to
    false, by bisection from a true ``lo`` and a false ``hi``."""
    while True:
        mid = lo + (hi - lo) / 2.0
        if mid in (lo, hi):
            return lo
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)


class TestIdleQueue:
    """``advance`` skips the queue and counter updates while the queue is empty
    and capacity covers the load; these paths cross in and out of that regime."""

    # default-model seeds whose horizons leave and re-enter the idle regime
    SEEDS = (5, 18, 43)

    def path(self, p, seed):
        noise = stream(seed, "noise").standard_normal(p.horizon_steps).tolist()
        return noise, oracle_path(p, noise)

    def test_full_horizon_in_and_out_of_idle(self):
        p = NetParams()
        for seed in self.SEEDS:
            noise, path = self.path(p, seed)
            entries = [k for k in range(1, len(path)) if path[k][2] and not path[k - 1][2]]
            assert len(entries) >= 2  # the path re-enters the regime after busy steps
            sim = NetSimulator(p)
            pos, g = sim.advance(noise, 0, len(noise), math.inf)
            assert (pos, g) == (len(noise), path[-1][1])
            assert repr(sim.snapshot()) == repr(path[-1][0])
            # one step per call enters the idle loop afresh at every idle state
            sim = NetSimulator(p)
            for k, (snap, coord, _) in enumerate(path):
                assert sim.advance(noise, k, k + 1, math.inf) == (k + 1, coord)
                assert repr(sim.snapshot()) == repr(snap)

    def test_stop_inside_an_idle_stretch(self):
        p = NetParams()
        for seed in self.SEEDS:
            noise, path = self.path(p, seed)
            flags = [idle for _, _, idle in path]
            # stops two steps into each idle stretch that follows busy steps,
            # and in the middle of the first one
            stops = [k + 3 for k in range(1, len(flags) - 3)
                     if flags[k] and not flags[k - 1] and all(flags[k:k + 3])]
            stops.append(flags.index(False) // 2)
            assert len(stops) >= 3
            sim = NetSimulator(p)
            pos = 0
            for stop in sorted(stops) + [len(noise)]:
                pos, g = sim.advance(noise, pos, stop, math.inf)
                assert pos == stop and g == path[stop - 1][1]
                assert repr(sim.snapshot()) == repr(path[stop - 1][0])

    def test_negative_zero_backlog_leaves_as_positive_zero(self):
        p = NetParams(initial_backlog=-0.0)
        noise, path = self.path(p, 0)
        sim = NetSimulator(p)
        assert repr(sim.snapshot()[1]) == "-0.0"
        assert sim.advance(noise, 0, 1, math.inf) == (1, path[0][1])
        assert repr(sim.snapshot()) == repr(path[0][0]) and repr(sim.snapshot()[1]) == "0.0"
        sim = NetSimulator(p)
        sim.advance(noise, 0, len(noise), math.inf)
        assert repr(sim.snapshot()) == repr(path[-1][0])

    def test_counter_left_running_by_an_emptied_queue_resets(self):
        # the first step empties a queue whose delay was over the threshold,
        # so the idle stretch starts with the counter at 1
        p = NetParams(delay_threshold=0.01, initial_backlog=0.012, initial_health=3.0)
        noise, path = self.path(p, 0)
        first = path[0][0]
        assert (first[1], first[4], path[0][2]) == (0.0, 1, True)  # backlog, counter, idle
        for size in (1, 2, len(noise)):
            sim = NetSimulator(p)
            for pos in range(0, len(noise), size):
                sim.advance(noise, pos, pos + size, math.inf)
                assert repr(sim.snapshot()) == repr(path[pos + size - 1][0])

    def test_nan_health_leaves_the_idle_loop(self):
        # a NaN draw during an idle stretch makes health, and so capacity, NaN
        # two steps on: the queue leaves idle, and a window that ends on that
        # step reports the oracle's NaN coordinate
        p = NetParams()
        noise, path = self.path(p, 5)
        m = next(k for k in range(1, len(path)) if path[k][2])
        noise[m] = math.nan
        path = oracle_path(p, noise)
        for stop in (m + 2, m + 3, len(noise)):
            sim = NetSimulator(p)
            got = sim.advance(noise, 0, stop, math.inf)
            assert repr((got, sim.snapshot())) == repr(((stop, path[stop - 1][1]),
                                                         path[stop - 1][0]))
        assert math.isnan(path[m + 1][1])

    @pytest.mark.parametrize("target", [0.0, -1.0, math.nan, 1e-300, 0.02])
    def test_targets_at_and_near_zero(self, target):
        p = NetParams()
        for seed in self.SEEDS:
            noise, path = self.path(p, seed)
            # from the start and from every 97th state on
            for start in (0, *range(1, len(path), 97)):
                sim = NetSimulator(p)
                if start:
                    sim.restore(path[start - 1][0])
                before = (sim.snapshot(), sim.coordinate())
                hit = next((k for k in range(start, len(path)) if path[k][1] >= target), None)
                pos, g = sim.advance(noise, start, len(noise), target)
                k = sim.step_index
                if hit is None and k < len(path):
                    # a proven miss: it stopped at its first state or a later one on the path
                    assert target > 0.0 and k >= start
                    want, coord = path[k - 1][:2] if k > start else before
                    assert (pos, g) == (len(path), coord)
                    assert repr(sim.snapshot()) == repr(want)
                    continue
                end = len(path) - 1 if hit is None else hit
                assert (pos, g) == (end + 1, path[end][1])
                assert repr(sim.snapshot()) == repr(path[end][0])


def long_grace_params(rng):
    """``_random_params`` with a grace window of most of a 6-12 s horizon."""
    p = _random_params(rng)
    dt = p.step_seconds
    return replace(p, horizon_seconds=float(rng.integers(120, 241)) * dt,
                   grace_seconds=float(rng.integers(5, 101)) * dt)


class TestIdleTailCut:
    """A miss whose target is out of reach stops at an idle state, the call's
    first state included: the step after an idle state resets the counter,
    whatever it was, so with ``k`` steps left from one the counter ends at
    most ``k - 1``, and a target in ``(1, 2]`` needs it at ``reach``."""

    def test_reach_is_the_least_count(self):
        for grace in range(1, 201):
            targets = {1.5, 2.0}
            for k in range(1, grace + 1):
                t = 1.0 + k / grace
                targets.update((math.nextafter(t, 0.0), t, math.nextafter(t, 3.0)))
            for t in targets:
                if 1.0 < t <= 2.0:
                    assert netmodel._reach(grace, t) == least_reach(grace, t), (grace, t)

    def test_random_models_from_random_starts(self):
        master = np.random.default_rng(23)
        hits = cuts = firsts = 0
        for trial in range(40):
            p = long_grace_params(master)
            steps = p.horizon_steps
            noise = stream(trial, "noise").standard_normal(steps).tolist()
            path = oracle_path(p, noise)
            for start in master.integers(0, steps, size=6).tolist():
                # targets out of the cut's range, at 1 and just past 2, take every step
                for target in (float(master.uniform(1.0, 2.0)), 2.0, 1.0, math.nextafter(2.0, 3.0)):
                    sim = NetSimulator(p)
                    if start:
                        sim.restore(path[start - 1][0])
                    first = (sim.snapshot(), sim.coordinate())
                    pos, g = sim.advance(noise, start, steps, target)
                    hit = next((k for k in range(start, steps) if path[k][1] >= target), None)
                    if hit is not None:
                        # a hit stops at the oracle's first crossing
                        hits += 1
                        assert (pos, g) == (hit + 1, path[hit][1])
                        assert repr(sim.snapshot()) == repr(path[hit][0])
                        continue
                    # a miss is the call's first state or a later one on the oracle's
                    # path, with the window's end as cursor
                    k = sim.step_index
                    snap, coord = path[k - 1][:2] if k > start else first
                    assert (pos, g) == (steps, coord) and g < target
                    assert repr(sim.snapshot()) == repr(snap)
                    if k < steps:
                        cuts += 1
                        firsts += k == start
                        assert 1.0 < target <= 2.0
                        # idle: an empty queue whose capacity covers the load
                        assert snap[1] == 0.0 and capacity(snap[2]) >= p.arrival_load
                        assert steps - k <= least_reach(p.grace_steps, target)
        assert hits >= 100 and cuts >= 200 and firsts >= 30


def near_threshold_params(rng):
    """``_random_params`` on a 20-60 s horizon with the stress level set so that
    recovery balances the mean stress at a health 0.005-0.3 above
    ``logit(load)``, started there with an empty queue: paths that hover just
    above the level where capacity stops covering the load, and cross it."""
    p = _random_params(rng)
    load = float(rng.uniform(0.55, 0.9))
    phi, rho, sigma = p.recovery_exponent, p.stress_persistence, p.stress_log_sd
    balance = math.log(load / (1.0 - load)) + float(rng.uniform(0.005, 0.3))
    recovery = p.recovery_rate * (1.0 - capacity(balance)) ** phi
    # the stationary mean of exp(x) is exp(mean + sigma**2 / (2 (1 - rho**2)))
    mean = math.log(recovery) - sigma ** 2 / (2.0 * (1.0 - rho * rho))
    return replace(p, arrival_load=load, stress_log_mean=mean, initial_health=balance,
                   initial_backlog=0.0, horizon_seconds=float(rng.integers(400, 1201)) * 0.05)


def certified(p, target, steps, k):
    """Whether a miss that stopped after step ``k`` of ``steps`` was ended by
    a proof: any cut the idle-tail rule does not explain."""
    return k < steps and not (1.0 < target and steps - k <= least_reach(p.grace_steps, target))


class TestIdleCertificate:
    """A miss may end at an idle state once a proof shows that no state left
    reaches the target, most simply when a lower bound on health keeps
    capacity over the load at every state left; ``advance`` must still
    report what the oracle's path gives."""

    def test_random_models_near_the_threshold(self):
        master = np.random.default_rng(25)
        certs = crossings = 0
        settled = [0, 0, 0]
        for trial in range(48):
            p = near_threshold_params(master)
            steps = p.horizon_steps
            noise = stream(trial, "noise").standard_normal(steps).tolist()
            path = oracle_path(p, noise)
            crossings += not all(idle for _, _, idle in path)
            idle = [k + 1 for k in range(steps - 1) if path[k][2]]
            for start in (0, *master.choice(idle, size=min(5, len(idle)), replace=False).tolist()):
                for target in (5e-324, 1e-300, float(master.uniform(0.0, 1.0)),
                               float(master.uniform(1.0, 2.0)), 2.0):
                    k, hit = run_window(p, noise, path, start, target, settled=settled)
                    certs += not hit and certified(p, target, steps, k)
        # the bound proves many misses, and many paths leave the idle regime;
        # each of the proof's tests settles some
        assert certs >= 250 and crossings >= 20 and min(settled) >= 10

    def test_loads_within_rounding_of_the_path(self):
        # frozen stress, health started 1e-9 above the point where recovery
        # balances it: the path creeps down, and each load sits a few ulps from
        # the capacity at its end, so the path stays idle or leaves it by one
        # rounding; only the slack keeps the bound's own rounding from a false
        # proof.  Loads at the edge of the empty-queue test, a slack below the
        # path, are settled by that test on one side and by another on the other
        master = np.random.default_rng(2525)
        leaves = edges = 0
        for _ in range(20):
            nu, phi = float(master.uniform(0.1, 2.0)), float(master.uniform(1.2, 4.0))
            mean, rho = float(master.uniform(-9.0, -3.0)), float(master.uniform(0.0, 0.95))
            q = (math.exp(mean) / nu) ** (1.0 / phi)  # 1 - capacity at the balance point
            start = math.log((1.0 - q) / q) + 1e-9
            p = NetParams(recovery_rate=nu, recovery_exponent=phi, stress_persistence=rho,
                          stress_log_mean=mean, stress_log_sd=0.0, initial_health=start)
            noise = [0.0] * p.horizon_steps
            end = capacity(oracle_path(p, noise)[-1][0][2])
            loads = [end + j * 2.0 ** -53 for j in range(-2, 5)]
            # and loads within ulps of the empty-queue test's edge, where the
            # bound's least capacity meets the load plus the increments' slack
            first = (0, 0.0, start, mean, 0, nu)
            def empty(load):
                return settled_by(replace(p, arrival_load=load), noise, first, 2.0) == 0
            lo = math.nextafter(0.5, 1.0)
            if empty(lo):
                flip = edge(empty, lo, capacity(start))
                loads += [flip + j * math.ulp(flip) for j in range(-2, 4)]
                edges += 1
            for load in loads:
                if not 0.5 < load <= capacity(start):
                    continue
                q = replace(p, arrival_load=load)
                path = oracle_path(q, noise)
                leaves += not path[-1][2]
                for target in (5e-324, 2.0):
                    run_window(q, noise, path, 0, target)
        assert leaves >= 50 and edges >= 10

    def test_a_proof_keeps_its_slack(self):
        # frozen stress started at its balance point: health stays there, and
        # so does the bound; a load whose logit lies half the slack below it is
        # covered at every step, yet no proof may hold, while four slacks below
        # the proof holds
        p = NetParams(stress_log_sd=0.0)
        q = (math.exp(p.stress_log_mean) / p.recovery_rate) ** (1.0 / p.recovery_exponent)
        balance = math.log((1.0 - q) / q)
        noise = [0.0] * p.horizon_steps
        for gap, proven in ((0.5, False), (4.0, True)):
            load = capacity(balance - gap * netmodel._CERT_SLACK)
            q = replace(p, arrival_load=load, initial_health=balance)
            path = oracle_path(q, noise)
            assert all(idle for _, _, idle in path)
            k, hit = run_window(q, noise, path, 0, 1e-300)
            assert not hit and certified(q, 1e-300, q.horizon_steps, k) == proven

    def test_no_certificate_where_the_proof_does_not_hold(self):
        p = NetParams(initial_health=2.0, stress_log_sd=0.3)
        bound = NetSimulator(p).monotone_rate_bound
        low = replace(p, arrival_load=0.5, initial_health=0.5)
        cases = [
            (p, None, (0.0, -1.0, math.inf, math.nextafter(2.0, 3.0))),  # targets out of (0, 2]
            (p, math.nextafter(bound, 4.0), (1e-300, 0.5, 1.0)),  # rate past the monotone bound
            (replace(p, recovery_rate=10.0), None, (1e-300, 0.5, 1.0)),
            (low, None, (1e-300, 0.5, 1.0)),  # load at 1/2 and below
            (replace(low, arrival_load=0.3), None, (1e-300, 0.5, 1.0)),
        ]
        for params, rate, targets in cases:
            steps = params.horizon_steps
            for seed in range(6):
                noise = stream(seed, "noise").standard_normal(steps).tolist()
                path = oracle_from(params, (0, 0.0, params.initial_health, params.start_log_stress,
                                            0, params.recovery_rate if rate is None else rate),
                                   noise)
                path = [(snap, g, snap[1] == 0.0 and capacity(snap[2]) >= params.arrival_load)
                        for snap, g in path]
                assert all(idle for _, _, idle in path)  # a calm path, idle throughout
                for target in targets:
                    k, hit = run_window(params, noise, path, 0, target, rate=rate)
                    assert k == (1 if target <= 0.0 else steps)
        # the control: at the model's own rate and load, every such miss is proven
        noise = stream(0, "noise").standard_normal(p.horizon_steps).tolist()
        path = oracle_path(p, noise)
        for target in (1e-300, 0.5, 1.0, 2.0):
            k, hit = run_window(p, noise, path, 0, target)
            assert not hit and certified(p, target, p.horizon_steps, k)

    @pytest.mark.parametrize("change", [
        {"recovery_exponent": 1e17}, {"recovery_exponent": 1e308}, {"stress_log_mean": -2000.0},
    ])
    def test_balance_point_past_float_range(self, change):
        # 1 - capacity at the balance point rounds to 1 under a huge exponent
        # and to 0 under a vanishing stress: a proof then takes its tangent at logit(load)
        p = replace(NetParams(), **change)
        for seed in range(3):
            noise = stream(seed, "noise").standard_normal(p.horizon_steps).tolist()
            path = oracle_path(p, noise)
            for target in (1e-300, 0.5, 1.5, 2.0):
                run_window(p, noise, path, 0, target)

    @pytest.mark.parametrize("rho", [0.0, 1e-6, 0.05, 0.3])
    def test_small_persistence_emits_no_warning(self, rho):
        # rho ** -k overflows within the window: the bound sums in blocks, or not at all
        p = replace(NetParams(initial_health=1.5), stress_persistence=rho)
        certs = 0
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            for seed in range(6):
                noise = stream(seed, "noise").standard_normal(p.horizon_steps).tolist()
                path = oracle_path(p, noise)
                for pack in PACKINGS:
                    for target in (1e-300, 2.0):
                        k, hit = run_window(p, pack(noise), path, 0, target)
                        certs += not hit and certified(p, target, p.horizon_steps, k)
        assert certs == 0 if rho < 1e-3 else certs > 0

    def test_a_rate_whose_proofs_failed_is_tried_again(self):
        # twelve failed proofs close the gate even for a whole horizon; the
        # refusals that follow halve the record until it opens again
        p = NetParams()
        bound = NetSimulator(p)._certificate(p.recovery_rate)
        bound.tries = 12
        refusals = 0
        while not bound.worth_trying(p.horizon_steps):
            refusals += 1
            assert refusals <= 1000
        assert refusals >= 12 and bound.tries < 12

    def test_most_fresh_misses_are_certified(self):
        # the positive control: from NetParams()'s fresh state, a failure-target
        # call over the whole horizon, a plain Monte Carlo trajectory, is proven
        # a miss in nearly every trajectory, nearly always at that idle state
        # itself, before any step
        p = NetParams()
        steps = p.horizon_steps
        misses = certs = firsts = 0
        for seed in range(100):
            sim = NetSimulator(p)
            noise = sim.draw_noise(stream(seed, "mc"), steps)
            pos, g = sim.advance(noise, 0, steps, sim.failure_value)
            if g < sim.failure_value:
                misses += 1
                certs += certified(p, 2.0, steps, sim.step_index)
                firsts += sim.step_index == 0
        assert misses >= 90 and certs >= 0.95 * misses and firsts >= 0.95 * misses


def busy_model(rng):
    """A 1200-step model whose queue leaves idle: ``_random_params`` over a
    default horizon, or ``NetParams()`` with its load, threshold, noise and
    grace window drawn around the defaults."""
    if rng.random() < 0.5:
        p = replace(_random_params(rng), horizon_seconds=60.0)
    else:
        p = NetParams(arrival_load=float(rng.uniform(0.6, 0.8)),
                      delay_threshold=float(rng.uniform(0.02, 0.5)),
                      stress_log_sd=float(rng.uniform(0.3, 1.0)),
                      grace_seconds=float(rng.integers(1, 400)) * 0.05)
    if rng.random() < 0.3:
        p = replace(p, grace_seconds=float(rng.integers(100, 1000)) * p.step_seconds)
    return p


class TestBusyCertificate:
    """A proof may also end a miss whose queue is busy: at the call's first
    state, a checkpoint in splitting, or at an idle state from which the
    queue leaves idle again.  Every proof that holds must be a miss of the
    oracle's path, and a call that ends at its first state reports it."""

    def test_random_models_from_busy_starts(self):
        master = np.random.default_rng(26)
        proofs = busy = hits = 0
        settled = [0, 0, 0]
        for trial in range(150):
            p = busy_model(master)
            steps = p.horizon_steps
            noise = stream(trial, "noise").standard_normal(steps).tolist()
            path = oracle_path(p, noise)
            # busy states with at least 400 steps left, the fewest a first proof is made over
            starts = [k for k in range(1, steps - 400) if not path[k - 1][2]]
            if starts:
                starts = master.choice(starts, size=min(4, len(starts)), replace=False).tolist()
            noise = PACKINGS[trial % 2](noise)
            for start in (0, *starts):
                top = max(g for _, g, _ in path[start:])
                above = math.nextafter(top, 3.0)
                for target in (top, above, math.nextafter(above, 3.0), top + 1e-9,
                               float(master.uniform(0.0, 1.0)), float(master.uniform(1.0, 2.0)),
                               2.0):
                    if not 0.0 < target <= 2.0:
                        continue
                    k, hit = run_window(p, noise, path, start, target, settled=settled)
                    hits += hit
                    if not hit and certified(p, target, steps, k):
                        proofs += 1
                        busy += k == start and start > 0
        # many proofs hold, many at a busy first state, and the rest of the
        # calls hit; each of the proof's tests settles some
        assert proofs >= 500 and busy >= 200 and hits >= 500 and min(settled) >= 50

    def test_a_drain_across_the_threshold_within_rounding(self):
        # capacity 1.0 in both the kernel and the bound, so only the backlog's
        # rounding separates them: the queue drains 0.004 a step, with the
        # counter running, and crosses the threshold within a few ulps of it.
        # Whether the counter rises once more, and so the oracle's top
        # coordinate, turns on the kernel's rounding, and the backlog slack
        # must cover it.  The top is the delay term, over 0.9, plus the
        # counter's top over a 10-step grace window, so no proof may hold at
        # the top or just above it, while one may just above the counter's
        # next value
        p = NetParams(arrival_load=0.8, step_seconds=0.02, horizon_seconds=8.0,
                      grace_seconds=0.2, stress_log_mean=-20.0, stress_log_sd=0.0,
                      delay_threshold=0.05)
        grace = p.grace_steps
        noise = [0.0] * p.horizon_steps  # 400 steps, the shortest a first proof is made over
        proofs = 0
        for drain in (2, 4, 5):
            for e in (0, 1, 3):
                mid = p.delay_threshold + drain * (1.0 - p.arrival_load) * p.step_seconds
                tops = set()
                for ulps in range(-6, 7):
                    first = (0, mid + ulps * math.ulp(mid), 40.0, p.stress_log_mean, e,
                             p.recovery_rate)
                    path = oracle_from(p, first, noise)
                    top = max(g for _, g in path)
                    count = max(snap[4] for snap, _ in path)
                    tops.add(count)
                    beyond = math.nextafter(1.0 + count / grace, 3.0)
                    for target in (top, math.nextafter(top, 3.0), beyond):
                        k, hit = run_window(p, noise, path, 0, target, first=first)
                        assert hit == (target == top)
                        proofs += not hit and k == 0
                assert len(tops) == 2  # the crossing lies inside the ulps tried
        assert proofs >= 30

    def test_a_backlog_at_the_edge_of_the_sum_of_rises(self):
        # capacity 1.0 in the kernel and the bound, and a load 1e-14 below it:
        # the kernel's backlog holds within ulps, while every bound increment
        # is a rise of its slack, so b + sum(rises) lies ~1.8e-10 above b.
        # Backlogs within ulps of where that sum, over the least capacity,
        # meets delta * min(target, 1) are settled by the sum on one side and
        # by Lindley's recursion on the other, and both must match the oracle
        p = NetParams(arrival_load=1.0 - 1e-14, step_seconds=0.02, horizon_seconds=8.0,
                      grace_seconds=0.2, stress_log_mean=-20.0, stress_log_sd=0.0,
                      delay_threshold=0.05)
        noise = [0.0] * p.horizon_steps
        for target in (0.5, 1.0, 2.0):
            def state(b):
                return (0, b, 40.0, p.stress_log_mean, 0, p.recovery_rate)
            def rises(b):
                return settled_by(p, noise, state(b), target) == 1
            b = edge(rises, 0.0, p.delay_threshold * min(target, 1.0))
            outcomes = set()
            for ulps in range(-3, 4):
                first = state(b + ulps * math.ulp(b))
                outcomes.add(settled_by(p, noise, first, target))
                k, hit = run_window(p, noise, oracle_from(p, first, noise), 0, target,
                                    first=first)
                assert not hit and k == 0
            assert outcomes == {1, 2}

    def test_a_plunge_below_the_tangent_range(self):
        # a stress spike sends health far below 0, where a strong recovery
        # term lies under its tangent: the health bound holds only while it
        # is at least 0, and past there would recover too fast.  The grace
        # window is long, so the counter's top, and the oracle's top
        # coordinate, rest on how long health takes to come back
        for nu, phi, mean in ((1.5, 1.4, -2.5), (2.0, 1.2, -2.0)):
            base = NetParams(recovery_rate=nu, recovery_exponent=phi, stress_log_mean=mean,
                             stress_log_sd=0.0, initial_backlog=0.05, initial_health=1.0)
            for log_stress in (1.0, 1.5, 2.0, 2.5, 3.0, 3.5):
                for grace in (200, 400, 600, 800, 1000, 1150):
                    p = replace(base, initial_log_stress=log_stress, grace_seconds=grace * 0.05)
                    noise = [0.0] * p.horizon_steps
                    path = oracle_path(p, noise)
                    assert min(snap[2] for snap, _, _ in path) < -1.0
                    top = max(g for _, g, _ in path)
                    for target in (top, math.nextafter(top, 3.0)):
                        k, hit = run_window(p, noise, path, 0, target)
                        assert hit == (target == top)

    @pytest.mark.parametrize("change", [
        {"initial_backlog": 1e300, "delay_threshold": 1e-10},
        {"arrival_load": 0.9, "delay_threshold": 1e-307},
    ])
    def test_a_delay_bound_past_the_largest_float_emits_no_warning(self, change):
        # b / C / delta overflows to inf, which the delay tests compare as it is
        p = NetParams(**change)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = run_mc(simulator_factory(p), McConfig(budget_steps=20 * p.horizon_steps), 1)
        assert rep.hits == rep.trajectories == 20


class TestProofWorkArrays:
    """A certificate writes every proof into the same work arrays, so nothing
    one proof leaves there may reach the next: fed a shuffled mix of windows,
    one certificate must give each the result, and add to ``settled`` the
    count, that a fresh certificate gives it."""

    # the default model on paths that leave idle, proven in one block, and a
    # noisy model with stress persistence 0.3, whose windows span five blocks
    MODELS = ((NetParams(), (5, 18, 43)),
              (NetParams(stress_persistence=0.3, stress_log_mean=-4.5, stress_log_sd=0.8),
               (0, 1, 2)))

    def test_one_certificate_matches_fresh_ones(self):
        master = np.random.default_rng(32)
        held = failed = busy = 0
        settled = [0, 0, 0]
        for p, seeds in self.MODELS:
            steps = p.horizon_steps
            cert = NetSimulator(p)._certificate(p.recovery_rate)
            first = (0, p.initial_backlog, p.initial_health, p.start_log_stress, 0,
                     p.recovery_rate)
            windows = []
            for seed in seeds:
                noise = stream(seed, "noise").standard_normal(steps).tolist()
                path = oracle_path(p, noise)
                packed = array("d", noise)
                starts = [0]
                for flag in (True, False):  # idle starts, then busy ones
                    pick = [k + 1 for k in range(steps - 1) if path[k][2] == flag]
                    starts += master.choice(pick, size=3, replace=False).tolist()
                for start in starts:
                    snap = path[start - 1][0] if start else first
                    windows += [(packed, start, target, snap)
                                for target in (0.1, 1.0, 1.5, 2.0)]
            for w in master.permutation(len(windows)):
                noise, start, target, snap = windows[w]
                reach = least_reach(p.grace_steps, target) if target > 1.0 else 0
                args = (noise, start, steps - start, target, reach, *snap[1:5])
                fresh = NetSimulator(p)._certificate(p.recovery_rate)
                before = list(cert.settled)
                k = cert.first_failure(*args)
                assert k == fresh.first_failure(*args)
                assert [now - then for now, then in zip(cert.settled, before)] == fresh.settled
                held += not k
                failed += k > 0
                busy += not k and snap[1] > 0.0
                settled[:] = map(sum, zip(settled, fresh.settled))
        assert cert.block * 4 < steps  # the last model's windows span several blocks
        # proofs hold, some from a busy queue, and fail; each test settles some
        assert held >= 100 and failed >= 30 and busy >= 20 and min(settled) >= 5


CHUNK_SIZES = (1, 3, core.NOISE_CHUNK_MAX, 1 << 20)


def _packed(draw, pack):
    return lambda self, rng, n: pack(draw(self, rng, n))


def _same_under_chunk_sizes(monkeypatch, run):
    """``run()``'s repr under several refill caps, with every simulator's noise
    packed as a list and as an ``array('d')``; cap 1 makes every refill
    exactly the need."""
    reports = []
    for pack in PACKINGS:
        for size in CHUNK_SIZES:
            with monkeypatch.context() as m:
                m.setattr(core, "NOISE_CHUNK_MAX", size)
                for cls in (NetSimulator, LadderSim, ThreeStateSim):
                    m.setattr(cls, "draw_noise", _packed(cls.draw_noise, pack))
                reports.append(repr(run()))
    assert len(set(reports)) == 1
    return reports[0]


class TestEnginesIgnoreChunking:
    def test_run_level_network_with_truncation(self, monkeypatch):
        params = NetParams(delay_threshold=0.05, stress_log_sd=0.8)
        sim = NetSimulator(params)
        pool = [Checkpoint(sim.snapshot(), 0, 0, sim.coordinate())]
        cfg = SmcConfig(success_target=3, attempt_target=30)
        # the failure stage from the initial state: crossings, full-horizon
        # misses and, on the smaller budget, a void attempt cut by the budget
        for budget, met in ((200_000, True), (20_000, False)):
            def run():
                return run_level(sim, pool, 3, default_levels(), cfg, BudgetLedger(budget), 7)
            _same_under_chunk_sizes(monkeypatch, run)
            rec = run()
            assert rec.stopping_met is met and 0 < rec.successes < rec.attempts

    def test_run_smc_ladder_and_three_state(self, monkeypatch):
        cfg = SmcConfig(success_target=5, attempt_target=10, initial_pool=4, pool_min=3,
                        pool_max=9, budget_steps=100)
        for seed in range(5):
            _same_under_chunk_sizes(monkeypatch, lambda: run_smc(
                ladder_factory((0.5, 0.4, 0.3)), LevelSchedule((0.0, 1.0, 2.0, 3.0)), cfg, seed))
            _same_under_chunk_sizes(monkeypatch, lambda: run_smc(
                three_state_factory(0.3, 0.2, 0.3, 9), LevelSchedule((0.0, 1.0, 2.0)), cfg, seed))

    @pytest.mark.parametrize("factory", [
        simulator_factory(NetParams(delay_threshold=0.05, stress_log_sd=0.8)),
        ladder_factory((0.5, 0.4, 0.3)),
        three_state_factory(0.3, 0.2, 0.3, 9),
    ])
    def test_run_mc_stops_at_first_failure(self, monkeypatch, factory):
        cfg = McConfig(budget_steps=40 * factory().horizon_steps)
        got = _same_under_chunk_sizes(monkeypatch, lambda: run_mc(factory, cfg, 5))
        hits = cost = pos = 0
        values = factory().draw_noise(stream(5, "mc"), cfg.budget_steps)
        for _ in range(40):
            sim = factory()
            # each trajectory reads on from where the last one stopped, one
            # step at a time, only as far as it needs
            while sim.coordinate() < sim.failure_value and sim.step_index < sim.horizon_steps:
                pos, _ = sim.advance(values, pos, pos + 1, math.inf)
                cost += 1
            hits += sim.coordinate() >= sim.failure_value
        rep = run_mc(factory, cfg, 5)
        assert repr(rep) == got
        assert (rep.hits, rep.cost_steps_used) == (hits, cost)

    @pytest.mark.parametrize("budget", [None, 2_000])
    def test_evaluate_candidate(self, monkeypatch, budget):
        params = NetParams(delay_threshold=0.05, stress_log_sd=0.8)
        sim = NetSimulator(params)
        rng = stream(3, "warm")
        while sim.coordinate() < 1.0:
            step(sim, rng)
        source = Checkpoint(sim.snapshot(), 2, sim.step_index, sim.coordinate())
        rate = PolicySet.from_params(params, size=3).rate(1)
        look = LookaheadConfig(host_level=2, continuations=6)

        def run():
            ledger = BudgetLedger(budget)
            noise = lookahead_noise(sim, source, look, stream(3, "look"))
            res = evaluate_candidate(sim, source, rate, default_levels(), look, noise, ledger,
                                     range(look.continuations))
            return res, ledger.used

        _same_under_chunk_sizes(monkeypatch, run)



class TestNoiseWindow:
    """``advance`` reads ``noise[pos:stop]`` in place and nothing outside it."""

    # a noisy model whose paths cross 1.0 and still pass through idle stretches
    PARAMS = NetParams(delay_threshold=0.05, stress_log_sd=0.8)
    SEEDS = (0, 1, 4)

    def starts(self, path):
        """An idle start and a busy start, each a step index on ``path``, past step 0."""
        idle = next(k for k in range(1, len(path)) if path[k][2] and not path[k - 1][2])
        busy = next(k for k in range(1, len(path)) if not path[k][2])
        return idle, busy

    @pytest.mark.parametrize("target", [math.inf, 1.0])
    def test_values_outside_the_window_are_not_read(self, target):
        p = self.PARAMS
        for seed in self.SEEDS:
            noise = stream(seed, "noise").standard_normal(p.horizon_steps).tolist()
            path = oracle_path(p, noise)
            for start in self.starts(path):
                pos = start + 1  # the state after step `start` reads noise[start + 1] next
                for stop in (pos + 1, pos + 40, min(pos + 300, len(noise)), len(noise)):
                    poisoned = noise[:]
                    poisoned[:pos] = [math.nan] * pos
                    poisoned[stop:] = [math.nan] * (len(noise) - stop)
                    got = set()
                    for values in (pack(v) for pack in PACKINGS for v in (noise, poisoned)):
                        sim = NetSimulator(p)
                        sim.restore(path[start][0])
                        got.add((sim.advance(values, pos, stop, target), repr(sim.snapshot())))
                    hit = next((k for k in range(pos, stop) if path[k][1] >= target), stop - 1)
                    assert got == {((hit + 1, path[hit][1]), repr(path[hit][0]))}

    def test_empty_window_takes_no_step(self):
        emptied = NetParams(delay_threshold=0.01, initial_backlog=0.012, initial_health=3.0)
        sim = NetSimulator(emptied)
        sim.advance([0.0], 0, 1, math.inf)  # empties the queue with the counter at 1
        assert (sim.snapshot()[1], sim.snapshot()[4]) == (0.0, 1)
        sims = [sim, NetSimulator(NetParams(initial_backlog=-0.0))]
        p = self.PARAMS
        noise = stream(0, "noise").standard_normal(p.horizon_steps).tolist()
        path = oracle_path(p, noise)
        for start in self.starts(path):
            sims.append(NetSimulator(p))
            sims[-1].restore(path[start][0])
        for sim in sims:
            before = repr(sim.snapshot())
            for values in (pack(noise) for pack in PACKINGS):
                for pos in (0, 1, 17, len(noise)):
                    for target in (math.inf, 1.0, 0.0, -1.0):
                        assert sim.advance(values, pos, pos, target) == (pos, sim.coordinate())
                        assert repr(sim.snapshot()) == before

    def test_window_ending_at_the_end_of_the_list(self):
        p = self.PARAMS
        for seed, pack in product(self.SEEDS, PACKINGS):
            noise = stream(seed, "noise").standard_normal(p.horizon_steps).tolist()
            path = oracle_path(p, noise)
            noise = pack(noise)
            for start in self.starts(path):
                for size in (1, 2, len(noise) - start - 1):
                    # the sequence holds exactly the window's values after `start`
                    values = noise[:start + 1 + size]
                    sim = NetSimulator(p)
                    sim.restore(path[start][0])
                    end = start + size
                    assert sim.advance(values, start + 1, len(values), math.inf) == \
                        (len(values), path[end][1])
                    assert repr(sim.snapshot()) == repr(path[end][0])
                # one value past the end raises and leaves the state alone
                sim = NetSimulator(p)
                sim.restore(path[start][0])
                with pytest.raises(IndexError):
                    sim.advance(noise[:start + 3], start + 1, start + 4, math.inf)
                assert repr(sim.snapshot()) == repr(path[start][0])


# around the logistic clip, far past it, and the non-finite values
SATURATED = [s * v for v in (49.999, 50.0, 50.001, 60.0, 700.0, 1e308, math.inf)
             for s in (1.0, -1.0)] + [math.nan]


class TestSaturatedHealth:
    """At and past the clip, the kernel's one-sided capacity equals ``capacity``."""

    @pytest.mark.parametrize("health", SATURATED)
    @pytest.mark.parametrize("backlog", [0.0, 0.3])
    def test_matches_the_oracle(self, health, backlog):
        p = NetParams()
        noise = stream(11, "noise").standard_normal(8).tolist()
        for exceed in (0, 3):
            snap = (0, backlog, health, p.stress_log_mean, exceed, p.recovery_rate)
            path = oracle_from(p, snap, noise)
            for target in (math.inf, 0.0):
                # one step, then all eight in one call, then eight one-step calls
                for size in (1, len(noise)):
                    sim = NetSimulator(p)
                    sim.restore(snap)
                    hit = next((k for k in range(size) if path[k][1] >= target), size - 1)
                    assert sim.advance(noise, 0, size, target)[0] == hit + 1
                    assert repr((sim.snapshot(), sim.coordinate())) == repr(path[hit])
                sim = NetSimulator(p)
                sim.restore(snap)
                for k, want in enumerate(path):
                    pos, g = sim.advance(noise, k, k + 1, target)
                    assert pos == k + 1
                    assert repr((sim.snapshot(), g)) == repr(want)
