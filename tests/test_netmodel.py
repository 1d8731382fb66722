import math
import sys
from array import array

import numpy as np
import pytest
from oracle import (
    NetState,
    is_failure,
    reaction_coordinate,
    service_delay,
    state_of,
    step,
    step_dynamics,
)

from resplit.core import HorizonExceededError, stream
from resplit.netmodel import (
    NetParams,
    NetSimulator,
    capacity,
    default_levels,
    simulator_factory,
)


def _random_params(rng):
    dt = 0.05
    return NetParams(
        arrival_load=float(rng.uniform(0.1, 0.9)),
        step_seconds=dt,
        horizon_seconds=40 * dt,
        initial_backlog=float(rng.uniform(0.0, 0.2)),
        initial_health=float(rng.normal(0.5, 1.5)),
        recovery_rate=float(rng.uniform(0.05, 2.0)),
        recovery_exponent=float(rng.uniform(1.1, 4.0)),
        stress_persistence=float(rng.uniform(0.0, 0.95)),
        stress_log_mean=float(rng.uniform(-6.0, -2.0)),
        stress_log_sd=float(rng.uniform(0.0, 1.2)),
        delay_threshold=float(rng.uniform(0.02, 0.4)),
        grace_seconds=float(rng.integers(2, 12)) * dt,
    )


class TestParams:
    def test_baseline_profile(self):
        p = NetParams()
        assert p.arrival_load == 0.7
        assert p.horizon_steps == 1200
        assert p.grace_steps == 100
        assert p.start_log_stress == -5.0
        assert p.delay_threshold == 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            NetParams(arrival_load=1.2)
        with pytest.raises(ValueError):
            NetParams(arrival_load=0.0)
        with pytest.raises(ValueError):
            NetParams(stress_persistence=1.0)
        with pytest.raises(ValueError):
            NetParams(recovery_exponent=1.0)
        with pytest.raises(ValueError):
            NetParams(recovery_rate=30.0)  # rate * step > 1
        with pytest.raises(ValueError):
            NetParams(horizon_seconds=0.33, step_seconds=0.1)
        with pytest.raises(ValueError):
            NetParams(stress_log_sd=-0.1)
        with pytest.raises(ValueError):
            NetParams(delay_threshold=0.0)
        for name in ("initial_backlog", "recovery_rate", "recovery_exponent", "stress_log_sd",
                     "delay_threshold", "grace_seconds"):
            with pytest.raises(ValueError):
                NetParams(**{name: math.nan})

    def test_grace_window_must_fit_the_horizon(self):
        # the counter rises at most once a step, so a longer window never fills
        with pytest.raises(ValueError, match="^grace window of 1220 steps is longer than the"
                                             " 1200-step horizon$"):
            NetParams(grace_seconds=61.0)
        with pytest.raises(ValueError, match="^grace window of 100 steps .* 40-step horizon$"):
            NetParams(horizon_seconds=2.0)
        p = NetParams(grace_seconds=60.0)  # a window as long as the horizon can still fill
        assert p.grace_steps == p.horizon_steps == 1200

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name", ["initial_backlog", "initial_health", "initial_log_stress", "stress_log_mean"]
    )
    def test_non_finite_state_fields_rejected_by_name(self, name, value):
        # a NaN health gave a NaN coordinate that no level reached, so the
        # engines reported 0 without a word
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            NetParams(**{name: value})

    def test_log_stress_must_keep_exp_in_range(self):
        # the health step takes exp of the log-stress, which overflows past
        # log(float max): a mean of 709 ended a run in OverflowError.  The
        # bound is 40 stationary standard deviations above the start and the mean
        sd, rho = 0.55, 0.75
        edge = math.log(sys.float_info.max) - 40.0 * sd / math.sqrt(1.0 - rho * rho)
        for name in ("stress_log_mean", "initial_log_stress"):
            with pytest.raises(ValueError, match="^log-stress may reach .*, where exp overflows"):
                NetParams(**{name: edge + 1e-9})
            with pytest.raises(ValueError, match="^log-stress may reach 742.261, where exp"):
                NetParams(**{name: 709.0})
        with pytest.raises(ValueError, match="^log-stress may reach"):
            NetParams(stress_log_sd=20.0, stress_persistence=0.0)
        # just inside, a whole horizon runs: health collapses and the model fails
        p = NetParams(stress_log_mean=edge - 1e-9)
        sim = NetSimulator(p)
        noise = sim.draw_noise(np.random.default_rng(0), p.horizon_steps)
        assert sim.advance(noise, 0, p.horizon_steps, math.inf)[1] == sim.failure_value

    def test_default_levels(self):
        sched = default_levels()
        assert sched.thresholds == (0.0, 0.1, 1.0, 1.5, 2.0)
        assert sched.stage_count == 4
        assert sched.thresholds[-1] == 2.0


class TestCapacityAndDelay:
    def test_capacity_worked_value(self):
        assert capacity(0.95) == pytest.approx(0.72112, abs=5e-6)
        assert capacity(0.0) == 0.5

    def test_capacity_symmetry_and_range(self):
        for h in (-3.0, -0.5, 0.7, 4.0):
            assert capacity(h) + capacity(-h) == pytest.approx(1.0, abs=1e-12)
            assert 0.0 < capacity(h) < 1.0

    def test_capacity_saturates_under_clip(self):
        assert capacity(30.0) > 1.0 - 1e-12
        assert capacity(-30.0) < 1e-12
        assert capacity(1e9) == capacity(60.0)  # clamp keeps exp finite
        assert math.isfinite(capacity(-1e9))

    def test_delay_worked_value(self):
        state = NetState(0, backlog=0.072112, health=0.95, log_stress=-5.0, exceed_count=0)
        assert service_delay(state) == pytest.approx(0.1, abs=1e-5)

    def test_zero_backlog_zero_delay(self):
        state = NetState(0, 0.0, -2.0, -5.0, 0)
        assert service_delay(state) == 0.0


class TestReactionCoordinate:
    def test_worked_values(self):
        p = NetParams()
        half_delay = NetState(0, 0.05 * capacity(0.0), 0.0, -5.0, 0)
        assert reaction_coordinate(half_delay, p) == pytest.approx(0.5, abs=1e-12)
        half_window = NetState(0, 1.0, 0.0, -5.0, p.grace_steps // 2)
        assert reaction_coordinate(half_window, p) == pytest.approx(1.5, abs=1e-12)

    def test_failure_pins_to_two(self):
        p = NetParams()
        drained = NetState(0, 0.0, 5.0, -5.0, p.grace_steps)
        assert reaction_coordinate(drained, p) == 2.0
        assert is_failure(drained, p)

    def test_two_only_on_failure(self):
        p = NetParams()
        huge_delay = NetState(0, 50.0, -10.0, -5.0, p.grace_steps - 1)
        g = reaction_coordinate(huge_delay, p)
        assert g < 2.0
        assert not is_failure(huge_delay, p)

    def test_bounds_random_states(self):
        p = NetParams()
        rng = np.random.default_rng(3)
        for _ in range(200):
            state = NetState(
                0,
                float(rng.uniform(0, 5)),
                float(rng.normal(0, 3)),
                float(rng.normal(-5, 1)),
                int(rng.integers(0, p.grace_steps + 1)),
            )
            g = reaction_coordinate(state, p)
            assert 0.0 <= g <= 2.0
            assert (g == 2.0) == is_failure(state, p)


class TestStepDynamics:
    def test_first_step_hand_computed(self):
        p = NetParams(stress_log_sd=0.0)
        s0 = NetState(0, p.initial_backlog, p.initial_health, p.start_log_stress, 0)
        s1 = step_dynamics(s0, p, p.recovery_rate, gamma=0.0)
        # capacity(0.95) > arrival load, queue stays empty
        assert s1.backlog == 0.0
        c = 1.0 / (1.0 + math.exp(-0.95))
        assert s1.health == pytest.approx(0.95 + 0.2 * (1 - c) ** 2 - math.exp(-5.0), rel=1e-12)
        assert s1.log_stress == pytest.approx(-5.0, abs=1e-12)
        assert s1.exceed_count == 0
        assert s1.step_index == 1

    def test_exceed_counts_to_failure_and_resets(self):
        p = NetParams(grace_seconds=0.15)  # grace window of 3 steps
        assert p.grace_steps == 3
        state = NetState(0, backlog=5.0, health=0.0, log_stress=-30.0, exceed_count=0)
        counts = []
        for _ in range(3):
            state = step_dynamics(state, p, p.recovery_rate, 0.0)
            counts.append(state.exceed_count)
        assert counts == [1, 2, 3]
        assert is_failure(state, p)
        # a drained queue resets the window
        calm = NetState(4, 0.0, 0.0, -30.0, 2)
        after = step_dynamics(calm, p, p.recovery_rate, 0.0)
        assert after.exceed_count == 0

    def test_exceed_uses_prestep_delay(self):
        # backlog drains below threshold during the step, but the pre-step
        # delay was at threshold, so the counter still advances
        p = NetParams(grace_seconds=0.25, delay_threshold=0.1)
        state = NetState(0, backlog=0.1 * capacity(8.0), health=8.0, log_stress=-30.0, exceed_count=0)
        nxt = step_dynamics(state, p, p.recovery_rate, 0.0)
        assert nxt.exceed_count == 1

    def test_horizon_guard(self):
        p = NetParams(horizon_seconds=0.1, grace_seconds=0.1)  # two steps
        state = NetState(2, 0.0, 0.0, -5.0, 0)
        with pytest.raises(HorizonExceededError):
            step_dynamics(state, p, p.recovery_rate, 0.0)

    def test_deterministic_straight_line_reimplementation(self):
        # independent plain-loop version of the noise-free dynamics
        p = NetParams(stress_log_sd=0.0, horizon_seconds=10.0, initial_health=-0.5,
                      initial_backlog=0.05)
        state = NetState(0, p.initial_backlog, p.initial_health, p.start_log_stress, 0)

        b, h, f, n = p.initial_backlog, p.initial_health, p.stress_log_mean, 0
        for _ in range(p.horizon_steps):
            state = step_dynamics(state, p, p.recovery_rate, 0.0)

            cap = 1.0 / (1.0 + math.exp(-np.clip(h, -50.0, 50.0)))
            d = b / cap
            b = max(b + p.step_seconds * (p.arrival_load - cap), 0.0)
            h = h - math.exp(f) + p.recovery_rate * (1.0 - cap) ** p.recovery_exponent
            f = p.stress_log_mean + p.stress_persistence * (f - p.stress_log_mean)
            n = min(n + 1, p.grace_steps) if d >= p.delay_threshold else 0

            assert state.backlog == pytest.approx(b, abs=1e-12)
            assert state.health == pytest.approx(h, abs=1e-12)
            assert state.log_stress == pytest.approx(f, abs=1e-12)
            assert state.exceed_count == n


class TestSimulatorContract:
    def test_snapshot_restore_bit_identical(self):
        sim = NetSimulator(NetParams())
        rng = stream(7, "walk")
        for _ in range(50):
            step(sim, rng)
        snap = sim.snapshot()
        cont = stream(7, "cont")
        first = []
        for _ in range(30):
            step(sim, cont)
            first.append(sim.snapshot())
        sim.restore(snap)
        assert sim.snapshot() == snap
        cont = stream(7, "cont")
        for want in first:
            step(sim, cont)
            assert sim.snapshot() == want

    def test_restores_are_value_copies(self):
        sim = NetSimulator(NetParams())
        snap = sim.snapshot()
        rng = stream(8, "walk")
        step(sim, rng)
        assert sim.snapshot() != snap
        sim.restore(snap)
        assert sim.step_index == 0

    def test_independent_continuations_differ(self):
        sim = NetSimulator(NetParams(initial_backlog=0.3, initial_health=-1.0))
        rng = stream(9, "walk")
        for _ in range(20):
            step(sim, rng)
        snap = sim.snapshot()
        a = stream(9, "branch", 0)
        b = stream(9, "branch", 1)
        sim.restore(snap)
        for _ in range(20):
            step(sim, a)
        path_a = sim.snapshot()
        sim.restore(snap)
        for _ in range(20):
            step(sim, b)
        assert sim.snapshot() != path_a

    def test_policy_switch_and_snapshot_roundtrip(self):
        sim = NetSimulator(NetParams())
        sim.set_policy(0.4)
        snap = sim.snapshot()
        assert len(snap) == 6 and snap[5] == 0.4
        sim.set_policy(0.6)
        assert sim.snapshot()[5] == 0.6
        sim.restore(snap)
        assert sim.snapshot()[5] == 0.4

    def test_policy_stability_guard(self):
        sim = NetSimulator(NetParams())
        before = sim.snapshot()
        for rate in (math.nan, 0.0, -1.0, 25.0):  # 25.0 * 0.05 s > 1: unstable
            with pytest.raises(ValueError):
                sim.set_policy(rate)
        assert sim.snapshot() == before
        sim.set_policy(20.0)  # exactly at the one-step bound
        assert sim.snapshot()[5] == 20.0

    def test_stronger_recovery_heals_faster(self):
        # same noise, higher recovery rate: health is pointwise >= at every step
        p = NetParams(initial_health=-1.0, initial_backlog=0.5)
        weak = NetSimulator(p)
        strong = NetSimulator(p)
        strong.set_policy(0.8)
        ra, rb = stream(11, "noise"), stream(11, "noise")
        for _ in range(p.horizon_steps):
            step(weak, ra)
            step(strong, rb)
            assert state_of(strong).health >= state_of(weak).health - 1e-12

    def test_heavier_stress_hurts_health(self):
        # same noise, larger initial stress level: health pointwise <= at every step
        base = NetParams(initial_backlog=0.2)
        hot = NetParams(initial_backlog=0.2, initial_log_stress=-3.0)
        a, b = NetSimulator(base), NetSimulator(hot)
        ra, rb = stream(12, "noise"), stream(12, "noise")
        for _ in range(base.horizon_steps):
            step(a, ra)
            step(b, rb)
            assert state_of(b).log_stress >= state_of(a).log_stress - 1e-12
            assert state_of(b).health <= state_of(a).health + 1e-12

    def test_factory_returns_fresh_sims(self):
        make = simulator_factory(NetParams())
        s1 = make()
        s2 = make()
        assert s1 is not s2
        assert s1.snapshot() == s2.snapshot()
        assert s1.step_index == 0 and s1.coordinate() == 0.0


DRAW_SIZES = (0, 1, 16, 1200, 16384)


class TestDrawNoise:
    """``draw_noise`` draws each array's normals in place into its buffer;
    that must give the values of one plain numpy draw, in stream order, in a
    new array each call."""

    @pytest.mark.parametrize("n", DRAW_SIZES)
    def test_equals_one_numpy_draw(self, n):
        got = NetSimulator(NetParams()).draw_noise(stream(4, "noise"), n)
        assert isinstance(got, array) and got.typecode == "d"
        assert got == array("d", stream(4, "noise").standard_normal(n).tobytes())

    @pytest.mark.parametrize("n", DRAW_SIZES)
    def test_draws_in_turn_equal_one_draw(self, n):
        sim = NetSimulator(NetParams())
        for m in DRAW_SIZES:
            rng = stream(5, "noise", m)
            first = sim.draw_noise(rng, n)
            assert first + sim.draw_noise(rng, m) == sim.draw_noise(stream(5, "noise", m), n + m)

    @pytest.mark.parametrize("n", DRAW_SIZES)
    def test_each_call_returns_a_new_array(self, n):
        sim = NetSimulator(NetParams())
        rng = stream(6, "noise")
        before = sim.draw_noise(rng, n)
        kept = before.tolist()
        after = sim.draw_noise(rng, n)
        assert after is not before and before.tolist() == kept
        assert not np.shares_memory(np.frombuffer(before), np.frombuffer(after))
