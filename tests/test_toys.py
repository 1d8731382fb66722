import math

import pytest
from oracle import step

from resplit.core import stream
from resplit.toys import (
    LadderSim,
    ThreeStateSim,
    enumerate_three_state_hitting,
    ladder_factory,
    three_state_factory,
)


class TestLadder:
    def test_miss_absorbs(self):
        sim = LadderSim((1e-12, 1.0))
        rng = stream(2, "t")
        step(sim, rng)
        assert sim.coordinate() == 0.0
        step(sim, rng)  # dead: cannot climb any more
        assert sim.coordinate() == 0.0

    def test_hit_rate_matches_product(self):
        probs = (0.6, 0.5)
        want = 0.3
        hits = 0
        n = 4000
        for i in range(n):
            rng = stream(3, "traj", i)
            sim = LadderSim(probs)
            for _ in range(sim.horizon_steps):
                step(sim, rng)
            hits += sim.coordinate() >= sim.failure_value
        se = math.sqrt(want * (1 - want) / n)
        assert abs(hits / n - want) < 4 * se

    def test_snapshot_roundtrip(self):
        sim = LadderSim((0.5, 0.5))
        snap = sim.snapshot()
        step(sim, stream(4, "t"))
        sim.restore(snap)
        assert sim.snapshot() == snap

    def test_validation(self):
        with pytest.raises(ValueError):
            LadderSim(())
        with pytest.raises(ValueError):
            LadderSim((0.5, 0.0))

    def test_factory(self):
        make = ladder_factory((0.5,))
        assert make().horizon_steps == 1


class TestThreeState:
    def test_enumeration_simple_cases(self):
        # one step: can only be in state 1 at best
        assert enumerate_three_state_hitting(0.5, 0.5, 0.1, 1) == 0.0
        # two steps: must advance twice in a row
        assert enumerate_three_state_hitting(0.5, 0.4, 0.1, 2) == pytest.approx(0.2)
        # sure advances: hits in exactly two steps
        assert enumerate_three_state_hitting(1.0, 1.0, 0.0, 2) == pytest.approx(1.0)

    def test_enumeration_no_relapse_closed_form(self):
        # without relapse: P(T0 + T1 <= J) for independent geometric phase times;
        # independent route via direct convolution of the two phase laws
        a, b, J = 0.35, 0.25, 8
        total = 0.0
        for t0 in range(1, J):
            for t1 in range(1, J - t0 + 1):
                total += (1 - a) ** (t0 - 1) * a * (1 - b) ** (t1 - 1) * b
        got = enumerate_three_state_hitting(a, b, 0.0, J)
        assert got == pytest.approx(total, abs=1e-12)

    def test_enumeration_monotone_in_horizon(self):
        vals = [enumerate_three_state_hitting(0.35, 0.25, 0.3, j) for j in (2, 4, 6, 8)]
        assert vals == sorted(vals)
        assert vals[-1] < 1.0

    def test_enumeration_guards_tree_size(self):
        with pytest.raises(ValueError):
            enumerate_three_state_hitting(0.5, 0.5, 0.1, 30)

    def test_simulation_agrees_with_enumeration(self):
        a, b, c, J = 0.35, 0.25, 0.3, 8
        want = enumerate_three_state_hitting(a, b, c, J)
        hits = 0
        n = 20_000
        for i in range(n):
            rng = stream(6, "traj", i)
            sim = ThreeStateSim(a, b, c, J)
            while sim.coordinate() < sim.failure_value and sim.step_index < J:
                step(sim, rng)
            hits += sim.coordinate() >= sim.failure_value
        se = math.sqrt(want * (1 - want) / n)
        assert abs(hits / n - want) < 4 * se

    def test_relapse_happens(self):
        sim = ThreeStateSim(1.0, 1e-9, 1.0 - 1e-9, 5)
        rng = stream(7, "t")
        step(sim, rng)
        assert sim.coordinate() == 1.0
        step(sim, rng)  # relapse is near-certain
        assert sim.coordinate() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ThreeStateSim(0.0, 0.5, 0.1, 5)
        with pytest.raises(ValueError):
            ThreeStateSim(0.5, 0.8, 0.3, 5)  # advance_hi + relapse > 1
        with pytest.raises(ValueError):
            ThreeStateSim(0.5, 0.5, 0.1, 0)

    def test_factory(self):
        sim = three_state_factory(0.3, 0.2, 0.1, 6)()
        assert sim.horizon_steps == 6 and sim.coordinate() == 0.0
