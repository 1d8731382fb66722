import math

import pytest
from test_advance import ladder_reference, net_reference, three_state_reference

from resplit import mc
from resplit.core import stream
from resplit.mc import McConfig, mc_plan, run_mc
from resplit.netmodel import NetParams, NetSimulator, simulator_factory
from resplit.toys import ladder_factory, three_state_factory


class TestConfig:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="budget_steps must be >= 1"):
            McConfig(budget_steps=0)
        with pytest.raises(ValueError, match="budget_steps must be >= 1"):
            McConfig(budget_steps=-1200)

    def test_plan_accounting(self):
        count = mc_plan(McConfig(budget_steps=5_000_000), horizon_steps=1200)
        assert count == 4166
        assert 1.0 / count == pytest.approx(2.4e-4, rel=0.02)  # the floor of resolution

    def test_plan_explicit_count(self):
        # a budget of exactly N horizons plans N trajectories
        assert mc_plan(McConfig(budget_steps=500 * 1200), 1200) == 500

    def test_plan_budget_below_one_trajectory(self):
        with pytest.raises(ValueError):
            mc_plan(McConfig(budget_steps=100), horizon_steps=1200)


class TestRunMc:
    def test_certain_failure(self):
        # two rungs: a 2-step horizon, so 50 trajectories
        report = run_mc(ladder_factory((1.0, 1.0)), McConfig(budget_steps=50 * 2), 1)
        assert report.hits == 50 and report.estimate == 1.0
        assert report.rel_var_pred == 0.0
        assert report.cost_steps_used == 100  # absorbed exactly at the horizon

    def test_stops_at_first_absorption(self):
        # advance twice with certainty, then absorb; horizon is much longer
        report = run_mc(
            three_state_factory(1.0, 1.0, 0.0, 10),
            McConfig(budget_steps=20 * 10),
            seed=2,
        )
        assert report.hits == 20
        assert report.cost_steps_used == 40  # 2 steps per trajectory, 8 saved each

    def test_estimate_within_monte_carlo_error(self):
        p = 0.3
        n = 2000
        # one rung: a 1-step horizon, so n trajectories
        report = run_mc(ladder_factory((p,)), McConfig(budget_steps=n), 3)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(report.estimate - p) < 4 * se
        assert report.rel_var_pred == pytest.approx(
            (1 - report.estimate) / (report.estimate * n)
        )

    def test_zero_hits(self):
        report = run_mc(ladder_factory((1e-9,)), McConfig(budget_steps=100), 4)
        assert report.hits == 0 and report.estimate == 0.0
        assert report.rel_var_pred is None

    def test_deterministic(self):
        cfg = McConfig(budget_steps=200)  # 200 one-step trajectories
        a = run_mc(ladder_factory((0.4,)), cfg, 5)
        b = run_mc(ladder_factory((0.4,)), cfg, 5)
        c = run_mc(ladder_factory((0.4,)), cfg, 6)
        assert a == b
        assert a != c

    def test_budget_mode_on_network_model(self):
        # tiny budget: 25 trajectories of 40 steps each
        params = NetParams(horizon_seconds=2.0, grace_seconds=0.25)
        report = run_mc(simulator_factory(params), McConfig(budget_steps=1000), 7)
        assert report.trajectories == 25
        assert report.cost_steps_used <= 1000
        assert report.estimate == 0.0  # far too benign a window for failures

    def test_budget_never_overrun_with_early_absorption(self):
        report = run_mc(three_state_factory(0.9, 0.9, 0.05, 10), McConfig(budget_steps=400), 8)
        assert report.trajectories == 40
        assert report.cost_steps_used <= 400
        assert 0.0 < report.estimate <= 1.0


class _Reader:
    """Scalar draws read in order from ``values``, from ``pos`` on."""

    def __init__(self, values, pos):
        self.values, self.pos = values, pos

    def random(self):
        self.pos += 1
        return self.values[self.pos - 1]

    standard_normal = random


def contiguous_reference(reference, values, count, n):
    """``(hits, cost)`` of ``count`` trajectories reading ``values`` in turn.

    A hit at step ``k`` has read ``k`` values and leaves the rest to the
    next trajectory; a miss reads on to its horizon, where a dead ladder's
    steps read nothing.
    """
    pos = hits = cost = 0
    for _ in range(count):
        reader = _Reader(values, pos)
        failed = [f for _, _, f in reference(reader)]
        if any(failed):
            k = failed.index(True) + 1
            hits, cost, pos = hits + 1, cost + k, pos + k
        else:
            cost, pos = cost + n, reader.pos
    return hits, cost


class TestOneStream:
    def test_one_stream_per_run(self, monkeypatch):
        calls = []

        def counted(*key):
            calls.append(key)
            return stream(*key)

        monkeypatch.setattr(mc, "stream", counted)
        report = run_mc(three_state_factory(0.3, 0.2, 0.3, 9), McConfig(budget_steps=40 * 9), 5)
        assert report.trajectories == 40
        assert calls == [(5, "mc")]

    @pytest.mark.parametrize("make, reference", [
        # a climb that fails leaves the ladder dead: its later steps read nothing
        (ladder_factory((0.5, 0.4, 0.3)), ladder_reference((0.5, 0.4, 0.3))),
        # state 2 absorbs before the horizon, leaving the rest to the next trajectory
        (three_state_factory(0.3, 0.2, 0.3, 9), three_state_reference(0.3, 0.2, 0.3, 9)),
    ], ids=["ladder", "three-state"])
    def test_trajectories_read_the_stream_in_turn(self, make, reference):
        count, seed = 60, 11
        n = make().horizon_steps
        values = stream(seed, "mc").random(count * n).tolist()
        hits, cost = contiguous_reference(reference, values, count, n)
        assert 0 < hits < count
        report = run_mc(make, McConfig(budget_steps=count * n), seed)
        assert (report.trajectories, report.hits, report.cost_steps_used) == (count, hits, cost)

    @pytest.mark.parametrize("seed, last_hits", [(0, False), (69, True)])
    def test_trajectory_i_reads_block_i_until_a_hit(self, monkeypatch, seed, last_hits):
        # no trajectory but the last hits, so each reads its whole window and
        # trajectory i reads block i, values [i n, (i + 1) n) of the stream
        p = NetParams(delay_threshold=0.05, stress_log_sd=0.6)
        count, n = 10, p.horizon_steps
        values = stream(seed, "mc").standard_normal(count * n).tolist()
        hits = cost = 0
        for i in range(count):
            failed = [f for _, _, f in net_reference(p)(_Reader(values, i * n))]
            hits += any(failed)
            cost += failed.index(True) + 1 if any(failed) else n
            assert any(failed) is (last_hits and i == count - 1)

        firsts = []
        advance = NetSimulator.advance

        def first_read(sim, noise, pos, *args):
            firsts.append(noise[pos])
            return advance(sim, noise, pos, *args)

        monkeypatch.setattr(NetSimulator, "advance", first_read)
        report = run_mc(simulator_factory(p), McConfig(budget_steps=count * n), seed)
        assert (report.trajectories, report.hits, report.cost_steps_used) == (count, hits, cost)
        assert firsts == values[::n]


class TestMissCost:
    def test_a_miss_costs_its_horizon_however_few_steps_it_takes(self, monkeypatch):
        # a grace window of most of the horizon: the kernel ends most misses
        # early, once the failure set is out of reach
        p = NetParams(delay_threshold=0.05, stress_log_sd=1.0, horizon_seconds=6.0,
                      grace_seconds=4.0)
        count, seed, n = 60, 3, p.horizon_steps
        values = stream(seed, "mc").standard_normal(count * n).tolist()
        # a miss the kernel ends early still reads its whole window
        hits, cost = contiguous_reference(net_reference(p), values, count, n)
        assert 0 < hits < count

        simulated = []
        advance = NetSimulator.advance

        def counted(sim, *args):
            before = sim.step_index
            out = advance(sim, *args)
            simulated.append(sim.step_index - before)
            return out

        monkeypatch.setattr(NetSimulator, "advance", counted)
        report = run_mc(simulator_factory(p), McConfig(budget_steps=count * n), seed)
        assert (report.trajectories, report.hits, report.cost_steps_used) == (count, hits, cost)
        assert len(simulated) == count and sum(simulated) < cost
