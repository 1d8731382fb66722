import math

import numpy as np
import pytest

import resplit.smc as smc
from resplit.acceptance import _CHEAP_MODEL, MASTER_SEED
from resplit.analysis import exact_stage_moments
from resplit.core import (
    BudgetLedger,
    Checkpoint,
    EmptyPoolError,
    HorizonExceededError,
    LevelSchedule,
    NoiseBuffer,
    Simulator,
    derive_seed,
    stream,
)
from resplit.mc import McConfig, run_mc
from resplit.netmodel import NetParams, default_levels, simulator_factory
from resplit.smc import (
    LevelRecord,
    SmcConfig,
    SmcReport,
    next_pool_size,
    predict_diagnostics,
    resample_pool,
    run_attempts,
    run_level,
    run_smc,
)
from resplit.toys import LadderSim, ladder_factory


def _small_cfg(**over):
    base = dict(
        success_target=5,
        attempt_target=8,
        initial_pool=4,
        pool_min=4,
        pool_max=50,
        budget_steps=100_000,
    )
    base.update(over)
    return SmcConfig(**base)


class CountingLadder(LadderSim):
    """Ladder that tallies every step its propagation kernel takes."""

    calls = 0

    def advance(self, noise, pos, stop, target):
        before = self.step_index
        out = super().advance(noise, pos, stop, target)
        CountingLadder.calls += self.step_index - before
        return out


class TestConfig:
    def test_defaults_match_documented_profile(self):
        cfg = SmcConfig()
        assert (cfg.success_target, cfg.attempt_target) == (20, 100)
        assert (cfg.pool_min, cfg.pool_max) == (20, 200)
        assert (smc.SAFETY_FACTOR, smc.PROB_FLOOR) == (1.5, 0.05)
        assert cfg.budget_steps == 5_000_000

    @pytest.mark.parametrize(
        "kw",
        [
            dict(success_target=0),
            dict(attempt_target=0),
            dict(initial_pool=0),
            dict(pool_min=0),
            dict(pool_min=30, pool_max=20),
            dict(budget_steps=0),
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            SmcConfig(**kw)


class TestNextPoolSize:
    def test_worked_examples(self):
        cfg = SmcConfig()
        assert next_pool_size(0.5, cfg) == 60
        assert next_pool_size(1.0, cfg) == 30
        assert next_pool_size(0.01, cfg) == 200  # floored ratio then clamped

    def test_floor_kicks_in(self):
        cfg = SmcConfig(pool_max=10_000)
        # estimate below the floor behaves like the floor itself
        assert next_pool_size(0.01, cfg) == next_pool_size(0.05, cfg) == 600

    def test_clamped_into_bounds(self):
        cfg = SmcConfig()
        rng = np.random.default_rng(0)
        for p in rng.uniform(0.0, 1.0, size=200):
            m = next_pool_size(float(p), cfg)
            assert cfg.pool_min <= m <= cfg.pool_max

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            next_pool_size(-0.1, SmcConfig())
        with pytest.raises(ValueError):
            next_pool_size(1.1, SmcConfig())


class TestResamplePool:
    def test_uniform_with_replacement(self):
        cps = [Checkpoint((i,), 1, 0, 1.0) for i in range(4)]
        drawn = resample_pool(cps, 8000, stream(1, "rs"))
        assert len(drawn) == 8000
        counts = [sum(1 for c in drawn if c.snapshot == (i,)) for i in range(4)]
        for c in counts:
            assert abs(c - 2000) < 250  # ~5 sigma
        assert sum(counts) == 8000

    def test_deterministic(self):
        cps = [Checkpoint((i,), 1, 0, 1.0) for i in range(3)]
        a = resample_pool(cps, 10, stream(2, "rs"))
        b = resample_pool(cps, 10, stream(2, "rs"))
        assert a == b

    def test_empty_pool_raises(self):
        with pytest.raises(EmptyPoolError):
            resample_pool([], 5, stream(3, "rs"))

    def test_bad_size(self):
        with pytest.raises(ValueError):
            resample_pool([Checkpoint((0,), 0, 0, 0.0)], 0, stream(4, "rs"))


class TestRunLevel:
    def test_pool_already_past_target_all_immediate(self):
        # checkpoints already at rung 1 while stage 0 targets exactly that level
        sim = LadderSim((0.5, 0.5))
        pool = [Checkpoint((1, 1, False), 1, 1, 1.0)]
        cfg = _small_cfg()
        led = BudgetLedger(cfg.budget_steps)
        rec = run_level(sim, pool, 0, LevelSchedule((0.0, 1.0, 2.0)), cfg, led, seed=11)
        assert rec.stopping_met
        assert rec.attempts == max(cfg.success_target, cfg.attempt_target) == 8
        assert rec.successes == 8
        assert rec.p_hat == 1.0
        assert rec.cost_steps == 0 and led.used == 0
        assert all(cp.coordinate == 1.0 for cp in rec.checkpoints)

    def test_two_checkpoint_pool_draws_both(self):
        sim = LadderSim((0.5, 0.5))
        pool = [Checkpoint((1, 1, False), 1, 1, 1.0), Checkpoint((1, 2, False), 1, 2, 1.0)]
        cfg = _small_cfg(success_target=200, attempt_target=1)
        rec = run_level(
            sim, pool, 0, LevelSchedule((0.0, 1.0, 2.0)), cfg, BudgetLedger(10), seed=11
        )
        picks = [cp.hit_step for cp in rec.checkpoints]
        assert len(picks) == 200 and 60 < picks.count(1) < 140

    def test_empty_pool_rejected(self):
        with pytest.raises(EmptyPoolError):
            run_level(
                LadderSim((0.5,)),
                [],
                0,
                LevelSchedule((0.0, 1.0)),
                _small_cfg(),
                BudgetLedger(10),
                seed=0,
            )

    def test_budget_cut_mid_level(self):
        sim = LadderSim((0.5,))
        pool = [Checkpoint(sim.snapshot(), 0, 0, 0.0)]
        cfg = _small_cfg(success_target=50, attempt_target=50)
        led = BudgetLedger(7)
        rec = run_level(sim, pool, 0, LevelSchedule((0.0, 1.0)), cfg, led, seed=5)
        assert not rec.stopping_met
        assert led.used == 7  # paid in full
        assert rec.attempts == 7  # one step each; the unfinished attempt is void
        assert rec.cost_steps == 7

    def test_hit_step_recorded(self):
        sim = LadderSim((1.0, 1.0))
        pool = [Checkpoint(sim.snapshot(), 0, 0, 0.0)]
        cfg = _small_cfg()
        rec = run_level(sim, pool, 0, LevelSchedule((0.0, 1.0, 2.0)), cfg, BudgetLedger(1000), 3)
        assert all(cp.hit_step == 1 for cp in rec.checkpoints)
        assert all(cp.level_index == 1 for cp in rec.checkpoints)
        # the same stage through the attempt loop: every attempt is a capture
        attempts, _, success_attempts = run_attempts(
            sim, pool, 1.0, 1, cfg.success_target, cfg.attempt_target, BudgetLedger(1000),
            NoiseBuffer(sim, stream(3, "level-propagate", 0)), None,
        )
        assert attempts == rec.attempts
        assert success_attempts == list(range(rec.attempts))


class TestRunAttempts:
    def test_stopping_at_the_attempt_target_draws_one_pick_per_attempt(self):
        sim = LadderSim((1.0, 1.0))
        pool = [Checkpoint((1, j, False), 1, j, 1.0) for j in (1, 2, 3)]
        select = stream(2, "select")
        attempts, hits, _ = run_attempts(sim, pool, 1.0, 2, 0, 7, BudgetLedger(None),
                                         NoiseBuffer(sim, stream(1, "noise")), select)
        ref = stream(2, "select")
        picks = [int(ref.integers(0, 3)) for _ in range(7)]
        assert attempts == 7
        assert [cp.hit_step for cp in hits] == [pool[i].hit_step for i in picks]


class TestRunSmc:
    def test_ladder_two_stages_completes(self):
        # and the acceptance checks' cheap network point: all four stages at
        # 100 attempts each inside 200,000 steps
        cheap = (simulator_factory(NetParams(**_CHEAP_MODEL)), default_levels(),
                 SmcConfig(attempt_target=100, budget_steps=200_000),
                 derive_seed(MASTER_SEED, "floor"))
        for factory, levels, cfg, seed in (
            (ladder_factory((0.5, 0.4)), LevelSchedule((0.0, 1.0, 2.0)), _small_cfg(), 42),
            cheap,
        ):
            report = run_smc(factory, levels, cfg, seed=seed)
            assert len(report.levels) == levels.stage_count
            assert report.estimate > 0.0
            assert not report.budget_exhausted and report.extinction_level is None
            assert report.estimate == pytest.approx(math.prod(r.p_hat for r in report.levels))
            assert report.cost_steps_used == sum(r.cost_steps for r in report.levels)
            assert all(r.next_pool_size is not None for r in report.levels[:-1])
            assert report.levels[-1].next_pool_size is None

    @pytest.mark.parametrize("thresholds, message", [
        ((0.5, 1.0, 2.0), r"^fresh initial state has coordinate 0\.0 below the base threshold 0\.5$"),
        ((0.0, 1.0, 3.0), r"^top threshold 3\.0 is above the failure value 2\.0, "),
    ])
    def test_levels_the_coordinate_cannot_span_rejected(self, thresholds, message):
        with pytest.raises(ValueError, match=message):
            run_smc(ladder_factory((0.5, 0.4)), LevelSchedule(thresholds), _small_cfg(), seed=1)

    def test_deterministic_reports(self):
        args = (ladder_factory((0.5, 0.4)), LevelSchedule((0.0, 1.0, 2.0)), _small_cfg())
        assert run_smc(*args, seed=7) == run_smc(*args, seed=7)
        assert run_smc(*args, seed=7) != run_smc(*args, seed=8)

    def test_estimate_statistically_sound(self):
        # mean over replications close to the exact product 0.2
        want = 0.5 * 0.4
        estimates = [
            run_smc(
                ladder_factory((0.5, 0.4)),
                LevelSchedule((0.0, 1.0, 2.0)),
                _small_cfg(success_target=10, attempt_target=30),
                seed=1000 + i,
            ).estimate
            for i in range(300)
        ]
        mean = float(np.mean(estimates))
        se = float(np.std(estimates, ddof=1)) / math.sqrt(len(estimates))
        # success-stopped stages carry a small positive relative bias
        assert abs(mean - want) < 4 * se + 0.1 * want

    def test_budget_one_step(self):
        report = run_smc(
            simulator_factory(NetParams()),
            default_levels(),
            SmcConfig(budget_steps=1),
            seed=1,
        )
        assert report.estimate == 0.0
        assert report.budget_exhausted
        assert report.extinction_level == 0
        assert report.cost_steps_used == 1

    def test_budget_dies_at_second_stage(self):
        report = run_smc(
            ladder_factory((1.0, 1e-9)),
            LevelSchedule((0.0, 1.0, 2.0)),
            _small_cfg(budget_steps=300),
            seed=9,
        )
        assert report.estimate == 0.0
        assert report.budget_exhausted
        assert report.extinction_level == 1
        assert len(report.levels) == 2
        assert report.levels[0].stopping_met and not report.levels[1].stopping_met
        assert report.cost_steps_used == 300  # hard cap, never overrun

    def test_multi_level_jump_immediate_success(self):
        class JumpSim:
            def __init__(self):
                self._j = 0
                self._g = 0.0

            step_index = property(lambda self: self._j)
            horizon_steps = 3
            failure_value = 2.0

            def draw_noise(self, rng, n):
                return rng.random(n).tolist()

            def advance(self, noise, pos, stop, target):
                if stop - pos > self.horizon_steps - self._j:
                    raise HorizonExceededError("past the horizon")
                while pos < stop:
                    pos += 1  # reads one value and jumps to the failure set
                    self._j += 1
                    self._g = 2.0
                    if self._g >= target:
                        break
                return pos, self._g

            def snapshot(self):
                return (self._j, self._g)

            def restore(self, snap):
                self._j, self._g = snap

            def coordinate(self):
                return self._g

        # no more than the protocol drives both engines
        assert isinstance(JumpSim(), Simulator)
        report = run_smc(JumpSim, LevelSchedule((0.0, 1.0, 2.0)), _small_cfg(), seed=3)
        assert report.estimate == 1.0
        # the jump crosses both remaining thresholds: stage 1 is all immediate
        assert report.levels[1].cost_steps == 0
        assert report.levels[1].p_hat == 1.0
        assert all(cp.coordinate == 2.0 for cp in report.levels[0].checkpoints)
        mc_report = run_mc(JumpSim, McConfig(budget_steps=5 * 3), 3)
        assert (mc_report.hits, mc_report.cost_steps_used) == (5, 5)

    def test_cost_conservation_exact(self):
        CountingLadder.calls = 0
        report = run_smc(
            lambda: CountingLadder((0.5, 0.4)),
            LevelSchedule((0.0, 1.0, 2.0)),
            _small_cfg(),
            seed=21,
        )
        assert report.cost_steps_used == CountingLadder.calls

    def test_randomness_enters_only_through_noise_streams(self, monkeypatch):
        purposes = []
        real = smc.stream

        def counting(seed, purpose, *indices):
            purposes.append(purpose)
            return real(seed, purpose, *indices)

        monkeypatch.setattr(smc, "stream", counting)
        # the shape of the stage-law check: one stage, one checkpoint, no picks;
        # stage 0 starts from the one fresh checkpoint whatever initial_pool says
        for initial_pool in (1, 20):
            one_stage = _small_cfg(success_target=20, attempt_target=1,
                                   initial_pool=initial_pool, pool_min=1, pool_max=1)
            run_smc(ladder_factory((0.2,)), LevelSchedule((0.0, 1.0)), one_stage, seed=1)
            assert purposes == ["level-propagate"]
            purposes.clear()
        run_smc(simulator_factory(NetParams()), default_levels(), SmcConfig(), seed=1)
        assert "level-propagate" in purposes and "init" not in purposes


class TestStageHook:
    ARGS = (ladder_factory((0.5, 0.4, 0.3)), LevelSchedule((0.0, 1.0, 2.0, 3.0)))

    def test_identity_hook_is_the_plain_run(self):
        for seed in range(5):
            plain = run_smc(*self.ARGS, _small_cfg(), seed)
            hooked = run_smc(*self.ARGS, _small_cfg(), seed, on_stage=lambda rec, pool, sim: pool)
            assert hooked == plain

    def test_called_once_per_resample_in_order(self):
        calls = []

        def record(rec, pool, sim):
            assert isinstance(sim, Simulator)
            calls.append((rec, pool))
            return pool

        report = run_smc(*self.ARGS, _small_cfg(), 3, on_stage=record)
        # the last stage is followed by no resample, so it never reaches the hook
        assert [rec.level for rec, _ in calls] == [0, 1]
        for (seen, pool), kept in zip(calls, report.levels):
            assert seen == kept
            assert len(pool) == seen.next_pool_size

        # stage 1 is cut short by the budget: only stage 0 reaches the hook
        calls.clear()
        cut = run_smc(ladder_factory((1.0, 1e-9, 0.5)), LevelSchedule((0.0, 1.0, 2.0, 3.0)),
                      _small_cfg(budget_steps=300), 9, on_stage=record)
        assert cut.budget_exhausted and not cut.levels[1].stopping_met
        assert [rec.level for rec, _ in calls] == [0]

    def test_hook_sees_the_pool_before_the_next_stage_runs_from_its_return(self, monkeypatch):
        seed = 5
        started = {}
        real_run_level = smc.run_level

        def spy(sim, pool, level, *args):
            started[level] = list(pool)
            return real_run_level(sim, pool, level, *args)

        def keep_first(rec, pool, sim):
            assert rec.level + 1 not in started  # the next stage has not run yet
            # the drawn pool: the record's own checkpoints, from the "resample" stream
            drawn = resample_pool(rec.checkpoints, rec.next_pool_size,
                                  stream(seed, "resample", rec.level))
            assert len(pool) == len(drawn)
            assert all(a is b for a, b in zip(pool, drawn))
            return [pool[0]] * len(pool)

        monkeypatch.setattr(smc, "run_level", spy)
        report = run_smc(*self.ARGS, _small_cfg(), seed, on_stage=keep_first)
        assert len(report.levels) == 3
        for rec in report.levels[:2]:
            nxt = started[rec.level + 1]
            assert len(nxt) == rec.next_pool_size
            assert all(cp is nxt[0] for cp in nxt)
            assert any(nxt[0] is cp for cp in rec.checkpoints)


class TestStageBias:
    def test_success_stopped_stage_matches_exact_oracle(self):
        # single Bernoulli stage, stopping driven by successes only
        p, s_tar, reps = 0.3, 10, 3000
        cfg = SmcConfig(
            success_target=s_tar, attempt_target=1, initial_pool=1, pool_min=1,
            pool_max=1, budget_steps=10**9,
        )
        sched = LevelSchedule((0.0, 1.0))
        vals = [
            run_smc(ladder_factory((p,)), sched, cfg, seed=5000 + i).estimate
            for i in range(reps)
        ]
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1)) / math.sqrt(reps)
        want = exact_stage_moments(p, s_tar)[0]
        assert abs(mean - want) < 4 * se


class TestDiagnostics:
    def test_matches_hand_arithmetic(self):
        report = SmcReport(
            levels=(
                LevelRecord(0, 100, 20, 0.2, 0, True),
                LevelRecord(1, 50, 10, 0.2, 0, True),
            ),
            estimate=0.04,
            cost_steps_used=0,
            budget_exhausted=False,
            extinction_level=None,
        )
        diag = predict_diagnostics(report, SmcConfig(success_target=20))
        assert diag.stage_rel_bias == pytest.approx((0.04, 0.04))  # (1 - 0.2) / 20
        assert diag.rel_bias == pytest.approx(1.04**2 - 1.0)
        assert diag.rel_var == pytest.approx((1.04**2 + 0.04) ** 2 - 1.04**4)

    def test_sure_stage_is_exact(self):
        report = SmcReport(
            levels=(LevelRecord(0, 5, 5, 1.0, 0, True), LevelRecord(1, 100, 20, 0.2, 0, True)),
            estimate=0.2,
            cost_steps_used=0,
            budget_exhausted=False,
            extinction_level=None,
        )
        diag = predict_diagnostics(report, SmcConfig(success_target=5))
        assert diag.stage_rel_bias == (0.0, pytest.approx(0.16))
        assert diag.rel_bias == pytest.approx(0.16)

    def test_undefined_on_zero(self):
        report = SmcReport(
            levels=(LevelRecord(0, 10, 0, 0.0, 10, False),),
            estimate=0.0,
            cost_steps_used=10,
            budget_exhausted=True,
            extinction_level=0,
        )
        assert predict_diagnostics(report, SmcConfig()) is None

    @pytest.mark.parametrize("estimate, p_hats, defined", [
        (0.04, (0.2, 0.2), True),
        (0.0, (0.2, 0.2), False),  # budget ran out after the last stage met its targets
        (0.0, (0.2, 0.0), False),  # extinction
        (0.0, (0.0,), False),
        (0.5, (1.0, 0.5), True),
        (0.5, (0.5, 0.0), False),  # a zero stage under a positive estimate
    ])
    def test_none_exactly_when_estimate_or_a_stage_is_zero(self, estimate, p_hats, defined):
        report = SmcReport(
            levels=tuple(LevelRecord(k, 10, round(10 * p), p, 10, True)
                         for k, p in enumerate(p_hats)),
            estimate=estimate,
            cost_steps_used=10 * len(p_hats),
            budget_exhausted=estimate == 0.0,
            extinction_level=None,
        )
        diag = predict_diagnostics(report, SmcConfig(success_target=2))
        assert (diag is not None) == defined
        if defined:
            assert diag.stage_rel_bias == tuple((1.0 - p) / 2 for p in p_hats)
