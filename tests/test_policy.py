"""Policy family arithmetic, lookahead scoring, and the reconfiguring run."""
import math

import numpy as np
import pytest
from oracle import NetState, step_dynamics

from resplit import policy, smc
from resplit.core import BudgetLedger, Checkpoint, LevelSchedule, stream
from resplit.netmodel import NetParams, NetSimulator, default_levels, simulator_factory
from resplit.policy import (
    LookaheadConfig,
    PolicySet,
    evaluate_candidate,
    lookahead_noise,
    run_smc_with_reconfiguration,
    select_policy,
)
from resplit.smc import SmcConfig, resample_pool, run_smc
from resplit.toys import LadderSim, ladder_factory


class PolicyLadder(LadderSim):
    """Ladder whose climb probabilities shrink under stronger recovery.

    ``set_policy`` scales every rung probability by
    ``(base_rate / rate) ** sensitivity``, so candidate 0 leaves the ladder
    untouched and ``sensitivity=0`` makes it policy-immune.  Snapshots carry
    the active rate, as the reconfiguring run requires.
    """

    __slots__ = ("base_probs", "base_rate", "sensitivity", "_rate")

    def __init__(self, probs, base_rate=1.0, sensitivity=1.0):
        super().__init__(probs)
        self.base_probs = self.probs
        self.base_rate = base_rate
        self.sensitivity = sensitivity
        self._rate = base_rate

    def set_policy(self, rate):
        self._rate = rate
        scale = (self.base_rate / self._rate) ** self.sensitivity
        self.probs = tuple(min(1.0, p * scale) for p in self.base_probs)

    def snapshot(self):
        return (*super().snapshot(), self._rate)

    def restore(self, snap):
        super().restore(snap[:3])
        self.set_policy(snap[3])


def policy_ladder_factory(probs, base_rate=1.0, sensitivity=1.0):
    def make():
        return PolicyLadder(probs, base_rate, sensitivity)

    return make


def crossing_fraction(sim, source, rate, sched, look, rng, ledger):
    """One candidate scored on every row of its own block from ``rng``."""
    noise = lookahead_noise(sim, source, look, rng)
    rows = evaluate_candidate(sim, source, rate, sched, look, noise, ledger,
                              range(look.continuations))
    return len(rows) / look.continuations


def fresh_checkpoint(sim):
    return Checkpoint(sim.snapshot(), 0, sim.step_index, sim.coordinate())


def spy_pools(monkeypatch):
    """Record the pool each stage of the next runs starts from, by level."""
    pools = {}
    real_run_level = smc.run_level

    def spy(sim, pool, level, *args):
        pools[level] = list(pool)
        return real_run_level(sim, pool, level, *args)

    monkeypatch.setattr(smc, "run_level", spy)
    return pools


def host_pool_ordinals(rep, look, seed):
    """The ordinal of each entry of the host stage's pool, redrawn as ``run_smc`` draws it."""
    feeding = rep.levels[look.host_level - 1]
    drawn = resample_pool(feeding.checkpoints, feeding.next_pool_size,
                          stream(seed, "resample", feeding.level))
    ordinal_of = {id(cp): k for k, cp in enumerate(feeding.checkpoints)}
    return [ordinal_of[id(cp)] for cp in drawn]


class TestPolicySet:
    def test_arithmetic_rate_and_cost_ladder(self):
        ps = PolicySet(size=5, base_rate=0.2, increment_fraction=0.5, cost_scale=0.5)
        assert [ps.rate(i) for i in range(5)] == pytest.approx([0.2, 0.3, 0.4, 0.5, 0.6])
        assert ps.costs() == pytest.approx((0.0, 0.25, 0.5, 0.75, 1.0))

    def test_baseline_is_candidate_zero(self):
        ps = PolicySet(size=3, base_rate=0.7)
        assert ps.rate(0) == 0.7
        assert ps.cost(0) == 0.0

    def test_from_params_anchors_at_model_baseline(self):
        params = NetParams()
        ps = PolicySet.from_params(params, size=5)
        assert ps.base_rate == params.recovery_rate

    def test_stability_bound_checked_up_front(self):
        # top candidate rate 20.1 against a 50 ms step: 1.005 > 1
        with pytest.raises(ValueError, match="stability"):
            PolicySet.from_params(NetParams(), size=200)
        PolicySet.from_params(NetParams(), size=199)  # exactly at the bound
        # the bound is the model's own step: top rate 1.5 against a 1 s step
        params = NetParams(recovery_rate=1.0, step_seconds=1.0, horizon_seconds=60.0)
        with pytest.raises(ValueError, match=r"^strongest candidate rate 1\.5 violates "
                                             r"stability for step 1\.0 s$"):
            PolicySet.from_params(params, size=2)
        # a set built directly has no step to check against
        assert PolicySet(size=2, base_rate=1.0).rate(1) == 1.5

    def test_range_checks_reject_nan(self):
        for kw in ({"base_rate": math.nan}, {"cost_scale": math.nan}):
            with pytest.raises(ValueError):
                PolicySet(**{"size": 2, "base_rate": 0.2, **kw})

    @pytest.mark.parametrize("name", ["base_rate", "increment_fraction", "cost_scale"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_fields_by_name(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got "):
            PolicySet(**{"size": 3, "base_rate": 0.7, name: value})

    def test_index_bounds(self):
        ps = PolicySet(size=2, base_rate=1.0)
        with pytest.raises(IndexError):
            ps.rate(2)
        with pytest.raises(IndexError):
            ps.cost(-1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(size=0, base_rate=1.0),
            dict(size=2, base_rate=0.0),
            dict(size=2, base_rate=1.0, increment_fraction=0.0),
            dict(size=2, base_rate=1.0, increment_fraction=1.5),
            dict(size=2, base_rate=1.0, cost_scale=-0.1),
            dict(size=2, base_rate=1.0, increment_fraction=math.nan),
            dict(size=2, base_rate=1.0, increment_fraction=-0.5),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            PolicySet(**kwargs)


class TestLookaheadConfig:
    def test_defaults_trigger_at_degraded_myopically(self):
        look = LookaheadConfig()
        assert look.host_level == 2
        assert look.continuations == 25

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(host_level=0),
            dict(continuations=0),
            dict(host_level=-1),
            dict(continuations=-5),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            LookaheadConfig(**kwargs)


class TestSelectPolicy:
    def test_worked_example(self):
        # kappa = 1/2, rho' = 1/2: costs (0, 0.25); J = (ln .5, ln .25 + .25)
        ev = select_policy([0.5, 0.25], (0.0, 0.25), 25, (900, 700))
        assert ev.objectives == pytest.approx((-0.693147, -1.136294), abs=1e-6)
        assert ev.selected == 1
        assert not ev.degenerate
        assert ev.estimates == (0.5, 0.25)
        assert ev.steps == (900, 700)  # recorded, not scored

    def test_equal_estimates_pick_cheapest(self):
        ev = select_policy([0.3, 0.3, 0.3], (0.0, 0.25, 0.5), 25, (500, 500, 500))
        assert ev.selected == 0

    def test_zero_estimate_scored_as_half_count(self):
        # a candidate under which nothing crossed is the strongest mitigation
        # on the table; the half-count floor keeps its objective finite and it
        # wins the argmin when its price does not offset the advantage
        ev = select_policy([0.0, 0.4], (0.0, 0.25), 25, (400, 600))
        assert ev.estimates == (0.0, 0.4)
        assert ev.objectives == (math.log(1 / 50), math.log(0.4) + 0.25)
        assert not ev.degenerate
        assert ev.selected == 0

    def test_cost_can_override_a_zero_estimate(self):
        # same estimates, but the suppressing candidate is expensive enough
        # that the moderate one wins: ln(1/50) + 3.5 > ln(0.4)
        ev = select_policy([0.0, 0.4], (3.5, 0.0), 25, (400, 600))
        assert ev.selected == 1

    def test_all_zero_is_degenerate_baseline(self):
        ev = select_policy([0.0, 0.0, 0.0], (0.0, 0.25, 0.5), 25, (300, 0, 0))
        assert ev.degenerate
        assert ev.selected == 0

    def test_exact_tie_breaks_to_lower_index(self):
        ev = select_policy([0.5, 0.5], (0.0, 0.0), 25, (800, 800))
        assert ev.selected == 0

    def test_log_shift_invariance(self):
        # scaling every estimate by a common factor shifts all objectives
        # equally, so the argmin never moves
        rng = np.random.default_rng(7)
        for _ in range(50):
            n_cand = int(rng.integers(2, 6))
            estimates = rng.uniform(0.05, 1.0, size=n_cand)
            costs = rng.uniform(0.0, 0.5, size=n_cand)
            steps = [100] * n_cand
            base = select_policy(estimates.tolist(), costs.tolist(), 25, steps)
            scaled = select_policy((estimates * 0.37).tolist(), costs.tolist(), 25, steps)
            assert scaled.selected == base.selected

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            select_policy([], (), 25, ())
        with pytest.raises(ValueError):
            select_policy([0.5], (0.0, 0.1), 25, (0,))
        with pytest.raises(ValueError):
            select_policy([0.5], (0.0,), 0, (0,))
        with pytest.raises(ValueError, match="^2 candidates but 1 step counts$"):
            select_policy([0.5, 0.25], (0.0, 0.25), 25, (100,))
        with pytest.raises(ValueError, match="^1 candidates but 0 step counts$"):
            select_policy([0.5], (0.0,), 25, ())


class TestEvaluateCandidate:
    def test_deterministic_crossing_gives_one_for_every_candidate(self):
        sched = LevelSchedule((0.0, 1.0, 2.0))
        look = LookaheadConfig(host_level=1, continuations=25)
        for rate in (1.0, 2.0, 4.0):
            sim = PolicyLadder((1.0, 1.0), sensitivity=0.0)
            sim.restore((1, 1, False, 1.0))  # at rung 1, one step left
            source = Checkpoint(sim.snapshot(), 1, 1, 1.0)
            res = crossing_fraction(
                sim, source, rate, sched, look,
                stream(1, "t", 0), BudgetLedger(None),
            )
            assert res == 1.0

    def test_estimates_quantized_to_continuation_grid(self):
        sched = LevelSchedule((0.0, 1.0, 2.0))
        look = LookaheadConfig(host_level=1, continuations=25)
        sim = PolicyLadder((1.0, 0.4))
        sim.restore((1, 1, False, 1.0))
        source = Checkpoint(sim.snapshot(), 1, 1, 1.0)
        res = crossing_fraction(
            sim, source, 1.0, sched, look,
            stream(3, "t", 0), BudgetLedger(None),
        )
        assert 0.0 < res < 1.0
        assert res * 25 == round(res * 25)

    def test_stronger_recovery_suppresses_progression(self):
        # paired evaluation on the same checkpoint, independent streams: the
        # doubled rate halves the climb probability, so its estimates must
        # come out clearly lower on average
        sched = LevelSchedule((0.0, 1.0, 2.0))
        look = LookaheadConfig(host_level=1, continuations=25)
        means = {}
        for cand, rate in enumerate((1.0, 2.0)):
            total = 0.0
            for rep in range(40):
                sim = PolicyLadder((0.5, 0.5), sensitivity=1.0)
                sim.restore((1, 1, False, 1.0))
                source = Checkpoint(sim.snapshot(), 1, 1, 1.0)
                res = crossing_fraction(
                    sim, source, rate, sched, look,
                    stream(100 + rep, "t", cand), BudgetLedger(None),
                )
                total += res
            means[rate] = total / 40
        # 1000 Bernoulli trials per arm at p = 0.5 vs 0.25: a gap this wide
        # cannot plausibly be noise
        assert means[2.0] < means[1.0] - 0.15

    def test_source_already_past_target_is_free(self):
        sched = LevelSchedule((0.0, 1.0, 2.0))
        look = LookaheadConfig(host_level=1, continuations=10)
        sim = PolicyLadder((1.0, 1.0))
        sim.restore((2, 2, False, 1.0))
        source = Checkpoint(sim.snapshot(), 1, 2, 2.0)
        ledger = BudgetLedger(None)
        res = crossing_fraction(
            sim, source, 1.0, sched, look,
            stream(4, "t", 0), ledger,
        )
        assert res == 1.0
        assert ledger.used == 0

    def test_branch_reads_its_row_of_the_block(self):
        # a policy-immune ladder one decisive step from the target: row k
        # crosses exactly when its one value is below the rung probability,
        # whichever rows run and in whatever order
        sched = LevelSchedule((0.0, 1.0, 2.0))
        look = LookaheadConfig(host_level=1, continuations=25)
        sim = PolicyLadder((1.0, 0.5), sensitivity=0.0)
        sim.restore((1, 1, False, 1.0))
        source = Checkpoint(sim.snapshot(), 1, 1, 1.0)
        noise = lookahead_noise(sim, source, look, stream(5, "t", 0))
        crossing = [k for k in range(25) if noise.values[k] < 0.5]
        assert 0 < len(crossing) < 25
        for rows in (range(25), [24, 3, 17, 0, 9], crossing[::-1], []):
            got = evaluate_candidate(sim, source, 2.0, sched, look, noise, BudgetLedger(None), rows)
            assert got == [k for k in rows if k in crossing]


# the policy-study point, as in tests/test_pinned.py
NOISY = NetParams(delay_threshold=0.05, stress_log_sd=0.8)
HOST_SCHEDULE = LevelSchedule((0.0, 0.1, 1.0, 1.5))  # the default levels up to host_level 2's target
HOST_CFG = SmcConfig(success_target=20, attempt_target=20, initial_pool=1, pool_min=20,
                     pool_max=60, budget_steps=2_000_000)


class TestNestedScoring:
    """Every candidate of a network checkpoint steps on one shared noise block."""

    def test_nested_scoring_equals_every_row_scoring_with_fewer_steps(self):
        # floating-point exp and pow are not formally monotone, so these 200+
        # checkpoints are the evidence that under common noise a row that
        # misses under one rate never crosses under a stronger one
        look = LookaheadConfig(host_level=2, continuations=5)
        policies = PolicySet.from_params(NOISY, size=5)
        sim = NetSimulator(NOISY)
        assert policies.rate(policies.size - 1) <= sim.monotone_rate_bound
        two_stages = LevelSchedule(HOST_SCHEDULE.thresholds[:3])
        totals = {True: 0, False: 0}
        scored = 0
        for seed in range(10):
            rep = run_smc(simulator_factory(NOISY), two_stages, HOST_CFG, seed)
            for ordinal, cp in enumerate(rep.levels[1].checkpoints):
                noise = lookahead_noise(sim, cp, look, stream(seed, "lookahead", ordinal))
                evs = {}
                for nested in (True, False):
                    ledger = BudgetLedger(None)
                    evs[nested] = policy._score(
                        sim, cp, policies, HOST_SCHEDULE, look, noise, ledger, nested)
                    assert sum(evs[nested].steps) == ledger.used
                    totals[nested] += ledger.used
                assert evs[True].estimates == evs[False].estimates
                assert sum(evs[True].steps) <= sum(evs[False].steps)
                scored += 1
        assert scored >= 200
        assert totals[True] < totals[False]

    def test_steps_record_what_each_candidate_simulated(self):
        look = LookaheadConfig(host_level=2, continuations=5)
        policies = PolicySet.from_params(NOISY, size=3)
        rep = run_smc_with_reconfiguration(
            simulator_factory(NOISY), HOST_SCHEDULE, HOST_CFG, policies, look, 4)
        assert sum(sum(ev.steps) for ev in rep.evaluations) == rep.inner_cost_steps
        free = 0
        for ev in rep.evaluations:
            assert len(ev.steps) == policies.size
            for i in range(1, policies.size):
                if ev.estimates[i - 1] == 0.0:
                    # nothing crossed under a weaker rate: the nesting made it free
                    assert ev.estimates[i] == 0.0 and ev.steps[i] == 0
                    free += 1
        assert free > 0

    def test_rates_past_the_bound_run_every_row(self):
        # top rate 4.0 is stable for a 50 ms step but past 3.375, where the
        # health map stops being monotone: every candidate runs every row
        seed = 2
        policies = PolicySet(size=3, base_rate=2.0, increment_fraction=0.5)
        assert policies.rate(2) * NOISY.step_seconds <= 1.0
        sim = NetSimulator(NOISY)
        assert policies.rate(2) == 4.0 > sim.monotone_rate_bound
        look = LookaheadConfig(host_level=2, continuations=5)
        rep = run_smc_with_reconfiguration(
            simulator_factory(NOISY), HOST_SCHEDULE, HOST_CFG, policies, look, seed)
        assert rep.evaluations
        ledger = BudgetLedger(None)
        for ordinal in rep.scored:
            cp = rep.levels[1].checkpoints[ordinal]
            noise = lookahead_noise(sim, cp, look, stream(seed, "lookahead", ordinal))
            for cand in range(policies.size):
                evaluate_candidate(sim, cp, policies.rate(cand), HOST_SCHEDULE, look, noise,
                                   ledger, range(look.continuations))
        assert rep.inner_cost_steps == ledger.used
        # some row missed under a weaker candidate, so nesting would have skipped it
        assert any(ev.estimates[i] < 1.0 for ev in rep.evaluations for i in range(2))


class TestLazyScoring:
    """Only the host-level checkpoints that the host stage's pool drew are scored."""

    LOOK = LookaheadConfig(host_level=2, continuations=5)
    POLICIES = PolicySet.from_params(NOISY, size=3)

    def _run(self, seed, look=LOOK, policies=POLICIES):
        return run_smc_with_reconfiguration(
            simulator_factory(NOISY), HOST_SCHEDULE, HOST_CFG, policies, look, seed)

    def _score_every_checkpoint(self, seed):
        """Outer report, evaluations by ordinal and lookahead steps when every
        host-level checkpoint is scored, whether the pool drew it or not."""
        evaluations = {}
        ledger = BudgetLedger(None)

        def eager(rec, pool, sim):
            if rec.level != self.LOOK.host_level - 1:
                return pool
            stamped = {}
            for ordinal, cp in enumerate(rec.checkpoints):
                noise = lookahead_noise(sim, cp, self.LOOK, stream(seed, "lookahead", ordinal))
                ev = policy._score(sim, cp, self.POLICIES, HOST_SCHEDULE, self.LOOK, noise,
                                   ledger, True)
                evaluations[ordinal] = ev
                stamped[id(cp)] = policy._stamp(sim, cp, self.POLICIES.rate(ev.selected))
            return [stamped[id(cp)] for cp in pool]

        report = run_smc(simulator_factory(NOISY), HOST_SCHEDULE, HOST_CFG, seed, on_stage=eager)
        return report, evaluations, ledger.used

    def test_exactly_the_pool_checkpoints_are_scored(self):
        for seed in range(4):
            rep = self._run(seed)
            picked = sorted(set(host_pool_ordinals(rep, self.LOOK, seed)))
            assert list(rep.scored) == picked  # in ascending ordinal order
            assert len(picked) < len(rep.selections)  # the pool left some checkpoint out
            assert rep.fallback_count == len(rep.selections) - len(picked)
            for ordinal, ev in zip(rep.scored, rep.evaluations):
                assert rep.selections[ordinal] == ev.selected
            for ordinal in set(range(len(rep.selections))) - set(picked):
                assert rep.selections[ordinal] == 0

    def test_each_evaluation_is_its_ordinal_scored_alone(self):
        seed = 3
        rep = self._run(seed)
        sim = NetSimulator(NOISY)
        assert self.POLICIES.rate(self.POLICIES.size - 1) <= sim.monotone_rate_bound
        assert rep.evaluations
        for ordinal, ev in zip(rep.scored, rep.evaluations):
            cp = rep.levels[1].checkpoints[ordinal]
            noise = lookahead_noise(sim, cp, self.LOOK, stream(seed, "lookahead", ordinal))
            alone = policy._score(sim, cp, self.POLICIES, HOST_SCHEDULE, self.LOOK, noise,
                                  BudgetLedger(None), True)
            assert alone == ev

    def test_outer_run_equals_scoring_every_checkpoint(self):
        for seed in range(3):
            rep = self._run(seed)
            every, evaluations, steps = self._score_every_checkpoint(seed)
            assert rep.smc == every
            assert rep.evaluations == tuple(evaluations[ordinal] for ordinal in rep.scored)
            assert rep.inner_cost_steps < steps

    def test_singleton_set_wraps_the_plain_network_run(self):
        single = PolicySet.from_params(NOISY, size=1)
        for seed in range(2):
            rep = self._run(seed, policies=single)
            assert rep.smc == run_smc(simulator_factory(NOISY), HOST_SCHEDULE, HOST_CFG, seed)
            assert rep.scored == () and rep.evaluations == ()
            assert rep.fallback_count == len(rep.selections) and rep.inner_cost_steps == 0


class TestRunWithReconfiguration:
    def _cfg(self, **kw):
        base = dict(
            success_target=4, attempt_target=6, initial_pool=4,
            pool_min=4, pool_max=40, budget_steps=50_000,
        )
        base.update(kw)
        return SmcConfig(**base)

    def test_singleton_set_is_bit_identical_to_plain_run(self):
        sched = LevelSchedule((0.0, 1.0, 2.0, 3.0))
        cfg = self._cfg()
        policies = PolicySet(size=1, base_rate=1.0)
        look = LookaheadConfig(host_level=2, continuations=25)
        for seed in (0, 1, 2):
            plain = run_smc(ladder_factory((0.8, 0.6, 0.7)), sched, cfg, seed)
            rep = run_smc_with_reconfiguration(
                ladder_factory((0.8, 0.6, 0.7)), sched, cfg, policies, look, seed
            )
            assert rep.smc == plain
            assert rep.selections == (0,) * plain.levels[1].successes
            assert rep.selection_counts == (len(rep.selections),)
            assert rep.evaluations == () and rep.scored == ()
            assert rep.fallback_count == len(rep.selections)
            assert rep.inner_cost_steps == 0

    def test_selections_recorded_and_stamped(self, monkeypatch):
        pools = spy_pools(monkeypatch)
        sched = LevelSchedule((0.0, 1.0, 2.0, 3.0))
        cfg = self._cfg()
        policies = PolicySet(size=2, base_rate=1.0, increment_fraction=1.0,
                             cost_scale=0.1)
        look = LookaheadConfig(host_level=2, continuations=10)
        seed = 11
        rep = run_smc_with_reconfiguration(
            policy_ladder_factory((0.8, 0.7, 0.6)), sched, cfg, policies, look, seed
        )
        host_rec = rep.levels[1]
        assert len(rep.selections) == host_rec.successes
        assert sum(rep.selection_counts) == len(rep.selections)
        assert len(rep.evaluations) == len(rep.scored) == len(rep.selections) - rep.fallback_count
        rates = [policies.rate(i) for i in range(policies.size)]
        # the host stage restarts from its drawn checkpoints, each stamped with its selection
        ordinals = host_pool_ordinals(rep, look, seed)
        assert len(pools[2]) == len(ordinals)
        for cp, ordinal in zip(pools[2], ordinals):
            source = host_rec.checkpoints[ordinal]
            assert cp.snapshot == (*source.snapshot[:3], rates[rep.selections[ordinal]])
        # the record keeps its checkpoints as captured, at the baseline
        assert all(cp.snapshot[3] == rates[0] for cp in host_rec.checkpoints)
        # descendants at the next stage inherit a stamped rate, never something else
        for cp in rep.levels[2].checkpoints:
            assert cp.snapshot[3] in rates

    def test_deterministic_given_seed(self):
        sched = LevelSchedule((0.0, 1.0, 2.0, 3.0))
        cfg = self._cfg()
        policies = PolicySet(size=3, base_rate=1.0, increment_fraction=0.5)
        look = LookaheadConfig(host_level=2, continuations=10)
        a = run_smc_with_reconfiguration(
            policy_ladder_factory((0.8, 0.7, 0.6)), sched, cfg, policies, look, 5
        )
        b = run_smc_with_reconfiguration(
            policy_ladder_factory((0.8, 0.7, 0.6)), sched, cfg, policies, look, 5
        )
        assert a == b

    def test_inner_draws_never_touch_the_outer_run(self, monkeypatch):
        # the host stage crosses deterministically, so every candidate scores
        # exactly 1.0 and candidate 0 wins at every checkpoint whatever the
        # lookahead draws; the outer run must then be bit-identical when only
        # the lookahead streams are reseeded, even though the lookahead
        # consumed thousands of inner steps
        sched = LevelSchedule((0.0, 1.0, 2.0, 3.0))
        cfg = self._cfg()
        policies = PolicySet(size=2, base_rate=1.0, increment_fraction=1.0,
                             cost_scale=0.25)
        look = LookaheadConfig(host_level=2, continuations=25)
        factory = policy_ladder_factory((0.8, 0.7, 1.0), sensitivity=0.0)

        def run(shift):
            def shifted(seed, purpose, *indices):
                if purpose == "lookahead":
                    seed += shift
                return stream(seed, purpose, *indices)

            monkeypatch.setattr(policy, "stream", shifted)
            return run_smc_with_reconfiguration(factory, sched, cfg, policies, look, 9)

        a = run(1)
        b = run(2)
        assert a.smc == b.smc
        assert a.selections == b.selections == (0,) * len(a.selections)
        # crossing takes exactly one step per continuation
        expected = len(a.selections) * policies.size * look.continuations
        assert a.inner_cost_steps == b.inner_cost_steps == expected

    def test_hopeless_next_stage_is_degenerate(self):
        sched = LevelSchedule((0.0, 1.0, 2.0, 3.0))
        cfg = self._cfg(budget_steps=2_000)
        policies = PolicySet(size=2, base_rate=1.0, increment_fraction=1.0)
        look = LookaheadConfig(host_level=2, continuations=10)
        rep = run_smc_with_reconfiguration(
            policy_ladder_factory((0.9, 0.8, 1e-9)), sched, cfg, policies, look, 1
        )
        assert rep.degenerate_count == len(rep.evaluations) > 0
        assert all(chosen == 0 for chosen in rep.selections)
        # the outer run then dies at the impossible stage
        assert rep.smc.estimate == 0.0
        assert rep.smc.budget_exhausted
        assert rep.smc.extinction_level == 2

    def test_estimate_is_product_of_stage_ratios(self):
        sched = LevelSchedule((0.0, 1.0, 2.0, 3.0))
        cfg = self._cfg()
        policies = PolicySet(size=2, base_rate=1.0, increment_fraction=1.0)
        look = LookaheadConfig(host_level=2, continuations=10)
        rep = run_smc_with_reconfiguration(
            policy_ladder_factory((0.8, 0.7, 0.6)), sched, cfg, policies, look, 17
        )
        if rep.smc.estimate > 0:
            prod = 1.0
            for rec in rep.levels:
                prod *= rec.p_hat
            assert rep.smc.estimate == pytest.approx(prod, rel=1e-12)

    def test_host_level_must_fit_schedule(self):
        sched = LevelSchedule((0.0, 1.0, 2.0))
        cfg = self._cfg()
        policies = PolicySet(size=2, base_rate=1.0, increment_fraction=1.0)
        with pytest.raises(ValueError, match="host_level"):
            run_smc_with_reconfiguration(
                policy_ladder_factory((0.8, 0.7)), sched, cfg, policies,
                LookaheadConfig(host_level=2), 0,
            )

    def test_netmodel_roundtrip_smoke(self):
        # end to end on the real model: a stressed short-horizon variant where
        # the host level is reachable and selection actually runs
        params = NetParams(
            horizon_seconds=2.0, grace_seconds=0.25, delay_threshold=0.02,
            stress_log_sd=1.0, stress_log_mean=-3.0,
        )
        cfg = SmcConfig(
            success_target=5, attempt_target=10, initial_pool=5,
            pool_min=5, pool_max=50, budget_steps=100_000,
        )
        policies = PolicySet.from_params(params, size=3)
        look = LookaheadConfig(host_level=2, continuations=5)
        rep = run_smc_with_reconfiguration(
            simulator_factory(params), default_levels(), cfg, policies, look, 0
        )
        assert rep.smc.estimate >= 0.0
        assert sum(rep.selection_counts) == len(rep.selections)
        if rep.selections:
            rates = [policies.rate(i) for i in range(policies.size)]
            for cp in rep.levels[1].checkpoints:
                assert cp.snapshot[5] in rates

    def test_stamped_network_checkpoint_steps_like_the_oracle_at_its_rate(self, monkeypatch):
        pools = spy_pools(monkeypatch)
        # a non-default exponent, so stepping under the wrong one would show
        params = NetParams(delay_threshold=0.08, stress_log_sd=0.7, recovery_exponent=3.0)
        cfg = SmcConfig(
            success_target=4, attempt_target=8, initial_pool=4,
            pool_min=4, pool_max=8, budget_steps=200_000,
        )
        policies = PolicySet.from_params(params, size=3, increment_fraction=1.0,
                                         cost_scale=0.01)
        look = LookaheadConfig(host_level=2, continuations=6)
        rep = run_smc_with_reconfiguration(
            simulator_factory(params), default_levels(), cfg, policies, look, 0
        )
        assert 0 < max(rep.selections)
        rates = [policies.rate(i) for i in range(policies.size)]
        # the host stage's pool: its checkpoints, each stamped with its selection
        assert any(cp.snapshot[5] != rates[0] for cp in pools[2])  # some run off the baseline
        for ordinal, cp in enumerate(pools[2]):
            rate = cp.snapshot[5]
            assert rate in rates
            sim = NetSimulator(params)
            sim.restore(cp.snapshot)
            state = NetState(*cp.snapshot[:5])
            n = min(200, params.horizon_steps - state.step_index)
            noise = stream(21, "after", ordinal).standard_normal(n).tolist()
            for j in range(n):
                sim.advance(noise, j, j + 1, math.inf)
                state = step_dynamics(state, params, rate, noise[j])
                assert sim.snapshot() == (*(getattr(state, f) for f in NetState.__slots__), rate)
