"""Pinned-seed regression: fixed seeds must reproduce these reports exactly.

The numbers were recorded from the engines before the fused propagation
kernel replaced their step loops, and they guard the random-stream layout
for any later kernel: which stream feeds which draw, in what order, and
where a run stops on the budget.  Budgets are reduced so the whole module
runs in about a second.
"""
from __future__ import annotations

import pytest

from resplit import mc, policy, smc
from resplit.core import LevelSchedule
from resplit.netmodel import NetParams, default_levels, simulator_factory
from resplit.toys import ladder_factory

# the policy-study point: noisy enough that plain MC sees failures
NOISY = NetParams(delay_threshold=0.05, stress_log_sd=0.8)
SMALL = smc.SmcConfig(success_target=5, attempt_target=20, initial_pool=5, pool_min=5,
                      pool_max=30, budget_steps=250_000)
TINY_LADDER = smc.SmcConfig(success_target=20, attempt_target=1, initial_pool=1,
                            pool_min=1, pool_max=1, budget_steps=10_000_000)


def _levels(rep):
    return tuple((rec.attempts, rec.successes) for rec in rep.levels)


# seed: (estimate, cost_steps_used, per-level (attempts, successes)); seed 2 runs out of budget
SMC_DEFAULT = {
    1: (0.0003007485296738549, 207510, ((62, 5), (181, 5), (20, 6), (20, 9))),
    2: (0.0, 250000, ((28, 5), (326, 1))),
    6: (0.01463709677419355, 49696, ((31, 5), (20, 6), (20, 11), (20, 11))),
}

# seed: (estimate, cost_steps_used, hits).  Re-recorded when a run came to read
# one stream ("mc",), trajectory i its block i, in place of one stream
# ("mc-traj", i) per trajectory; and again when Monte Carlo became one pass of
# the attempt loop, where each trajectory reads on from where the last one
# stopped, so that every trajectory after a hit reads other values.
MC_NOISY = {
    1: (0.69, 72452, 69),
    2: (0.69, 74045, 69),
    3: (0.78, 67917, 78),
}

LADDER_ONE_STAGE = {
    1: (0.2, 100, ((100, 20),)),
    2: (0.31746031746031744, 63, ((63, 20),)),
    3: (0.17857142857142858, 112, ((112, 20),)),
}

# seed: (estimate, outer steps, per-level counts, lookahead steps, selections).
# Re-recorded when the lookahead moved to one shared noise block per checkpoint
# (stream ("lookahead", ordinal) in place of ("lookahead", ordinal, candidate)),
# scored nested: new draws give new selections, so the outer run after the host
# stage changes too, and the nesting cuts the lookahead steps.  Seeds 1 and 3
# run out of outer budget, seed 1 one success short at the last stage; seed 2
# completes.  When only the checkpoints the host stage's pool drew came to be
# scored, the outer tuples (the first three fields) stayed as they were, and
# the lookahead steps and the selections, 0 for every unscored checkpoint,
# were re-recorded.
POLICY_NOISY = {
    1: (0.0, 150000, ((20, 20), (20, 20), (25, 5), (115, 4)), 28452,
        (0, 0, 2, 0, 0, 0, 2, 2, 0, 2, 2, 0, 0, 2, 0, 0, 0, 0, 2, 0)),
    2: (0.15, 23945, ((20, 20), (20, 20), (20, 6), (20, 10)), 32456,
        (0, 0, 1, 0, 0, 0, 0, 2, 2, 0, 0, 0, 2, 2, 2, 0, 2, 0, 0, 0)),
    3: (0.0, 150000, ((20, 19), (20, 20), (20, 5), (152, 0)), 50522,
        (0, 2, 1, 0, 2, 0, 2, 0, 0, 0, 2, 0, 0, 2, 0, 2, 2, 0, 0, 0)),
}


@pytest.mark.parametrize("seed", sorted(SMC_DEFAULT))
def test_run_smc_default_network(seed):
    rep = smc.run_smc(simulator_factory(NetParams()), default_levels(), SMALL, seed)
    assert (rep.estimate, rep.cost_steps_used, _levels(rep)) == SMC_DEFAULT[seed]


@pytest.mark.parametrize("seed", sorted(MC_NOISY))
def test_run_mc(seed):
    rep = mc.run_mc(simulator_factory(NOISY), mc.McConfig(budget_steps=120_000), seed)
    assert rep.trajectories == 100
    assert (rep.estimate, rep.cost_steps_used, rep.hits) == MC_NOISY[seed]


@pytest.mark.parametrize("seed", sorted(LADDER_ONE_STAGE))
def test_one_stage_ladder(seed):
    rep = smc.run_smc(ladder_factory((0.2,)), LevelSchedule((0.0, 1.0)), TINY_LADDER, seed)
    assert (rep.estimate, rep.cost_steps_used, _levels(rep)) == LADDER_ONE_STAGE[seed]


@pytest.mark.parametrize("seed", sorted(POLICY_NOISY))
def test_reconfiguration_at_policy_shape(seed):
    cfg = smc.SmcConfig(success_target=5, attempt_target=20, initial_pool=5, pool_min=5,
                        pool_max=30, budget_steps=150_000)
    rep = policy.run_smc_with_reconfiguration(
        simulator_factory(NOISY), default_levels(), cfg,
        policy.PolicySet.from_params(NOISY, size=3),
        policy.LookaheadConfig(host_level=2, continuations=5), seed,
    )
    got = (rep.estimate, rep.smc.cost_steps_used, _levels(rep.smc), rep.inner_cost_steps,
           rep.selections)
    assert got == POLICY_NOISY[seed]
