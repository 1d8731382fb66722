"""The benchmark's four workloads: their inputs, engine calls and checks.

Every workload is a closed loop in one thread: each engine run starts when
the previous one returns.  A round is the workload's seeded list of engine
runs; rounds repeat unchanged, so every round does identical work.  Engines
are called through their module attribute (``smc.run_smc``), so the traced
run can wrap them from outside.
"""
from __future__ import annotations

import hashlib

import checks
from common import engine_seeds
from resplit import mc, policy, smc
from resplit.core import LevelSchedule
from resplit.netmodel import NetParams, default_levels, simulator_factory
from resplit.toys import ladder_factory


def digest(rep) -> bytes:
    """A short hash of a report's ``repr``: equal digests mean bit-identical reports."""
    return hashlib.blake2b(repr(rep).encode(), digest_size=16).digest()


class Workload:
    """One seeded list of engine runs and the checks on their reports."""

    name: str
    round_size: int  # engine runs per round
    probe_size: int  # engine runs when a traced run samples this workload's layers

    def __init__(self, seed: int) -> None:
        self.seeds = engine_seeds(self.name, seed, self.round_size)

    def call(self, seed: int):
        raise NotImplementedError

    def steps(self, rep) -> int:
        """Simulator steps the run charged, outer and lookahead."""
        return rep.cost_steps_used

    def counters(self, rep) -> dict[str, int]:
        """Per-run counts the traced run turns into layer figures."""
        return {}

    def problems(self, rep) -> list[str]:
        raise NotImplementedError

    def summary(self, rep):
        """What the checks over a whole round need of one report."""
        return None

    def pooled_problems(self, summaries) -> list[str]:
        """Checks over one whole round."""
        return []

    def extra_runs(self, summaries, digests) -> tuple[int, list[str]]:
        """Untimed engine runs that check replay; returns (runs made, problems)."""
        return 0, []


def _smc_counters(rep) -> dict[str, int]:
    return {
        "attempts": sum(rec.attempts for rec in rep.levels),
        "successes": sum(rec.successes for rec in rep.levels),
    }


class NetSmc(Workload):
    """``resplit run`` at its defaults: splitting on the default network."""

    name = "net-smc"
    # runs cost 0.3-1.1 M steps by seed; 24 keeps the round's mean cost within
    # about 8% from one --seed to the next
    round_size = 24
    probe_size = 3

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.factory = simulator_factory(NetParams())
        self.levels = default_levels()
        self.cfg = smc.SmcConfig()

    def call(self, seed):
        return smc.run_smc(self.factory, self.levels, self.cfg, seed)

    def counters(self, rep):
        return _smc_counters(rep)

    def problems(self, rep):
        cfg = self.cfg
        return checks.smc_problems(rep, self.levels.thresholds, cfg.success_target,
                                   cfg.attempt_target, cfg.budget_steps)

    def summary(self, rep):
        return rep.estimate, rep.cost_steps_used

    def pooled_problems(self, summaries):
        return checks.smc_pooled_problems([estimate for estimate, _ in summaries])

    def extra_runs(self, summaries, digests):
        # replay the cheapest seed of the round: the report must repeat bit for bit
        i = min(range(len(summaries)), key=lambda k: summaries[k][1])
        if digest(self.call(self.seeds[i])) != digests[i]:
            return 1, [f"seed {self.seeds[i]} replayed to a different report"]
        return 1, []


class NetMc(Workload):
    """The matched-budget baseline: plain Monte Carlo at the default point."""

    name = "net-mc"
    # 9 x 833 trajectories expect about 9 hits, so the pooled check can see an
    # engine that hits 3x too often
    round_size = 9
    probe_size = 1
    budget = 1_000_000

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        params = NetParams()
        self.factory = simulator_factory(params)
        self.cfg = mc.McConfig(budget_steps=self.budget)
        # horizon and grace window in steps, worked out here from the parameters
        self.horizon = round(params.horizon_seconds / params.step_seconds)
        self.grace = round(params.grace_seconds / params.step_seconds)

    def call(self, seed):
        return mc.run_mc(self.factory, self.cfg, seed)

    def counters(self, rep):
        return {"trajectories": rep.trajectories}

    def problems(self, rep):
        return checks.mc_problems(rep, self.budget, self.horizon, self.grace)

    def summary(self, rep):
        return rep.hits, rep.trajectories

    def pooled_problems(self, summaries):
        return checks.mc_pooled_problems(sum(h for h, _ in summaries),
                                         sum(n for _, n in summaries))


class LadderTiny(Workload):
    """The shape of the stage-law acceptance check: thousands of one-stage runs."""

    name = "ladder-tiny"
    round_size = 2000
    probe_size = 500
    p = 0.2
    success_target = 20

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.factory = ladder_factory((self.p,))
        self.levels = LevelSchedule(thresholds=(0.0, 1.0))
        self.cfg = smc.SmcConfig(success_target=self.success_target, attempt_target=1,
                                 initial_pool=1, pool_min=1, pool_max=1,
                                 budget_steps=10_000_000)

    def call(self, seed):
        return smc.run_smc(self.factory, self.levels, self.cfg, seed)

    def counters(self, rep):
        return _smc_counters(rep)

    def problems(self, rep):
        return checks.ladder_problems(rep, self.success_target)

    def summary(self, rep):
        return rep.estimate

    def pooled_problems(self, summaries):
        return checks.ladder_pooled_problems(summaries, self.p, self.success_target)


class NetPolicy(Workload):
    """Splitting with lookahead mitigation at the noisiest policy-study point.

    Three candidates and five continuations keep one run at a few seconds.
    """

    name = "net-policy"
    round_size = 8
    probe_size = 1
    size = 3
    host_level = 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        params = NetParams(delay_threshold=0.05, stress_log_sd=0.8)
        self.factory = simulator_factory(params)
        self.levels = default_levels()
        self.cfg = smc.SmcConfig()
        self.policies = policy.PolicySet.from_params(params, size=self.size)
        self.single = policy.PolicySet.from_params(params, size=1)
        self.look = policy.LookaheadConfig(host_level=self.host_level, continuations=5)

    def call(self, seed):
        return policy.run_smc_with_reconfiguration(
            self.factory, self.levels, self.cfg, self.policies, self.look, seed)

    def steps(self, rep):
        return rep.smc.cost_steps_used + rep.inner_cost_steps

    def counters(self, rep):
        return {"outer_steps": rep.smc.cost_steps_used, "inner_steps": rep.inner_cost_steps}

    def problems(self, rep):
        cfg = self.cfg
        return checks.policy_problems(rep, self.size, self.host_level, self.levels.thresholds,
                                      cfg.success_target, cfg.attempt_target, cfg.budget_steps)

    def extra_runs(self, summaries, digests):
        # a one-candidate set must leave the plain splitting run untouched
        seed = self.seeds[0]
        wrapped = policy.run_smc_with_reconfiguration(
            self.factory, self.levels, self.cfg, self.single, self.look, seed)
        plain = smc.run_smc(self.factory, self.levels, self.cfg, seed)
        if digest(wrapped.smc) != digest(plain):
            return 2, [f"seed {seed}: singleton policy set differs from plain run_smc"]
        return 2, []


WORKLOADS = {w.name: w for w in (NetSmc, NetMc, LadderTiny, NetPolicy)}
