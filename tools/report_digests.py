"""Print one ``shape seed digest`` line per seeded engine run.

A refactor that must keep every seeded report bit-identical is checked by
running this script in two checkouts, the old and the new, and diffing the
outputs::

    python3 tools/report_digests.py > new.txt
    (cd ../old && python3 tools/report_digests.py) > old.txt
    diff old.txt new.txt

The runs are seed lists 1 and 2 of the four benchmark workloads (read from
``benchmark/workloads.py``, so the shapes stay those the benchmark times),
then a multi-stage ladder, the three-state chain through splitting and plain
Monte Carlo, network runs cut short by their step budget, lookahead runs
on a model whose recovery exponent is not the default 2.0, and two more
network Monte Carlo shapes: one at raw seeds below 2**32, where a seed is a
single ``SeedSequence`` word, and one at the acceptance checks' cheap model,
where a run's one stream is read in many short 40-step blocks.  Then
splitting over levels above 1 up to 2.0 and plain Monte Carlo on a model
whose grace window is most of its horizon, where the kernel ends most misses
at an idle state with the target out of reach.  Then shapes where the
kernel's miss certificate is marginal or off: the agreement check's model
(load 0.73) under splitting and Monte Carlo, where health sits close to the
load's logit; lookahead runs whose strongest candidate rate lies just past
the model's monotone bound, where no proof is made at that rate; and a
model whose stress persistence is 0.3, where a proof sums its window in
blocks.  Last, shapes where proofs start from a busy queue: plain Monte
Carlo at the policy benchmark's noisy point, splitting and Monte Carlo on a
model whose first state already holds a backlog, splitting at the
rare-regime check's model and levels under a short budget, splitting and
Monte Carlo on a model whose first step empties a queue with its exceedance
counter running (an idle state whose counter is not 0), and Monte Carlo on
that model over a horizon as long as its grace window, where every run is
cut at that state.  Each digest is a
hash of the report by field: dataclass fields and dict keys by name, in
sorted order, recursively, leaving out the names in ``DROPPED``.  A change
that retires a field lists its name there, so every line shows that the
values kept are unchanged, and the tool prints the same lines in the old
checkout and the new.  Each policy run prints a second ``<shape>-outer seed
digest`` line, a hash of the outer run alone (the splitting report without
its checkpoints), so a change to the lookahead that must leave the outer run
alone shows as a diff in the first line only.  Last come one ``smc-result``,
``mc-result`` and ``smc+policy-result`` line, each a hash of the
``replications`` that ``resplit run`` writes into ``summary.json`` at the
acceptance checks' cheap operating point, with the ``DROPPED`` and
``RETIRED_KEYS`` names left out, so artifact identity is diffed the same
way.  Every scored checkpoint there picks candidate 0, so a
``smc+policy-noisy-result`` line hashes a three-candidate run on the noisy
model, where the candidates compete.  Then one ``config-echo-<name>`` line
per config document, a hash of the echo ``config_to_dict`` gives of the
loaded document, the ``config`` that ``summary.json`` holds: the defaults,
levels with and without labels, a policy study with its lookahead, and a
two-axis sweep, followed by one ``config-echo-sweep-point-<i>`` line per
point of that sweep, the echo of the config each point rebuilds.  The
script takes no options and imports ``resplit`` from the checkout it sits
in.
"""
from __future__ import annotations

import hashlib
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

from workloads import WORKLOADS  # noqa: E402

from resplit import mc, policy, smc  # noqa: E402
from resplit.acceptance import (  # noqa: E402
    _AGREE_PARAMS,
    _CHEAP_MODEL,
    _CHEAP_SMC,
    _RARE_LEVELS,
    _RARE_PARAMS,
    _RARE_SMC,
)
from resplit.cli import run_single  # noqa: E402
from resplit.config import config_from_dict, config_to_dict, sweep_points  # noqa: E402
from resplit.core import LevelSchedule, derive_seed  # noqa: E402
from resplit.netmodel import NetParams, default_levels, simulator_factory  # noqa: E402
from resplit.toys import ladder_factory, three_state_factory  # noqa: E402

NOISY = NetParams(delay_threshold=0.05, stress_log_sd=0.8)
LONG_GRACE = replace(NOISY, horizon_seconds=6.0, grace_seconds=4.0)
# candidate rates 1.13, 2.26 and 3.39, the last just past the monotone bound 3.375
NEAR_BOUND = replace(NOISY, recovery_rate=1.13, stress_log_sd=1.2)
FLEETING = replace(NOISY, stress_persistence=0.3, stress_log_sd=1.0)
BUSY_START = NetParams(initial_backlog=0.3, initial_health=1.2, delay_threshold=0.2)
# the first step empties a queue whose delay is over the threshold: an idle state
# whose exceedance counter still runs
EMPTIED = NetParams(delay_threshold=0.01, initial_backlog=0.012, initial_health=3.0)
# a horizon as long as the grace window: every run is cut at that idle state, a miss,
# so one seed shows it
EMPTIED_SHORT = replace(EMPTIED, horizon_seconds=5.0)
# retired report fields and summary keys, absent from new reports and skipped in old ones
DROPPED = {"inner_budget_exhausted", "min_resolvable", "rel_bias_first_order",
           "classical_rel_var", "resolution_floor"}
# summary keys retired by schema 2, skipped in the result lines alone: the reports
# still hold ``selections`` and ``selection_counts``
RETIRED_KEYS = {"stage_rel_var", "rel_var_first_order", "target_threshold", "target_label",
                "host_level", "selections", "selection_counts"}
SMALL = smc.SmcConfig(success_target=5, attempt_target=12, pool_min=3, pool_max=12,
                      budget_steps=2_000)


def extra_shapes():
    """``(shape, seeds, run)`` for the engine paths the workloads leave out."""
    ladder = ladder_factory((0.5, 0.4, 0.3, 0.6))
    rungs = LevelSchedule((0.0, 1.0, 2.0, 3.0, 4.0))
    chain = three_state_factory(0.3, 0.2, 0.3, 9)
    walk = LevelSchedule((0.0, 1.0, 2.0))
    noisy = simulator_factory(NOISY)
    truncated = smc.SmcConfig(budget_steps=60_000)
    steep = replace(NOISY, recovery_exponent=3.0)
    steep_policies = policy.PolicySet.from_params(steep, size=3)
    look = policy.LookaheadConfig(host_level=2, continuations=4)
    outer = smc.SmcConfig(success_target=8, attempt_target=30, pool_min=10, pool_max=30,
                          budget_steps=200_000)
    cheap = simulator_factory(NetParams(**_CHEAP_MODEL))
    long_grace = simulator_factory(LONG_GRACE)
    above_one = LevelSchedule((0.0, 1.25, 1.5, 1.75, 2.0))
    agree = simulator_factory(_AGREE_PARAMS)
    near_bound_policies = policy.PolicySet.from_params(NEAR_BOUND, size=3, increment_fraction=1.0)
    fleeting = simulator_factory(FLEETING)
    busy_start = simulator_factory(BUSY_START)
    emptied = simulator_factory(EMPTIED)
    rare = simulator_factory(_RARE_PARAMS)
    rare_short = replace(_RARE_SMC, budget_steps=400_000)
    return (
        ("ladder-4-stage", range(40), lambda s: smc.run_smc(ladder, rungs, SMALL, s)),
        ("three-state-smc", range(40), lambda s: smc.run_smc(chain, walk, SMALL, s)),
        ("three-state-mc", range(10),
         lambda s: mc.run_mc(chain, mc.McConfig(budget_steps=1800), s)),
        ("net-truncated", range(4),
         lambda s: smc.run_smc(noisy, default_levels(), truncated, s)),
        ("net-policy-exponent", range(4),
         lambda s: policy.run_smc_with_reconfiguration(simulator_factory(steep), default_levels(),
                                                       outer, steep_policies, look, s)),
        ("net-mc-small-seed", (0, 1, 7, 2**32 - 1),
         lambda s: mc.run_mc(noisy, mc.McConfig(budget_steps=200 * NOISY.horizon_steps), s)),
        ("net-mc-cheap", [derive_seed(5, "net-mc-cheap", r) for r in range(3)],
         lambda s: mc.run_mc(cheap, mc.McConfig(budget_steps=400_000), s)),
        ("net-long-grace-smc", range(4), lambda s: smc.run_smc(long_grace, above_one, outer, s)),
        ("net-long-grace-mc", range(4),
         lambda s: mc.run_mc(long_grace, mc.McConfig(budget_steps=200 * LONG_GRACE.horizon_steps),
                             s)),
        ("net-agree-smc", range(4), lambda s: smc.run_smc(agree, default_levels(), outer, s)),
        ("net-agree-mc", range(3),
         lambda s: mc.run_mc(agree, mc.McConfig(budget_steps=300_000), s)),
        ("net-policy-near-bound", range(3),
         lambda s: policy.run_smc_with_reconfiguration(simulator_factory(NEAR_BOUND),
                                                       default_levels(), outer,
                                                       near_bound_policies, look, s)),
        ("net-fleeting-smc", range(3), lambda s: smc.run_smc(fleeting, default_levels(), outer, s)),
        ("net-fleeting-mc", range(3),
         lambda s: mc.run_mc(fleeting, mc.McConfig(budget_steps=300_000), s)),
        ("net-noisy-mc", range(3),
         lambda s: mc.run_mc(noisy, mc.McConfig(budget_steps=300_000), s)),
        ("net-busy-start-smc", range(4),
         lambda s: smc.run_smc(busy_start, default_levels(), outer, s)),
        ("net-busy-start-mc", range(3),
         lambda s: mc.run_mc(busy_start, mc.McConfig(budget_steps=300_000), s)),
        ("net-rare-short-smc", range(3),
         lambda s: smc.run_smc(rare, _RARE_LEVELS, rare_short, s)),
        ("net-emptied-smc", range(4), lambda s: smc.run_smc(emptied, default_levels(), outer, s)),
        ("net-emptied-mc", range(3),
         lambda s: mc.run_mc(emptied, mc.McConfig(budget_steps=300_000), s)),
        ("net-emptied-short-mc", (0,),
         lambda s: mc.run_mc(simulator_factory(EMPTIED_SHORT), mc.McConfig(budget_steps=300_000),
                             s)),
    )


def result_configs():
    """``(shape, config)`` for the artifact lines, two replications each: one per
    engine at the cheap point, and a policy run where the candidates compete."""
    look = {"host_level": 2, "continuations": 5}
    base = {"master_seed": 5, "replications": 2, "model": dict(_CHEAP_MODEL),
            "smc": dict(_CHEAP_SMC), "mc": {"budget_steps": 20_000}, "lookahead": look}
    noisy = {"engine": "smc+policy", "master_seed": 5, "replications": 2,
             "model": {"delay_threshold": NOISY.delay_threshold,
                       "stress_log_sd": NOISY.stress_log_sd},
             "policy": {"size": 3}, "lookahead": look}
    return (*((f"{engine}-result", config_from_dict({**base, "engine": engine}))
              for engine in ("smc", "mc", "smc+policy")),
            ("smc+policy-noisy-result", config_from_dict(noisy)))


def echo_configs():
    """``(name, document)`` for the config-echo lines."""
    levels = {"thresholds": [0.0, 0.1, 1.0, 2.0]}
    return (
        ("default", {}),
        ("levels-labels",
         {"levels": {**levels, "labels": ["calm", "onset", "critical", "failed"]}}),
        ("levels", {"levels": levels}),
        ("policy", {"engine": "smc+policy", "master_seed": 3,
                    "policy": {"size": 3, "increment_fraction": 0.25},
                    "lookahead": {"host_level": 1, "continuations": 5}}),
        ("sweep", {"master_seed": 9, "levels": levels, "sweep": {"axes": [
            {"name": "engine", "values": ["mc", "smc", "smc+policy"]},
            {"name": "model.delay_threshold", "values": [0.1, 0.2]},
        ]}}),
    )


def by_field(value, drop=DROPPED):
    """``value`` as plain data keyed by name: a dataclass becomes a dict of its
    fields, every dict is sorted by key, and the names in ``drop`` are left out."""
    if is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in fields(value)}
    if isinstance(value, dict):
        return {k: by_field(value[k], drop) for k in sorted(value) if k not in drop}
    if isinstance(value, (list, tuple)):
        return [by_field(v, drop) for v in value]
    return value


def digest(value, drop=DROPPED) -> str:
    return hashlib.blake2b(repr(by_field(value, drop)).encode(), digest_size=16).hexdigest()


def emit(shape: str, seed: int, rep) -> None:
    print(shape, seed, digest(rep), flush=True)
    if isinstance(rep, policy.PolicySmcReport):
        # the outer estimator's report: everything but the checkpoints it kept
        print(f"{shape}-outer", seed, digest(rep.smc, DROPPED | {"checkpoints"}), flush=True)


def main() -> None:
    for name, workload in WORKLOADS.items():
        for list_seed in (1, 2):
            w = workload(list_seed)
            for s in w.seeds:
                emit(name, s, w.call(s))
    for shape, seeds, run in extra_shapes():
        for s in seeds:
            emit(shape, s, run(s))
    for shape, cfg in result_configs():
        replications = run_single(cfg)["replications"]
        print(shape, cfg.master_seed, digest(replications, DROPPED | RETIRED_KEYS), flush=True)
    echoes = {name: config_from_dict(doc) for name, doc in echo_configs()}
    for name, cfg in echoes.items():
        print(f"config-echo-{name}", cfg.master_seed, digest(config_to_dict(cfg)), flush=True)
    for i, (_, point) in enumerate(sweep_points(echoes["sweep"])):
        print(f"config-echo-sweep-point-{i}", point.master_seed, digest(config_to_dict(point)),
              flush=True)


if __name__ == "__main__":
    main()
