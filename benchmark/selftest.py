"""Self-test of the benchmark's checks: sound reports pass, corrupted ones are rejected.

    python3 benchmark/selftest.py

Makes one real report per workload (a few seconds), then feeds every check
the report as it is and each corruption of it.  Exits 1 if a check passes a
corrupted report or rejects a sound one.
"""
from __future__ import annotations

from dataclasses import replace

from common import use_checkout_source

use_checkout_source()

import checks  # noqa: E402
from worker import Tally, account  # noqa: E402
from workloads import LadderTiny, NetMc, NetPolicy, NetSmc, digest  # noqa: E402

SEED = 7


def with_level(rep, k, **changes):
    levels = list(rep.levels)
    levels[k] = replace(levels[k], **changes)
    return replace(rep, levels=tuple(levels))


def low_checkpoint(rep, k):
    rec = rep.levels[k]
    cp = replace(rec.checkpoints[0], coordinate=rec.checkpoints[0].coordinate - 1.0)
    return with_level(rep, k, checkpoints=(cp, *rec.checkpoints[1:]))


def main() -> None:
    cases = []  # (label, problems, should_reject)

    def case(label, problems, reject=True):
        cases.append((label, problems, reject))

    w = NetSmc(SEED)
    rep = w.call(w.seeds[0])
    case("net-smc sound report", w.problems(rep), reject=False)
    case("net-smc estimate off the stage product",
         w.problems(replace(rep, estimate=rep.estimate * (1 + 1e-12))))
    case("net-smc stage costs not summing", w.problems(replace(rep, cost_steps_used=rep.cost_steps_used + 1)))
    case("net-smc cost over budget", w.problems(replace(rep, cost_steps_used=w.cfg.budget_steps + 1)))
    case("net-smc stage stopped below its attempt target",
         w.problems(with_level(rep, 2, attempts=w.cfg.attempt_target - 1)))
    case("net-smc stage p_hat not successes/attempts",
         w.problems(with_level(rep, 1, p_hat=rep.levels[1].p_hat + 1e-9)))
    case("net-smc checkpoint below its threshold", w.problems(low_checkpoint(rep, 1)))
    changed = with_level(rep, 0, attempts=rep.levels[0].attempts + 1)
    case("net-smc replay that differs", w.extra_runs([w.summary(changed)], [digest(changed)])[1])
    for factor in (1.0, checks.SMC_LOW * 0.99, checks.SMC_HIGH * 1.01):
        case(f"net-smc round mean at {factor:.2f} x the reference",
             checks.smc_pooled_problems([checks.P_REF * factor] * w.round_size),
             reject=factor != 1.0)

    w = NetMc(SEED)
    rep = w.call(w.seeds[0])
    case("net-mc sound report", w.problems(rep), reject=False)
    case("net-mc trajectory count", w.problems(replace(rep, trajectories=rep.trajectories - 1)))
    case("net-mc estimate not hits/trajectories", w.problems(replace(rep, estimate=rep.estimate + 1e-6)))
    case("net-mc cost below a full horizon per miss", w.problems(replace(rep, cost_steps_used=990_000)))
    case("net-mc cost over budget", w.problems(replace(rep, cost_steps_used=w.budget + 1)))
    n = rep.trajectories * w.round_size
    case("net-mc round with no hit (cannot be told from chance)",
         checks.mc_pooled_problems(0, n), reject=False)
    case("net-mc round with 3.5x the expected hits",
         checks.mc_pooled_problems(round(3.5 * n * checks.P_REF), n))
    tally = Tally()
    account(w, 0, replace(rep, rel_var_pred=0.5), tally, digest(rep))
    case("net-mc round that does not repeat the first", tally.problems)

    w = LadderTiny(SEED)
    reps = [w.call(s) for s in w.seeds]
    case("ladder-tiny sound report", w.problems(reps[0]), reject=False)
    case("ladder-tiny sound round", w.pooled_problems([w.summary(r) for r in reps]), reject=False)
    rec = reps[0].levels[0]
    case("ladder-tiny success count", w.problems(with_level(reps[0], 0, successes=rec.successes - 1)))
    case("ladder-tiny cost not one step per attempt",
         w.problems(with_level(reps[0], 0, cost_steps=rec.cost_steps + 1)))
    case("ladder-tiny estimate", w.problems(replace(reps[0], estimate=reps[0].estimate * 1.01)))
    case("ladder-tiny round mean 3% high",
         checks.ladder_pooled_problems([r.estimate * 1.03 for r in reps], w.p, w.success_target))

    w = NetPolicy(SEED)
    rep = w.call(w.seeds[0])
    case("net-policy sound report", w.problems(rep), reject=False)
    case("net-policy singleton set vs plain run", w.extra_runs([None], [digest(rep)])[1],
         reject=False)
    case("net-policy selection out of range",
         w.problems(replace(rep, selections=(w.size, *rep.selections[1:]))))
    case("net-policy one selection missing", w.problems(replace(rep, selections=rep.selections[1:])))
    case("net-policy counts not summing",
         w.problems(replace(rep, selection_counts=(rep.selection_counts[0] + 1,
                                                   *rep.selection_counts[1:]))))
    ev = next(e for e in rep.evaluations if not e.degenerate)
    worst = max(range(w.size), key=lambda i: ev.objectives[i])
    bad_ev = tuple(replace(e, selected=worst) if e is ev else e for e in rep.evaluations)
    case("net-policy selection that does not minimise the objective",
         w.problems(replace(rep, evaluations=bad_ev)))
    case("net-policy outer estimate off", w.problems(replace(rep, smc=replace(rep.smc, estimate=1.0))))
    w.single = w.policies  # a three-candidate "singleton" must not match the plain run
    case("net-policy singleton check given a three-candidate set",
         w.extra_runs([None], [digest(rep)])[1])

    bad = 0
    for label, problems, reject in cases:
        ok = bool(problems) == reject
        bad += not ok
        verdict = "rejected" if problems else "passed"
        print(f"{'ok ' if ok else 'BAD'} {label}: {verdict}"
              + (f" ({problems[0]})" if problems else ""))
    print(f"{len(cases) - bad}/{len(cases)} cases as expected")
    raise SystemExit(1 if bad else 0)


if __name__ == "__main__":
    main()
