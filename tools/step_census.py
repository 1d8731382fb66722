"""Count the model steps each benchmark workload charges and simulates.

    python3 tools/step_census.py                     # every shape, seed list 1
    python3 tools/step_census.py net-mc rare-mc --seed-list 3 --runs 4

"Charged" steps are what the budget counts (``Workload.steps``, the reports'
``cost_steps_used``); "simulated" steps are those ``advance`` took, summed
from ``step_index`` before and after every call.  A miss that the kernel ends
early is charged its whole window but simulated only up to where it stopped,
so their ratio is the share of the charged work the kernel still does.  The
script also counts the miss proofs made and those that held, split by the
test that settled them (``empty`` queue, sum of ``rises``, ``lindley``'s
recursion, from the proof's ``settled`` counts), and times each one.  The
counts are deterministic; ``us/proof`` and ``wall_s`` are wall-clock times
from one pass over each shape, and a single pass moves by tens of percent on
a shared host (one checkout read net-policy at 49, 56 and 87 us/proof in
three runs minutes apart on a 2-core x86_64 host).  To compare two checkouts
on them, repeat the runs, alternating the checkouts, as
``tools/bench_pairs.py`` does for the benchmark.

The script wraps ``advance`` and the network model's proof from outside, so
it runs unchanged in an older checkout whose proof class has another name,
or keeps no ``settled`` counts (those columns then read ``-``), and the two
checkouts' lines can be compared.

The shapes are the four benchmark workloads (read from
``benchmark/workloads.py``), each over the first ``--runs`` seeds of its seed
list (all of them by default), and the rare point of acceptance check 6, its
splitting arm (``rare-smc``) and its Monte Carlo arm (``rare-mc``), seeded as
the check seeds its first ``--runs`` runs (4 by default).
"""
from __future__ import annotations

import argparse
import sys
import time
from functools import partial
from operator import attrgetter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

from workloads import WORKLOADS  # noqa: E402

from resplit import netmodel  # noqa: E402
from resplit.acceptance import MASTER_SEED, _RARE_LEVELS, _RARE_PARAMS, _RARE_SMC  # noqa: E402
from resplit.core import derive_seed  # noqa: E402
from resplit.mc import McConfig, run_mc  # noqa: E402
from resplit.smc import run_smc  # noqa: E402
from resplit.toys import LadderSim, ThreeStateSim  # noqa: E402

RARE_MC_BUDGET = 5_000_000  # check 6's Monte Carlo budget per run


class Census:
    """Running totals of the wrapped calls."""

    def __init__(self) -> None:
        self.simulated = self.tries = self.held = 0
        self.proof_s = 0.0
        self.settled: list[int] | None = [0, 0, 0]  # None where the proof keeps no counts


def proof_class():
    """The network model's proof class: the one with a ``first_failure``."""
    return next(cls for cls in vars(netmodel).values()
                if isinstance(cls, type) and hasattr(cls, "first_failure"))


def wrap(census: Census) -> None:
    """Count every ``advance`` step and every proof into ``census``."""
    for cls in (netmodel.NetSimulator, LadderSim, ThreeStateSim):
        def advance(self, noise, pos, stop, target, _inner=cls.advance):
            j = self.step_index
            out = _inner(self, noise, pos, stop, target)
            census.simulated += self.step_index - j
            return out
        cls.advance = advance
    proof = proof_class()

    def first_failure(self, *args, _inner=proof.first_failure):
        before = list(self.settled) if hasattr(self, "settled") else None
        t0 = time.perf_counter()
        k = _inner(self, *args)
        census.proof_s += time.perf_counter() - t0
        census.tries += 1
        census.held += k == 0
        if before is None or census.settled is None:
            census.settled = None
        else:
            census.settled = [s + now - then
                              for s, now, then in zip(census.settled, self.settled, before)]
        return k
    proof.first_failure = first_failure


def shapes(seed_list: int, runs: int | None):
    """``(shape, calls, charged)``: the engine calls of each shape, and the
    charged steps of a call's report."""
    out = []
    for name, workload in WORKLOADS.items():
        w = workload(seed_list)
        out.append((name, [partial(w.call, s) for s in w.seeds[:runs]], w.steps))
    factory = netmodel.simulator_factory(_RARE_PARAMS)
    rare = range(4 if runs is None else runs)
    charged = attrgetter("cost_steps_used")
    out.append(("rare-smc", [partial(run_smc, factory, _RARE_LEVELS, _RARE_SMC,
                                     derive_seed(MASTER_SEED, "rare-smc", r)) for r in rare],
                charged))
    out.append(("rare-mc", [partial(run_mc, factory, McConfig(budget_steps=RARE_MC_BUDGET),
                                    derive_seed(MASTER_SEED, "rare-mc", r)) for r in rare],
                charged))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("shapes", nargs="*", help="shapes to run (default: all)")
    parser.add_argument("--seed-list", type=int, default=1)
    parser.add_argument("--runs", type=int, default=None, help="runs per shape")
    args = parser.parse_args()
    census = Census()
    wrap(census)
    print("# us/proof and wall_s: wall-clock, one pass; compare checkouts over"
          " alternated repeats")
    print("shape runs charged simulated sim/charged proofs held held% empty rises lindley"
          " us/proof wall_s")
    for shape, calls, steps in shapes(args.seed_list, args.runs):
        if args.shapes and shape not in args.shapes:
            continue
        before = (census.simulated, census.tries, census.held, census.proof_s)
        settled_before = None if census.settled is None else list(census.settled)
        charged = 0
        t0 = time.perf_counter()
        for call in calls:
            charged += steps(call())
        wall = time.perf_counter() - t0
        simulated, tries, held, proof_s = (now - then for now, then in zip(
            (census.simulated, census.tries, census.held, census.proof_s), before))
        settled = (("-",) * 3 if census.settled is None else
                   (now - then for now, then in zip(census.settled, settled_before)))
        print(f"{shape} {len(calls)} {charged} {simulated} {simulated / max(charged, 1):.4f}"
              f" {tries} {held} {100.0 * held / max(tries, 1):.1f} {' '.join(map(str, settled))}"
              f" {1e6 * proof_s / max(tries, 1):.1f} {wall:.2f}", flush=True)


if __name__ == "__main__":
    main()
