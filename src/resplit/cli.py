"""``resplit`` command line: single runs, sweeps, the policy study, verify.

Artifacts are plain data and nothing else: ``summary.json`` for single runs,
``sweep.csv`` for grids, both embedding the resolved config and per-row seeds
so every number can be reproduced independently.  Nothing time- or
machine-dependent is written, which is what makes seed-repeated invocations
byte-identical.
"""
from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, fields, replace
from pathlib import Path

from resplit.config import (
    ConfigError,
    ExperimentConfig,
    SweepAxis,
    config_to_dict,
    load_config,
    point_seed,
    sweep_points,
)
from resplit.core import derive_seed
from resplit.mc import run_mc
from resplit.netmodel import simulator_factory
from resplit.policy import run_smc_with_reconfiguration
from resplit.smc import SmcReport, predict_diagnostics, run_smc

__all__ = [
    "main",
    "run_single",
    "run_sweep",
    "write_summary",
    "write_sweep_csv",
]


# --- engine execution -------------------------------------------------------

def _execute(cfg: ExperimentConfig, seed: int) -> dict:
    """Run the configured engine once and return its plain-data result."""
    factory = simulator_factory(cfg.model)
    if cfg.engine == "mc":
        return asdict(run_mc(factory, cfg.mc, seed))
    if cfg.engine == "smc":
        return _smc_dict(run_smc(factory, cfg.levels, cfg.smc, seed), cfg)
    policies = cfg.policy_set()
    report = run_smc_with_reconfiguration(
        factory, cfg.levels, cfg.smc, policies, cfg.lookahead, seed
    )
    # shares of the scored checkpoints' choices; None when nothing was scored
    chosen = [ev.selected for ev in report.evaluations]
    return {
        **_smc_dict(report.smc, cfg),
        "selection_frequencies": (
            [chosen.count(i) / len(chosen) for i in range(policies.size)] if chosen else None
        ),
        "scored_count": len(report.scored),
        "fallback_count": report.fallback_count,
        "degenerate_count": report.degenerate_count,
        "inner_cost_steps": report.inner_cost_steps,
        "lookahead_steps_by_candidate": [
            sum(ev.steps[i] for ev in report.evaluations) for i in range(policies.size)
        ],
    }


def _fields(obj, *skip: str) -> dict:
    """A dataclass's fields by name, those in ``skip`` left out."""
    return {f.name: getattr(obj, f.name) for f in fields(obj) if f.name not in skip}


def _smc_dict(report: SmcReport, cfg: ExperimentConfig) -> dict:
    """The report's own fields; each level without the checkpoints it kept."""
    diag = predict_diagnostics(report, cfg.smc)
    return {
        **_fields(report),
        "levels": [_fields(rec, "checkpoints") for rec in report.levels],
        "diagnostics": None if diag is None else asdict(diag),
    }


# --- single runs ------------------------------------------------------------

def _map(fn, workers: int, *iterables) -> list:
    """``list(map(fn, *iterables))``, over ``workers`` processes when more than one.

    Workers are spawned, not forked: once numpy is loaded the parent has
    threads, and a forked child inherits their locks in whatever state
    they were.
    """
    if workers > 1:
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
            return list(pool.map(fn, *iterables))
    return list(map(fn, *iterables))


def run_single(cfg: ExperimentConfig, workers: int = 1) -> dict:
    """Execute ``cfg.replications`` independent runs; return the summary payload."""
    seeds = [derive_seed(cfg.master_seed, "rep", r) for r in range(cfg.replications)]
    results = _map(_execute, workers, [cfg] * len(seeds), seeds)
    reps = []
    total = 0.0
    positive = 0
    for r, (seed, result) in enumerate(zip(seeds, results)):
        reps.append({"replication": r, "seed": seed, "result": result})
        total += result["estimate"]
        positive += result["estimate"] > 0.0
    return {
        "schema": "resplit-summary/4",
        "config": config_to_dict(cfg),
        "replications": reps,
        "aggregate": {
            "mean_estimate": total / cfg.replications,
            "positive_fraction": positive / cfg.replications,
        },
    }


def write_summary(payload: dict, out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "summary.json"
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    path.write_text(text, encoding="utf-8", newline="\n")
    return path


# --- sweeps -----------------------------------------------------------------

_BASE_COLUMNS = (
    "replication", "seed", "engine", "estimate", "cost_steps_used",
    "budget_exhausted", "extinction_level", "trajectories", "hits",
    "rel_bias_pred", "rel_var_pred",
)
_STAGE_COLUMNS = ("p_hat", "successes", "attempts", "cost_steps", "next_pool_size")
_POLICY_COLUMNS = (
    "host_level", "inner_cost_steps", "fallback_count", "degenerate_count",
)


def _sweep_header(cfg: ExperimentConfig, stage_count: int, freq_width: int) -> list[str]:
    # the axis: prefix keeps swept names (notably 'engine') from colliding
    # with the fixed columns
    header = [f"axis:{axis.name}" for axis in cfg.axes]
    header.extend(_BASE_COLUMNS)
    header.extend(f"{stat}_{k}" for k in range(stage_count) for stat in _STAGE_COLUMNS)
    if freq_width:
        header.extend(_POLICY_COLUMNS)
        header.extend(f"select_freq_{i}" for i in range(freq_width))
    return header


def _cell(value) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _sweep_row(task) -> list[str]:
    """One run's row: its values keyed by column name, empty where a column
    does not apply to the row's engine."""
    header, coords, cfg, rep, seed = task
    result = _execute(cfg, seed)
    cells = {f"axis:{name}": value for name, value in coords.items()}
    # the engine and the host level are the point's config, not its result
    cells.update(result, replication=rep, seed=seed, engine=cfg.engine,
                 host_level=cfg.lookahead.host_level if cfg.engine == "smc+policy" else None)
    diag = result.get("diagnostics") or {}
    cells["rel_bias_pred"] = diag.get("rel_bias")
    cells.setdefault("rel_var_pred", diag.get("rel_var"))  # mc reports its own
    for k, rec in enumerate(result.get("levels", ())):
        cells.update((f"{stat}_{k}", rec[stat]) for stat in _STAGE_COLUMNS)
    for i, freq in enumerate(result.get("selection_frequencies") or ()):
        cells[f"select_freq_{i}"] = freq
    return [_cell(cells.get(column)) for column in header]


def _sweep_tasks(cfg: ExperimentConfig) -> tuple[list[str], list[tuple]]:
    """The header and one task per row in grid order; validates every point, runs none."""
    points = list(sweep_points(cfg))
    freq_width = 0
    for _, point_cfg in points:
        if point_cfg.engine == "smc+policy":
            freq_width = max(freq_width, point_cfg.policy.size)
    header = _sweep_header(cfg, cfg.levels.stage_count, freq_width)
    tasks = [
        (header, coords, point_cfg, rep, point_seed(cfg.master_seed, coords, rep))
        for coords, point_cfg in points
        for rep in range(point_cfg.replications)
    ]
    return header, tasks


def run_sweep(cfg: ExperimentConfig, workers: int = 1) -> tuple[list[str], list[list[str]]]:
    """Run the axis cross product and return (header, rows) in grid order."""
    header, tasks = _sweep_tasks(cfg)
    return header, _map(_sweep_row, workers, tasks)


def write_sweep_csv(header: list[str], rows: list[list[str]], out_dir: str | Path) -> Path:
    import csv

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "sweep.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


# --- command line -----------------------------------------------------------

def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, output_dir=args.out)
    return cfg


def _out_dir(path: str | None, *sub: str) -> Path:
    """The output directory ``path`` (``out`` for None), or ``sub`` under it,
    made now so that an unusable one fails before any run."""
    out = Path("out" if path is None else path, *sub)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output_dir: cannot create '{out}': {exc.strerror}") from exc
    return out


def _cmd_run(args) -> int:
    cfg = _load(args)
    out = _out_dir(cfg.output_dir)
    payload = run_single(cfg, workers=args.workers)
    path = write_summary(payload, out)
    print(f"{path}: engine={cfg.engine} "
          f"mean_estimate={payload['aggregate']['mean_estimate']:.6g} "
          f"({cfg.replications} replication(s))")
    return 0


def _sweep(cfg: ExperimentConfig, workers: int) -> int:
    """Validate every point, make the output directory, then run and write the grid."""
    header, tasks = _sweep_tasks(cfg)
    out = _out_dir(cfg.output_dir)
    path = write_sweep_csv(header, _map(_sweep_row, workers, tasks), out)
    print(f"{path}: {len(tasks)} rows x {len(header)} columns")
    return 0


def _cmd_sweep(args) -> int:
    return _sweep(_load(args), args.workers)


def _cmd_policy(args) -> int:
    cfg = _load(args)
    cfg = replace(cfg, engine="smc+policy")
    if not cfg.axes:
        # the reference study: stress spread against policy-set size
        cfg = replace(
            cfg,
            axes=(
                SweepAxis("model.stress_log_sd", (0.45, 0.575, 0.8)),
                SweepAxis("policy.size", (1, 5)),
            ),
        )
    return _sweep(cfg, args.workers)


def _cmd_verify(args) -> int:
    from resplit.acceptance import run_acceptance

    _out_dir(args.out, "verify")  # where the checks write
    return run_acceptance(Path(args.out), quick=args.quick)


def _worker_count(text: str) -> int:
    """``--workers`` value: a whole number of processes, at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="resplit",
        description="Rare-event estimation for delay-critical service networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--seed", type=int, help="override master_seed")
        p.add_argument("--out", help="output directory (default 'out')")
        p.add_argument("--workers", type=_worker_count, default=1,
                       help="parallel worker processes (default 1)")

    p_run = sub.add_parser("run", help="single run of the configured engine")
    common(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="cross-product sweep to sweep.csv")
    common(p_sweep)
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_policy = sub.add_parser("policy", help="policy study (stress grid x set size)")
    common(p_policy)
    p_policy.set_defaults(fn=_cmd_policy)

    p_verify = sub.add_parser("verify", help="run the acceptance checks")
    p_verify.add_argument("--out", default="out",
                          help="output directory (default 'out'); checks write under <out>/verify")
    p_verify.add_argument("--quick", action="store_true",
                          help="skip the heavy statistical criteria")
    p_verify.set_defaults(fn=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
