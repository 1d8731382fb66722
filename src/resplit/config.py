"""Experiment configuration: schema, strict loading, overrides, derived seeds.

One JSON document describes a whole experiment: the model operating point, the
engine to run, its controls, the level schedule, and optionally up to two
sweep axes.  Every key has a default, every unknown key is rejected with its
full path, and every grid point gets a seed derived from the master seed and
the point's own coordinates, so any emitted row can be re-run on its own.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import Any

from resplit.core import LevelSchedule, derive_seed
from resplit.mc import McConfig, mc_plan
from resplit.netmodel import NetParams, default_levels, simulator_factory
from resplit.policy import LookaheadConfig, PolicySet
from resplit.smc import SmcConfig, _initial_pool

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "PolicyStudy",
    "SweepAxis",
    "apply_axis_value",
    "config_from_dict",
    "config_to_dict",
    "load_config",
    "point_seed",
    "sweep_points",
]

ENGINES = ("mc", "smc", "smc+policy")


class ConfigError(ValueError):
    """Invalid configuration; the message starts with the offending key path."""


@dataclass(frozen=True)
class PolicyStudy:
    """Shape of the candidate family; rates anchor at the model baseline."""

    size: int = 5
    increment_fraction: float = 0.5
    cost_scale: float = 0.5


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: a dotted key path and the grid of values, kept as
    a tuple.  Both default to empty, so an axis that leaves one out is refused
    for its empty path or its empty grid."""

    name: str = ""
    values: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.name:
            raise ValueError("axis name must be a nonempty key path")
        if len(self.values) == 0:
            raise ValueError(f"axis '{self.name}' has an empty grid")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description."""

    engine: str = "smc"
    master_seed: int = 0
    replications: int = 1
    output_dir: str | None = None
    model: NetParams = field(default_factory=NetParams)
    levels: LevelSchedule = field(default_factory=default_levels)
    smc: SmcConfig = field(default_factory=SmcConfig)
    mc: McConfig = field(default_factory=McConfig)
    policy: PolicyStudy = field(default_factory=PolicyStudy)
    lookahead: LookaheadConfig = field(default_factory=LookaheadConfig)
    axes: tuple[SweepAxis, ...] = ()

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got '{self.engine}'")
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if len(self.axes) > 2:
            raise ValueError(f"at most 2 sweep axes supported, got {len(self.axes)}")
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise ValueError(f"sweep axes overlap: {names}")
        if self.engine == "mc":
            # the Monte Carlo run's own check on its budget, made before it runs
            try:
                mc_plan(self.mc, self.model.horizon_steps)
            except ValueError as exc:
                raise ConfigError(f"mc.budget_steps: {exc}") from exc
        else:
            # the splitting run's own check on its levels, made before it runs
            try:
                _initial_pool(simulator_factory(self.model), self.levels)
            except ValueError as exc:
                raise ConfigError(f"levels.thresholds: {exc}") from exc
        if self.engine == "smc+policy":
            # checked only where the policy layer runs, so a plain run does not
            # pay for an unused candidate set
            try:
                self.policy_set()
            except ValueError as exc:
                raise ConfigError(f"policy: {exc}") from exc
            last = self.levels.stage_count - 1
            if self.lookahead.host_level > last:
                raise ConfigError(
                    f"lookahead.host_level: {self.lookahead.host_level} needs a later "
                    f"stage; levels give stages 0..{last}"
                )

    def policy_set(self) -> PolicySet:
        p = self.policy
        return PolicySet.from_params(self.model, p.size, p.increment_fraction, p.cost_scale)


# the sections that are one dataclass each, built and echoed field by field
_SECTIONS = {"model": NetParams, "smc": SmcConfig, "mc": McConfig, "policy": PolicyStudy,
             "lookahead": LookaheadConfig, "levels": LevelSchedule}
# the top-level keys that hold one value each, not fields
_SCALAR_KEYS = ("engine", "master_seed", "replications", "output_dir")
_TOP_KEYS = (*_SCALAR_KEYS, "sweep", *_SECTIONS)


def _reject_unknown(data: dict, allowed, path: str) -> None:
    for key in data:
        if key not in allowed:
            raise ConfigError(
                f"{path}{key}: unknown key (allowed: {', '.join(sorted(allowed))})"
            )


def _reject_non_finite(value, path: str) -> None:
    """Reject NaN and infinities anywhere in the raw document: ``json`` reads them."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite, got {value}")
    if isinstance(value, dict):
        for key, item in value.items():
            _reject_non_finite(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _reject_non_finite(item, f"{path}[{i}]")


# annotation -> the JSON values it takes and their name; ``true`` is never a number
_KINDS = {
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "str": (str, "a string"),
}


def _check_kind(value, kind: str, path: str) -> None:
    outer, _, inner = kind.partition("[")
    if outer == "tuple":
        # a list, or the tuple a rebuilt echo holds; ``tuple[K, ...]`` checks each item as K
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list")
        for i, entry in enumerate(value):
            _check_kind(entry, inner.partition(",")[0], f"{path}[{i}]")
    elif kind in _KINDS:
        types, name = _KINDS[kind]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ConfigError(f"{path}: must be {name}, got {value!r}")


def _reject_wrong_kind(cls, data: dict, prefix: str) -> None:
    """Fields annotated ``int``, ``float`` or ``str`` (or ``... | None``, which also
    take null) take only JSON values of that kind: ``20.0`` is not a count and
    ``true`` is not a number.  A field annotated ``tuple[K, ...]`` takes a list
    whose every item is checked as ``K``, and a bare ``tuple`` a list of anything.
    Other annotations, the sections, are left to their own builders."""
    for f in fields(cls):
        kind, _, rest = f.type.partition(" | ")
        if f.name in data and not (data[f.name] is None and rest == "None"):
            _check_kind(data[f.name], kind, f"{prefix}{f.name}")


def _build_section(cls, data: dict, path: str):
    """One dataclass from a JSON object: unknown keys, missing required fields
    and values of the wrong kind are refused with their full path."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
    _reject_unknown(data, {f.name for f in fields(cls)}, f"{path}.")
    for f in fields(cls):
        if f.name not in data and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{path}.{f.name}: required")
    _reject_wrong_kind(cls, data, f"{path}.")
    try:
        return cls(**data)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _build_axes(data: dict, path: str) -> tuple[SweepAxis, ...]:
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
    _reject_unknown(data, {"axes"}, f"{path}.")
    raw_axes = data.get("axes", [])
    if not isinstance(raw_axes, list):
        raise ConfigError(f"{path}.axes: expected a list of axis objects")
    return tuple(_build_section(SweepAxis, entry, f"{path}.axes[{i}]")
                 for i, entry in enumerate(raw_axes))


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from plain JSON data, rejecting anything off-schema."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config root: expected an object, got {type(raw).__name__}")
    _reject_unknown(raw, _TOP_KEYS, "")
    _reject_non_finite(raw, "")
    _reject_wrong_kind(ExperimentConfig, raw, "")

    kwargs: dict[str, Any] = {}
    for key in _SCALAR_KEYS:
        if key in raw:
            kwargs[key] = raw[key]
    for key, cls in _SECTIONS.items():
        if key in raw:
            kwargs[key] = _build_section(cls, raw[key], key)
    if "sweep" in raw:
        kwargs["axes"] = _build_axes(raw["sweep"], "sweep")
    try:
        return ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Canonical plain-data echo; feeding it back reproduces the config."""
    return {
        "engine": cfg.engine,
        "master_seed": cfg.master_seed,
        "replications": cfg.replications,
        **{key: asdict(getattr(cfg, key)) for key in _SECTIONS},
        "sweep": {"axes": [asdict(axis) for axis in cfg.axes]},
    }


def apply_axis_value(raw: dict, name: str, value) -> dict:
    """Return a copy of the raw config with one dotted key path overridden.

    Top-level names ('engine') set a root key; 'section.field' sets one field
    inside a section.  No path goes through ``levels`` or ``sweep``: either
    would change the columns of the sweep's table.  Whether the resulting key
    is valid is decided by the rebuild, which reports the full path.
    """
    section, dot, leaf = name.partition(".")
    if section in ("levels", "sweep"):
        raise ConfigError(f"{section} cannot be swept: column layout must be stable")
    out = {k: (dict(v) if isinstance(v, dict) else v) for k, v in raw.items()}
    if dot:
        if "." in leaf:
            raise ConfigError(f"{name}: axis paths go at most one level deep")
        if section in _SCALAR_KEYS:
            raise ConfigError(f"{name}: '{section}' takes no fields")
        target = dict(out.get(section, {}))
        target[leaf] = value
        out[section] = target
    else:
        out[name] = value
    return out


def point_seed(master_seed: int, coordinates: dict, replication: int) -> int:
    """Stable per-point seed: master seed, axis names and values, replication."""
    parts: list = []
    for name in sorted(coordinates):
        parts.append(name)
        parts.append(coordinates[name])
    parts.append("rep")
    parts.append(replication)
    return derive_seed(master_seed, *parts)


def sweep_points(cfg: ExperimentConfig):
    """Yield ``(coordinates, point_config)`` over the axis cross product.

    Coordinates map axis names to values in declared axis order; the point
    config is rebuilt from scratch with the overrides applied, so section
    validation runs per point.  A sweep needs at least one axis.
    """
    if not cfg.axes:
        raise ConfigError("sweep: at least one axis is required")
    base = config_to_dict(cfg)
    base.pop("sweep", None)

    def rebuild(coords: dict) -> ExperimentConfig:
        raw = base
        for name, value in coords.items():
            raw = apply_axis_value(raw, name, value)
        return config_from_dict(raw)

    names = [axis.name for axis in cfg.axes]
    for values in itertools.product(*(axis.values for axis in cfg.axes)):
        coords = dict(zip(names, values))
        yield coords, rebuild(coords)
