"""Config schema: defaults, strict loading, overrides, per-point seeds."""
import json
import math
from dataclasses import fields, replace

import pytest

from resplit.config import (
    ConfigError,
    ExperimentConfig,
    PolicyStudy,
    SweepAxis,
    apply_axis_value,
    config_from_dict,
    config_to_dict,
    load_config,
    point_seed,
    sweep_points,
)
from resplit.netmodel import NetParams
from resplit.smc import SmcConfig

_FLOAT_FIELDS = [
    (section, f.name)
    for section, cls in (("model", NetParams), ("smc", SmcConfig), ("policy", PolicyStudy))
    for f in fields(cls)
    if "float" in f.type
]


class TestDefaults:
    def test_documented_operating_point(self):
        cfg = ExperimentConfig()
        assert cfg.engine == "smc"
        assert cfg.model == NetParams()
        assert cfg.levels.thresholds == (0.0, 0.1, 1.0, 1.5, 2.0)
        assert cfg.smc.budget_steps == 5_000_000
        assert cfg.mc.budget_steps == 5_000_000
        assert cfg.policy == PolicyStudy(size=5, increment_fraction=0.5, cost_scale=0.5)
        assert cfg.lookahead.host_level == 2
        assert cfg.lookahead.continuations == 25
        assert cfg.replications == 1
        assert cfg.axes == ()

    def test_empty_dict_gives_defaults(self):
        assert config_from_dict({}) == ExperimentConfig()

    def test_policy_set_anchors_at_model_baseline(self):
        cfg = ExperimentConfig()
        ps = cfg.policy_set()
        assert ps.base_rate == cfg.model.recovery_rate
        assert ps.size == 5


class TestStrictLoading:
    def test_roundtrip_through_dict(self):
        cfg = config_from_dict(
            {
                "engine": "mc",
                "master_seed": 17,
                "replications": 3,
                "model": {"arrival_load": 0.6, "stress_log_sd": 0.8},
                "levels": {"thresholds": [0.0, 0.5, 1.0], "labels": ["a", "b", "c"]},
                "mc": {"budget_steps": 60_000},
                "sweep": {"axes": [{"name": "model.delay_threshold",
                                    "values": [0.1, 0.2]}]},
            }
        )
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="engnie"):
            config_from_dict({"engnie": "smc"})

    def test_unknown_section_key_reports_path(self):
        with pytest.raises(ConfigError, match=r"model\.arrival_lod"):
            config_from_dict({"model": {"arrival_lod": 0.5}})
        with pytest.raises(ConfigError, match=r"smc\.succes_target"):
            config_from_dict({"smc": {"succes_target": 10}})

    def test_retired_batch_size_rejected(self):
        with pytest.raises(ConfigError, match=r"smc\.batch_size: unknown key"):
            config_from_dict({"smc": {"batch_size": 1}})

    def test_retired_mc_trajectories_rejected(self):
        # a count N is the budget N * horizon, so the budget is the only knob
        with pytest.raises(ConfigError,
                           match=r"^mc\.trajectories: unknown key \(allowed: budget_steps\)$"):
            config_from_dict({"mc": {"trajectories": 100}})
        with pytest.raises(ConfigError, match=r"^mc\.trajectories: unknown key"):
            config_from_dict({"mc": {"trajectories": 100, "budget_steps": 1000}})

    def test_retired_inner_budget_steps_rejected(self):
        # the lookahead runs uncapped, so its budget is no longer a knob
        with pytest.raises(ConfigError, match=r"^lookahead\.inner_budget_steps: unknown key "
                                              r"\(allowed: continuations, host_level\)$"):
            config_from_dict({"lookahead": {"inner_budget_steps": 5}})
        with pytest.raises(ConfigError, match=r"^lookahead\.inner_budget_steps: unknown key"):
            config_from_dict({"lookahead": {"inner_budget_steps": None, "host_level": 2}})

    @pytest.mark.parametrize("key", ["safety_factor", "prob_floor"])
    def test_retired_pool_sizing_constants_rejected(self, key):
        # next_pool_size reads them as the constants smc.SAFETY_FACTOR and PROB_FLOOR
        with pytest.raises(ConfigError, match=rf"^smc\.{key}: unknown key \(allowed: "):
            config_from_dict({"smc": {key: 1.5}})

    def test_retired_depth_rejected(self):
        with pytest.raises(ConfigError, match=r"lookahead\.depth: unknown key"):
            config_from_dict({"lookahead": {"depth": 3}})

    def test_output_dir_must_be_a_string(self):
        with pytest.raises(ConfigError, match=r"^output_dir: must be a string, got 5$"):
            config_from_dict({"output_dir": 5, "engine": "mc", "mc": {"budget_steps": 2400}})
        assert config_from_dict({"output_dir": None}).output_dir is None
        assert config_from_dict({"output_dir": "res"}).output_dir == "res"

    def test_axis_values_must_be_a_list(self):
        with pytest.raises(ConfigError, match=r"^sweep\.axes\[0\]\.values: expected a list$"):
            config_from_dict({"sweep": {"axes": [{"name": "model.delay_threshold",
                                                  "values": "0.1"}]}})

    def test_invalid_value_cites_constraint_and_path(self):
        with pytest.raises(ConfigError, match=r"model.*arrival_load.*\(0, 1\)"):
            config_from_dict({"model": {"arrival_load": 1.2}})

    def test_grace_window_longer_than_the_horizon(self):
        with pytest.raises(ConfigError, match=r"^model: grace window of 1220 steps is longer"
                                              r" than the 1200-step horizon$"):
            config_from_dict({"model": {"grace_seconds": 61.0}})
        assert config_from_dict({"model": {"grace_seconds": 60.0}}).model.grace_steps == 1200
        # a sweep point that shortens the horizon under the window fails the same way
        cfg = config_from_dict({"sweep": {"axes": [{"name": "model.horizon_seconds",
                                                    "values": [60.0, 2.0]}]}})
        points = sweep_points(cfg)
        next(points)
        with pytest.raises(ConfigError, match=r"^model: grace window of 100 steps .* 40-step"):
            next(points)

    def test_engine_must_be_known(self):
        with pytest.raises(ConfigError, match="engine"):
            config_from_dict({"engine": "exact"})

    def test_replications_positive(self):
        with pytest.raises(ConfigError, match="replications"):
            config_from_dict({"replications": 0})

    def test_levels_need_thresholds(self):
        with pytest.raises(ConfigError, match=r"levels\.thresholds"):
            config_from_dict({"levels": {"labels": ["a"]}})

    def test_missing_required_field_named(self):
        with pytest.raises(ConfigError, match=r"^levels\.thresholds: required$"):
            config_from_dict({"levels": {}})

    def test_bad_schedule_wrapped_with_path(self):
        with pytest.raises(ConfigError, match="levels"):
            config_from_dict({"levels": {"thresholds": [1.0, 0.5]}})

    def test_axis_validation(self):
        with pytest.raises(ConfigError, match="empty"):
            config_from_dict({"sweep": {"axes": [{"name": "engine", "values": []}]}})
        with pytest.raises(ConfigError, match="overlap"):
            config_from_dict(
                {"sweep": {"axes": [
                    {"name": "engine", "values": ["mc"]},
                    {"name": "engine", "values": ["smc"]},
                ]}}
            )
        with pytest.raises(ConfigError, match="at most 2"):
            config_from_dict(
                {"sweep": {"axes": [
                    {"name": "a", "values": [1]},
                    {"name": "b", "values": [1]},
                    {"name": "c", "values": [1]},
                ]}}
            )
        with pytest.raises(ConfigError, match=r"axes\[0\]"):
            config_from_dict({"sweep": {"axes": [{"nmae": "x", "values": [1]}]}})


class TestPolicyEngineChecks:
    """Where the policy layer runs, its candidate set and host level are checked at load."""

    @pytest.mark.parametrize("raw, message", [
        ({"policy": {"size": 0}}, r"^policy: need at least one candidate, got size 0$"),
        ({"model": {"recovery_rate": 10}},
         r"^policy: strongest candidate rate 30\.0 violates stability for step 0\.05 s$"),
        ({"lookahead": {"host_level": 4}},
         r"^lookahead\.host_level: 4 needs a later stage; levels give stages 0\.\.3$"),
    ])
    def test_rejected_with_its_path(self, raw, message):
        with pytest.raises(ConfigError, match=message):
            config_from_dict({"engine": "smc+policy", **raw})

    @pytest.mark.parametrize("engine", ["smc", "mc"])
    def test_plain_engines_ignore_the_unused_policy_set(self, engine):
        # five candidates from rate 10 would break the one-step stability bound
        cfg = config_from_dict({"engine": engine, "model": {"recovery_rate": 10},
                                "policy": {"size": 0}, "lookahead": {"host_level": 4}})
        assert cfg.model.recovery_rate == 10
        with pytest.raises(ConfigError, match=r"^policy: "):
            replace(cfg, engine="smc+policy")


class TestLevelsAgainstModel:
    """Splitting engines check their levels against the model's coordinate at load."""

    @pytest.mark.parametrize("engine", ["smc", "smc+policy"])
    @pytest.mark.parametrize("thresholds, message", [
        ([0.5, 1.0, 2.0], r"^levels\.thresholds: fresh initial state has coordinate 0\.0 "
                          r"below the base threshold 0\.5$"),
        ([0.0, 0.1, 1.0, 3.0], r"^levels\.thresholds: top threshold 3\.0 is above the "
                               r"failure value 2\.0, "),
    ])
    def test_rejected_with_its_path(self, engine, thresholds, message):
        with pytest.raises(ConfigError, match=message):
            config_from_dict({"engine": engine, "levels": {"thresholds": thresholds}})

    def test_mc_ignores_the_unused_levels(self):
        cfg = config_from_dict({"engine": "mc", "levels": {"thresholds": [0.5, 1.0, 3.0]}})
        assert cfg.levels.thresholds == (0.5, 1.0, 3.0)
        with pytest.raises(ConfigError, match=r"^levels\.thresholds: "):
            replace(cfg, engine="smc")

    def test_checked_against_each_sweep_point(self):
        # a backlog of 0.05 starts the coordinate at 0.5 / capacity(0.95) = 0.69,
        # and an empty queue at 0.0, below the base threshold
        cfg = config_from_dict({"model": {"initial_backlog": 0.05},
                                "levels": {"thresholds": [0.5, 1.0, 2.0]},
                                "sweep": {"axes": [{"name": "model.initial_backlog",
                                                    "values": [0.05, 0.0]}]}})
        points = sweep_points(cfg)
        next(points)
        with pytest.raises(ConfigError, match=r"^levels\.thresholds: fresh initial state "):
            next(points)


class TestNonFinite:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("section, name", [
        *_FLOAT_FIELDS, ("lookahead", "continuations"), ("smc", "budget_steps"),
    ])
    def test_field_rejected_with_its_path(self, section, name, value):
        raw = json.loads(json.dumps({section: {name: value}}))  # a bare NaN, as json reads it
        with pytest.raises(ConfigError, match=rf"^{section}\.{name}: must be finite"):
            config_from_dict(raw)

    def test_list_entry_and_step_count_overflow(self):
        with pytest.raises(ConfigError, match=r"^sweep\.axes\[0\]\.values\[1\]: must be"):
            config_from_dict({"sweep": {"axes": [{"name": "engine", "values": [1, math.nan]}]}})
        with pytest.raises(ConfigError, match="^model: horizon_seconds / step_seconds "):
            config_from_dict({"model": {"horizon_seconds": 1e308, "step_seconds": 1e-10}})
        with pytest.raises(ConfigError, match="^model: grace_seconds / step_seconds "):
            config_from_dict({"model": {"grace_seconds": 1e308, "step_seconds": 1e-10,
                                        "horizon_seconds": 1.0}})


class TestIntegerFields:
    @pytest.mark.parametrize("raw, key", [
        ({"smc": {"initial_pool": 20.0}}, "smc.initial_pool"),
        ({"engine": "smc+policy", "policy": {"size": 3.0}}, "policy.size"),
        ({"replications": 1.5}, "replications"),
        ({"smc": {"pool_max": 50.5}}, "smc.pool_max"),
        ({"smc": {"success_target": True}}, "smc.success_target"),
        ({"master_seed": "3"}, "master_seed"),
        ({"lookahead": {"continuations": 3.0}}, "lookahead.continuations"),
        ({"mc": {"budget_steps": 10.0}}, "mc.budget_steps"),
        ({"smc": {"budget_steps": None}}, "smc.budget_steps"),
        ({"mc": {"budget_steps": None}}, "mc.budget_steps"),
    ])
    def test_non_integer_rejected_with_its_path(self, raw, key):
        with pytest.raises(ConfigError, match=rf"^{key}: must be an integer"):
            config_from_dict(raw)

    def test_null_allowed_where_optional(self):
        cfg = config_from_dict({"model": {"initial_log_stress": None}})
        assert cfg.model.initial_log_stress is None


class TestNumberFields:
    @pytest.mark.parametrize("value", [True, False, "0.5"])
    @pytest.mark.parametrize("section, name", _FLOAT_FIELDS)
    def test_non_number_rejected_with_its_path(self, section, name, value):
        with pytest.raises(ConfigError, match=rf"^{section}\.{name}: must be a number, got "):
            config_from_dict({section: {name: value}})

    def test_integer_and_null_accepted_where_allowed(self):
        cfg = config_from_dict({"model": {"grace_seconds": 2, "initial_log_stress": None}})
        assert cfg.model.grace_seconds == 2 and cfg.model.initial_log_stress is None

    def test_threshold_entries_must_be_numbers(self):
        with pytest.raises(ConfigError, match=r"^levels\.thresholds\[0\]: must be a number"):
            config_from_dict({"levels": {"thresholds": [False, True]}})
        with pytest.raises(ConfigError, match=r"^levels\.thresholds: expected a list$"):
            config_from_dict({"levels": {"thresholds": "01"}})

    def test_labels_must_be_a_list_of_strings(self):
        with pytest.raises(ConfigError, match=r"^levels\.labels: expected a list$"):
            config_from_dict({"levels": {"thresholds": [0, 1, 2], "labels": "abc"}})
        with pytest.raises(ConfigError, match=r"^levels\.labels\[0\]: must be a string, got 1$"):
            config_from_dict({"levels": {"thresholds": [0, 1, 2], "labels": [1, True, None]}})
        cfg = config_from_dict({"levels": {"thresholds": [0, 1], "labels": ["a", "b"]}})
        assert cfg.levels.labels == ("a", "b")

    def test_swept_boolean_rejected_at_its_point(self):
        cfg = config_from_dict({"sweep": {"axes": [{"name": "model.delay_threshold",
                                                    "values": [0.1, True]}]}})
        points = sweep_points(cfg)
        next(points)
        with pytest.raises(ConfigError, match=r"^model\.delay_threshold: must be a number"):
            next(points)


class TestLoadFile:
    def test_valid_file(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"engine": "mc", "master_seed": 5}))
        cfg = load_config(path)
        assert cfg.engine == "mc"
        assert cfg.master_seed == 5

    def test_bad_json(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.json")


class TestOverrides:
    def test_section_leaf(self):
        raw = {"model": {"arrival_load": 0.6}}
        out = apply_axis_value(raw, "model.delay_threshold", 0.2)
        assert out["model"] == {"arrival_load": 0.6, "delay_threshold": 0.2}
        assert raw == {"model": {"arrival_load": 0.6}}  # input untouched

    def test_top_level(self):
        out = apply_axis_value({}, "engine", "mc")
        assert out == {"engine": "mc"}

    def test_deep_paths_rejected(self):
        with pytest.raises(ConfigError, match="one level deep"):
            apply_axis_value({}, "model.sub.field", 1)

    @pytest.mark.parametrize("name", ["levels", "levels.thresholds", "sweep", "sweep.axes"])
    def test_levels_and_sweep_paths_rejected(self, name):
        section = name.partition(".")[0]
        with pytest.raises(ConfigError, match=rf"^{section} cannot be swept: "):
            apply_axis_value({}, name, [])
        cfg = config_from_dict({"sweep": {"axes": [{"name": name, "values": [[]]}]}})
        with pytest.raises(ConfigError, match="cannot be swept"):
            list(sweep_points(cfg))

    @pytest.mark.parametrize("key", ["engine", "master_seed", "replications", "output_dir"])
    def test_path_through_a_scalar_key_rejected(self, key):
        for raw in ({}, config_to_dict(ExperimentConfig())):
            with pytest.raises(ConfigError, match=rf"^{key}\.x: '{key}' takes no fields$"):
                apply_axis_value(raw, f"{key}.x", 1)
        cfg = config_from_dict({"sweep": {"axes": [{"name": f"{key}.x", "values": [1]}]}})
        with pytest.raises(ConfigError, match="takes no fields"):
            list(sweep_points(cfg))

    def test_bogus_path_caught_at_rebuild(self):
        out = apply_axis_value({}, "model.not_a_field", 1)
        with pytest.raises(ConfigError, match=r"model\.not_a_field"):
            config_from_dict(out)


class TestPointSeeds:
    def test_deterministic_and_distinct(self):
        a = point_seed(1, {"model.delay_threshold": 0.1}, 0)
        assert a == point_seed(1, {"model.delay_threshold": 0.1}, 0)
        assert a != point_seed(1, {"model.delay_threshold": 0.2}, 0)
        assert a != point_seed(1, {"model.delay_threshold": 0.1}, 1)
        assert a != point_seed(2, {"model.delay_threshold": 0.1}, 0)

    def test_axis_declaration_order_irrelevant(self):
        ab = point_seed(1, {"a": 1, "b": 2}, 0)
        ba = point_seed(1, {"b": 2, "a": 1}, 0)
        assert ab == ba


class TestSweepPoints:
    def test_single_axis_order_and_overrides(self):
        cfg = config_from_dict(
            {"sweep": {"axes": [{"name": "model.delay_threshold",
                                 "values": [0.1, 0.2, 0.3]}]}}
        )
        points = list(sweep_points(cfg))
        assert [c["model.delay_threshold"] for c, _ in points] == [0.1, 0.2, 0.3]
        assert [p.model.delay_threshold for _, p in points] == [0.1, 0.2, 0.3]

    def test_cross_product_grid_order(self):
        cfg = config_from_dict(
            {"sweep": {"axes": [
                {"name": "engine", "values": ["mc", "smc"]},
                {"name": "model.arrival_load", "values": [0.6, 0.7]},
            ]}}
        )
        points = list(sweep_points(cfg))
        combos = [(c["engine"], c["model.arrival_load"]) for c, _ in points]
        assert combos == [("mc", 0.6), ("mc", 0.7), ("smc", 0.6), ("smc", 0.7)]
        assert [p.engine for _, p in points] == ["mc", "mc", "smc", "smc"]

    def test_invalid_point_value_raises_on_iteration(self):
        cfg = config_from_dict(
            {"sweep": {"axes": [{"name": "model.arrival_load",
                                 "values": [0.6, 1.2]}]}}
        )
        gen = sweep_points(cfg)
        next(gen)
        with pytest.raises(ConfigError, match="arrival_load"):
            next(gen)

    def test_needs_axes(self):
        with pytest.raises(ConfigError, match="at least one axis"):
            list(sweep_points(ExperimentConfig()))

    def test_policy_size_axis(self):
        cfg = config_from_dict(
            {"engine": "smc+policy",
             "sweep": {"axes": [{"name": "policy.size", "values": [1, 5]}]}}
        )
        sizes = [p.policy.size for _, p in sweep_points(cfg)]
        assert sizes == [1, 5]


class TestSweepAxisType:
    def test_validates(self):
        with pytest.raises(ValueError):
            SweepAxis("", (1,))
        with pytest.raises(ValueError):
            SweepAxis("x", ())
