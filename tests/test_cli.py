"""CLI layer: summary payloads, sweep tables, artifact determinism, exit codes."""
import csv
import json
from dataclasses import fields
from pathlib import Path

import pytest

from resplit import acceptance
from resplit.cli import main, run_single, run_sweep, write_summary, write_sweep_csv
from resplit.config import ConfigError, config_from_dict, point_seed, sweep_points
from resplit.netmodel import simulator_factory
from resplit.policy import run_smc_with_reconfiguration
from resplit.smc import LevelRecord, SmcDiagnostics, SmcReport

# A stressed, short-horizon operating point so every engine finishes in
# milliseconds.  40 steps per path, failures common.
CHEAP_MODEL = {
    "horizon_seconds": 2.0,
    "grace_seconds": 0.25,
    "delay_threshold": 0.02,
    "stress_log_sd": 1.0,
    "stress_log_mean": -3.0,
}
CHEAP_SMC = {
    "success_target": 4,
    "attempt_target": 6,
    "initial_pool": 4,
    "pool_min": 4,
    "pool_max": 40,
    "budget_steps": 20_000,
}

# an smc result's keys: the report's fields and its diagnostics
SMC_KEYS = {f.name for f in fields(SmcReport)} | {"diagnostics"}


def cheap_dict(**extra):
    raw = {"model": dict(CHEAP_MODEL), "smc": dict(CHEAP_SMC),
           "mc": {"budget_steps": 20_000}}
    raw.update(extra)
    return raw


class TestRunSingle:
    def test_smc_payload_shape(self):
        cfg = config_from_dict(cheap_dict(master_seed=11, replications=2))
        payload = run_single(cfg)
        assert set(payload) == {"schema", "config", "replications", "aggregate"}
        assert payload["schema"] == "resplit-summary/4"
        assert payload["config"]["engine"] == "smc"
        assert payload["config"]["master_seed"] == 11
        assert payload["config"]["smc"]["success_target"] == 4
        assert "output_dir" not in payload["config"]
        assert len(payload["replications"]) == 2
        rep0 = payload["replications"][0]
        assert rep0["replication"] == 0
        result = rep0["result"]
        # the report's own fields, each level's without its checkpoints
        assert set(result) == SMC_KEYS
        assert [level["level"] for level in result["levels"]] == [0, 1, 2, 3]
        for level in result["levels"]:
            assert set(level) == {f.name for f in fields(LevelRecord)} - {"checkpoints"}
        # level k's target lives in the config echo
        assert payload["config"]["levels"]["thresholds"][1] == 0.1
        agg = payload["aggregate"]
        assert agg["mean_estimate"] == pytest.approx(
            sum(r["result"]["estimate"] for r in payload["replications"]) / 2
        )
        assert 0.0 <= agg["positive_fraction"] <= 1.0

    def test_diagnostics_are_the_report_fields(self):
        cfg = config_from_dict(cheap_dict(master_seed=11, replications=4))
        results = [r["result"] for r in run_single(cfg)["replications"]]
        defined = [r["diagnostics"] for r in results if r["diagnostics"] is not None]
        assert defined, "no replication completed with a positive estimate"
        for diag in defined:
            assert set(diag) == {f.name for f in fields(SmcDiagnostics)}
        for r in results:
            assert (r["diagnostics"] is None) == (r["estimate"] == 0.0)

    def test_mc_payload_shape(self):
        cfg = config_from_dict(cheap_dict(engine="mc"))
        result = run_single(cfg)["replications"][0]["result"]
        assert set(result) == {
            "estimate", "trajectories", "hits", "cost_steps_used", "rel_var_pred",
        }
        assert result["trajectories"] == 500  # 20k steps / 40-step horizon

    def test_policy_payload_extends_smc(self):
        cfg = config_from_dict(
            cheap_dict(engine="smc+policy",
                       lookahead={"host_level": 2, "continuations": 5})
        )
        result = run_single(cfg)["replications"][0]["result"]
        assert set(result) == SMC_KEYS | {
            "selection_frequencies", "scored_count", "fallback_count", "degenerate_count",
            "inner_cost_steps", "lookahead_steps_by_candidate",
        }
        # every host-level checkpoint is scored or falls back, and every
        # lookahead step lands on a candidate
        assert result["scored_count"] + result["fallback_count"] == \
            result["levels"][1]["successes"]
        assert (result["selection_frequencies"] is None) == (result["scored_count"] == 0)
        assert len(result["lookahead_steps_by_candidate"]) == 5
        assert sum(result["lookahead_steps_by_candidate"]) == result["inner_cost_steps"]

    def test_replication_seeds_are_derived_not_sequential(self):
        cfg = config_from_dict(cheap_dict(replications=2))
        payload = run_single(cfg)
        seeds = [r["seed"] for r in payload["replications"]]
        assert seeds[0] != seeds[1]
        assert seeds != [0, 1]


class TestWriteSummary:
    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = config_from_dict(cheap_dict(master_seed=3))
        a = write_summary(run_single(cfg), tmp_path / "a")
        b = write_summary(run_single(cfg), tmp_path / "b")
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_bytes(self, tmp_path):
        base = cheap_dict()
        a = write_summary(run_single(config_from_dict({**base, "master_seed": 1})),
                          tmp_path / "a")
        b = write_summary(run_single(config_from_dict({**base, "master_seed": 2})),
                          tmp_path / "b")
        assert a.read_bytes() != b.read_bytes()

    def test_valid_sorted_json(self, tmp_path):
        cfg = config_from_dict(cheap_dict())
        path = write_summary(run_single(cfg), tmp_path)
        payload = json.loads(path.read_text())
        assert list(payload) == sorted(payload)


def sweep_cfg(**extra):
    return config_from_dict(
        cheap_dict(
            sweep={"axes": [
                {"name": "engine", "values": ["mc", "smc"]},
                {"name": "model.delay_threshold", "values": [0.02, 0.05]},
            ]},
            **extra,
        )
    )


class TestRunSweep:
    def test_grid_shape_and_axis_columns(self):
        cfg = sweep_cfg(master_seed=7)
        header, rows = run_sweep(cfg)
        assert header[:2] == ["axis:engine", "axis:model.delay_threshold"]
        assert len(header) == len(set(header))  # engine axis must not collide
        assert len(rows) == 4
        assert all(len(r) == len(header) for r in rows)
        combos = [(r[0], r[1]) for r in rows]
        assert combos == [("mc", "0.02"), ("mc", "0.05"),
                          ("smc", "0.02"), ("smc", "0.05")]

    def test_fixed_columns(self):
        header, _ = run_sweep(sweep_cfg())
        stages = [f"{stat}_{k}" for k in range(4)
                  for stat in ("p_hat", "successes", "attempts", "cost_steps", "next_pool_size")]
        assert header == [
            "axis:engine", "axis:model.delay_threshold",
            "replication", "seed", "engine", "estimate", "cost_steps_used",
            "budget_exhausted", "extinction_level",
            "trajectories", "hits", "rel_bias_pred", "rel_var_pred",
            *stages,
        ]

    def test_engine_specific_cells(self):
        header, rows = run_sweep(sweep_cfg())
        col = {name: i for i, name in enumerate(header)}
        for row in rows:
            if row[col["axis:engine"]] == "mc":
                assert row[col["engine"]] == "mc"
                assert row[col["budget_exhausted"]] == ""
                assert row[col["trajectories"]] == "500"
                assert row[col["p_hat_0"]] == ""
            else:
                assert row[col["engine"]] == "smc"
                assert row[col["budget_exhausted"]] in ("true", "false")
                assert row[col["trajectories"]] == ""
                assert row[col["p_hat_0"]] != ""

    def test_seeds_match_point_seed(self):
        cfg = sweep_cfg(master_seed=9, replications=2)
        header, rows = run_sweep(cfg)
        col = {name: i for i, name in enumerate(header)}
        for row in rows:
            coords = {"engine": row[col["axis:engine"]],
                      "model.delay_threshold": float(row[col["axis:model.delay_threshold"]])}
            rep = int(row[col["replication"]])
            assert int(row[col["seed"]]) == point_seed(9, coords, rep)

    def test_policy_columns_padded_to_widest_set(self):
        cfg = config_from_dict(
            cheap_dict(
                engine="smc+policy",
                lookahead={"host_level": 2, "continuations": 5},
                sweep={"axes": [{"name": "policy.size", "values": [1, 3]}]},
            )
        )
        header, rows = run_sweep(cfg)
        col = {name: i for i, name in enumerate(header)}
        assert header[-7:] == ["host_level", "inner_cost_steps", "fallback_count",
                               "degenerate_count", "select_freq_0", "select_freq_1",
                               "select_freq_2"]
        small, large = rows
        assert small[col["host_level"]] == "2"
        assert small[col["select_freq_0"]] == ""  # a singleton set scores nothing
        assert small[col["select_freq_1"]] == ""
        assert large[col["select_freq_2"]] != ""
        assert small[col["inner_cost_steps"]] == "0"
        # a singleton set scores nothing, so every host-level checkpoint falls back
        assert small[col["fallback_count"]] == small[col["successes_1"]]

    def test_selection_shares_are_the_scored_choices(self):
        cfg = config_from_dict(
            cheap_dict(
                engine="smc+policy", master_seed=4, replications=3,
                lookahead={"host_level": 2, "continuations": 5},
                sweep={"axes": [{"name": "policy.size", "values": [3]}]},
            )
        )
        header, rows = run_sweep(cfg)
        col = {name: i for i, name in enumerate(header)}
        (coords, point), = sweep_points(cfg)
        scored = 0
        for rep, row in enumerate(rows):
            report = run_smc_with_reconfiguration(
                simulator_factory(point.model), point.levels, point.smc, point.policy_set(),
                point.lookahead, point_seed(cfg.master_seed, coords, rep),
            )
            chosen = [ev.selected for ev in report.evaluations]
            cells = [row[col[f"select_freq_{i}"]] for i in range(3)]
            if chosen:
                assert cells == [repr(chosen.count(i) / len(chosen)) for i in range(3)]
            else:
                assert cells == ["", "", ""]
            scored += len(chosen)
            # the placeholders of unscored checkpoints are not counted
            assert len(report.selections) > len(chosen)
        assert scored > 0

    def test_swept_replications_set_each_points_rows(self):
        cfg = config_from_dict(
            cheap_dict(sweep={"axes": [{"name": "replications", "values": [1, 3]}]})
        )
        header, rows = run_sweep(cfg)
        col = {name: i for i, name in enumerate(header)}
        assert [(r[col["axis:replications"]], r[col["replication"]]) for r in rows] == [
            ("1", "0"), ("3", "0"), ("3", "1"), ("3", "2"),
        ]

    def test_bad_policy_point_fails_before_any_point_runs(self, monkeypatch):
        ran = []
        monkeypatch.setattr("resplit.cli._execute", lambda cfg, seed: ran.append(seed))
        cfg = config_from_dict(cheap_dict(
            engine="smc+policy",
            sweep={"axes": [{"name": "policy.size", "values": [2, 0]}]},
        ))
        with pytest.raises(ConfigError, match=r"^policy: need at least one candidate"):
            run_sweep(cfg)
        assert ran == []

    def test_unaffordable_mc_point_fails_before_any_point_runs(self, monkeypatch):
        ran = []
        monkeypatch.setattr("resplit.cli._execute", lambda cfg, seed: ran.append(seed))
        # 30 steps buy no 40-step path; the smc point before it never reads mc
        cfg = config_from_dict(cheap_dict(
            mc={"budget_steps": 30},
            sweep={"axes": [{"name": "engine", "values": ["smc", "mc"]}]},
        ))
        with pytest.raises(ConfigError, match=r"^mc\.budget_steps: budget of 30 steps is "
                                              r"below one 40-step trajectory$"):
            run_sweep(cfg)
        assert ran == []

    def test_levels_cannot_be_swept(self):
        cfg = config_from_dict(
            cheap_dict(sweep={"axes": [
                {"name": "levels.thresholds", "values": [[0.0, 1.0]]}
            ]})
        )
        with pytest.raises(ConfigError, match="levels cannot be swept"):
            run_sweep(cfg)

    def test_workers_do_not_change_rows(self):
        cfg = sweep_cfg(master_seed=5)
        header1, rows1 = run_sweep(cfg, workers=1)
        header2, rows2 = run_sweep(cfg, workers=2)
        assert header1 == header2
        assert rows1 == rows2


class TestWriteSweepCsv:
    def test_parses_back_and_repeats_identically(self, tmp_path):
        cfg = sweep_cfg(master_seed=2)
        header, rows = run_sweep(cfg)
        a = write_sweep_csv(header, rows, tmp_path / "a")
        b = write_sweep_csv(header, rows, tmp_path / "b")
        assert a.read_bytes() == b.read_bytes()
        assert b"\r\n" in a.read_bytes()
        with open(a, newline="", encoding="utf-8") as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == header
        assert parsed[1:] == rows


class TestMain:
    def test_run_writes_summary(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cheap_dict()))
        out = tmp_path / "results"
        rc = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        assert (out / "summary.json").exists()
        assert str(out / "summary.json") in capsys.readouterr().out

    def test_run_workers_do_not_change_summary(self, tmp_path):
        cfg_path = tmp_path / "exp.json"
        for engine in ("smc", "mc", "smc+policy"):
            cfg_path.write_text(json.dumps(cheap_dict(engine=engine, replications=3)))
            for workers in ("1", "2"):
                main(["run", "--config", str(cfg_path), "--workers", workers,
                      "--out", str(tmp_path / engine / workers)])
            one, two = (tmp_path / engine / w / "summary.json" for w in ("1", "2"))
            assert one.read_bytes() == two.read_bytes()
            assert len(json.loads(one.read_bytes())["replications"]) == 3

    def test_seed_flag_overrides_master(self, tmp_path):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cheap_dict(master_seed=1)))
        main(["run", "--config", str(cfg_path), "--seed", "42",
              "--out", str(tmp_path / "a")])
        main(["run", "--config", str(cfg_path), "--seed", "42",
              "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "summary.json").read_bytes()
        b = (tmp_path / "b" / "summary.json").read_bytes()
        assert a == b
        assert json.loads(a)["config"]["master_seed"] == 42

    def test_sweep_writes_csv(self, tmp_path):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(
            cheap_dict(sweep={"axes": [
                {"name": "model.delay_threshold", "values": [0.02, 0.05]}
            ]})
        ))
        out = tmp_path / "results"
        rc = main(["sweep", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
            parsed = list(csv.reader(fh))
        assert len(parsed) == 3  # header + 2 points

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text("{broken")
        rc = main(["run", "--config", str(cfg_path)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"modle": {}}))
        rc = main(["run", "--config", str(cfg_path)])
        assert rc == 2
        assert "modle" in capsys.readouterr().err

    def test_retired_inner_budget_steps_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"engine": "smc+policy",
                                        "lookahead": {"inner_budget_steps": 5}}))
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert ("config error: lookahead.inner_budget_steps: unknown key"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("raw, key", [
        ({"smc": {"initial_pool": 20.0}}, "smc.initial_pool"),
        ({"engine": "smc+policy", "policy": {"size": 3.0}}, "policy.size"),
        ({"replications": 1.5}, "replications"),
        ({"smc": {"pool_max": 50.5}}, "smc.pool_max"),
        ({"smc": {"success_target": True}}, "smc.success_target"),
    ])
    def test_non_integer_count_exits_2(self, tmp_path, capsys, raw, key):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(raw))
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"config error: {key}: must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, raw, message", [
        ("run", {"model": {"grace_seconds": True}}, "model.grace_seconds: must be a number"),
        ("run", {"levels": {"thresholds": [False, True]}},
         "levels.thresholds[0]: must be a number"),
        ("run", {"output_dir": 5, "engine": "mc", "mc": {"budget_steps": 2400}},
         "output_dir: must be a string"),
        ("sweep", {"sweep": {"axes": [{"name": "model.delay_threshold", "values": [True]}]}},
         "model.delay_threshold: must be a number"),
        ("sweep", {"sweep": {"axes": [{"name": "model.delay_threshold", "values": "0.1"}]}},
         "sweep.axes[0].values: expected a list"),
        ("run", {"engine": "smc+policy", "policy": {"size": 0}},
         "policy: need at least one candidate"),
        ("run", {"engine": "smc+policy", "lookahead": {"host_level": 4}},
         "lookahead.host_level: 4 needs a later stage"),
        ("policy", {"policy": {"size": 0}}, "policy: need at least one candidate"),
        ("policy", {"lookahead": {"host_level": 4}}, "lookahead.host_level: 4 needs a later stage"),
        ("run", {"levels": {"thresholds": [0.5, 1.0, 2.0]}},
         "levels.thresholds: fresh initial state has coordinate 0.0 below the base threshold 0.5"),
        ("run", {"engine": "smc+policy", "levels": {"thresholds": [0.0, 0.1, 1.0, 3.0]}},
         "levels.thresholds: top threshold 3.0 is above the failure value 2.0"),
        ("run", {"engine": "mc", "mc": {"budget_steps": 100}},
         "mc.budget_steps: budget of 100 steps is below one 1200-step trajectory"),
        ("sweep", {"sweep": {"axes": [{"name": 5, "values": [1]}]}},
         "sweep.axes[0].name: must be a string, got 5"),
        ("sweep", {"sweep": {"axes": [{"name": "sweep.axes", "values": [[]]}]}},
         "sweep cannot be swept"),
        ("run", {"model": {"stress_log_mean": 709.0}},
         "model: log-stress may reach 742.261, where exp overflows past 709.783"),
    ])
    def test_malformed_value_exits_2_before_running(self, tmp_path, monkeypatch, capsys,
                                                    command, raw, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "exp.json").write_text(json.dumps(raw))
        rc = main([command, "--config", "exp.json"])
        assert rc == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, raw, flag", [
        ("run", cheap_dict(), True),
        ("run", cheap_dict(), False),
        ("sweep", cheap_dict(sweep={"axes": [{"name": "engine", "values": ["mc", "smc"]}]}), True),
        ("policy", cheap_dict(), True),
        ("verify", None, True),
    ], ids=["run-out", "run-output_dir", "sweep-out", "policy-out", "verify-out"])
    def test_unusable_output_dir_exits_2_before_running(self, tmp_path, monkeypatch, capsys,
                                                        command, raw, flag):
        def never(*args):
            raise AssertionError("an engine ran before the output directory was made")

        monkeypatch.setattr("resplit.cli._execute", never)  # every run goes through it
        monkeypatch.setattr(acceptance, "CHECKS", (acceptance.Check(10, "check 10", True, never),))
        (tmp_path / "afile").write_text("")  # a regular file where a directory must go
        out = tmp_path / "afile" / "x"
        if raw is None:
            # verify takes no config; its checks write under <out>/verify
            rc, made = main([command, "--quick", "--out", str(out)]), out / "verify"
        else:
            if not flag:
                raw = {**raw, "output_dir": str(out)}
            (tmp_path / "exp.json").write_text(json.dumps(raw))
            argv = [command, "--config", str(tmp_path / "exp.json")]
            rc, made = main(argv + ["--out", str(out)] if flag else argv), out
        assert rc == 2
        assert (f"config error: output_dir: cannot create '{made}': Not a directory"
                in capsys.readouterr().err)

    def test_verify_runs_each_check_in_its_work_dir(self, tmp_path, monkeypatch, capsys):
        seen = []

        def instant(number, quick, passed):
            def fn(work):
                seen.append(work)
                return passed, "detail"
            return acceptance.Check(number, f"check {number}", quick, fn)

        for passed, code, verdict in ((True, 0, "PASS"), (False, 1, "FAIL")):
            monkeypatch.setattr(acceptance, "CHECKS",
                                (instant(1, True, passed), instant(3, False, passed)))
            seen.clear()
            assert main(["verify", "--out", str(tmp_path)]) == code
            assert seen == [tmp_path / "verify" / "1", tmp_path / "verify" / "3"]
            lines = capsys.readouterr().out.splitlines()
            assert [line.split(" time=")[0] for line in lines] == [
                f" 1 {verdict}  check 1: detail", f" 3 {verdict}  check 3: detail"]

            seen.clear()
            monkeypatch.chdir(tmp_path)
            assert main(["verify", "--quick"]) == code
            assert seen == [Path("out") / "verify" / "1"]
            lines = capsys.readouterr().out.splitlines()
            assert lines[0].startswith(f" 1 {verdict}  check 1: detail time=")
            assert lines[1] == " 3 SKIP  check 3"

    @pytest.mark.parametrize("flag", [["--seed", "5"], ["--config", "exp.json"]])
    def test_verify_takes_no_seed_or_config(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--quick", *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "policy", "run"])
    @pytest.mark.parametrize("workers", ["0", "-3", "2.5"])
    def test_workers_below_one_rejected(self, capsys, command, workers):
        with pytest.raises(SystemExit) as exc:
            main([command, f"--workers={workers}"])
        assert exc.value.code == 2
        assert "--workers: must be an integer >= 1" in capsys.readouterr().err
