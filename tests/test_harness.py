"""Tests for configuration handling, search baselines, sweeps and the CLI.

Search tests run on the scalar (one antenna / one element / one pair) scene
with a lowered harvest threshold so feasible points exist at bench scale; the
analytic time-split case cross-checks the grid oracle against a closed form.
"""

import csv
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from srnoma import harness
from srnoma.agents import ALGORITHMS, build_agent, train
from srnoma.agents.common import EpisodeStats, rollout
from srnoma.cli import main
from srnoma.env import SrEnv
from srnoma.harness import (
    GridCapError,
    config_hash,
    default_config,
    dump_config,
    env_from,
    evaluate_decision,
    evaluate_policy,
    grid_oracle,
    load_config,
    random_search,
    report,
    sweep,
    system_from,
)
from srnoma.network import (ChannelRealization, SystemConfig, draw_realization, make_placement,
                             next_seed, philox)
from srnoma.ris import ACTIVE, PASSIVE


def scalar_cfg(**over):
    base = dict(
        n_bs_antennas=1,
        n_ris_elements=1,
        n_pairs=1,
        harvest_threshold_joules=1e-15,
    )
    base.update(over)
    return SystemConfig(**base)


def scalar_channels(h3=0.0):
    one = np.ones((1, 1), dtype=complex)
    return ChannelRealization(
        one.copy(), one.copy(), one.copy(),
        np.full((1, 1), h3, dtype=complex), one.copy(), one.copy(), seed=0,
    )


def tiny_yaml(tmp_path, **patches):
    """Write a bench-scale YAML run configuration and return its path."""
    content = {
        "system": {
            "n_bs_antennas": 1,
            "n_ris_elements": 1,
            "n_pairs": 1,
            "harvest_threshold_joules": 1e-15,
        },
        "env": {"episode_steps": 4, "rate_cap": 2.0, "normalize_obs": False},
        "run": {"episodes": 2, "seeds": [0], "algo": "ppo"},
        "agents": {"ppo": {"hidden": [8], "minibatch": 4}},
        "sweep": {"values": [4.0, 8.0], "budget": 20, "n_channels": 1},
    }
    for section, body in patches.items():
        content.setdefault(section, {}).update(body)
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(content))
    return str(path)


# ===========================================================================
# configuration
# ===========================================================================


class TestConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert load_config(path) == default_config()

    def test_shipped_default_file_spells_out_the_default_config(self):
        path = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"
        assert load_config(path) == default_config()
        # every key is written in the file, none filled in from the defaults
        assert yaml.safe_load(path.read_text()) == default_config()

    def test_dump_and_load_round_trip(self, tmp_path):
        path = tmp_path / "full.yaml"
        dump_config(default_config(), path)
        assert load_config(path) == default_config()

    def test_partial_override_keeps_other_defaults(self, tmp_path):
        path = tmp_path / "patch.yaml"
        path.write_text(yaml.safe_dump({"agents": {"ppo": {"minibatch": 8}}}))
        config = load_config(path)
        assert config["agents"]["ppo"]["minibatch"] == 8
        assert config["agents"]["ppo"]["clip"] == 0.2
        assert config["agents"]["td3"]["minibatch"] == 64

    def test_dbm_alias_converts_to_watts(self, tmp_path):
        path = tmp_path / "dbm.yaml"
        path.write_text(yaml.safe_dump({"system": {"noise_bs_dbm": -90}}))
        config = load_config(path)
        assert math.isclose(config["system"]["noise_bs_watts"], 1e-12, rel_tol=1e-12)
        assert "noise_bs_dbm" not in config["system"]
        for end in (-3000, 3000):
            path.write_text(yaml.safe_dump({"system": {"noise_bs_dbm": end}}))
            watts = load_config(path)["system"]["noise_bs_watts"]
            assert math.isfinite(watts) and watts >= np.finfo(float).tiny

    @pytest.mark.parametrize("alias, value", [("noise_bs_dbm", [1]), ("noise_bs_dbm", "abc"),
                                              ("noise_asris_dbm", math.nan),
                                              ("noise_sue_dbm", math.inf), ("noise_bs_dbm", None),
                                              ("noise_bs_dbm", 4000.0), ("noise_bs_dbm", -4000.0),
                                              ("noise_sue_dbm", True)])
    def test_dbm_alias_must_be_a_finite_real(self, tmp_path, alias, value):
        # within [-3000, 3000] dBm the level in watts is a positive, finite,
        # normal float64
        path = tmp_path / "dbm.yaml"
        path.write_text(yaml.safe_dump({"system": {alias: value}}))
        with pytest.raises(ValueError, match=re.escape(f"system.{alias} must be in [-3000, 3000]")):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({"system": {"n_bs_antenas": 4}}))
        with pytest.raises(ValueError, match="n_bs_antenas"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad2.yaml"
        path.write_text(yaml.safe_dump({"network": {"x": 1}}))
        with pytest.raises(ValueError, match="network"):
            load_config(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "nothing.yaml")

    def test_top_level_must_be_a_mapping(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- system\n- env\n")
        with pytest.raises(ValueError, match="mapping of sections"):
            load_config(path)

    def test_hash_is_stable_and_sensitive(self):
        a = default_config()
        b = default_config()
        assert config_hash(a) == config_hash(b)
        assert len(config_hash(a)) == 12
        b["system"]["p_bs_max_watts"] = 19.0
        assert config_hash(a) != config_hash(b)

    def test_reference_hyperparameters_survive_the_round_trip(self, tmp_path):
        path = tmp_path / "ref.yaml"
        dump_config(default_config(), path)
        agents = load_config(path)["agents"]
        assert agents["ppo"]["hidden"] == [128, 128]
        assert agents["ppo"]["minibatch"] == 32
        assert agents["td3"]["hidden"] == [400, 300]
        assert agents["td3"]["minibatch"] == 64
        assert agents["a3c"]["hidden"] == [128, 128]
        assert agents["a3c"]["minibatch"] == 64
        for algo in ("ppo", "td3", "a3c"):
            assert agents[algo]["actor_lr"] == 0.0001
            assert agents[algo]["critic_lr"] == 0.001
            assert agents[algo]["target_update"] == 0.0005
            assert agents[algo]["discount"] == 0.99
            assert agents[algo]["episodes"] == 30000
            assert agents[algo]["steps"] == 200
        assert agents["ppo"]["entropy_coef"] == 0.01
        assert agents["a3c"]["entropy_coef"] == 0.01
        assert agents["a3c"]["workers"] == 3

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_agent_section_holds_the_constructor_defaults(self, algo):
        bare = build_agent(algo, 6, 5, None, 7).state_dict()
        configured = build_agent(algo, 6, 5, default_config()["agents"][algo], 7).state_dict()
        assert sorted(bare) == sorted(configured)
        for key, array in bare.items():
            assert array.dtype == configured[key].dtype, key
            assert array.tobytes() == configured[key].tobytes(), key

    def test_env_section_holds_the_constructor_defaults(self):
        # only normalize_obs differs from SrEnv's own default
        configured = env_from(default_config())
        assert vars(configured) == vars(SrEnv(SystemConfig(), normalize_obs=True))
        assert configured.normalize_obs and not SrEnv(SystemConfig()).normalize_obs

    def test_env_from_builds_working_env(self, tmp_path):
        config = load_config(tiny_yaml(tmp_path))
        env = env_from(config)
        assert isinstance(env, SrEnv)
        assert env.episode_steps == 4
        assert env.ris_mode == ACTIVE
        passive = env_from(config, ris_mode=PASSIVE)
        assert passive.ris_mode == PASSIVE

    def test_system_from_rejects_bad_values(self, tmp_path):
        config = default_config()
        config["system"]["n_bs_antennas"] = 0
        with pytest.raises(ValueError):
            system_from(config)


# ===========================================================================
# search baselines
# ===========================================================================


class TestRandomSearch:
    def test_finds_feasible_points_on_the_scalar_scene(self):
        cfg = scalar_cfg()
        ch = draw_realization(cfg, make_placement(cfg, seed=0), seed=0)
        result = random_search(cfg, ch, ACTIVE, budget=300, seed=0)
        assert result.feasible, "300 uniform draws must hit a feasible point"
        assert result.feasible_count > 0
        assert result.evaluated == 300
        assert result.objective > 0.0
        assert not math.isnan(result.sum_rate)

    def test_bigger_budget_never_hurts(self):
        # sequential sampling: budget 400 evaluates a superset of budget 200
        cfg = scalar_cfg()
        ch = draw_realization(cfg, make_placement(cfg, seed=1), seed=1)
        small = random_search(cfg, ch, ACTIVE, budget=200, seed=5)
        large = random_search(cfg, ch, ACTIVE, budget=400, seed=5)
        assert large.objective >= small.objective
        assert large.feasible_count >= small.feasible_count

    def test_same_seed_reproduces(self):
        cfg = scalar_cfg()
        ch = draw_realization(cfg, make_placement(cfg, seed=2), seed=2)
        a = random_search(cfg, ch, ACTIVE, budget=100, seed=9)
        b = random_search(cfg, ch, ACTIVE, budget=100, seed=9)
        assert a.objective == b.objective
        assert a.feasible_count == b.feasible_count
        c = random_search(cfg, ch, ACTIVE, budget=np.int64(100), seed=9)
        assert (c.objective, c.feasible_count, c.evaluated) == (a.objective, a.feasible_count, 100)

    @pytest.mark.parametrize("field, value", [
        ("budget", 0), ("budget", -5), ("budget", 2.5), ("budget", math.inf), ("budget", True),
        ("seed", -1), ("seed", 2.5), ("seed", True),
    ])
    def test_budgets_below_one_and_seeds_below_zero_are_rejected(self, field, value):
        cfg = scalar_cfg()
        ch = draw_realization(cfg, make_placement(cfg, seed=2), seed=2)
        with pytest.raises(ValueError, match=field):
            random_search(cfg, ch, ACTIVE, **{"budget": 10, "seed": 9, field: value})

    def test_evaluate_decision_feasibility_ignores_target_families(self):
        # the achieved min rate is substituted as the target, so only the
        # structural constraint families can fail
        cfg = scalar_cfg()
        ch = scalar_channels()
        result = random_search(cfg, ch, ACTIVE, budget=50, seed=3)
        assert result.feasible
        min_rate, sum_rate, feasible = evaluate_decision(cfg, ch, result.decision)
        assert feasible
        assert math.isclose(min_rate, result.objective, rel_tol=1e-12)


class TestGridOracle:
    def test_rejects_non_scalar_scenes(self):
        cfg = SystemConfig(n_bs_antennas=2, n_ris_elements=1, n_pairs=1)
        with pytest.raises(ValueError):
            grid_oracle(cfg, scalar_channels(), ACTIVE, resolution=2)

    def test_rejects_oversized_grids(self):
        with pytest.raises(GridCapError):
            grid_oracle(scalar_cfg(), scalar_channels(), ACTIVE, resolution=20)

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError, match="axis"):
            grid_oracle(
                scalar_cfg(), scalar_channels(), ACTIVE, resolution=2,
                grids={"bandwidth": [1.0]},
            )

    @pytest.mark.parametrize("resolution", [0, -1, 2.5, math.inf, True])
    def test_resolutions_below_one_are_rejected(self, resolution):
        with pytest.raises(ValueError, match="resolution"):
            grid_oracle(scalar_cfg(), scalar_channels(), ACTIVE, resolution=resolution)

    def test_numpy_integer_resolutions_search_the_same_grid(self):
        cfg = scalar_cfg()
        ch = draw_realization(cfg, make_placement(cfg, seed=3), seed=3)
        a = grid_oracle(cfg, ch, ACTIVE, resolution=3)
        b = grid_oracle(cfg, ch, ACTIVE, resolution=np.int64(3))
        assert (a.objective, a.feasible_count, a.evaluated) == (
            b.objective, b.feasible_count, b.evaluated)

    def test_an_axis_override_with_no_values_is_rejected(self):
        with pytest.raises(ValueError, match="tau"):
            grid_oracle(scalar_cfg(), scalar_channels(), ACTIVE, resolution=2, grids={"tau": []})

    def test_refinement_never_lowers_the_optimum(self):
        # linspace(0, x, 2k+1) nests, so finer grids search supersets; the
        # remaining axes are pinned to keep the grids small
        cfg = scalar_cfg()
        ch = draw_realization(cfg, make_placement(cfg, seed=3), seed=3)
        pinned = {"eta": [0.5], "beta_t": [2.5], "theta_t": [0.0], "theta_r": [0.0]}
        objectives = []
        counts = []
        for res in (3, 5, 9):
            grids = dict(pinned)
            grids["tau"] = np.linspace(0.0, 1.0, res)
            grids["power"] = np.linspace(0.0, cfg.p_bs_max_watts, res)
            grids["beta_r"] = np.linspace(0.0, cfg.p_asris_watts / 2.0, res)
            result = grid_oracle(cfg, ch, ACTIVE, grids=grids)
            objectives.append(result.objective)
            counts.append(result.feasible_count)
        assert objectives[0] <= objectives[1] <= objectives[2], objectives
        assert counts[0] <= counts[1] <= counts[2]

    def test_matches_closed_form_time_split(self):
        # with unit channels, eta = P = 1 and the surface pinned to identity,
        # the worst rate is min(a tau, 1 - tau) with a = log2(51)/100; the
        # optimum over a tau grid has the closed form max min(a tau, 1 - tau)
        cfg = scalar_cfg(
            noise_bs_watts=2.0,
            noise_asris_watts=1e-30,
            noise_sue_watts=1.0,
            harvest_threshold_joules=0.0,
        )
        taus = np.linspace(0.0, 1.0, 1001)
        result = grid_oracle(
            cfg, scalar_channels(), ACTIVE,
            grids={
                "eta": [1.0], "power": [1.0], "beta_t": [1.0], "beta_r": [1.0],
                "theta_t": [0.0], "theta_r": [0.0], "tau": taus,
            },
        )
        a = math.log2(51.0) / 100.0
        expected = float(np.max(np.minimum(a * taus, 1.0 - taus)))
        assert result.feasible
        assert math.isclose(result.objective, expected, rel_tol=1e-12), (
            f"oracle {result.objective} vs closed form {expected}"
        )

    def test_infeasible_when_harvest_is_impossible(self):
        cfg = scalar_cfg(harvest_threshold_joules=1e6)
        result = grid_oracle(cfg, scalar_channels(), ACTIVE, resolution=3)
        assert not result.feasible
        assert result.decision is None
        assert math.isnan(result.sum_rate)

    def test_passive_mode_ties_the_split_axis(self):
        result = grid_oracle(
            scalar_cfg(), scalar_channels(), PASSIVE,
            grids={"eta": [0.5], "tau": [0.5], "power": [1.0],
                   "theta_t": [0.0], "theta_r": [0.0], "beta_t": [0.25]},
        )
        assert result.feasible
        np.testing.assert_allclose(result.decision.ris.beta_r, [0.75])


# ===========================================================================
# sweeps and reports
# ===========================================================================


def sweep_config(**over):
    config = default_config()
    config["system"].update(
        n_bs_antennas=1, n_ris_elements=1, n_pairs=1, harvest_threshold_joules=1e-15
    )
    config["run"].update(seeds=[0, 1])
    config["sweep"].update(values=[4.0, 8.0], budget=30, n_channels=2)
    for section, body in over.items():
        config[section].update(body)
    return config


class TestSweep:
    def test_baseline_sweep_layout(self, tmp_path):
        points_path, summary_path = sweep(sweep_config(), tmp_path)
        points = open(points_path).read().splitlines()
        header = points[0].split(",")
        assert header[:6] == ["config_hash", "variable", "value", "ris_mode", "seed", "status"]
        assert len(points) == 1 + 2 * 2  # two values x two seeds
        assert all(line.split(",")[5] == "ok" for line in points[1:])
        summary = open(summary_path).read().splitlines()
        assert len(summary) == 1 + 2
        assert "min_rate_mean" in summary[0]

    def test_compare_modes_doubles_the_rows(self, tmp_path):
        config = sweep_config(sweep={"compare_modes": True}, run={"seeds": [0]})
        points_path, summary_path = sweep(config, tmp_path)
        lines = open(points_path).read().splitlines()[1:]
        assert len(lines) == 2 * 2  # two values x two modes
        modes = {line.split(",")[3] for line in lines}
        assert modes == {ACTIVE, PASSIVE}

    def test_broken_points_are_recorded_not_raised(self, tmp_path):
        config = sweep_config(sweep={"variable": "ris_mode", "values": ["no-such-mode", "?"]},
                              run={"seeds": [0]})
        points_path, _ = sweep(config, tmp_path)
        lines = open(points_path).read().splitlines()[1:]
        assert len(lines) == 2
        assert all("error: ValueError" in line for line in lines)

    def test_aborted_training_is_recorded_as_an_error(self, tmp_path, monkeypatch):
        def aborted_train(*args, **kwargs):
            agent, trace = train(*args, **kwargs)
            trace.aborted = True
            return agent, trace

        monkeypatch.setattr(harness, "train", aborted_train)
        config = sweep_config(
            sweep={"mode": "train", "values": [8.0], "n_channels": 1},
            run={"seeds": [0], "episodes": 1, "algo": "ppo"},
            env={"episode_steps": 3, "rate_cap": 2.0, "normalize_obs": False},
        )
        config["agents"]["ppo"].update(hidden=[4], minibatch=2)
        points_path, summary_path = sweep(config, tmp_path)
        with open(points_path, newline="") as fh:
            points = list(csv.DictReader(fh))
        assert [p["status"] for p in points] == [
            "error: NonFiniteGradientError: training aborted after 1 episodes"]
        assert "aborted" not in points[0]
        with open(summary_path, newline="") as fh:
            assert [row["n_points"] for row in csv.DictReader(fh)] == ["0"]

    def test_train_mode_sweep_runs(self, tmp_path):
        config = sweep_config(
            sweep={"mode": "train", "values": [8.0], "n_channels": 1},
            run={"seeds": [0], "episodes": 1, "algo": "ppo"},
            env={"episode_steps": 3, "rate_cap": 2.0, "normalize_obs": False},
        )
        config["agents"]["ppo"].update(hidden=[4], minibatch=2)
        points_path, _ = sweep(config, tmp_path)
        lines = open(points_path).read().splitlines()[1:]
        assert len(lines) == 1
        assert lines[0].split(",")[5] == "ok", lines[0]

    @pytest.mark.parametrize("mode", ["baseline", "train"])
    @pytest.mark.parametrize("field, value", [("n_channels", 0), ("budget", 0),
                                              ("budget", -3), ("n_channels", "two"),
                                              ("n_channels", 2.5), ("n_channels", math.inf),
                                              ("n_channels", True), ("budget", 2.5),
                                              ("budget", math.inf), ("budget", True),
                                              # and the sweep's other settings
                                              ("variable", [1]), ("variable", {}),
                                              ("variable", "noise_bs_dbm"),
                                              ("compare_modes", "abc"), ("compare_modes", 1)])
    def test_counts_below_one_are_rejected_before_any_point(self, tmp_path, monkeypatch,
                                                            field, value, mode):
        ran = []
        for point in ("_baseline_point", "_train_point"):
            monkeypatch.setattr(harness, point, lambda *args: ran.append(args))
        config = sweep_config(sweep={"mode": mode, field: value})
        with pytest.raises(ValueError, match=f"sweep.{field}"):
            sweep(config, tmp_path / "out")
        assert ran == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seeds, named", [([], "run.seeds must be a non-empty list"),
                                              (3, "run.seeds must be a non-empty list"),
                                              ([0, -1], "run.seeds[1] must be in [0, inf]"),
                                              ([1.5], "run.seeds[0] must be in [0, inf]")],
                             ids=["empty", "scalar", "negative", "fraction"])
    def test_bad_seeds_are_rejected_before_any_point(self, tmp_path, monkeypatch, seeds, named):
        ran = []
        monkeypatch.setattr(harness, "_baseline_point", lambda *args: ran.append(args))
        with pytest.raises(ValueError, match=re.escape(named)):
            sweep(sweep_config(run={"seeds": seeds}), tmp_path / "out")
        assert ran == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["baseline", "train"])
    @pytest.mark.parametrize("values", [4.0, "abc", {}, [], None], ids=repr)
    def test_values_that_are_no_list_are_rejected_before_any_point(self, tmp_path, monkeypatch,
                                                                   values, mode):
        ran = []
        for point in ("_baseline_point", "_train_point"):
            monkeypatch.setattr(harness, point, lambda *args: ran.append(args))
        with pytest.raises(ValueError, match="sweep.values must be a non-empty list"):
            sweep(sweep_config(sweep={"mode": mode, "values": values}), tmp_path / "out")
        assert ran == [] and not (tmp_path / "out").exists()

    def test_unknown_algorithm_of_train_points_is_rejected_before_any_point(self, tmp_path,
                                                                            monkeypatch):
        ran = []
        monkeypatch.setattr(harness, "_train_point", lambda *args: ran.append(args))
        with pytest.raises(ValueError, match="run.algo must be 'ppo', 'td3' or 'a3c'"):
            sweep(sweep_config(sweep={"mode": "train"}, run={"algo": "sac"}), tmp_path / "out")
        assert ran == [] and not (tmp_path / "out").exists()

    def test_numpy_integer_counts_and_seeds_write_the_same_files(self, tmp_path):
        plain = sweep(sweep_config(), tmp_path / "plain")
        numpy = sweep(sweep_config(sweep={"n_channels": np.int64(2), "budget": np.int64(30)},
                                   run={"seeds": [np.int64(0), np.uint64(1)]}), tmp_path / "np")
        for a, b in zip(plain, numpy):
            assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_unknown_mode_is_rejected_before_any_point(self, tmp_path, monkeypatch):
        ran = []
        for point in ("_baseline_point", "_train_point"):
            monkeypatch.setattr(harness, point, lambda *args: ran.append(args))
        with pytest.raises(ValueError, match="sweep.mode must be 'baseline' or 'train'"):
            sweep(sweep_config(sweep={"mode": "baselin"}), tmp_path / "out")
        assert ran == [] and not (tmp_path / "out").exists()

    def test_report_aggregates_and_flags_monotonicity(self, tmp_path):
        out = tmp_path / "sweep"
        sweep(sweep_config(run={"seeds": [0]}), out)
        report_path, lines = report(out)
        assert os.path.exists(report_path)
        assert len(lines) == 1
        assert lines[0].startswith("min_rate_mean over p_bs_max_watts [active]:")
        assert "(2 points)" in lines[0]
        assert ("nondecreasing" in lines[0]) or ("not monotone" in lines[0])

    def test_statuses_and_values_with_commas_round_trip(self, tmp_path):
        # an unknown surface mode fails with a message that holds a comma;
        # the sweep keeps the whole message and the report reads the value back
        out = tmp_path / "sweep"
        config = sweep_config(sweep={"variable": "ris_mode", "values": ["active", "pass,ive"]},
                              run={"seeds": [0]})
        points_path, _ = sweep(config, out)
        with open(points_path, newline="") as fh:
            points = list(csv.DictReader(fh))
        assert [p["status"] for p in points] == [
            "ok", "error: ValueError: mode must be 'active' or 'passive', got 'pass,ive'"]
        assert points[1]["value"] == "pass,ive" and points[1]["min_rate"] == "nan"
        report_path, lines = report(out)
        with open(report_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["value"], r["ris_mode"], r["n_points"]) for r in rows] == [
            ("active", "active", "1"), ("pass,ive", "pass,ive", "0")]
        assert any("[pass,ive]" in line and "(0 points)" in line for line in lines)

    def test_report_without_summaries_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            report(tmp_path / "void")


class TestEvaluatePolicy:
    def test_greedy_scores_are_deterministic(self, tmp_path):
        config = load_config(tiny_yaml(tmp_path))
        env = env_from(config)
        agent = build_agent("ppo", env.state_dim, env.action_dim, {"hidden": (8,)}, seed=0)
        a = evaluate_policy(agent, env, episodes=2, seed=4)
        b = evaluate_policy(agent, env, episodes=2, seed=4)
        assert a == b
        assert evaluate_policy(agent, env, episodes=np.int64(2), seed=4) == a
        assert set(a) == {"reward", "min_rate", "sum_rate", "feasible_steps"}
        assert all(np.isfinite(v) for v in a.values())

    def test_rates_average_only_steps_that_meet_c1_to_c9(self, tmp_path):
        # at this harvest threshold the untrained greedy policy breaks C7 on
        # half of its steps and meets every other structural family
        config = load_config(tiny_yaml(tmp_path, system={"harvest_threshold_joules": 3e-12}))
        env = env_from(config)
        agent = build_agent("ppo", env.state_dim, env.action_dim, {"hidden": (8,)}, seed=0)
        seeds = philox(4)
        act = lambda states: (agent.greedy(states),)
        infos = [result.row(0).info for _ in range(3)
                 for _, _, result in rollout(env, next_seed(seeds), act, EpisodeStats())]
        flags = np.array([info.constraints.flags[:9] for info in infos])
        feasible = flags.all(axis=1)
        assert feasible.sum() == 6 and len(infos) == 12
        assert flags[:, [0, 1, 2, 3, 4, 5, 7, 8]].all() and not flags[~feasible, 6].any()

        scores = evaluate_policy(agent, env, episodes=3, seed=4)
        assert scores["feasible_steps"] == 6
        kept = [info for info, ok in zip(infos, feasible) if ok]
        assert scores["min_rate"] == np.mean([info.min_rate for info in kept])
        assert scores["sum_rate"] == np.mean([float(info.rates.sum_rates) for info in kept])
        assert scores["min_rate"] != np.mean([info.min_rate for info in infos])

    @pytest.mark.parametrize("field, value", [
        ("episodes", 0), ("episodes", -1), ("episodes", 2.5), ("episodes", math.inf),
        ("episodes", True), ("seed", -1), ("seed", 2.5), ("seed", True),
    ])
    def test_episode_counts_below_one_and_seeds_below_zero_are_rejected(self, tmp_path, field,
                                                                         value):
        env = env_from(load_config(tiny_yaml(tmp_path)))
        agent = build_agent("ppo", env.state_dim, env.action_dim, {"hidden": (8,)}, seed=0)
        with pytest.raises(ValueError, match=field):
            evaluate_policy(agent, env, **{"episodes": 1, "seed": 4, field: value})

    def test_no_feasible_step_gives_nan_rates(self, tmp_path):
        config = load_config(tiny_yaml(tmp_path, system={"harvest_threshold_joules": 1e-9}))
        env = env_from(config)
        agent = build_agent("ppo", env.state_dim, env.action_dim, {"hidden": (8,)}, seed=0)
        scores = evaluate_policy(agent, env, episodes=3, seed=4)
        assert scores["feasible_steps"] == 0 and np.isfinite(scores["reward"])
        assert math.isnan(scores["min_rate"]) and math.isnan(scores["sum_rate"])

    def test_train_point_evaluates_with_frozen_training_statistics(self, monkeypatch):
        # smoke scene, PPO, 4 episodes of 25 steps: training has normalized
        # 4 x 26 = 104 states, and evaluation must see exactly those
        # statistics and leave them as they are
        config = load_config(Path(__file__).resolve().parents[1] / "configs" / "smoke.yaml")
        config["run"].update(algo="ppo", episodes=4)
        assert config["env"]["normalize_obs"] is True
        seen = {}

        def spy_evaluate(agent, env, episodes, seed):
            norm = agent.normalizer
            seen["before"] = (norm.count, norm.mean.copy(), norm.m2.copy())
            seen["scores"] = evaluate_policy(agent, env, episodes, seed)
            seen["after"] = (norm.count, norm.mean.copy(), norm.m2.copy())
            return seen["scores"]

        monkeypatch.setattr(harness, "evaluate_policy", spy_evaluate)
        point = harness._train_point(config, ACTIVE, seed=0)
        assert seen["before"][0] == 104
        for got, want in zip(seen["after"], seen["before"]):
            np.testing.assert_array_equal(got, want)
        assert point["feasible_channels"] == seen["scores"]["feasible_steps"]
        assert point["min_rate"] == seen["scores"]["min_rate"]

    def test_train_hands_the_agent_its_own_statistics(self):
        hyper = {"hidden": (4,), "minibatch": 2}
        env = SrEnv(scalar_cfg(), episode_steps=2, normalize_obs=True, rate_cap=2.0)
        for _ in range(2):  # a second run on the same env starts from zero again
            agent, _ = train("ppo", env, 3, seed=1, hyper=hyper)
            assert agent.normalizer.count == 9, "three episodes of a reset and two steps"
        raw = SrEnv(scalar_cfg(), episode_steps=2, rate_cap=2.0)
        agent, _ = train("ppo", raw, 3, seed=1, hyper=hyper)
        assert agent.normalizer is None
        assert not any(key.startswith("obs/") for key in agent.state_dict())


# ===========================================================================
# command-line interface
# ===========================================================================


class TestCli:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert "srnoma" in capsys.readouterr().out

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["conquer"])
        assert err.value.code == 2

    def test_missing_config_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["train", "--out", "x"])
        assert err.value.code == 2

    def test_missing_config_file_is_runtime_error(self, tmp_path, capsys):
        code = main(
            ["train", "--config", str(tmp_path / "gone.yaml"), "--out", str(tmp_path)]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_train_writes_trace(self, tmp_path, capsys):
        config = tiny_yaml(tmp_path)
        out = tmp_path / "run"
        code = main(
            ["train", "--config", config, "--out", str(out), "--episodes", "2",
             "--seed", "3"]
        )
        assert code == 0
        trace = out / "trace_ppo_seed3.csv"
        assert trace.exists()
        lines = trace.read_text().splitlines()
        assert len(lines) == 3  # header + two episodes
        assert (out / "ckpt_ppo_final.npz").exists()
        assert "wrote" in capsys.readouterr().out

    def test_baseline_prints_result(self, tmp_path, capsys):
        code = main(
            ["baseline", "--config", tiny_yaml(tmp_path), "--budget", "100",
             "--seed", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert ("best feasible min_rate=" in out) or ("no feasible sample" in out)

    def test_oracle_prints_result(self, tmp_path, capsys):
        code = main(
            ["oracle", "--config", tiny_yaml(tmp_path), "--resolution", "3",
             "--seed", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert ("feasible optimum" in out) or ("no feasible point" in out)

    @pytest.mark.parametrize("resolution", ["0", "-1"])
    def test_oracle_rejects_resolutions_below_one(self, tmp_path, capsys, resolution):
        code = main(["oracle", "--config", tiny_yaml(tmp_path), "--resolution", resolution])
        assert code == 1
        assert "resolution must be in [1, inf]" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text, extra, named", [
        ("train", "system: {rician_k: .nan}", [], "rician_k must be in [0, inf), got nan"),
        ("train", "system: {p_asris_watts: .inf}", [], "p_asris_watts"),
        ("train", "agents: {ppo: {hidden: [0]}}", [], "hidden[0] must be in [1, inf]"),
        ("train", "- system\n", [], "mapping of sections"),
        ("train", "", ["--episodes", "-4"], "episodes must be in [0, inf]"),
        ("train", "", ["--checkpoint-every", "-1"], "checkpoint_every"),
        ("sweep", "sweep: {mode: baselin}", [], "sweep.mode"),
        ("train", "env: {episode_steps: 2.5}", [], "episode_steps must be in [1, inf], got 2.5"),
        ("train", "agents: {ppo: {hidden: [8.7]}}", [], "hidden[0] must be in [1, inf], got 8.7"),
        ("train", "agents: {a3c: {workers: .inf}}\nrun: {algo: a3c, episodes: 1}", [],
         "workers must be in [1, inf], got inf"),
        ("train", "agents: {ppo: {minibatch: .inf}}", [], "minibatch must be in [1, inf], got inf"),
        ("train", "run: {episodes: 2.5}", [], "episodes must be in [0, inf], got 2.5"),
        ("train", "run: {episodes: 1, seeds: [1.5]}", [], "run.seeds[0]"),
        ("train", "run: {episodes: 1, seeds: [-1]}", [], "run.seeds[0]"),
        ("train", "run: {episodes: 1, seeds: []}", [], "run.seeds"),
        ("sweep", "run: {episodes: 1, seeds: []}", [], "run.seeds"),
        ("train", "", ["--seed", "-1"], "seed must be in [0, inf], got -1"),
        ("train", "agents: {ppo: {hidden: 5}}", [], "hidden must be a list"),
        ("train", "agents: {a3c: {entropy_coef: .nan}}\nrun: {algo: a3c, episodes: 1}", [],
         "entropy_coef must be in [0, inf), got nan"),
        ("train", "run: {algo: sac, episodes: 1}", [],
         "run.algo must be 'ppo', 'td3' or 'a3c', got 'sac'"),
        ("sweep", "sweep: {mode: train}\nrun: {algo: sac, episodes: 1}", [], "run.algo"),
        ("train", "system: {noise_bs_dbm: [1]}", [],
         "system.noise_bs_dbm must be in [-3000, 3000], got [1]"),
        ("train", "system: {noise_bs_dbm: 4000.0}", [],
         "system.noise_bs_dbm must be in [-3000, 3000], got 4000.0"),
        ("train", "system: {noise_bs_dbm: -4000.0}", [],
         "system.noise_bs_dbm must be in [-3000, 3000], got -4000.0"),
        ("sweep", "sweep: {variable: [1]}", [], "sweep.variable"),
        ("sweep", "sweep: {compare_modes: abc}", [],
         "sweep.compare_modes must be False or True, got 'abc'"),
        ("train", "agents: {ppo: {actor_lr: true}}", [],
         "actor_lr must be in (0, inf), got True"),
        ("train", "env: {normalize_obs: abc}", [],
         "normalize_obs must be False or True, got 'abc'"),
        ("train", "system: {noise_sue_dbm: abc}", [], "system.noise_sue_dbm"),
        ("sweep", "sweep: {values: 4.0}", [], "sweep.values must be a non-empty list, got 4.0"),
        ("sweep", "sweep: {values: abc}", [], "sweep.values"),
        ("sweep", "sweep: {values: {}}", [], "sweep.values"),
        ("train", "agents: {td3: {episodes: 2.5}}", ["--algo", "td3", "--paper-scale"],
         "agents.td3.episodes must be in [0, inf], got 2.5"),
        ("train", "system: [", [], "bad.yaml is no valid YAML"),
    ], ids=["rician_k-nan", "p_asris-inf", "hidden-zero", "top-level-list", "episodes-negative",
            "checkpoint_every-negative", "sweep-mode", "episode_steps-fraction",
            "hidden-fraction", "workers-inf", "minibatch-inf", "episodes-fraction",
            "seeds-fraction", "seeds-negative", "seeds-empty", "sweep-seeds-empty",
            "seed-flag-negative", "hidden-scalar", "entropy_coef-nan", "algo-unknown",
            "sweep-algo-unknown", "dbm-list", "dbm-huge", "dbm-tiny", "sweep-variable-list",
            "sweep-compare_modes-text", "actor_lr-bool", "normalize_obs-text", "dbm-text",
            "sweep-values-scalar", "sweep-values-text", "sweep-values-mapping",
            "paper-scale-episodes-fraction", "yaml-unclosed"])
    def test_malformed_inputs_exit_1_with_an_error_line(self, tmp_path, capsys, command, text,
                                                        extra, named):
        config = tmp_path / "bad.yaml"
        config.write_text(text if text.startswith("-") else f"run: {{episodes: 1}}\n{text}")
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out), *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not out.exists()  # no command makes --out before its checks pass

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("broken", ["config-is-a-directory", "out-is-a-file"])
    def test_unreadable_config_or_unwritable_out_exits_1_with_an_error_line(
            self, tmp_path, capsys, command, broken):
        config, out = tiny_yaml(tmp_path), tmp_path / "out"
        if broken == "config-is-a-directory":
            config = str(tmp_path)
        else:
            out.write_text("kept\n")
        assert main([command, "--config", config, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        if broken == "config-is-a-directory":
            assert not out.exists()
        else:
            assert out.read_text() == "kept\n"

    def test_sweep_and_report_round_trip(self, tmp_path, capsys):
        config = tiny_yaml(
            tmp_path,
            run={"seeds": [0]},
            sweep={"values": [4.0, 8.0], "budget": 20, "n_channels": 1},
        )
        out = tmp_path / "sweepdir"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        assert (out / "sweep_points.csv").exists()
        assert (out / "sweep_summary.csv").exists()
        assert main(["report", "--in", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "min_rate_mean over p_bs_max_watts" in printed
        assert (out / "report.csv").exists()

    def test_report_orders_numbers_before_text(self, tmp_path, capsys):
        # "fast" is no power, so its point is an error row; the report still
        # sorts the series, numbers first
        config = tiny_yaml(tmp_path, run={"seeds": [0]},
                           sweep={"values": [8.0, "fast", 4.0], "budget": 20, "n_channels": 1})
        out = tmp_path / "sweepdir"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        assert main(["report", "--in", str(out)]) == 0
        assert "(2 points)" in capsys.readouterr().out
        with open(out / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["value"], r["n_points"]) for r in rows] == [
            ("8.0", "1"), ("fast", "0"), ("4.0", "1")]


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
