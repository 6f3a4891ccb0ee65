"""Experiment harness: run configuration, baselines, sweeps and reports.

Run configuration is a YAML file with five sections (system, env, run, agents,
sweep); anything omitted falls back to the shipped defaults, unknown keys are
rejected.  Noise entries in the system section may be given in dBm
(``noise_bs_dbm: -120``) instead of watts.  Every CSV produced here carries a
header row, the 12-hex-digit hash of the effective configuration, and the seed
that produced each row, so reruns are byte-comparable.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import hashlib
import json
import math
import os

import numpy as np
import yaml

from . import problem
from .agents import A3cAgent, PpoAgent, Td3Agent, random_policy_trace, train
from .agents.common import EpisodeStats, rollout
from .env import SrEnv, action_dim, decode_action
from .network import (
    ChannelRealization,
    SystemConfig,
    dbm_to_watts,
    derive_keys,
    draw_realization,
    make_placement,
    next_seed,
    philox,
)
from .rates import DecisionVariables, rate_report
from .ris import ACTIVE, PASSIVE, RisCoefficients


class GridCapError(RuntimeError):
    """The requested grid would exceed the evaluation budget."""


# --------------------------------------------------------------------------
# run configuration


def default_config() -> dict:
    """Effective defaults; the agent sections mirror the reference
    hyperparameter table, the run section holds the desk-scale budget."""
    return {
        "system": dataclasses.asdict(SystemConfig()),
        "env": {
            "episode_steps": 200,
            "ris_mode": ACTIVE,
            "r_mode": "literal",
            "reward_mode": "literal",
            "penalty_cost": 1.0,
            "normalize_obs": True,
            "rate_cap": None,
        },
        "run": {
            "episodes": 2000,
            "seeds": [0, 1, 2],
            "algo": "ppo",
            "checkpoint_every": 0,
        },
        "agents": {
            "ppo": {
                "hidden": [128, 128],
                "minibatch": 32,
                "actor_lr": 0.0001,
                "critic_lr": 0.001,
                "target_update": 0.0005,
                "discount": 0.99,
                "entropy_coef": 0.01,
                "episodes": 30000,
                "steps": 200,
                "clip": 0.2,
                "update_epochs": 5,
                "optimizer": "sgd",
                "init_log_std": -0.5,
            },
            "td3": {
                "hidden": [400, 300],
                "minibatch": 64,
                "actor_lr": 0.0001,
                "critic_lr": 0.001,
                "target_update": 0.0005,
                "discount": 0.99,
                "episodes": 30000,
                "steps": 200,
                "policy_delay": 2,
                "smoothing_noise": 0.2,
                "noise_clip": 0.5,
                "explore_noise": 0.1,
                "buffer_size": 100000,
                "optimizer": "sgd",
            },
            "a3c": {
                "hidden": [128, 128],
                "minibatch": 64,
                "actor_lr": 0.0001,
                "critic_lr": 0.001,
                "target_update": 0.0005,
                "discount": 0.99,
                "entropy_coef": 0.01,
                "workers": 3,
                "k_steps": 20,
                "episodes": 30000,
                "steps": 200,
                "optimizer": "sgd",
                "init_log_std": -0.5,
            },
        },
        "sweep": {
            "variable": "p_bs_max_watts",
            "values": [4.0, 8.0, 16.0, 32.0],
            "mode": "baseline",
            "budget": 2000,
            "n_channels": 100,
            "compare_modes": False,
        },
    }


_DBM_ALIASES = {
    "noise_bs_dbm": "noise_bs_watts",
    "noise_asris_dbm": "noise_asris_watts",
    "noise_sue_dbm": "noise_sue_watts",
}


def _merge_section(base: dict, user: dict, section: str) -> None:
    for key, value in user.items():
        if key in _DBM_ALIASES and section == "system":
            base[_DBM_ALIASES[key]] = dbm_to_watts(float(value))
            continue
        if key not in base:
            raise ValueError(f"unknown key {key!r} in config section {section!r}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            _merge_section(base[key], value, f"{section}.{key}")
        else:
            base[key] = value


def load_config(path) -> dict:
    if not os.path.exists(path):
        raise FileNotFoundError(f"config file not found: {path}")
    with open(path) as fh:
        user = yaml.safe_load(fh) or {}
    config = default_config()
    for section, content in user.items():
        if section not in config:
            raise ValueError(f"unknown config section {section!r}")
        if not isinstance(content, dict):
            raise ValueError(f"config section {section!r} must be a mapping")
        _merge_section(config[section], content, section)
    return config


def dump_config(config: dict, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(config, fh, sort_keys=True)


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def system_from(config: dict) -> SystemConfig:
    return SystemConfig(**config["system"])


def env_from(config: dict, ris_mode: str | None = None) -> SrEnv:
    env_cfg = config["env"]
    return SrEnv(
        system_from(config),
        episode_steps=env_cfg["episode_steps"],
        ris_mode=ris_mode or env_cfg["ris_mode"],
        r_mode=env_cfg["r_mode"],
        reward_mode=env_cfg["reward_mode"],
        penalty_cost=env_cfg["penalty_cost"],
        normalize_obs=env_cfg["normalize_obs"],
        rate_cap=env_cfg["rate_cap"],
    )


# --------------------------------------------------------------------------
# search baselines


@dataclasses.dataclass
class SearchResult:
    objective: float
    decision: DecisionVariables | None
    feasible: bool
    feasible_count: int
    evaluated: int
    sum_rate: float = float("nan")


# candidates scored per kernel call by the search baselines
CHUNK = 1024

_STRUCTURAL = problem.CONSTRAINT_NAMES.index("rate_target_phase1")


def evaluate_decision(
    cfg: SystemConfig, ch: ChannelRealization, dv: DecisionVariables
) -> tuple:
    """Feasible max-min evaluation: the achieved worst rate becomes the
    target, so the target constraints hold by construction and feasibility
    reduces to the structural families C1..C9.  The target families are
    excluded explicitly: their slacks invert the rate formula at exact
    equality, where a last-bit rounding difference could flip the sign.

    Returns (min_rate, sum_rate, feasible) as (float, float, bool), or as
    three (B,) arrays for a batch of decisions.
    """
    rates = rate_report(ch, dv, cfg)
    min_rate = rates.min_rates
    scored = dataclasses.replace(dv, rate_target=min_rate)
    slacks = problem.constraint_slacks(ch, scored, cfg, rates)
    feasible = np.all(slacks[..., :_STRUCTURAL] >= 0.0, axis=-1)
    if np.ndim(min_rate) == 0:
        return float(min_rate), float(rates.sum_rates), bool(feasible)
    return min_rate, rates.sum_rates, feasible


def _best_feasible(cfg: SystemConfig, ch: ChannelRealization, batches,
                   evaluated: int) -> SearchResult:
    """Score each batch of decisions and keep the first strictly best
    feasible one over all of them: NaN never wins, the earliest row wins a
    tie."""
    best = SearchResult(-math.inf, None, False, 0, evaluated)
    for batch in batches:
        min_rate, sum_rate, feasible = evaluate_decision(cfg, ch, batch)
        best.feasible_count += int(feasible.sum())
        score = np.where(feasible & ~np.isnan(min_rate), min_rate, -math.inf)
        b = int(np.argmax(score))
        if score[b] > best.objective:
            best.objective = float(score[b])
            best.decision = batch.row(b)
            best.feasible = True
            best.sum_rate = float(sum_rate[b])
    return best


def random_search(
    cfg: SystemConfig,
    ch: ChannelRealization,
    ris_mode: str,
    budget: int,
    seed: int,
) -> SearchResult:
    """Uniform sampling in action space on one fixed realization.

    Samples are drawn sequentially from one Philox stream, so a larger budget
    with the same seed evaluates a superset of the candidates.
    """
    rng = philox(seed)
    budget, dim = int(budget), action_dim(cfg)
    batches = (
        decode_action(rng.uniform(-1.0, 1.0, (min(CHUNK, budget - start), dim)),
                      cfg, ris_mode, rate_cap=1.0)
        for start in range(0, budget, CHUNK)
    )
    return _best_feasible(cfg, ch, batches, budget)


def grid_oracle(
    cfg: SystemConfig,
    ch: ChannelRealization,
    ris_mode: str = ACTIVE,
    resolution: int = 5,
    grids: dict | None = None,
    cap: float = 1e7,
) -> SearchResult:
    """Exhaustive feasible max-min search on the scalar (N = M = I = 1) scene.

    Default axes are uniform grids over eta, tau, power, the surface gains and
    phases; any axis can be overridden (or pinned to a single value) through
    ``grids``.  Beam scalars are fixed to 1 since a unit-modulus scalar beam
    cannot change any magnitude.  Refuses to run when the grid would exceed
    ``cap`` points.  Points are scored in chunks, in itertools.product order
    of the axes.
    """
    if not (cfg.n_bs_antennas == 1 and cfg.n_ris_elements == 1 and cfg.n_pairs == 1):
        raise ValueError("grid_oracle only handles the N = M = I = 1 scene")
    res = int(resolution)
    beta_cap = cfg.p_asris_watts / 2.0
    axes = {
        "eta": np.linspace(0.0, 1.0, res),
        "tau": np.linspace(0.0, 1.0, res),
        "power": np.linspace(0.0, cfg.p_bs_max_watts, res),
        "beta_t": np.linspace(0.0, beta_cap if ris_mode == ACTIVE else 1.0, res),
        "beta_r": np.linspace(0.0, beta_cap, res),
        "theta_t": np.linspace(0.0, 2.0 * math.pi, res),
        "theta_r": np.linspace(0.0, 2.0 * math.pi, res),
    }
    if ris_mode == PASSIVE:
        del axes["beta_r"]  # tied to beta_t by the unit split
    for name, values in (grids or {}).items():
        if name not in axes:
            raise ValueError(f"unknown grid axis {name!r}")
        axes[name] = np.atleast_1d(np.asarray(values, dtype=float))

    shape = tuple(len(values) for values in axes.values())
    points = math.prod(shape)
    if points > cap:
        raise GridCapError(
            f"grid holds {points} points, above the cap of {int(cap)}; "
            "coarsen the resolution or pin axes"
        )

    def batch(start: int) -> DecisionVariables:
        flat = np.arange(start, min(start + CHUNK, points))
        picks = np.unravel_index(flat, shape)  # C order: the last axis varies fastest
        value = {name: values[k][:, None] for (name, values), k in zip(axes.items(), picks)}
        beta_t = value["beta_t"]
        beta_r = value["beta_r"] if ris_mode == ACTIVE else 1.0 - beta_t
        coeff = RisCoefficients(beta_t, beta_r, value["theta_t"], value["theta_r"],
                                mode=ris_mode)
        one = np.ones((len(flat), 1, 1), dtype=complex)
        return DecisionVariables(np.zeros(len(flat)), value["eta"], value["tau"],
                                 value["power"], one, one, coeff)

    return _best_feasible(cfg, ch, (batch(s) for s in range(0, points, CHUNK)), points)


# --------------------------------------------------------------------------
# sweeps


_ENV_SWEEPABLE = ("ris_mode",)


def _apply_sweep_value(config: dict, variable: str, value):
    patched = copy.deepcopy(config)
    if variable in _ENV_SWEEPABLE:
        patched["env"][variable] = value
    elif variable in patched["system"]:
        patched["system"][variable] = value
    else:
        raise ValueError(f"cannot sweep unknown variable {variable!r}")
    return patched


def _baseline_point(config: dict, ris_mode: str, seed: int) -> dict:
    """Average the random-search optimum over fresh channel draws."""
    cfg = system_from(config)
    sweep_cfg = config["sweep"]
    placement_key, draw_key, search_key = derive_keys(seed, 3)
    placement = make_placement(cfg, placement_key)
    draw_rng, search_rng = philox(draw_key), philox(search_key)
    min_rates, sum_rates = [], []
    feasible_channels = 0
    for _ in range(int(sweep_cfg["n_channels"])):
        ch = draw_realization(cfg, placement, next_seed(draw_rng))
        result = random_search(cfg, ch, ris_mode, sweep_cfg["budget"], next_seed(search_rng))
        if result.feasible:
            feasible_channels += 1
            min_rates.append(result.objective)
            sum_rates.append(result.sum_rate)
    return {
        "min_rate": float(np.mean(min_rates)) if min_rates else float("nan"),
        "sum_rate": float(np.mean(sum_rates)) if sum_rates else float("nan"),
        "feasible_channels": feasible_channels,
    }


def _greedy_action(agent, state: np.ndarray) -> np.ndarray:
    if isinstance(agent, Td3Agent):
        return agent.act(state, explore=False)
    if isinstance(agent, (PpoAgent, A3cAgent)):
        return np.tanh(agent.policy.net.forward(state))
    raise TypeError(f"no greedy rule for {type(agent).__name__}")


def evaluate_policy(agent, env: SrEnv, episodes: int, seed: int) -> dict:
    """Greedy rollouts; means over all steps of all episodes."""
    seeds = philox(seed)
    act = lambda state: (_greedy_action(agent, state),)
    steps = [(result.reward, result.info.min_rate, result.info.rates.sum_rate)
             for _ in range(int(episodes))
             for _, _, result in rollout(env, next_seed(seeds), act, EpisodeStats())]
    columns = np.array(steps).reshape(-1, 3).T
    return {name: float(np.mean(col))
            for name, col in zip(("reward", "min_rate", "sum_rate"), columns)}


def _train_point(config: dict, ris_mode: str, seed: int) -> dict:
    run_cfg = config["run"]
    sweep_cfg = config["sweep"]
    env = env_from(config, ris_mode)
    algo = run_cfg["algo"]
    agent, trace = train(algo, env, run_cfg["episodes"], seed,
                         hyper=config["agents"][algo])
    scores = evaluate_policy(agent, env.frozen_replica(), sweep_cfg["n_channels"], seed + 1)
    return {
        "min_rate": scores["min_rate"],
        "sum_rate": scores["sum_rate"],
        "feasible_channels": int(sweep_cfg["n_channels"]),
        "aborted": int(trace.aborted),
    }


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


_SUMMARY_HEADER = ["config_hash", "variable", "value", "ris_mode", "seed", "n_points",
                   "min_rate_mean", "min_rate_std", "sum_rate_mean", "sum_rate_std"]


def write_csv(path, header: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row.get(col, "")) for col in header])


def sweep(config: dict, out_dir) -> tuple[str, str]:
    """Run the configured sweep; writes point-level and summary CSVs.

    A failing point is recorded with status "error: <type>: <message>" and
    the sweep moves on.
    """
    os.makedirs(out_dir, exist_ok=True)
    sweep_cfg = config["sweep"]
    run_cfg = config["run"]
    digest = config_hash(config)
    variable = sweep_cfg["variable"]
    modes = [None]
    if sweep_cfg["compare_modes"]:
        modes = [ACTIVE, PASSIVE]

    rows, series = [], []
    for value in sweep_cfg["values"]:
        patched = _apply_sweep_value(config, variable, value)
        for mode in modes:
            effective_mode = mode or patched["env"]["ris_mode"]
            series.append((value, effective_mode))
            for seed in run_cfg["seeds"]:
                row = {
                    "config_hash": digest,
                    "variable": variable,
                    "value": value,
                    "ris_mode": effective_mode,
                    "seed": seed,
                    "status": "ok",
                    "min_rate": float("nan"),
                    "sum_rate": float("nan"),
                    "feasible_channels": 0,
                }
                try:
                    if sweep_cfg["mode"] == "baseline":
                        point = _baseline_point(patched, effective_mode, int(seed))
                    elif sweep_cfg["mode"] == "train":
                        point = _train_point(patched, effective_mode, int(seed))
                    else:
                        raise ValueError(f"unknown sweep mode {sweep_cfg['mode']!r}")
                    row.update(
                        {k: point[k] for k in ("min_rate", "sum_rate", "feasible_channels")}
                    )
                except Exception as exc:  # keep sweeping past broken points
                    row["status"] = f"error: {type(exc).__name__}: {exc}"
                rows.append(row)

    points_path = os.path.join(out_dir, "sweep_points.csv")
    write_csv(
        points_path,
        ["config_hash", "variable", "value", "ris_mode", "seed", "status",
         "min_rate", "sum_rate", "feasible_channels"],
        rows,
    )

    summary_rows = []
    for value, effective_mode in series:
        row = {"config_hash": digest, "variable": variable, "value": value,
               "ris_mode": effective_mode, "seed": "all"}
        ok = [r for r in rows if r["value"] == value and r["ris_mode"] == effective_mode
              and r["status"] == "ok"]
        row["n_points"] = sum(not math.isnan(r["min_rate"]) for r in ok)
        for name in ("min_rate", "sum_rate"):
            picked = [r[name] for r in ok if not math.isnan(r[name])]
            row[f"{name}_mean"] = float(np.mean(picked)) if picked else float("nan")
            row[f"{name}_std"] = float(np.std(picked)) if picked else float("nan")
        summary_rows.append(row)
    summary_path = os.path.join(out_dir, "sweep_summary.csv")
    write_csv(summary_path, _SUMMARY_HEADER, summary_rows)
    return points_path, summary_path


# --------------------------------------------------------------------------
# reporting


def _read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def report(in_dir, out_path=None) -> tuple[str, list[str]]:
    """Aggregate every sweep summary below ``in_dir`` into one long table and
    emit one monotonicity line per (variable, mode) series."""
    summaries = []
    for root, _, files in os.walk(in_dir):
        for name in files:
            if name == "sweep_summary.csv":
                summaries.append(os.path.join(root, name))
    if not summaries:
        raise FileNotFoundError(f"no sweep_summary.csv found under {in_dir}")

    rows = []
    for path in sorted(summaries):
        rows.extend(_read_csv(path))

    lines = []
    series: dict = {}
    for row in rows:
        series.setdefault((row["variable"], row["ris_mode"]), []).append(row)
    for (variable, mode), entries in sorted(series.items()):
        def sort_key(entry):
            try:
                return float(entry["value"])
            except ValueError:
                return entry["value"]
        ordered = sorted(entries, key=sort_key)
        means = [float(e["min_rate_mean"]) for e in ordered]
        clean = [m for m in means if not math.isnan(m)]
        monotone = all(b >= a for a, b in zip(clean, clean[1:]))
        lines.append(
            f"min_rate_mean over {variable} [{mode}]: "
            f"{'nondecreasing' if monotone else 'not monotone'} "
            f"({len(clean)} points)"
        )

    out_path = out_path or os.path.join(in_dir, "report.csv")
    write_csv(out_path, _SUMMARY_HEADER, rows)
    return out_path, lines
