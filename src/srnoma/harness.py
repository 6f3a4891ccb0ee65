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
import operator
import os

import numpy as np
import yaml

from . import problem
from .agents import ALGORITHMS, train
from .agents.common import EpisodeStats, rollout
from .agents.train import HYPER_DEFAULTS, TABLE_ONLY, keyword_defaults
from .env import SrEnv, action_dim, decode_action
from .network import (
    ChannelRealization,
    SystemConfig,
    check_in,
    dbm_to_watts,
    derive_keys,
    draw_realization,
    make_placement,
    next_seed,
    philox,
)
from .nn import NonFiniteGradientError
from .rates import DecisionVariables, rate_report
from .ris import ACTIVE, PASSIVE, RisCoefficients


class GridCapError(RuntimeError):
    """The requested grid would exceed the evaluation budget."""


# --------------------------------------------------------------------------
# run configuration


# read once; default_config() copies them.  A run normalises observations; a
# bare SrEnv does not, so a library trainer adds no statistics unless asked.
_ENV_DEFAULTS = {**keyword_defaults(SrEnv), "normalize_obs": True}
_AGENT_DEFAULTS = {algo: {**HYPER_DEFAULTS[algo], **TABLE_ONLY[algo]} for algo in ALGORITHMS}


def default_config() -> dict:
    """Effective defaults: the env and agent sections are their constructors'
    and the paper table's, the run section holds the desk-scale budget."""
    return {
        "system": dataclasses.asdict(SystemConfig()),
        "env": dict(_ENV_DEFAULTS),
        "run": {
            "episodes": 2000,
            "seeds": [0, 1, 2],
            "algo": "ppo",
            "checkpoint_every": 0,
        },
        "agents": {algo: {**defaults, "hidden": list(defaults["hidden"])}
                   for algo, defaults in _AGENT_DEFAULTS.items()},
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
            check_in("[-3000, 3000]", **{f"system.{key}": value})  # normal float64 watts
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
        try:
            user = yaml.safe_load(fh) or {}
        except yaml.YAMLError as exc:
            raise ValueError(f"config file {path} is no valid YAML: {exc}") from exc
    if not isinstance(user, dict):
        raise ValueError(f"config file {path} must hold a mapping of sections")
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
    """12 hex digits of the config's SHA-256; a NumPy integer hashes as the int it equals."""
    canonical = json.dumps(config, sort_keys=True, default=operator.index)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _listed(config: dict, section: str, key: str) -> list:
    """``config[section][key]``, which must be a non-empty list."""
    value = config[section][key]
    if not isinstance(value, list) or not value:
        raise ValueError(f"{section}.{key} must be a non-empty list, got {value!r}")
    return value


def run_seeds(config: dict) -> list:
    """The seeds of the run section: a non-empty list of counts from 0."""
    seeds = _listed(config, "run", "seeds")
    check_in("[0, inf]", **{f"run.seeds[{i}]": seed for i, seed in enumerate(seeds)})
    return seeds


def system_from(config: dict) -> SystemConfig:
    return SystemConfig(**config["system"])


def env_from(config: dict, ris_mode: str | None = None) -> SrEnv:
    env_cfg = config["env"]
    return SrEnv(system_from(config), **{**env_cfg, "ris_mode": ris_mode or env_cfg["ris_mode"]})


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
# the most points grid_oracle agrees to score
GRID_CAP = 10_000_000

_STRUCTURAL = problem.CONSTRAINT_NAMES.index("rate_target_phase1")


def evaluate_decision(
    cfg: SystemConfig, ch: ChannelRealization, dv: DecisionVariables
) -> tuple:
    """Feasible max-min evaluation: the achieved worst rate becomes the
    target, so the target constraints hold by construction and feasibility
    reduces to the structural families C1..C9.  The target families are
    excluded explicitly: their slacks invert the rate formula at exact
    equality, where a last-bit rounding difference could flip the sign.

    Returns (min_rate, sum_rate, feasible): three (B,) arrays for a batch
    of decisions, three NumPy scalars for one.
    """
    rates = rate_report(ch, dv, cfg)
    min_rate = rates.min_rates
    scored = dataclasses.replace(dv, rate_target=min_rate)
    slacks = problem.constraint_slacks(ch, scored, cfg, rates)
    feasible = np.all(slacks[..., :_STRUCTURAL] >= 0.0, axis=-1)
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
    check_in("[1, inf]", budget=budget)
    check_in("[0, inf]", seed=seed)
    rng = philox(seed)
    dim = action_dim(cfg)
    batches = (decode_action(rng.uniform(-1.0, 1.0, (min(CHUNK, budget - start), dim)),
                             cfg, ris_mode, rate_cap=1.0) for start in range(0, budget, CHUNK))
    return _best_feasible(cfg, ch, batches, budget)


def grid_oracle(
    cfg: SystemConfig,
    ch: ChannelRealization,
    ris_mode: str = ACTIVE,
    resolution: int = 5,
    grids: dict | None = None,
) -> SearchResult:
    """Exhaustive feasible max-min search on the scalar (N = M = I = 1) scene.

    Default axes are uniform grids over eta, tau, power, the surface gains and
    phases; any axis can be overridden (or pinned to a single value) through
    ``grids``.  Beam scalars are fixed to 1 since a unit-modulus scalar beam
    cannot change any magnitude.  Refuses to run when the grid would exceed
    ``GRID_CAP`` points, and raises ValueError for a resolution below 1 or an
    axis override with no values.  Points are scored in chunks, in
    itertools.product order of the axes.
    """
    if not (cfg.n_bs_antennas == 1 and cfg.n_ris_elements == 1 and cfg.n_pairs == 1):
        raise ValueError("grid_oracle only handles the N = M = I = 1 scene")
    check_in("[1, inf]", resolution=resolution)
    beta_cap = cfg.p_asris_watts / 2.0
    axes = {
        "eta": np.linspace(0.0, 1.0, resolution),
        "tau": np.linspace(0.0, 1.0, resolution),
        "power": np.linspace(0.0, cfg.p_bs_max_watts, resolution),
        "beta_t": np.linspace(0.0, beta_cap if ris_mode == ACTIVE else 1.0, resolution),
        "beta_r": np.linspace(0.0, beta_cap, resolution),
        "theta_t": np.linspace(0.0, 2.0 * math.pi, resolution),
        "theta_r": np.linspace(0.0, 2.0 * math.pi, resolution),
    }
    if ris_mode == PASSIVE:
        del axes["beta_r"]  # tied to beta_t by the unit split
    for name, values in (grids or {}).items():
        if name not in axes:
            raise ValueError(f"unknown grid axis {name!r}")
        axes[name] = np.atleast_1d(np.asarray(values, dtype=float))
        check_in("[1, inf]", **{f"len(grids[{name!r}])": len(axes[name])})

    shape = tuple(len(values) for values in axes.values())
    points = math.prod(shape)
    if points > GRID_CAP:
        raise GridCapError(
            f"grid holds {points} points, above the cap of {GRID_CAP}; "
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
    patched["env" if variable in _ENV_SWEEPABLE else "system"][variable] = value
    return patched


def _baseline_point(config: dict, ris_mode: str, seed: int) -> dict:
    """Average the random-search optimum over ``n_channels`` fresh channels on
    one placement, drawn as the lanes of one call."""
    cfg = system_from(config)
    sweep_cfg = config["sweep"]
    placement_key, draw_key, search_key = derive_keys(seed, 3)
    search_rng = philox(search_key)
    n_channels = sweep_cfg["n_channels"]
    channels = draw_realization(cfg, make_placement(cfg, placement_key),
                                next_seed(philox(draw_key), n_channels))
    feasible = [result for result in (
        random_search(cfg, channels.lane(c), ris_mode, sweep_cfg["budget"], next_seed(search_rng))
        for c in range(n_channels)) if result.feasible]
    return {"min_rate": _mean([r.objective for r in feasible]),
            "sum_rate": _mean([r.sum_rate for r in feasible]), "feasible_channels": len(feasible)}


def _mean(values) -> float:
    """The mean as a float; NaN for no values."""
    return float(np.mean(values)) if len(values) else float("nan")


def evaluate_policy(agent, env: SrEnv, episodes: int, seed: int) -> dict:
    """Greedy rollouts on states the agent's frozen statistics normalise (raw
    when it has none).  ``reward`` is the mean over all steps; ``min_rate``
    and ``sum_rate`` are means over the ``feasible_steps``, the steps that
    meet C1..C9 as ``evaluate_decision`` requires of baseline rows (NaN when
    there are none)."""
    check_in("[1, inf]", episodes=episodes)
    check_in("[0, inf]", seed=seed)
    act = lambda states: (agent.greedy(states),)
    observe = getattr(agent.normalizer, "normalize", None)
    blocks = [(result.reward, result.info.min_rate, result.info.rates.sum_rates,
               result.info.constraints.flags[:, :_STRUCTURAL].all(axis=1))
              for episode_seed in next_seed(philox(seed), episodes)
              for _, _, result in rollout(env, episode_seed, act, EpisodeStats(), observe,
                                          env.episode_steps)]
    reward, min_rate, sum_rate, feasible = map(np.concatenate, zip(*blocks))
    return {"reward": float(np.mean(reward)), "min_rate": _mean(min_rate[feasible]),
            "sum_rate": _mean(sum_rate[feasible]), "feasible_steps": int(feasible.sum())}


def _train_point(config: dict, ris_mode: str, seed: int) -> dict:
    run_cfg = config["run"]
    env = env_from(config, ris_mode)
    algo = run_cfg["algo"]
    agent, trace = train(algo, env, run_cfg["episodes"], seed,
                         hyper=config["agents"][algo])
    if trace.aborted:
        raise NonFiniteGradientError(f"training aborted after {len(trace)} episodes")
    scores = evaluate_policy(agent, env, config["sweep"]["n_channels"], seed + 1)
    return {"min_rate": scores["min_rate"], "sum_rate": scores["sum_rate"],
            "feasible_channels": scores["feasible_steps"]}


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


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

    A failing point, or a train point whose training aborted, is recorded
    with status "error: <type>: <message>" and the sweep moves on.  A bad
    ``sweep.n_channels``, ``sweep.budget``, ``sweep.mode``, ``sweep.variable``,
    ``sweep.compare_modes``, ``sweep.values``, ``run.seeds`` or, for train
    points, ``run.algo`` raises ValueError before the first point runs or the
    output directory is made.
    """
    sweep_cfg = config["sweep"]
    check_in("[1, inf]", **{f"sweep.{key}": sweep_cfg[key] for key in ("n_channels", "budget")})
    check_in(("baseline", "train"), **{"sweep.mode": sweep_cfg["mode"]})
    check_in((*_ENV_SWEEPABLE, *config["system"]), **{"sweep.variable": sweep_cfg["variable"]})
    check_in((False, True), **{"sweep.compare_modes": sweep_cfg["compare_modes"]})
    if sweep_cfg["mode"] == "train":
        check_in(ALGORITHMS, **{"run.algo": config["run"]["algo"]})
    values = _listed(config, "sweep", "values")
    seeds = run_seeds(config)
    run_point = _baseline_point if sweep_cfg["mode"] == "baseline" else _train_point
    os.makedirs(out_dir, exist_ok=True)
    digest = config_hash(config)
    variable = sweep_cfg["variable"]
    modes = [ACTIVE, PASSIVE] if sweep_cfg["compare_modes"] else [None]

    rows, series = [], []
    for value in values:
        patched = _apply_sweep_value(config, variable, value)
        for mode in modes:
            effective_mode = mode or patched["env"]["ris_mode"]
            series.append((value, effective_mode))
            for seed in seeds:
                row = {"config_hash": digest, "variable": variable, "value": value,
                       "ris_mode": effective_mode, "seed": seed, "status": "ok",
                       "min_rate": float("nan"), "sum_rate": float("nan"), "feasible_channels": 0}
                try:  # a point holds min_rate, sum_rate and feasible_channels
                    row.update(run_point(patched, effective_mode, seed))
                except Exception as exc:  # keep sweeping past broken points
                    row["status"] = f"error: {type(exc).__name__}: {exc}"
                rows.append(row)

    points_path = os.path.join(out_dir, "sweep_points.csv")
    write_csv(points_path, list(rows[0]), rows)  # every row has the keys in the same order

    summary_rows = []
    for value, effective_mode in series:
        row = {"config_hash": digest, "variable": variable, "value": value,
               "ris_mode": effective_mode, "seed": "all"}
        ok = [r for r in rows if r["value"] == value and r["ris_mode"] == effective_mode
              and r["status"] == "ok"]
        row["n_points"] = sum(not math.isnan(r["min_rate"]) for r in ok)
        for name in ("min_rate", "sum_rate"):
            picked = [r[name] for r in ok if not math.isnan(r[name])]
            row[f"{name}_mean"] = _mean(picked)
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
    summaries = sorted(os.path.join(root, name) for root, _, files in os.walk(in_dir)
                       for name in files if name == "sweep_summary.csv")
    if not summaries:
        raise FileNotFoundError(f"no sweep_summary.csv found under {in_dir}")
    rows = [row for path in summaries for row in _read_csv(path)]

    lines = []
    series: dict = {}
    for row in rows:
        series.setdefault((row["variable"], row["ris_mode"]), []).append(row)
    for (variable, mode), entries in sorted(series.items()):
        def sort_key(entry):
            try:  # numbers first, then text
                return (0, float(entry["value"]))
            except ValueError:
                return (1, entry["value"])
        ordered = sorted(entries, key=sort_key)
        means = [float(e["min_rate_mean"]) for e in ordered]
        clean = [m for m in means if not math.isnan(m)]
        monotone = all(b >= a for a, b in zip(clean, clean[1:]))
        lines.append(f"min_rate_mean over {variable} [{mode}]: "
                     f"{'nondecreasing' if monotone else 'not monotone'} ({len(clean)} points)")

    out_path = out_path or os.path.join(in_dir, "report.csv")
    write_csv(out_path, _SUMMARY_HEADER, rows)
    return out_path, lines
