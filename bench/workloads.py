"""Workloads, timed rounds and output checks of the srnoma benchmark.

A run repeats whole rounds until its time is used.  A round holds the same
operations every time: per algorithm a fixed number of training calls (each a
fresh agent trained for a fixed episode budget), one ``random_search`` call
per (channel, surface mode) and a fixed number of ``grid_oracle`` calls.
Every call is timed on its own and every end-to-end throughput is the median
over the run's calls.  The workloads differ in their scenes and in how a
round's time is shared (see WORKLOADS and README.md):

* ``train-smoke``   A7 / configs/smoke.yaml; training dominates a round.
* ``train-default`` configs/default.yaml (A3C on 2 threaded workers, not 3);
                    TD3's 400x300 nets make ``nn`` the biggest layer.
* ``search``        A6's scene for random search and configs/scalar.yaml for
                    the grid oracle; scoring dominates a round, and the
                    training metrics come from A8's tiny instance.

Outputs are checked outside the timed region against ``reference`` (an
independent scorer) and against properties the method must have.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import statistics
import time

import numpy as np

from srnoma import agents as srnoma_agents
from srnoma import harness, network
from srnoma.ris import ACTIVE, PASSIVE

import reference

ALGOS = ("ppo", "td3", "a3c")
SETUP_REPEATS = 15

# A8's fixed-seed determinism instance: 1x1x1 scene, 4-step episodes, 8-unit nets
A8_OVERRIDES = {
    "system": {"n_bs_antennas": 1, "n_ris_elements": 1, "n_pairs": 1,
               "harvest_threshold_joules": 1e-15},
    "env": {"episode_steps": 4, "rate_cap": 2.0, "normalize_obs": False},
    "agents": {
        "ppo": {"hidden": [8], "minibatch": 8, "update_epochs": 2},
        "td3": {"hidden": [8], "minibatch": 8, "buffer_size": 500},
        "a3c": {"hidden": [8], "workers": 1, "k_steps": 3},
    },
}
# A6's scene: the active-versus-passive random-search comparison
A6_SYSTEM = {"n_bs_antennas": 2, "n_ris_elements": 4, "n_pairs": 1,
             "p_asris_watts": 10.0, "harvest_threshold_joules": 1e-13}


@dataclasses.dataclass(frozen=True)
class Spec:
    train_yaml: str | None  # None: harness defaults
    train_overrides: dict
    training: dict  # algo -> (calls per round, episodes per call)
    search_system: dict | None  # None: the training scene
    search_placement: int | None  # None: drawn from the run seed
    search_channels: tuple | int  # fixed channel seeds, or how many to draw
    search_budget: int  # candidates per random_search call, one call per (channel, mode)
    oracle: tuple  # (calls per round, grid resolution)
    rescore_steps: int  # trained-policy steps re-scored by the reference
    prefix_episodes: int  # episodes re-run for the reproducibility check
    wall_clock: tuple = ()  # metrics reported unrescaled (see "machine speed")


WORKLOADS = {
    "train-smoke": Spec("smoke.yaml", {}, {"ppo": (2, 4), "td3": (2, 4), "a3c": (2, 4)},
                        None, None, 1, 100, (1, 2), 25, 2),
    "train-default": Spec("default.yaml", {"agents": {"a3c": {"workers": 2}}},
                          {"ppo": (5, 1), "td3": (1, 1), "a3c": (2, 1)},
                          None, None, 3, 150, (5, 2), 10, 1,
                          ("td3_steps_per_s", "a3c_steps_per_s")),
    "search": Spec(None, A8_OVERRIDES, {"ppo": (3, 25), "td3": (3, 25), "a3c": (3, 25)},
                   A6_SYSTEM, 5, (900, 901, 902), 300, (2, 3), 8, 5),
}

THROUGHPUT = {  # end-to-end metric -> unit
    "ppo_steps_per_s": "steps/s",
    "td3_steps_per_s": "steps/s",
    "a3c_steps_per_s": "steps/s",
    "search_candidates_per_s": "candidates/s",
    "oracle_points_per_s": "points/s",
}


def _merge(base: dict, over: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in over.items():
        if isinstance(value, dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _keys(seed: int, count: int) -> list:
    return [int(k) for k in np.random.SeedSequence(seed).generate_state(count, np.uint64)]


# --------------------------------------------------------------------------
# machine speed

# The host's speed switches between a fast and a slow state (about 1.5x
# apart) every few seconds, so raw wall-clock medians of two runs of the same
# code disagree by more than any useful bound.  Each timed call is therefore
# bracketed by a fixed kernel of interpreted Python and small NumPy calls (what
# srnoma's time goes to), and its rate is rescaled to a machine on which the
# kernel takes REFERENCE_KERNEL_S, this host's fast state.  The kernel builds
# no container objects, so the garbage collector never runs inside it, and
# srnoma code cannot change it.  Work bound by BLAS barely slows in the slow
# state: against the kernel's time, TD3 (400x300 nets) and 2-worker A3C
# on train-default scaled with exponents 0.23 and 0.32, where interpreted code
# scaled with about 1.  Rescaling those two would add noise, so a Spec lists
# them in ``wall_clock`` and they are reported raw.
REFERENCE_KERNEL_S = 1.0e-3


def kernel_s() -> float:
    """Best of three timings of the speed kernel, in seconds."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(8000):
            acc += i * i % 7
        x = np.ones(64)
        for _ in range(150):
            x = np.tanh(x * 0.5 + 0.1)
        best = min(best, time.perf_counter() - start)
    return best


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """Wall seconds rescaled to the reference speed, given the kernel times
    measured just before and just after."""
    return seconds * 2.0 * REFERENCE_KERNEL_S / (before + after)


@dataclasses.dataclass
class Inputs:
    spec: Spec
    train_config: dict
    search_cfg: network.SystemConfig
    search_channels: list
    oracle_cfg: network.SystemConfig
    oracle_channel: network.ChannelRealization
    op_seed: int


def setup(spec: Spec, root, seed: int) -> Inputs:
    """Everything a run needs before its first timed call: configurations,
    scenes and the fixed channels of the search and oracle calls."""
    keys = _keys(seed, 5)
    base = (harness.load_config(root / "configs" / spec.train_yaml)
            if spec.train_yaml else harness.default_config())
    train_config = _merge(base, spec.train_overrides)
    if spec.search_system is None:
        search_cfg = harness.system_from(train_config)
    else:
        search_cfg = network.SystemConfig(**spec.search_system)
    placement = network.make_placement(
        search_cfg, keys[0] if spec.search_placement is None else spec.search_placement)
    if isinstance(spec.search_channels, int):
        draws = np.random.Generator(np.random.Philox(keys[1]))
        channel_seeds = [int(draws.integers(0, 2**63)) for _ in range(spec.search_channels)]
    else:
        channel_seeds = list(spec.search_channels)
    channels = [network.draw_realization(search_cfg, placement, s) for s in channel_seeds]
    oracle_cfg = harness.system_from(harness.load_config(root / "configs" / "scalar.yaml"))
    oracle_channel = network.draw_realization(
        oracle_cfg, network.make_placement(oracle_cfg, keys[2]), keys[3])
    return Inputs(spec, train_config, search_cfg, channels, oracle_cfg, oracle_channel, keys[4])


def timed_setup(spec: Spec, root, seed: int) -> tuple:
    """Set up SETUP_REPEATS times; returns (inputs, median seconds rescaled to
    the reference machine speed, median wall seconds)."""
    times, scaled = [], []
    before = kernel_s()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = setup(spec, root, seed)
        times.append(time.perf_counter() - start)
        after = kernel_s()
        scaled.append(at_reference_speed(times[-1], before, after))
        before = after
    return inputs, statistics.median(scaled), statistics.median(times)


# --------------------------------------------------------------------------
# checks (all outside the timed region)


def _trace_rows(trace) -> list:
    """The trace CSV's deterministic columns, formatted as TrainingTrace.to_csv does."""
    return [f"{ep},{mr!r},{rate!r},{sat!r}" for ep, mr, rate, sat in zip(
        trace.episodes, trace.mean_rewards, trace.min_rates, trace.satisfied_counts)]


def check_trace(trace, episodes: int) -> list:
    errors = []
    if trace.aborted or len(trace) != episodes:
        errors.append(f"trace has {len(trace)} of {episodes} episodes (aborted={trace.aborted})")
    values = trace.mean_rewards + trace.min_rates + trace.satisfied_counts
    if not all(math.isfinite(v) for v in values):
        errors.append("trace holds non-finite values")
    if not all(0.0 <= s <= reference.N_CONSTRAINTS for s in trace.satisfied_counts):
        errors.append("mean satisfied count outside [0, 11]")
    if not all(r >= 0.0 for r in trace.mean_rewards):
        errors.append("negative literal reward")
    return errors


def _rescored(decision, objective: float, sum_rate: float, cfg, ch, what: str) -> list:
    ref = reference.score(ch, decision, cfg)
    errors = []
    if not reference.close(ref.min_rate, objective):
        errors.append(f"{what}: min-rate {objective!r} but reference {ref.min_rate!r}")
    if not reference.close(ref.sum_rate, sum_rate):
        errors.append(f"{what}: sum-rate {sum_rate!r} but reference {ref.sum_rate!r}")
    if not reference.structural_ok(ref):
        errors.append(f"{what}: best decision breaks C1..C9 per reference {ref.flags}")
    return errors


def check_search(result, cfg, ch, budget: int) -> list:
    errors = []
    if result.evaluated != budget:
        errors.append(f"random_search evaluated {result.evaluated}, budget {budget}")
    if not 0 <= result.feasible_count <= result.evaluated:
        errors.append(f"feasible count {result.feasible_count} of {result.evaluated}")
    if result.feasible:
        errors += _rescored(result.decision, result.objective, result.sum_rate, cfg, ch,
                            "random_search")
    return errors


def oracle_axes(cfg, resolution: int, mode: str) -> dict:
    """The grid the oracle documents: uniform axes over eta, tau, power, the
    surface gains and the phases (beta_r tied to beta_t in passive mode)."""
    cap = cfg.p_asris_watts / 2.0
    axes = {
        "eta": np.linspace(0.0, 1.0, resolution),
        "tau": np.linspace(0.0, 1.0, resolution),
        "power": np.linspace(0.0, cfg.p_bs_max_watts, resolution),
        "beta_t": np.linspace(0.0, cap if mode == ACTIVE else 1.0, resolution),
        "beta_r": np.linspace(0.0, cap, resolution),
        "theta_t": np.linspace(0.0, 2.0 * math.pi, resolution),
        "theta_r": np.linspace(0.0, 2.0 * math.pi, resolution),
    }
    if mode == PASSIVE:
        del axes["beta_r"]
    return axes


def check_oracle(result, cfg, ch, resolution: int, mode: str, seed: int,
                 samples: int = 64) -> list:
    """Counts match the grid, the optimum re-scores, and no sampled grid
    point that is clearly feasible scores above the optimum."""
    axes = oracle_axes(cfg, resolution, mode)
    size = math.prod(len(v) for v in axes.values())
    errors = []
    if result.evaluated != size:
        errors.append(f"grid_oracle evaluated {result.evaluated}, grid holds {size}")
    if not 0 <= result.feasible_count <= result.evaluated:
        errors.append(f"feasible count {result.feasible_count} of {result.evaluated}")
    if result.feasible:
        errors += _rescored(result.decision, result.objective, result.sum_rate, cfg, ch,
                            "grid_oracle")
    rng = np.random.Generator(np.random.Philox(seed))
    bound = result.objective + reference.REL_TOL * abs(result.objective)
    for _ in range(samples):
        p = {name: float(values[rng.integers(len(values))]) for name, values in axes.items()}
        beta_r = p["beta_r"] if mode == ACTIVE else 1.0 - p["beta_t"]
        dv = reference.Decision(0.0, [p["eta"]], [p["tau"]], [p["power"]], [[1 + 0j]],
                                [[1 + 0j]], [p["beta_t"]], [beta_r], [p["theta_t"]],
                                [p["theta_r"]], mode)
        ref = reference.score(ch, dv, cfg)
        clearly = all(ref.flags[k] and not reference.ambiguous(ref, k)
                      for k in range(reference.STRUCTURAL))
        if clearly and not (ref.min_rate <= bound):
            errors.append(f"grid point {p} scores {ref.min_rate!r} above the optimum "
                          f"{result.objective!r}")
            break
    return errors


def greedy_action(agent, state):
    if isinstance(agent, srnoma_agents.Td3Agent):
        return agent.act(state, explore=False)
    return np.tanh(agent.policy.net.forward(state))


def check_rescore(agent, config: dict, steps: int, seed: int) -> list:
    """Step the trained policy's greedy actions and re-score every step.

    A second environment with raw observations runs in lockstep (same reset
    seed, so the same draws); its state is the channel the step is scored on.
    """
    env_cfg = config["env"]
    if env_cfg["r_mode"] != "literal" or env_cfg["reward_mode"] != "literal":
        raise ValueError("the rescore check covers the literal reward only")
    env = harness.env_from(config)
    raw = harness.env_from(_merge(config, {"env": {"normalize_obs": False}}))
    cfg = env.cfg
    n, m, users = cfg.n_bs_antennas, cfg.n_ris_elements, cfg.n_pairs
    state, raw_state = env.reset(seed), raw.reset(seed)
    errors = []
    for t in range(steps):
        action = greedy_action(agent, state)
        ch = reference.channel_from_state(raw_state, n, m, users)
        cap = env_cfg["rate_cap"]
        cap = reference.rate_cap_auto(ch, cfg) if cap is None else cap
        clipped = [min(max(x, -1.0), 1.0) for x in np.asarray(action, dtype=float).tolist()]
        dv = reference.decode(clipped, cfg, env.ris_mode, cap)
        ref = reference.score(ch, dv, cfg)
        result, raw_result = env.step(action), raw.step(action)
        info = result.info
        lo, hi = reference.satisfied_range(ref)
        count = info.satisfied_count if lo <= info.satisfied_count <= hi else ref.satisfied_count
        if not reference.close(info.rate_cap, cap):
            errors.append(f"step {t}: rate cap {info.rate_cap!r}, reference {cap!r}")
        if not reference.close(info.min_rate, ref.min_rate):
            errors.append(f"step {t}: min-rate {info.min_rate!r}, reference {ref.min_rate!r}")
        if not lo <= info.satisfied_count <= hi:
            errors.append(f"step {t}: {info.satisfied_count} satisfied, reference {lo}..{hi}")
        if not reference.close(result.reward, reference.literal_reward(dv.rate_target, count)):
            errors.append(f"step {t}: reward {result.reward!r}, reference "
                          f"{reference.literal_reward(dv.rate_target, count)!r}")
        if raw_result.reward != result.reward:
            errors.append(f"step {t}: observation normalisation changed the reward")
        if errors:
            break
        state, raw_state = result.state, raw_result.state
        if result.done:
            state, raw_state = env.reset(seed + t + 1), raw.reset(seed + t + 1)
    return errors


# --------------------------------------------------------------------------
# timed rounds


@dataclasses.dataclass
class Pass:
    """What one timed pass measured and found."""

    rates: dict = dataclasses.field(default_factory=lambda: {k: [] for k in THROUGHPUT})
    wall_rates: dict = dataclasses.field(default_factory=lambda: {k: [] for k in THROUGHPUT})
    kernels: dict = dataclasses.field(default_factory=lambda: {k: [] for k in THROUGHPUT})
    attempted: int = 0
    failed: int = 0
    errors: list = dataclasses.field(default_factory=list)
    failures: list = dataclasses.field(default_factory=list)
    rounds: int = 0
    seconds: float = 0.0
    last_agents: dict = dataclasses.field(default_factory=dict)
    first_train: dict = dataclasses.field(default_factory=dict)  # algo -> (seed, rows)
    kernel: float = dataclasses.field(default_factory=kernel_s)  # after the last call

    def call(self, metric: str, op, work):
        """Time op(); record work(result) per second, raw and speed-rescaled.
        Returns op's result, or None when it raised (counted as failed)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = op()
        except Exception as exc:  # count it and keep the run going
            self.failed += 1
            self.failures.append(f"{metric}: {type(exc).__name__}: {exc}")
            return None
        seconds = time.perf_counter() - start
        before, self.kernel = self.kernel, kernel_s()
        done = work(result)
        self.wall_rates[metric].append(done / seconds)
        self.kernels[metric].append((before, self.kernel))
        self.rates[metric].append(done / at_reference_speed(seconds, before, self.kernel))
        return result

    def medians(self, wall_clock: tuple = ()) -> dict:
        """Median rate per metric; raw wall-clock for the metrics named."""
        return {k: statistics.median(self.wall_rates[k] if k in wall_clock else v)
                for k, v in self.rates.items() if v}


def _round(inputs: Inputs, seeds: np.random.Generator, out: Pass) -> None:
    spec, config = inputs.spec, inputs.train_config
    for algo in ALGOS:
        calls, episodes = spec.training[algo]
        for _ in range(calls):
            seed = int(seeds.integers(0, 2**63))
            env = harness.env_from(config)
            done = out.call(
                f"{algo}_steps_per_s",
                lambda: srnoma_agents.train(algo, env, episodes, seed,
                                            hyper=config["agents"][algo]),
                lambda r: episodes * env.episode_steps * getattr(r[0], "workers", 1))
            if done is not None:
                agent, trace = done
                out.errors += [f"{algo}: {e}" for e in check_trace(trace, episodes)]
                out.last_agents[algo] = agent
                out.first_train.setdefault(algo, (seed, _trace_rows(trace)))

    for ch in inputs.search_channels:
        seed = int(seeds.integers(0, 2**63))
        for mode in (ACTIVE, PASSIVE):
            result = out.call(
                "search_candidates_per_s",
                lambda: harness.random_search(inputs.search_cfg, ch, mode,
                                              spec.search_budget, seed),
                lambda r: r.evaluated)
            if result is not None:
                out.errors += check_search(result, inputs.search_cfg, ch, spec.search_budget)

    calls, resolution = spec.oracle
    for _ in range(calls):
        sample_seed = int(seeds.integers(0, 2**63))
        result = out.call(
            "oracle_points_per_s",
            lambda: harness.grid_oracle(inputs.oracle_cfg, inputs.oracle_channel, ACTIVE,
                                        resolution),
            lambda r: r.evaluated)
        if result is not None:
            out.errors += check_oracle(result, inputs.oracle_cfg, inputs.oracle_channel,
                                       resolution, ACTIVE, sample_seed)


def timed_pass(inputs: Inputs, seconds: float, tracer=None) -> list:
    """Whole rounds until `seconds` are used; a round is not started when it
    would most likely end more than half a round past the deadline.

    With a tracer, an untraced and a traced round alternate on the same
    inputs, so both passes see the same drift of the machine; the result is
    then [untraced pass, traced pass], else [pass].
    """
    passes = [Pass()] if tracer is None else [Pass(), Pass()]
    seeds = [np.random.Generator(np.random.Philox(inputs.op_seed)) for _ in passes]
    start = time.perf_counter()
    durations = []
    while True:
        began = time.perf_counter()
        for k, out in enumerate(passes):
            if k:
                tracer.install()
            try:
                _round(inputs, seeds[k], out)
            finally:
                if k:
                    tracer.uninstall()
            out.rounds += 1
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) / 2.0 >= seconds:
            break
    for out in passes:
        out.seconds = elapsed
    return passes


def final_checks(inputs: Inputs, measured: Pass) -> list:
    """Re-score trained policies and re-run each single-threaded agent's first
    call to compare its trace prefix byte for byte."""
    spec, config = inputs.spec, inputs.train_config
    errors = []
    for k, algo in enumerate(ALGOS):
        agent = measured.last_agents.get(algo)
        if agent is not None:
            errors += [f"{algo} rescore: {e}" for e in
                       check_rescore(agent, config, spec.rescore_steps, inputs.op_seed + k)]
        if algo == "a3c" and config["agents"]["a3c"]["workers"] > 1:
            continue  # threaded workers are not reproducible
        if algo not in measured.first_train:
            continue
        seed, rows = measured.first_train[algo]
        episodes = min(spec.prefix_episodes, spec.training[algo][1])
        _, trace = srnoma_agents.train(algo, harness.env_from(config), episodes, seed,
                                       hyper=config["agents"][algo])
        if _trace_rows(trace) != rows[:episodes]:
            errors.append(f"{algo}: re-running {episodes} episodes with seed {seed} "
                          "does not reproduce the trace prefix")
    return errors
