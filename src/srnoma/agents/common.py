"""Shared training plumbing: the episode driver, the observation normaliser,
replay storage, episode traces, hyperparameter checks, checkpoints, the PPO/A3C
core, the critic gradient."""

from __future__ import annotations

import dataclasses

import numpy as np

from ..network import derive_keys, next_seed, philox
from ..nn import LOG_STD_MAX, LOG_STD_MIN, GaussianPolicy, Mlp, make_optimizer


def check_in(interval: str, **values) -> None:
    """Raise ValueError unless every value lies in ``interval``, written like
    "[0, 1]", "(0, inf)" or "[1, inf]"; NaN and values that are not numbers
    lie in none."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    for name, value in values.items():
        try:
            above = value > low if interval[0] == "(" else value >= low
            below = value < high if interval[-1] == ")" else value <= high
        except TypeError:
            above = below = False
        if not (above and below):
            raise ValueError(f"{name} must be in {interval}, got {value!r}")


class ObsNormalizer:
    """Welford running mean/variance of raw observations.  Calling it adds the
    observation to the statistics, then normalises it; ``normalize`` only
    normalises, so evaluation sees the inputs training fed the agent."""

    def __init__(self, dim: int) -> None:
        self.count = 0
        self.mean = np.zeros(dim)
        self.m2 = np.zeros(dim)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)
        return self.normalize(x)

    def normalize(self, x: np.ndarray) -> np.ndarray:
        var = self.m2 / max(self.count, 1)
        return (x - self.mean) / np.sqrt(var + 1e-8)

    def state_arrays(self) -> dict:
        return {"count": np.array(self.count), "mean": self.mean, "m2": self.m2}

    def load_state_arrays(self, arrays: dict) -> None:
        self.count = int(arrays["count"])
        self.mean[...] = arrays["mean"]
        self.m2[...] = arrays["m2"]


class Checkpointed:
    """Checkpoint of the nets (``<name>/w<i>``, ``<name>/b<i>``), the optimizers and the
    observation normaliser (``<name>/<key>``, the normaliser as ``obs``), and the arrays
    ``_checkpoint_parts()`` names, as live arrays.  Loading writes in place and gives the
    agent the normaliser the state holds, or none."""

    normalizer = None  # the ObsNormalizer train() hands over when the env normalises

    def _parts(self) -> tuple[dict, dict, dict]:
        nets, optimizers, arrays = self._checkpoint_parts()
        if self.normalizer is not None:
            optimizers = {**optimizers, "obs": self.normalizer}
        return nets, optimizers, arrays

    def state_dict(self) -> dict:
        nets, optimizers, arrays = self._parts()
        state = {}
        for prefix, net in nets.items():
            for i, (w, b) in enumerate(zip(net.weights, net.biases)):
                state[f"{prefix}/w{i}"] = w
                state[f"{prefix}/b{i}"] = b
        for prefix, opt in optimizers.items():
            for key, value in opt.state_arrays().items():
                state[f"{prefix}/{key}"] = value
        return {**state, **arrays}

    def load_state_dict(self, state: dict) -> None:
        self.normalizer = ObsNormalizer(len(state["obs/mean"])) if "obs/mean" in state else None
        nets, optimizers, arrays = self._parts()
        for prefix, net in nets.items():
            for i in range(len(net.weights)):
                net.weights[i][...] = state[f"{prefix}/w{i}"]
                net.biases[i][...] = state[f"{prefix}/b{i}"]
        for prefix, opt in optimizers.items():
            opt.load_state_arrays({key[len(prefix) + 1 :]: value for key, value in state.items()
                                   if key.startswith(prefix + "/")})
        for key, live in arrays.items():
            live[...] = state[key]


def critic_gradient(critic: Mlp, inputs: np.ndarray, targets: np.ndarray,
                    divisor: float = 1) -> tuple[np.ndarray, np.ndarray]:
    """Flat gradient of sum (V(x) - target)^2 / divisor over the batch, and
    the values V(x) it was taken at."""
    values, cache = critic.forward_cached(inputs)
    residual = values[:, 0] - targets
    grads, _ = critic.backward(cache, (2.0 * residual / divisor)[:, None], inputs=False)
    return grads.flat, values[:, 0]


class ActorCritic(Checkpointed):
    """Gaussian policy and state-value critic over the same hidden sizes, each
    with its own optimizer: the core of PPO and A3C."""

    def __init__(self, state_dim: int, action_dim: int, hidden: tuple, actor_lr: float,
                 critic_lr: float, optimizer: str, init_log_std: float,
                 init_rng: np.random.Generator) -> None:
        check_in("(0, inf)", actor_lr=actor_lr, critic_lr=critic_lr)
        check_in(f"[{LOG_STD_MIN}, {LOG_STD_MAX}]", init_log_std=init_log_std)
        sizes = (state_dim, *hidden)
        self.policy = GaussianPolicy(Mlp((*sizes, action_dim), init_rng), init_log_std)
        self.critic = Mlp((*sizes, 1), init_rng)
        self.actor_opt = make_optimizer(optimizer, actor_lr, self.policy.shapes)
        self.critic_opt = make_optimizer(optimizer, critic_lr, self.critic.shapes)

    def apply_gradients(self, actor_grad: np.ndarray, log_std_grad: np.ndarray,
                        critic_grad: np.ndarray) -> None:
        """Descend the flat gradients: actor net and log-std, then the critic."""
        self.actor_opt.step([self.policy.net.flat, self.policy.log_std],
                            [actor_grad, log_std_grad])
        self.policy.clamp_log_std()
        self.critic_opt.step([self.critic.flat], [critic_grad])

    def _checkpoint_parts(self) -> tuple[dict, dict, dict]:
        return ({"actor": self.policy.net, "critic": self.critic},
                {"opt_actor": self.actor_opt, "opt_critic": self.critic_opt},
                {"log_std": self.policy.log_std})


class ReplayBuffer:
    """Fixed-capacity uniform replay over flat transitions."""

    def __init__(self, capacity: int, state_dim: int, action_dim: int) -> None:
        self.capacity = int(capacity)
        self.states = np.zeros((capacity, state_dim))
        self.actions = np.zeros((capacity, action_dim))
        self.rewards = np.zeros(capacity)
        self.next_states = np.zeros((capacity, state_dim))
        self.dones = np.zeros(capacity)
        self.size = 0
        self._pos = 0

    def add(self, state, action, reward, next_state, done) -> None:
        i = self._pos
        self.states[i] = state
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_states[i] = next_state
        self.dones[i] = float(done)
        self._pos = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, rng: np.random.Generator, batch: int) -> dict:
        idx = rng.integers(0, self.size, size=batch)
        return {
            "states": self.states[idx],
            "actions": self.actions[idx],
            "rewards": self.rewards[idx],
            "next_states": self.next_states[idx],
            "dones": self.dones[idx],
        }

    def __len__(self) -> int:
        return self.size


@dataclasses.dataclass
class TrainingTrace:
    """Per-episode aggregates of one training run."""

    episodes: list = dataclasses.field(default_factory=list)
    mean_rewards: list = dataclasses.field(default_factory=list)
    min_rates: list = dataclasses.field(default_factory=list)
    satisfied_counts: list = dataclasses.field(default_factory=list)
    aborted: bool = False

    def append(self, episode: int, mean_reward: float, min_rate: float,
               satisfied_count: float) -> None:
        self.episodes.append(int(episode))
        self.mean_rewards.append(float(mean_reward))
        self.min_rates.append(float(min_rate))
        self.satisfied_counts.append(float(satisfied_count))

    def __len__(self) -> int:
        return len(self.episodes)

    def to_csv(self, path, config_hash: str, seed: int) -> None:
        """Deterministic text dump; repr keeps float bytes identical across runs."""
        with open(path, "w") as fh:
            fh.write("episode,mean_reward,min_rate,satisfied_count,config_hash,seed\n")
            for ep, mr, rate, sat in zip(
                self.episodes, self.mean_rewards, self.min_rates, self.satisfied_counts
            ):
                fh.write(f"{ep},{mr!r},{rate!r},{sat!r},{config_hash},{seed}\n")


class EpisodeStats:
    """Streaming means of reward / worst rate / satisfied constraints."""

    def __init__(self) -> None:
        self.steps = 0
        self.reward_sum = 0.0
        self.min_rate_sum = 0.0
        self.satisfied_sum = 0.0

    def add(self, reward: float, min_rate: float, satisfied: int) -> None:
        self.steps += 1
        self.reward_sum += reward
        self.min_rate_sum += min_rate
        self.satisfied_sum += satisfied

    def means(self) -> tuple[float, float, float]:
        n = max(self.steps, 1)
        return self.reward_sum / n, self.min_rate_sum / n, self.satisfied_sum / n


def rollout(env, seed: int, act, stats: EpisodeStats, observe=None, block: int = 1):
    """Play one episode of ``env`` from ``reset(seed)``, ``block`` frames per
    ``env.step`` call; the only place the package resets or steps an
    environment.

    ``observe`` (an ObsNormalizer, its ``normalize``, or None for raw states)
    maps the states s_0 ... s_T once each, in frame order.  Per block the
    driver calls ``act(state)``, which returns a tuple whose first item is the
    action, once per frame in step order, on the states ``env.upcoming_states``
    gives; steps the block in one call; and per step adds it to ``stats`` and
    yields ``(state, choice, result)``: the state acted on, act's tuple and
    the StepResult.  The next block's ``act`` calls run only after the consumer
    has handled the block's last step; ``block`` 1 steps single frames, each a
    block of one.  The steps are those of ``block`` 1, bit for bit, unless an
    action depends on the handling of an earlier step of its block: such a
    caller keeps ``block`` at 1.
    """
    observe = observe or (lambda state: state)
    state = observe(env.reset(seed))
    done = False
    while not done:
        states, choices = [state], [act(state)]
        for raw in env.upcoming_states(block)[1:]:
            states.append(observe(raw))
            choices.append(act(states[-1]))
        results = env.step(np.stack([choice[0] for choice in choices]))
        for t, result in enumerate(results):
            result.state = states[t + 1] if t + 1 < len(states) else observe(result.state)
            stats.add(result.reward, result.info.min_rate, result.info.satisfied_count)
            yield states[t], choices[t], result
        state, done = result.state, result.done


def random_policy_trace(env, episodes: int, seed: int) -> TrainingTrace:
    """Uniform-action rollouts; the reference noise floor for learning curves."""
    env_key, act_key = derive_keys(seed, 2)
    env_seeds, act_rng = philox(env_key), philox(act_key)
    act = lambda _state: (act_rng.uniform(-1.0, 1.0, env.action_dim),)
    trace = TrainingTrace()
    for ep in range(episodes):
        stats = EpisodeStats()
        for _ in rollout(env, next_seed(env_seeds), act, stats, block=env.episode_steps):
            pass
        trace.append(ep, *stats.means())
    return trace
