"""Shared training plumbing: replay storage, episode traces, seed derivation,
checkpoint arrays."""

from __future__ import annotations

import dataclasses
import math

import numpy as np


def derive_keys(seed: int, count: int) -> list[int]:
    """Independent 64-bit generator keys fanned out from one master seed."""
    return [int(k) for k in np.random.SeedSequence(seed).generate_state(count, np.uint64)]


def philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def check_learning_rates(**rates) -> None:
    for name, lr in rates.items():
        if not (math.isfinite(lr) and lr > 0.0):
            raise ValueError(f"{name} must be finite and > 0, got {lr!r}")


class Checkpointed:
    """Checkpoint of the nets (``<name>/w<i>``, ``<name>/b<i>``), optimizers (``<name>/<key>``)
    and arrays ``_checkpoint_parts()`` names, as live arrays; loading writes in place."""

    def state_dict(self) -> dict:
        nets, optimizers, arrays = self._checkpoint_parts()
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
        nets, optimizers, arrays = self._checkpoint_parts()
        for prefix, net in nets.items():
            for i in range(len(net.weights)):
                net.weights[i][...] = state[f"{prefix}/w{i}"]
                net.biases[i][...] = state[f"{prefix}/b{i}"]
        for prefix, opt in optimizers.items():
            opt.load_state_arrays({key[len(prefix) + 1 :]: value for key, value in state.items()
                                   if key.startswith(prefix + "/")})
        for key, live in arrays.items():
            live[...] = state[key]


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


def random_policy_trace(env, episodes: int, seed: int) -> TrainingTrace:
    """Uniform-action rollouts; the reference noise floor for learning curves."""
    env_key, act_key = derive_keys(seed, 2)
    env_seeds = philox(env_key)
    act_rng = philox(act_key)
    trace = TrainingTrace()
    for ep in range(episodes):
        env.reset(int(env_seeds.integers(0, 2**63)))
        stats = EpisodeStats()
        done = False
        while not done:
            result = env.step(act_rng.uniform(-1.0, 1.0, env.action_dim))
            stats.add(result.reward, result.info.min_rate, result.info.satisfied_count)
            done = result.done
        trace.append(ep, *stats.means())
    return trace
