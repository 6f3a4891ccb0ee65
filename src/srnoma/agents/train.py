"""Unified training entry point for the three algorithms."""

from __future__ import annotations

import inspect
import os

import numpy as np

from ..nn import NonFiniteGradientError, save_checkpoint
from .a3c import A3cAgent, kstep_returns
from .common import EpisodeStats, TrainingTrace, derive_keys, philox
from .ppo import PpoAgent, advantage_and_target
from .td3 import Td3Agent

ALGORITHMS = ("ppo", "td3", "a3c")

_AGENT_CLASSES = {"ppo": PpoAgent, "td3": Td3Agent, "a3c": A3cAgent}


def _filtered(cls, hyper: dict) -> dict:
    accepted = set(inspect.signature(cls.__init__).parameters)
    picked = {k: v for k, v in (hyper or {}).items() if k in accepted and k != "self"}
    if "hidden" in picked:
        picked["hidden"] = tuple(picked["hidden"])
    return picked


def build_agent(algo: str, state_dim: int, action_dim: int, hyper: dict | None,
                seed: int):
    if algo not in _AGENT_CLASSES:
        raise ValueError(f"unknown algorithm {algo!r}; pick one of {ALGORITHMS}")
    cls = _AGENT_CLASSES[algo]
    return cls(state_dim, action_dim, seed=seed, **_filtered(cls, hyper or {}))


def _checkpoint(agent, algo: str, directory, episode: int, final: bool) -> None:
    name = f"ckpt_{algo}_final.npz" if final else f"ckpt_{algo}_ep{episode:06d}.npz"
    save_checkpoint(
        os.path.join(directory, name),
        agent.state_dict(),
        meta={"algo": algo, "episode": episode},
    )


def _ppo_episode(agent: PpoAgent, env, episode_seed: int) -> EpisodeStats:
    state = env.reset(episode_seed)
    states, pres, log_probs, rewards, next_states, dones = [], [], [], [], [], []
    stats = EpisodeStats()
    done = False
    while not done:
        action, pre, log_prob = agent.act(state)
        result = env.step(action)
        states.append(state)
        pres.append(pre)
        log_probs.append(log_prob)
        rewards.append(result.reward)
        next_states.append(result.state)
        dones.append(float(result.done))
        stats.add(result.reward, result.info.min_rate, result.info.satisfied_count)
        state = result.state
        done = result.done
    batch_states = np.stack(states)
    values = agent.old_values(batch_states)
    next_values = agent.old_values(np.stack(next_states))
    advantages, targets = advantage_and_target(
        np.asarray(rewards), values, next_values, np.asarray(dones), agent.discount
    )
    agent.update(batch_states, np.stack(pres), np.asarray(log_probs), advantages, targets)
    return stats


def _td3_episode(agent: Td3Agent, env, episode_seed: int) -> EpisodeStats:
    state = env.reset(episode_seed)
    stats = EpisodeStats()
    done = False
    while not done:
        action = agent.act(state)
        result = env.step(action)
        agent.observe(state, action, result.reward, result.state, float(result.done))
        agent.update()
        stats.add(result.reward, result.info.min_rate, result.info.satisfied_count)
        state = result.state
        done = result.done
    return stats


def train(
    algo: str,
    env,
    episodes: int,
    seed: int,
    hyper: dict | None = None,
    checkpoint_dir=None,
    checkpoint_every: int = 0,
):
    """Train one agent on the environment; returns (agent, TrainingTrace).

    A non-finite gradient aborts the run: the trace keeps the episodes
    finished so far, flags the abort, and the checkpoint on disk stays at the
    last parameters the optimizers accepted.
    """
    agent_key, env_key = derive_keys(seed, 2)
    agent = build_agent(algo, env.state_dim, env.action_dim, hyper, agent_key)
    trace = TrainingTrace()

    if algo == "a3c":
        envs = [env] + [env.replicate() for _ in range(agent.workers - 1)]
        worker_keys = derive_keys(env_key, 2 * agent.workers)
        seed_streams = [philox(worker_keys[2 * w]) for w in range(agent.workers)]
        action_rngs = [philox(worker_keys[2 * w + 1]) for w in range(agent.workers)]
    else:
        seed_stream = philox(env_key)

    for episode in range(episodes):
        try:
            if algo == "ppo":
                stats = _ppo_episode(agent, env, int(seed_stream.integers(0, 2**63)))
                means = stats.means()
            elif algo == "td3":
                stats = _td3_episode(agent, env, int(seed_stream.integers(0, 2**63)))
                means = stats.means()
            else:
                episode_seeds = [int(s.integers(0, 2**63)) for s in seed_streams]
                rounds = agent.run_episode_round(envs, episode_seeds, action_rngs)
                per_worker = [s.means() for s in rounds]
                means = tuple(float(np.mean(col)) for col in zip(*per_worker))
        except NonFiniteGradientError:
            trace.aborted = True
            break
        trace.append(episode, *means)
        if checkpoint_dir and checkpoint_every > 0 and (episode + 1) % checkpoint_every == 0:
            _checkpoint(agent, algo, checkpoint_dir, episode + 1, final=False)

    if checkpoint_dir:
        _checkpoint(agent, algo, checkpoint_dir, len(trace), final=True)
    return agent, trace


__all__ = [
    "ALGORITHMS",
    "train",
    "build_agent",
    "advantage_and_target",
    "kstep_returns",
]
