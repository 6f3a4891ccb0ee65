"""Unified training entry point for the three algorithms."""

from __future__ import annotations

import inspect
import os

import numpy as np

from ..network import derive_keys, next_seed, philox
from ..nn import NonFiniteGradientError, save_checkpoint
from .a3c import A3cAgent, kstep_returns
from .common import EpisodeStats, TrainingTrace, rollout
from .ppo import PpoAgent, advantage_and_target
from .td3 import Td3Agent

ALGORITHMS = ("ppo", "td3", "a3c")

_AGENT_CLASSES = {"ppo": PpoAgent, "td3": Td3Agent, "a3c": A3cAgent}

# keys of the paper's hyperparameter table that an agent may not take: every
# agent section of a config lists them, so they are skipped, not rejected
REFERENCE_ONLY = frozenset({"episodes", "steps", "target_update", "entropy_coef", "minibatch"})


def _filtered(cls, hyper: dict) -> dict:
    accepted = set(inspect.signature(cls.__init__).parameters) - {"self"}
    unknown = sorted(set(hyper) - accepted - REFERENCE_ONLY)
    if unknown:
        raise ValueError(f"{cls.__name__} takes no hyperparameter {', '.join(unknown)}")
    picked = {k: v for k, v in hyper.items() if k in accepted}
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
    stats = EpisodeStats()
    steps = [(state, pre, log_prob, result.reward, result.state, float(result.done))
             for state, (_, pre, log_prob), result in rollout(env, episode_seed, agent.act, stats)]
    states, pres, log_probs, rewards, next_states, dones = (np.asarray(c) for c in zip(*steps))
    values = lambda x: agent.critic.forward(x)[:, 0]
    advantages, targets = advantage_and_target(
        rewards, values(states), values(next_states), dones, agent.discount
    )
    agent.update(states, pres, log_probs, advantages, targets)
    return stats


def _td3_episode(agent: Td3Agent, env, episode_seed: int) -> EpisodeStats:
    stats = EpisodeStats()
    for state, (action,), result in rollout(env, episode_seed, lambda s: (agent.act(s),), stats):
        agent.observe(state, action, result.reward, result.state, float(result.done))
        agent.update()
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
        seed_streams = [philox(key) for key in worker_keys[0::2]]
        action_rngs = [philox(key) for key in worker_keys[1::2]]
    else:
        seed_stream = philox(env_key)
        play = _ppo_episode if algo == "ppo" else _td3_episode

    for episode in range(episodes):
        try:
            if algo == "a3c":
                rounds = agent.run_episode_round(
                    envs, [next_seed(s) for s in seed_streams], action_rngs)
                means = tuple(float(np.mean(col)) for col in zip(*(s.means() for s in rounds)))
            else:
                means = play(agent, env, next_seed(seed_stream)).means()
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
