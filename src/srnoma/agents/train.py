"""Unified training entry point for the three algorithms."""

from __future__ import annotations

import inspect
import os

import numpy as np

from ..network import check_in, derive_keys, next_seed, philox
from ..nn import NonFiniteGradientError, save_checkpoint
from .a3c import A3cAgent, kstep_returns
from .common import EpisodeStats, ObsNormalizer, TrainingTrace, rollout
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
        if not isinstance(picked["hidden"], (list, tuple)):
            raise ValueError(f"hidden must be a list of layer widths, got {picked['hidden']!r}")
        picked["hidden"] = tuple(picked["hidden"])
    return picked


def build_agent(algo: str, state_dim: int, action_dim: int, hyper: dict | None,
                seed: int):
    check_in(ALGORITHMS, algo=algo)
    cls = _AGENT_CLASSES[algo]
    return cls(state_dim, action_dim, seed=seed, **_filtered(cls, hyper or {}))


def _checkpoint(agent, algo: str, directory, episode: int, final: bool) -> None:
    name = f"ckpt_{algo}_final.npz" if final else f"ckpt_{algo}_ep{episode:06d}.npz"
    os.makedirs(directory, exist_ok=True)
    save_checkpoint(
        os.path.join(directory, name),
        agent.state_dict(),
        meta={"algo": algo, "episode": episode},
    )


def _ppo_episode(agent: PpoAgent, env, episode_seed: int) -> EpisodeStats:
    stats = EpisodeStats()
    episode = rollout(env, episode_seed, agent.act, stats, agent.normalizer,
                      env.episode_steps)
    blocks = [(states, pres, log_probs, result.reward, result.state, result.done)
              for states, (_, pres, log_probs), result in episode]
    states, pres, log_probs, rewards, next_states, dones = map(np.concatenate, zip(*blocks))
    values = lambda x: agent.critic.forward(x)[:, 0]
    advantages, targets = advantage_and_target(
        rewards, values(states), values(next_states), dones, agent.discount
    )
    agent.update(states, pres, log_probs, advantages, targets)
    return stats


def _td3_episode(agent: Td3Agent, env, episode_seed: int) -> EpisodeStats:
    stats = EpisodeStats()
    for states, (actions,), result in rollout(env, episode_seed, lambda s: (agent.act(s),),
                                              stats, agent.normalizer, env.episode_steps):
        for frame in zip(states, actions, result.reward, result.state):
            agent.buffer.add(*frame)
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

    When ``env.normalize_obs`` is set the agent gets an ObsNormalizer as
    ``agent.normalizer``: it learns from the states of training and is saved
    in the checkpoint.  A non-finite gradient aborts the run: the trace keeps
    the episodes finished so far, flags the abort, and the checkpoint on disk
    stays at the last parameters the optimizers accepted.  An ``episodes`` or
    ``checkpoint_every`` that is not a count from 0 raises ValueError.
    """
    check_in("[0, inf]", episodes=episodes, checkpoint_every=checkpoint_every)
    agent_key, env_key = derive_keys(seed, 2)
    agent = build_agent(algo, env.state_dim, env.action_dim, hyper, agent_key)
    fresh = lambda: ObsNormalizer(env.state_dim) if env.normalize_obs else None
    agent.normalizer = fresh()
    trace = TrainingTrace()

    if algo == "a3c":
        # worker 0 learns the agent's statistics, every other worker its own
        observers = [agent.normalizer] + [fresh() for _ in range(agent.workers - 1)]
        worker_keys = derive_keys(env_key, 2 * agent.workers)
        seed_streams = [philox(key) for key in worker_keys[0::2]]
        action_rngs = [philox(key) for key in worker_keys[1::2]]
    else:
        seed_stream = philox(env_key)
        play = _ppo_episode if algo == "ppo" else _td3_episode

    for episode in range(episodes):
        try:
            if algo == "a3c":
                rounds = [agent.worker_episode(env, next_seed(s), rng, observe)
                          for s, rng, observe in zip(seed_streams, action_rngs, observers)]
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
