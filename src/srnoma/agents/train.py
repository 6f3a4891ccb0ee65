"""Unified training entry point for the three algorithms: each agent's
``episodes(env, env_key)`` builds its streams once and yields one training
episode's means per ``next``, so ``train`` has no algorithm branch."""

from __future__ import annotations

import inspect
import os

from ..network import check_in, derive_keys
from ..nn import NonFiniteGradientError, save_checkpoint
from .a3c import A3cAgent
from .common import ObsNormalizer, TrainingTrace
from .ppo import PpoAgent
from .td3 import Td3Agent

AGENT_CLASSES = {"ppo": PpoAgent, "td3": Td3Agent, "a3c": A3cAgent}
ALGORITHMS = tuple(AGENT_CLASSES)


def keyword_defaults(cls) -> dict:
    """The keyword defaults of ``cls``'s constructor, except its seed."""
    return {name: p.default for name, p in inspect.signature(cls).parameters.items()
            if p.default is not p.empty and name != "seed"}


# read once: the hyperparameters each agent takes, with their defaults
HYPER_DEFAULTS = {algo: keyword_defaults(cls) for algo, cls in AGENT_CLASSES.items()}
_BUDGET = {"episodes": 30000, "steps": 200}
# the keys of the paper's hyperparameter table that an agent does not take,
# with their table values: its config section lists them, so they are skipped
TABLE_ONLY = {
    "ppo": {"target_update": 0.0005, "entropy_coef": 0.01, **_BUDGET},
    "td3": {**_BUDGET},
    "a3c": {"minibatch": 64, "target_update": 0.0005, **_BUDGET},
}


def _filtered(algo: str, hyper: dict) -> dict:
    cls = AGENT_CLASSES[algo]
    accepted = HYPER_DEFAULTS[algo]
    unknown = sorted(set(hyper) - set(accepted) - set(TABLE_ONLY[algo]))
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
    return AGENT_CLASSES[algo](state_dim, action_dim, seed=seed, **_filtered(algo, hyper or {}))


def _checkpoint(agent, algo: str, directory, episode: int, final: bool) -> None:
    name = f"ckpt_{algo}_final.npz" if final else f"ckpt_{algo}_ep{episode:06d}.npz"
    # the weights of wide nets depend on the BLAS thread count: record it
    blas_threads = {var: os.environ.get(var)
                    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    save_checkpoint(
        os.path.join(directory, name),
        agent.state_dict(),
        meta={"algo": algo, "episode": episode, "blas_threads": blas_threads},
    )


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
    ``checkpoint_every`` that is not a count from 0 raises ValueError, and a
    ``checkpoint_dir`` that is a file OSError, before the first episode.
    """
    check_in("[0, inf]", episodes=episodes, checkpoint_every=checkpoint_every)
    agent_key, env_key = derive_keys(seed, 2)
    agent = build_agent(algo, env.state_dim, env.action_dim, hyper, agent_key)
    if checkpoint_dir:
        os.makedirs(checkpoint_dir, exist_ok=True)
    agent.normalizer = ObsNormalizer(env.state_dim) if env.normalize_obs else None
    trace = TrainingTrace()
    try:
        for episode, means in zip(range(episodes), agent.episodes(env, env_key)):
            trace.append(episode, *means)
            if checkpoint_dir and checkpoint_every > 0 and (episode + 1) % checkpoint_every == 0:
                _checkpoint(agent, algo, checkpoint_dir, episode + 1, final=False)
    except NonFiniteGradientError:
        trace.aborted = True
    if checkpoint_dir:
        _checkpoint(agent, algo, checkpoint_dir, len(trace), final=True)
    return agent, trace


__all__ = [
    "ALGORITHMS",
    "train",
    "build_agent",
]
