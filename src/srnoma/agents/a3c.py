"""Asynchronous advantage actor-critic.

Several workers share one environment and hold private RNG streams, private
observation statistics and private copies of the global actor/critic.  A
worker plays its episode through the shared ``rollout`` driver in blocks of
k steps, the last one maybe shorter; each block is one segment.  Before it
the worker syncs its copies from the global store and samples its k actions
from them in one call; after it, the worker computes the k-step returns and
advantages locally, bootstrapping from its critic copy (from 0 at the
episode's end), and pushes its gradients to the globals.

Workers take turns on one thread: in every outer episode each worker, in
fixed worker order, plays its whole episode on the globals the workers
before it have moved.  No lock is needed, and a run is bit-reproducible for
every worker count.  (Python threads would only interleave under the
interpreter lock: slower, and in no fixed order.)
"""

from __future__ import annotations

import numpy as np

from ..network import check_in, derive_keys, philox
from ..nn import GaussianPolicy, Mlp
from .common import ActorCritic, EpisodeStats, critic_gradient, rollout


def kstep_returns(rewards: np.ndarray, bootstrap: float, discount: float) -> np.ndarray:
    """Discounted suffix sums: G_t = r_t + gamma G_{t+1}, seeded with the
    bootstrap value after the last collected step (0 at episode end)."""
    returns = np.empty(len(rewards))
    acc = float(bootstrap)
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + discount * acc
        returns[t] = acc
    return returns


class A3cAgent(ActorCritic):
    def __init__(
        self,
        state_dim: int,
        action_dim: int,
        hidden: tuple = (128, 128),
        workers: int = 3,
        k_steps: int = 20,
        discount: float = 0.99,
        actor_lr: float = 0.0001,
        critic_lr: float = 0.001,
        entropy_coef: float = 0.01,
        optimizer: str = "sgd",
        init_log_std: float = -0.5,
        seed: int = 0,
    ) -> None:
        check_in("[0, 1]", discount=discount)
        check_in("[0, inf)", entropy_coef=entropy_coef)
        check_in("[1, inf]", workers=workers, k_steps=k_steps)
        (init_key,) = derive_keys(seed, 1)
        super().__init__(state_dim, action_dim, hidden, actor_lr, critic_lr, optimizer,
                         init_log_std, philox(init_key))
        self.workers = workers
        self.k_steps = k_steps
        self.discount = discount
        self.entropy_coef = entropy_coef

    def snapshot(self, local_policy: GaussianPolicy, local_critic: Mlp) -> None:
        local_policy.load_from(self.policy)
        local_critic.load_from(self.critic)

    def apply_gradients(self, actor_grad: np.ndarray, critic_grad: np.ndarray) -> None:
        # kept on this class: bench/tracer.py times A3cAgent's own methods
        super().apply_gradients(actor_grad, critic_grad)

    def segment_gradients(
        self,
        local_policy: GaussianPolicy,
        local_critic: Mlp,
        states: np.ndarray,
        pres: np.ndarray,
        returns: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Descent-direction gradients for one k-step segment, of the policy and
        the critic, each laid out like its ``flat``, which apply_gradients takes.

        The actor ascends sum_t log pi(a_t|s_t) * A_t + beta * H per step; the
        critic descends sum_t (G_t - V(s_t))^2.  Both are accumulated over the
        segment, not averaged.
        """
        critic_grad, values = critic_gradient(local_critic, states, returns)
        advantages = returns - values
        actor_grad = local_policy.grad_weighted_log_prob(states, pres, -advantages)
        actor_grad[local_policy.net.flat.size :] -= self.entropy_coef * len(states)
        return actor_grad, critic_grad

    def worker_episode(self, env, episode_seed: int, rng: np.random.Generator,
                       observe=None) -> EpisodeStats:
        """One full episode of collect-k / push-gradients cycles, on states
        ``observe`` maps (see ``rollout``); each segment is one block of the
        driver and bootstraps from the local critic, or from 0 at the end."""
        local_policy = self.policy.copy()
        local_critic = self.critic.copy()
        stats = EpisodeStats()
        self.snapshot(local_policy, local_critic)
        for states, (_, pres, _), result in rollout(
                env, episode_seed, lambda states: local_policy.sample(states, rng), stats, observe,
                self.k_steps):
            done = result.done[-1]
            bootstrap = 0.0 if done else float(local_critic.forward_rows(result.state[-1:])[0, 0])
            returns = kstep_returns(result.reward, bootstrap, self.discount)
            self.apply_gradients(
                *self.segment_gradients(local_policy, local_critic, states, pres, returns))
            if not done:
                self.snapshot(local_policy, local_critic)
        return stats
