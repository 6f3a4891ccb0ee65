"""Asynchronous advantage actor-critic.

Several workers hold private environments, private RNG streams and private
copies of the global actor/critic.  A worker plays its episode through the
shared ``rollout`` driver and cuts it into segments of k steps (the last one
may be shorter).  Before each segment it syncs its copies from the global
store; after it, it computes the k-step returns and advantages locally,
bootstrapping from its critic copy (from 0 at the episode's end), and pushes
its gradients to the globals.

Workers take turns on one thread: in every outer episode each worker, in
fixed worker order, plays its whole episode on the globals the workers
before it have moved.  No lock is needed, and a run is bit-reproducible for
every worker count.  (Python threads would only interleave under the
interpreter lock: slower, and in no fixed order.)
"""

from __future__ import annotations

import numpy as np

from ..network import derive_keys, philox
from ..nn import GaussianPolicy, Mlp
from .common import ActorCritic, EpisodeStats, check_in, critic_gradient, rollout


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
        check_in("[1, inf]", workers=workers, k_steps=k_steps)
        (init_key,) = derive_keys(seed, 1)
        super().__init__(state_dim, action_dim, hidden, actor_lr, critic_lr, optimizer,
                         init_log_std, philox(init_key))
        self.workers = int(workers)
        self.k_steps = int(k_steps)
        self.discount = discount
        self.entropy_coef = entropy_coef

    def snapshot(self, local_policy: GaussianPolicy, local_critic: Mlp) -> None:
        local_policy.load_from(self.policy)
        local_critic.load_from(self.critic)

    def apply_gradients(self, actor_grad: np.ndarray, log_std_grad: np.ndarray,
                        critic_grad: np.ndarray) -> None:
        # kept on this class: bench/tracer.py times A3cAgent's own methods
        super().apply_gradients(actor_grad, log_std_grad, critic_grad)

    def segment_gradients(
        self,
        local_policy: GaussianPolicy,
        local_critic: Mlp,
        states: np.ndarray,
        pres: np.ndarray,
        returns: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Descent-direction gradients for one k-step segment, the nets' as
        flat buffers laid out like their ``flat``, which apply_gradients takes.

        The actor ascends sum_t log pi(a_t|s_t) * A_t + beta * H per step; the
        critic descends sum_t (G_t - V(s_t))^2.  Both are accumulated over the
        segment, not averaged.
        """
        critic_grad, values = critic_gradient(local_critic, states, returns)
        advantages = returns - values
        actor_grads, log_std_grad = local_policy.grad_weighted_log_prob(states, pres, -advantages)
        log_std_grad = log_std_grad - self.entropy_coef * len(states)
        return actor_grads.flat, log_std_grad, critic_grad

    def worker_episode(self, env, episode_seed: int, rng: np.random.Generator) -> EpisodeStats:
        """One full episode of collect-k / push-gradients cycles.

        A segment ends after k steps or at the episode's end, whichever comes
        first; it bootstraps from the local critic, or from 0 at the end.
        """
        local_policy = self.policy.copy()
        local_critic = self.critic.copy()
        stats = EpisodeStats()
        segment = []
        self.snapshot(local_policy, local_critic)
        for state, (_, pre, _), result in rollout(
                env, episode_seed, lambda s: local_policy.sample(s, rng), stats):
            segment.append((state, pre, result.reward))
            if len(segment) < self.k_steps and not result.done:
                continue
            bootstrap = 0.0 if result.done else float(local_critic.forward(result.state)[0])
            states, pres, rewards = (np.asarray(c) for c in zip(*segment))
            returns = kstep_returns(rewards, bootstrap, self.discount)
            self.apply_gradients(
                *self.segment_gradients(local_policy, local_critic, states, pres, returns))
            segment = []
            if not result.done:
                self.snapshot(local_policy, local_critic)
        return stats

    def run_episode_round(self, envs: list, episode_seeds: list, rngs: list) -> list:
        """One outer episode: every worker plays one episode, in worker order."""
        return [self.worker_episode(envs[w], episode_seeds[w], rngs[w])
                for w in range(self.workers)]
