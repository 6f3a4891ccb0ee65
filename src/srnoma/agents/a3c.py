"""Asynchronous advantage actor-critic.

Several workers hold private environments, private RNG streams and private
copies of the global actor/critic.  Each worker repeatedly syncs its copies
from the global store, rolls out up to k steps, computes k-step returns and
advantages locally, and pushes its gradients to the globals.

Workers take turns on one thread: in every outer episode each worker, in
fixed worker order, plays its whole episode on the globals the workers
before it have moved.  No lock is needed, and a run is bit-reproducible for
every worker count.  (Python threads would only interleave under the
interpreter lock: slower, and in no fixed order.)
"""

from __future__ import annotations

import numpy as np

from ..nn import GaussianPolicy, Mlp, make_optimizer
from .common import Checkpointed, EpisodeStats, check_learning_rates, derive_keys, philox


def kstep_returns(rewards: np.ndarray, bootstrap: float, discount: float) -> np.ndarray:
    """Discounted suffix sums: G_t = r_t + gamma G_{t+1}, seeded with the
    bootstrap value after the last collected step (0 at episode end)."""
    returns = np.empty(len(rewards))
    acc = float(bootstrap)
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + discount * acc
        returns[t] = acc
    return returns


class A3cAgent(Checkpointed):
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
        check_learning_rates(actor_lr=actor_lr, critic_lr=critic_lr)
        (init_key,) = derive_keys(seed, 1)
        init_rng = philox(init_key)
        self.policy = GaussianPolicy(Mlp((state_dim, *hidden, action_dim), init_rng),
                                     init_log_std)
        self.critic = Mlp((state_dim, *hidden, 1), init_rng)
        self.workers = int(workers)
        self.k_steps = int(k_steps)
        self.discount = discount
        self.entropy_coef = entropy_coef
        self.actor_opt = make_optimizer(optimizer, actor_lr, self.policy.shapes)
        self.critic_opt = make_optimizer(optimizer, critic_lr, self.critic.shapes)

    def snapshot(self, local_policy: GaussianPolicy, local_critic: Mlp) -> None:
        local_policy.load_from(self.policy)
        local_critic.load_from(self.critic)

    def apply_gradients(self, actor_grad: np.ndarray, log_std_grad: np.ndarray,
                        critic_grad: np.ndarray) -> None:
        self.actor_opt.step([self.policy.net.flat, self.policy.log_std],
                            [actor_grad, log_std_grad])
        self.policy.clamp_log_std()
        self.critic_opt.step([self.critic.flat], [critic_grad])

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
        values, value_cache = local_critic.forward_cached(states)
        advantages = returns - values[:, 0]
        actor_grads, log_std_grad = local_policy.grad_weighted_log_prob(states, pres, -advantages)
        log_std_grad = log_std_grad - self.entropy_coef * len(states)
        critic_grads, _ = local_critic.backward(
            value_cache, (2.0 * (values[:, 0] - returns))[:, None]
        )
        return actor_grads.flat, log_std_grad, critic_grads.flat

    def worker_episode(self, env, episode_seed: int, rng: np.random.Generator) -> EpisodeStats:
        """One full episode of collect-k / push-gradients cycles."""
        local_policy = self.policy.copy()
        local_critic = self.critic.copy()
        state = env.reset(episode_seed)
        stats = EpisodeStats()
        done = False
        while not done:
            self.snapshot(local_policy, local_critic)
            states, pres, rewards = [], [], []
            while len(rewards) < self.k_steps and not done:
                action, pre, _ = local_policy.sample(state, rng)
                result = env.step(action)
                states.append(state)
                pres.append(pre)
                rewards.append(result.reward)
                stats.add(result.reward, result.info.min_rate, result.info.satisfied_count)
                state = result.state
                done = result.done
            bootstrap = 0.0 if done else float(local_critic.forward(state)[0])
            returns = kstep_returns(np.asarray(rewards), bootstrap, self.discount)
            grads = self.segment_gradients(
                local_policy, local_critic, np.stack(states), np.stack(pres), returns
            )
            self.apply_gradients(*grads)
        return stats

    def run_episode_round(self, envs: list, episode_seeds: list, rngs: list) -> list:
        """One outer episode: every worker plays one episode, in worker order."""
        return [self.worker_episode(envs[w], episode_seeds[w], rngs[w])
                for w in range(self.workers)]

    def _checkpoint_parts(self) -> tuple[dict, dict, dict]:
        return ({"actor": self.policy.net, "critic": self.critic},
                {"opt_actor": self.actor_opt, "opt_critic": self.critic_opt},
                {"log_std": self.policy.log_std})
