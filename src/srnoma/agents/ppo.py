"""Proximal policy optimization with a clipped surrogate.

On-policy: one episode is collected with the frozen pre-update policy, scored
with one-step advantages against the frozen critic, then both networks take
several minibatch passes over the episode buffer.  The frozen copies are
refreshed once per episode, after the update phase.
"""

from __future__ import annotations

import numpy as np

from ..network import derive_keys, philox
from ..nn import GaussianPolicy, Mlp, make_optimizer
from .common import Checkpointed, check_at_least, check_learning_rates


def advantage_and_target(
    rewards: np.ndarray,
    values: np.ndarray,
    next_values: np.ndarray,
    dones: np.ndarray,
    discount: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One-step advantage r + gamma V(s') - V(s) and the critic regression
    target r + gamma V(s'); the bootstrap term is dropped on terminal steps."""
    bootstrap = discount * next_values * (1.0 - dones)
    targets = rewards + bootstrap
    return targets - values, targets


class PpoAgent(Checkpointed):
    def __init__(
        self,
        state_dim: int,
        action_dim: int,
        hidden: tuple = (128, 128),
        clip: float = 0.2,
        discount: float = 0.99,
        actor_lr: float = 0.0001,
        critic_lr: float = 0.001,
        minibatch: int = 32,
        update_epochs: int = 5,
        optimizer: str = "sgd",
        init_log_std: float = -0.5,
        seed: int = 0,
    ) -> None:
        check_learning_rates(actor_lr=actor_lr, critic_lr=critic_lr)
        check_at_least(minibatch=(minibatch, 1), update_epochs=(update_epochs, 1))
        init_key, sample_key = derive_keys(seed, 2)
        init_rng = philox(init_key)
        sizes = (state_dim, *hidden)
        self.policy = GaussianPolicy(Mlp((*sizes, action_dim), init_rng), init_log_std)
        self.critic = Mlp((*sizes, 1), init_rng)
        self.policy_old = self.policy.copy()
        self.critic_old = self.critic.copy()
        self.rng = philox(sample_key)
        self.clip = clip
        self.discount = discount
        self.minibatch = int(minibatch)
        self.update_epochs = int(update_epochs)
        self.actor_opt = make_optimizer(optimizer, actor_lr, self.policy.shapes)
        self.critic_opt = make_optimizer(optimizer, critic_lr, self.critic.shapes)
        self.dropped_samples = 0

    def act(self, state: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """Sample from the frozen collection policy; returns (action,
        pre-squash sample, behavior log-density)."""
        return self.policy_old.sample(state, self.rng)

    def old_values(self, states: np.ndarray) -> np.ndarray:
        return self.critic_old.forward(states)[:, 0]

    def update(
        self,
        states: np.ndarray,
        pres: np.ndarray,
        log_probs_old: np.ndarray,
        advantages: np.ndarray,
        targets: np.ndarray,
    ) -> None:
        count = len(states)
        for _ in range(self.update_epochs):
            perm = self.rng.permutation(count)
            for start in range(0, count, self.minibatch):
                idx = perm[start : start + self.minibatch]
                self._minibatch_step(
                    states[idx], pres[idx], log_probs_old[idx], advantages[idx], targets[idx]
                )
        self.policy_old.load_from(self.policy)
        self.critic_old.load_from(self.critic)

    def _minibatch_step(self, states, pres, log_probs_old, advantages, targets) -> None:
        log_probs = self.policy.log_prob(states, pres)
        # an overflowing exp is expected for badly stale samples; it yields
        # inf, which the finite mask below drops and counts
        with np.errstate(over="ignore"):
            ratio = np.exp(log_probs - log_probs_old)
        finite = np.isfinite(ratio)
        if not finite.all():
            # overflowing ratios carry no usable gradient; drop them loudly
            self.dropped_samples += int((~finite).sum())
            ratio = np.where(finite, ratio, 0.0)
        used = max(int(finite.sum()), 1)

        # the min() picks the clipped constant branch when it is strictly
        # smaller, killing the gradient there; otherwise d(ratio)/dtheta =
        # ratio * dlogpi
        unclipped = ratio * advantages
        clipped = np.clip(ratio, 1.0 - self.clip, 1.0 + self.clip) * advantages
        flows = finite & (unclipped <= clipped)
        coeff = np.where(flows, ratio * advantages, 0.0) / used
        net_grads, log_std_grad = self.policy.grad_weighted_log_prob(states, pres, -coeff)
        self.actor_opt.step([self.policy.net.flat, self.policy.log_std],
                            [net_grads.flat, log_std_grad])
        self.policy.clamp_log_std()

        values, cache = self.critic.forward_cached(states)
        residual = values[:, 0] - targets
        grads, _ = self.critic.backward(cache, (2.0 * residual / len(targets))[:, None])
        self.critic_opt.step([self.critic.flat], [grads.flat])

    def _checkpoint_parts(self) -> tuple[dict, dict, dict]:
        return ({"actor": self.policy.net, "critic": self.critic},
                {"opt_actor": self.actor_opt, "opt_critic": self.critic_opt},
                {"log_std": self.policy.log_std})

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.policy_old.load_from(self.policy)
        self.critic_old.load_from(self.critic)
