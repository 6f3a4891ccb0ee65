"""Proximal policy optimization with a clipped surrogate.

On-policy: one episode is collected with the policy and scored with one-step
advantages against the critic, then both networks take several minibatch
passes over the episode buffer.  The update runs only after the whole episode
is collected, so every step was drawn from the nets it is scored against.
"""

from __future__ import annotations

import numpy as np

from ..network import derive_keys, philox
from .common import ActorCritic, check_in, critic_gradient


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


class PpoAgent(ActorCritic):
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
        check_in("[0, 1]", discount=discount)
        check_in("(0, inf)", clip=clip)
        check_in("[1, inf]", minibatch=minibatch, update_epochs=update_epochs)
        init_key, sample_key = derive_keys(seed, 2)
        super().__init__(state_dim, action_dim, hidden, actor_lr, critic_lr, optimizer,
                         init_log_std, philox(init_key))
        self.rng = philox(sample_key)
        self.clip = clip
        self.discount = discount
        self.minibatch = int(minibatch)
        self.update_epochs = int(update_epochs)
        self.dropped_samples = 0

    def act(self, state: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """Sample the collection policy; returns (action, pre-squash sample,
        behavior log-density)."""
        return self.policy.sample(state, self.rng)

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
        critic_grad, _ = critic_gradient(self.critic, states, targets, len(targets))
        self.apply_gradients(net_grads.flat, log_std_grad, critic_grad)
