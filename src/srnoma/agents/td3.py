"""Twin delayed deterministic policy gradient.

Off-policy: a deterministic tanh actor explores with additive Gaussian noise,
two critics regress on the clipped-double-Q target built from smoothed target
actions, and the actor plus all three target networks update only every
``policy_delay``-th critic step, the targets through slow exponential mixing.
"""

from __future__ import annotations

import numpy as np

from ..network import derive_keys, philox
from ..nn import Mlp, make_optimizer
from .common import Checkpointed, ReplayBuffer, check_in, critic_gradient


def td3_target(reward, discount, q1, q2, done=0.0):
    """Bootstrapped target r + gamma * (1 - done) * min(q1, q2)."""
    return reward + discount * (1.0 - done) * np.minimum(q1, q2)


def soft_update(target: Mlp, online: Mlp, mix: float) -> None:
    """target <- (1 - mix) * target + mix * online over the whole buffer."""
    target.flat *= 1.0 - mix
    target.flat += mix * online.flat


class Td3Agent(Checkpointed):
    def __init__(
        self,
        state_dim: int,
        action_dim: int,
        hidden: tuple = (400, 300),
        discount: float = 0.99,
        actor_lr: float = 0.0001,
        critic_lr: float = 0.001,
        target_update: float = 0.0005,
        policy_delay: int = 2,
        smoothing_noise: float = 0.2,
        noise_clip: float = 0.5,
        explore_noise: float = 0.1,
        minibatch: int = 64,
        buffer_size: int = 100_000,
        optimizer: str = "sgd",
        seed: int = 0,
    ) -> None:
        check_in("(0, inf)", actor_lr=actor_lr, critic_lr=critic_lr)
        check_in("[0, 1]", discount=discount)
        check_in("(0, 1]", target_update=target_update)
        check_in("[1, inf]", policy_delay=policy_delay, minibatch=minibatch)
        check_in(f"[{minibatch}, inf]", buffer_size=buffer_size)
        init_key, noise_key = derive_keys(seed, 2)
        init_rng = philox(init_key)
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.actor = Mlp((state_dim, *hidden, action_dim), init_rng)
        self.critic1 = Mlp((state_dim + action_dim, *hidden, 1), init_rng)
        self.critic2 = Mlp((state_dim + action_dim, *hidden, 1), init_rng)
        self.actor_target = self.actor.copy()
        self.critic1_target = self.critic1.copy()
        self.critic2_target = self.critic2.copy()
        self.rng = philox(noise_key)
        self.discount = discount
        self.target_update = target_update
        self.policy_delay = int(policy_delay)
        self.smoothing_noise = smoothing_noise
        self.noise_clip = noise_clip
        self.explore_noise = explore_noise
        self.minibatch = int(minibatch)
        self.buffer = ReplayBuffer(buffer_size, state_dim, action_dim)
        self.actor_opt = make_optimizer(optimizer, actor_lr, self.actor.shapes)
        self.critic1_opt = make_optimizer(optimizer, critic_lr, self.critic1.shapes)
        self.critic2_opt = make_optimizer(optimizer, critic_lr, self.critic2.shapes)
        self.update_count = 0

    def act(self, state: np.ndarray, explore: bool = True) -> np.ndarray:
        action = np.tanh(self.actor.forward(state))
        if explore:
            action = action + self.explore_noise * self.rng.standard_normal(self.action_dim)
        return np.clip(action, -1.0, 1.0)

    def observe(self, state, action, reward, next_state, done) -> None:
        self.buffer.add(state, action, reward, next_state, done)

    def _targets(self, batch: dict) -> np.ndarray:
        noise = np.clip(
            self.smoothing_noise * self.rng.standard_normal(batch["actions"].shape),
            -self.noise_clip,
            self.noise_clip,
        )
        next_actions = np.clip(
            np.tanh(self.actor_target.forward(batch["next_states"])) + noise, -1.0, 1.0
        )
        sa = np.concatenate([batch["next_states"], next_actions], axis=1)
        q1 = self.critic1_target.forward(sa)[:, 0]
        q2 = self.critic2_target.forward(sa)[:, 0]
        return td3_target(batch["rewards"], self.discount, q1, q2, batch["dones"])

    def update(self) -> bool:
        """One gradient step from replay; no-op until a minibatch is buffered."""
        if len(self.buffer) < self.minibatch:
            return False
        batch = self.buffer.sample(self.rng, self.minibatch)
        targets = self._targets(batch)
        sa = np.concatenate([batch["states"], batch["actions"]], axis=1)
        for critic, opt in ((self.critic1, self.critic1_opt), (self.critic2, self.critic2_opt)):
            opt.step([critic.flat], [critic_gradient(critic, sa, targets, len(targets))[0]])
        self.update_count += 1
        if self.update_count % self.policy_delay == 0:
            self._actor_step(batch["states"])
            soft_update(self.actor_target, self.actor, self.target_update)
            soft_update(self.critic1_target, self.critic1, self.target_update)
            soft_update(self.critic2_target, self.critic2, self.target_update)
        return True

    def _actor_step(self, states: np.ndarray) -> None:
        # ascend mean q1(s, tanh(actor(s))): chain the critic's input gradient
        # through the squash into the actor
        pre, actor_cache = self.actor.forward_cached(states)
        actions = np.tanh(pre)
        sa = np.concatenate([states, actions], axis=1)
        _, critic_cache = self.critic1.forward_cached(sa)
        grad_q = -np.ones((len(states), 1)) / len(states)
        _, grad_sa = self.critic1.backward(critic_cache, grad_q)
        grad_actions = grad_sa[:, self.state_dim :] * (1.0 - actions**2)
        grads, _ = self.actor.backward(actor_cache, grad_actions)
        self.actor_opt.step([self.actor.flat], [grads.flat])

    def _checkpoint_parts(self) -> tuple[dict, dict, dict]:
        names = ("actor", "critic1", "critic2")
        nets = {name: getattr(self, name) for name in names}
        nets.update({f"{name}_target": getattr(self, f"{name}_target") for name in names})
        return nets, {f"opt_{name}": getattr(self, f"{name}_opt") for name in names}, {}

    def state_dict(self) -> dict:
        return {**super().state_dict(), "update_count": np.array(self.update_count)}

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.update_count = int(state["update_count"])
