"""Twin delayed deterministic policy gradient.

Off-policy: a deterministic tanh actor explores with additive Gaussian noise,
two critics regress on the clipped-double-Q target built from smoothed target
actions, and the actor plus all three target networks update only every
``policy_delay``-th critic step, the targets through slow exponential mixing.
The twin critics ``critic1``/``critic2`` are the lanes of one net ``critics``
(their targets likewise): an update takes one target forward, one forward and
backward and one optimizer step for both, checkpointed under each critic's keys.
Training acts once per episode on all its T states (one ``act`` call, one env
call), then per frame, in frame order, adds the transition to replay and runs
one ``update``.  Every target bootstraps, the last frame's too: an episode
ends at a time limit the states do not show (Pardo et al., arXiv:1712.00378).
"""

from __future__ import annotations

import numpy as np

from ..network import check_in, derive_keys, next_seed, philox
from ..nn import LaneState, Mlp, blocks, make_optimizer
from .common import Checkpointed, EpisodeStats, ReplayBuffer, critic_gradient, rollout


def td3_target(reward, discount, q1, q2):
    """Bootstrapped target r + gamma * min(q1, q2)."""
    return reward + discount * np.minimum(q1, q2)


def soft_update(target: Mlp, online: Mlp, mix: float) -> None:
    """target <- (1 - mix) * target + mix * online over the whole buffer,
    block by block."""
    for t, o in blocks(target.flat, online.flat):
        t *= 1.0 - mix
        t += mix * o


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
        check_in("[0, inf)", smoothing_noise=smoothing_noise, noise_clip=noise_clip,
                 explore_noise=explore_noise)
        check_in("[1, inf]", policy_delay=policy_delay, minibatch=minibatch)
        check_in(f"[{minibatch}, inf]", buffer_size=buffer_size)
        check_in("[1, inf]", **{f"hidden[{i}]": width for i, width in enumerate(hidden)})
        init_key, noise_key = derive_keys(seed, 2)
        init_rng = philox(init_key)
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.actor = Mlp((state_dim, *hidden, action_dim), init_rng)
        self.critics = Mlp((state_dim + action_dim, *hidden, 1), init_rng, lanes=2)
        self.actor_target = self.actor.copy()
        self.critics_target = self.critics.copy()
        self.critic1, self.critic2 = map(self.critics.lane, range(2))
        self.critic1_target, self.critic2_target = map(self.critics_target.lane, range(2))
        self.rng = philox(noise_key)
        self.discount = discount
        self.target_update = target_update
        self.policy_delay = policy_delay
        self.smoothing_noise = smoothing_noise
        self.noise_clip = noise_clip
        self.explore_noise = explore_noise
        self.minibatch = minibatch
        self.buffer = ReplayBuffer(buffer_size, state_dim, action_dim)
        self.actor_opt = make_optimizer(optimizer, actor_lr, self.actor.shapes)
        self.critic_opt = make_optimizer(optimizer, critic_lr, self.critic1.shapes)
        self.update_count = np.zeros((), dtype=np.int64)  # live, so checkpoints carry it

    def act(self, states: np.ndarray, explore: bool = True) -> np.ndarray:
        action = np.tanh(self.actor.forward_rows(states))
        if explore:
            action = action + self.explore_noise * self.rng.standard_normal(action.shape)
        return np.clip(action, -1.0, 1.0)

    def greedy(self, states: np.ndarray) -> np.ndarray:
        return self.act(states, explore=False)

    def episodes(self, env, env_key: int):
        """Yield each episode's means, on the schedule the module docstring gives."""
        seeds = philox(env_key)
        act = lambda states: (self.act(states),)
        while True:
            stats = EpisodeStats()
            for states, (actions,), result in rollout(env, next_seed(seeds), act, stats,
                                                      self.normalizer, env.episode_steps):
                for frame in zip(states, actions, result.reward, result.state):
                    self.buffer.add(*frame)
                    self.update()
            yield stats.means()

    def _targets(self, batch: dict) -> np.ndarray:
        noise = np.clip(self.smoothing_noise * self.rng.standard_normal(batch["actions"].shape),
                        -self.noise_clip, self.noise_clip)
        next_actions = np.clip(np.tanh(self.actor_target.forward(batch["next_states"])) + noise,
                               -1.0, 1.0)
        sa = np.concatenate([batch["next_states"], next_actions], axis=1)
        q1, q2 = self.critics_target.forward(sa)[..., 0]
        return td3_target(batch["rewards"], self.discount, q1, q2)

    def update(self) -> bool:
        """One gradient step from replay; no-op until a minibatch is buffered."""
        if len(self.buffer) < self.minibatch:
            return False
        batch = self.buffer.sample(self.rng, self.minibatch)
        targets = self._targets(batch)
        sa = np.concatenate([batch["states"], batch["actions"]], axis=1)
        # the gradient of both critics is a temporary: it is freed before the actor step
        self.critic_opt.step(self.critics.flat,
                             critic_gradient(self.critics, sa, targets, len(targets))[0])
        self.update_count += 1
        if self.update_count % self.policy_delay == 0:
            self._actor_step(batch["states"])
            soft_update(self.actor_target, self.actor, self.target_update)
            soft_update(self.critics_target, self.critics, self.target_update)
        return True

    def _actor_step(self, states: np.ndarray) -> None:
        # ascend mean q1(s, tanh(actor(s))): chain the critic's input gradient
        # through the squash into the actor
        pre, actor_cache = self.actor.forward_cached(states)
        actions = np.tanh(pre)
        sa = np.concatenate([states, actions], axis=1)
        _, critic_cache = self.critic1.forward_cached(sa)
        grad_q = -np.ones((len(states), 1)) / len(states)
        _, grad_sa = self.critic1.backward(critic_cache, grad_q, params=False)
        grad_actions = grad_sa[:, self.state_dim :] * (1.0 - actions**2)
        grad, _ = self.actor.backward(actor_cache, grad_actions, inputs=False)
        self.actor_opt.step(self.actor.flat, grad)

    def _checkpoint_parts(self) -> tuple[dict, dict, dict]:
        names = ("actor", "critic1", "critic2")
        nets = {name: getattr(self, name) for name in names}
        nets.update({f"{name}_target": getattr(self, f"{name}_target") for name in names})
        # one optimizer steps both critics; each lane keeps its critic's keys
        optimizers = {"opt_actor": self.actor_opt, "opt_critic1": LaneState(self.critic_opt, 0, 2),
                      "opt_critic2": LaneState(self.critic_opt, 1, 2)}
        return nets, optimizers, {"update_count": self.update_count}
