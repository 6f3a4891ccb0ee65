from .a3c import A3cAgent, kstep_returns
from .common import ReplayBuffer, TrainingTrace, random_policy_trace
from .ppo import PpoAgent, advantage_and_target
from .td3 import Td3Agent, soft_update, td3_target
from .train import ALGORITHMS, build_agent, train

__all__ = [
    "A3cAgent",
    "ALGORITHMS",
    "PpoAgent",
    "ReplayBuffer",
    "Td3Agent",
    "TrainingTrace",
    "advantage_and_target",
    "build_agent",
    "kstep_returns",
    "random_policy_trace",
    "soft_update",
    "td3_target",
    "train",
]
