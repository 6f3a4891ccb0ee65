"""Two-phase symbiotic-radio network with an amplifying transmit/reflect
relay surface, plus from-scratch deep-RL solvers and an experiment harness."""

__version__ = "0.1.0"

from .env import SrEnv, action_dim, decode_action, state_dim, state_vector
from .network import (
    ChannelRealization,
    Placement,
    SystemConfig,
    dbm_to_watts,
    draw_realization,
    make_placement,
    path_loss,
)
from .problem import ConstraintReport, evaluate_constraints, harvested_energy, objective, reward
from .rates import DecisionVariables, RateReport, rate_report, sic_order
from .ris import RisCoefficients, equal_energy_split

__all__ = [
    "ChannelRealization",
    "ConstraintReport",
    "DecisionVariables",
    "Placement",
    "RateReport",
    "RisCoefficients",
    "SrEnv",
    "SystemConfig",
    "action_dim",
    "dbm_to_watts",
    "decode_action",
    "draw_realization",
    "equal_energy_split",
    "evaluate_constraints",
    "harvested_energy",
    "make_placement",
    "objective",
    "path_loss",
    "rate_report",
    "reward",
    "sic_order",
    "state_dim",
    "state_vector",
]
