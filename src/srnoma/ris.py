"""Element-wise response of the transmitting/reflecting relay surface.

Each of the M elements applies an amplitude gain sqrt(beta) and a phase shift
theta to the incident signal, separately for the transmit side and the reflect
side.  ``beta`` values are power gains:

* passive surface: beta_t + beta_r = 1 per element (incident energy is split),
* active surface:  beta on each side may reach p_asris / 2, the per-element
  amplification budget when the surface power is spread evenly over the two
  sides.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .network import check_in

ACTIVE = "active"
PASSIVE = "passive"


@dataclasses.dataclass
class RisCoefficients:
    """Per-element power gains and phases for both sides of the surface."""

    beta_t: np.ndarray
    beta_r: np.ndarray
    theta_t: np.ndarray
    theta_r: np.ndarray
    mode: str = ACTIVE

    def __post_init__(self) -> None:
        self.beta_t = np.asarray(self.beta_t, dtype=float)
        self.beta_r = np.asarray(self.beta_r, dtype=float)
        self.theta_t = np.asarray(self.theta_t, dtype=float)
        self.theta_r = np.asarray(self.theta_r, dtype=float)
        check_in((ACTIVE, PASSIVE), mode=self.mode)
        m = self.beta_t.shape
        for name in ("beta_r", "theta_t", "theta_r"):
            if getattr(self, name).shape != m:
                raise ValueError("coefficient arrays must share one shape per element")


def response_vector(coeff: RisCoefficients, side: str) -> np.ndarray:
    """Element-wise response sqrt(beta) * exp(j theta) of one side.

    The diagonal of the side's response matrix.  The phase-range and
    passive-split invariants are not enforced: sqrt(beta) * exp(j theta) is
    well defined for any theta and any beta >= 0, and the constraint
    evaluator (C1..C3) needs to score decisions that break those invariants
    rather than crash on them.  Only a negative gain is rejected, since it
    has no physical reading.  Batched coefficients give a batch of vectors.
    """
    if side not in ("transmit", "reflect"):
        raise ValueError(f"side must be 'transmit' or 'reflect', got {side!r}")
    beta = coeff.beta_t if side == "transmit" else coeff.beta_r
    theta = coeff.theta_t if side == "transmit" else coeff.theta_r
    if np.any(beta < 0.0):
        raise ValueError("invalid surface coefficients: negative amplitude gain")
    return np.sqrt(beta) * np.exp(1j * theta)
