"""Pulsed spontaneous-parametric-down-conversion pair source.

Every pump pulse (one per clock cycle) produces a Poisson-distributed number
of photon pairs with mean mu.  When the pump passes through both arms of the
preparation interferometer, each pair is emitted in the time-bin entangled
state (|ee> + e^{2 i phi_p}|ll>)/sqrt(2); phi_p is the pump interferometer
phase and enters twice because the pump photon acquires it before splitting.
EARLY_ONLY pumping (no interferometer) emits both photons in the early bin
with no qubit degree of freedom, the configuration used for autocorrelation
measurements.

SourceConfig holds the parameters and the emitted state; the simulation
engine in harness draws the pairs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .linalg import Ket, bell_phi_plus

PUMP_BOTH_ARMS = "BOTH_ARMS"
PUMP_EARLY_ONLY = "EARLY_ONLY"
PUMP_MODES = (PUMP_BOTH_ARMS, PUMP_EARLY_ONLY)

MU_WARN_THRESHOLD = 0.5


@dataclass(frozen=True)
class SourceConfig:
    """Source parameters; defaults follow the storage-experiment operating point."""

    mean_pairs_per_pulse: float = 0.016
    rep_period_ps: int = 12_500
    bin_separation_ps: int = 1_400
    pump_mode: str = PUMP_BOTH_ARMS
    pump_phase: float = 0.0
    depolarizing_noise: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.mean_pairs_per_pulse < math.inf:
            raise ValueError("mean pair number must be finite and non-negative")
        if not math.isfinite(self.pump_phase):
            raise ValueError("pump phase must be finite")
        if self.rep_period_ps <= 0 or self.bin_separation_ps <= 0:
            raise ValueError("periods must be positive")
        if self.rep_period_ps <= 2 * self.bin_separation_ps:
            raise ValueError(
                "rep period must exceed twice the bin separation so both bins "
                "and the analyzer slots fit inside one cycle"
            )
        if self.pump_mode not in PUMP_MODES:
            raise ValueError(f"unknown pump mode {self.pump_mode!r}")
        if not 0.0 <= self.depolarizing_noise <= 1.0:
            raise ValueError("depolarizing_noise must lie in [0, 1]")
        if self.mean_pairs_per_pulse > MU_WARN_THRESHOLD:
            warnings.warn(
                f"mu = {self.mean_pairs_per_pulse} is outside the weakly pumped "
                "regime; multi-pair emission will dominate",
                UserWarning,
                stacklevel=2,
            )

    def joint_state(self) -> Ket:
        """The emitted two-photon state: |ee> for single-mode (EARLY_ONLY)
        pumping, which has no late bin, else the entangled state above."""
        if self.pump_mode == PUMP_EARLY_ONLY:
            return Ket([1.0, 0.0, 0.0, 0.0])
        return bell_phi_plus(2.0 * self.pump_phase)
