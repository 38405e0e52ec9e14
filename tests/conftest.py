"""Config and profile builders shared by the test modules (imported as
`conftest`)."""

import numpy as np

from afclink.config import config_from_dict
from afclink.memory import CombSpectrum

# Every photon offered is detected, on time, and no dark counts.
IDEAL_DETECTORS = {
    ch: {"efficiency": 1.0, "jitter_fwhm_ps": 0.0, "dark_rate_hz": 0.0}
    for ch in ("signal_794", "idler_1535")
}


def make_config(seed=7, cycles=50_000, mu=0.05, source=None, **sections):
    """Build a validated config from a nested dict, with common knobs lifted
    to keyword arguments.  `source` adds keys to the source section;
    `sections` replaces whole top-level sections (detectors, memories, ...)."""
    data = {
        "run": {"seed": seed, "cycles": cycles},
        "source": {"mean_pairs_per_pulse": mu, **(source or {})},
    }
    data.update(sections)
    return config_from_dict(data)


def noisy_flat_profile(seed):
    """A structureless comb profile: OD 0.7 plus Gaussian noise of sigma 0.01
    on a 2001-point, 2 MHz grid."""
    rng = np.random.default_rng(seed)
    return CombSpectrum(np.arange(-2000.0, 2002.0, 2.0), 0.7 + rng.normal(0.0, 0.01, 2001))
