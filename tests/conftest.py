"""Config builders shared by the test modules (imported as `conftest`)."""

from afclink.config import config_from_dict

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
