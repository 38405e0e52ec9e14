"""Config and profile builders, the readers of files that only tests read,
and the streamed histogram of a run, which no product path folds alone;
shared by the test modules (imported as `conftest`)."""

from operator import itemgetter

import numpy as np

from afclink import events, harness
from afclink.config import config_from_dict
from afclink.csvio import csv_rows
from afclink.detection import (
    HISTOGRAM_CSV_HEADER,
    CoincidenceHistogram,
    tdc_histogram_from_times,
    windowed_fold,
)
from afclink.harness import EVENT_CSV_HEADER, data_path
from afclink.memory import CombSpectrum

# The bin and origin tokens events.csv can hold: only events_from_csv
# enumerates them.
BINS = (events.BIN_EARLY, events.BIN_LATE, events.BIN_SUPERPOSED, events.BIN_NONE)
ORIGINS = (events.ORIGIN_PAIR, events.ORIGIN_DARK, events.ORIGIN_SPURIOUS_ECHO)

# The shipped comb profile: only tests read it.
SYNTHETIC_COMB = data_path("synthetic_comb.csv")

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


def histogram_from_csv(path) -> CoincidenceHistogram:
    """Read a histogram written by CoincidenceHistogram.to_csv."""
    rows = []
    for line_no, raw in csv_rows(path, HISTOGRAM_CSV_HEADER, "histogram"):
        try:
            rows.append((int(raw[0]), int(raw[1])))
        except ValueError:
            raise ValueError(f"{path}: line {line_no}: non-integer field") from None
    if len(rows) < 2:
        raise ValueError(f"{path}: histogram needs at least two bins")
    starts = np.array([r[0] for r in rows])
    widths = np.diff(starts)
    if not np.all(widths == widths[0]):
        raise ValueError(f"{path}: histogram bins must be uniform")
    counts = np.array([r[1] for r in rows], dtype=np.int64)
    try:
        return CoincidenceHistogram(int(widths[0]), -int(starts[0]), counts, n_starts=0)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _is_outcome_label(label: str) -> bool:
    """NONE, TRANSMITTED or RECALLED_k: the labels events.csv is written with."""
    if label in (events.OUTCOME_NONE, events.OUTCOME_TRANSMITTED):
        return True
    k = label.rpartition("_")[2]
    return k.isdecimal() and events.recalled_token(int(k)) == label


def events_from_csv(path) -> list[tuple]:
    """Read events.csv back as rows of (cycle, channel, time_ps, bin, origin,
    memory_outcome), cycle and time_ps as integers, the rest as labels."""
    rows = []
    for line_no, raw in csv_rows(path, EVENT_CSV_HEADER, "events"):
        cycle, channel, time_ps, bin_label, origin, outcome = raw
        try:
            cycle, time_ps = int(cycle), int(time_ps)
        except ValueError:
            raise ValueError(
                f"{path}: line {line_no}: non-integer cycle or time_ps"
            ) from None
        for kind, label, known in (
            ("channel", channel, events.CHANNELS),
            ("bin", bin_label, BINS),
            ("origin", origin, ORIGINS),
        ):
            if label not in known:
                raise ValueError(f"{path}: line {line_no}: unknown {kind} {label!r}")
        if not _is_outcome_label(outcome):
            raise ValueError(
                f"{path}: line {line_no}: unknown memory outcome {outcome!r}"
            )
        rows.append((cycle, channel, time_ps, bin_label, origin, outcome))
    return rows


def histogram_from_stream(pieces, bin_width_ps, window_ps) -> CoincidenceHistogram:
    """tdc_histogram_from_times folded by windowed_fold over the [-window,
    +window) windows of pieces (starts, stops, floor), as run_simulation
    folds it beside its g2 windows."""

    def kernel(starts, stops):
        hist = tdc_histogram_from_times(starts, stops, bin_width_ps, window_ps)
        return hist.counts, hist.n_starts

    counts, n_starts = windowed_fold(pieces, -window_ps, window_ps, kernel)
    return CoincidenceHistogram(bin_width_ps, window_ps, counts, int(n_starts))


def run_histogram(cfg) -> CoincidenceHistogram:
    """Idler starts against signal stops over every configured cycle, in one
    pass over the shards that keeps no click arrays."""
    shards = harness._shards(harness._build_tables(cfg), cfg.run.cycles)
    pieces = harness._stream_pieces(shards, itemgetter("times"), 1)
    return histogram_from_stream(pieces, cfg.tdc.bin_width_ps, cfg.tdc.window_ps)
