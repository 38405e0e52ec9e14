"""Measurement chain: analyzers, detectors and start-stop timing histograms.

Two analyzer modes are supported per arm.  Arrival-time readout projects on
the early/late basis directly.  The interferometer mode models an unbalanced
interferometer whose path imbalance equals the bin separation: a photon
leaves in one of three time slots, and only the central slot (early photon
through the long arm overlapping late photon through the short arm) carries
phase information.  The corresponding six-outcome POVM per arm is

    (early, port r):    |e><e| / 4
    (central, port r):  P_r(alpha) / 2,  P_r = proj((|e> + r e^{i alpha}|l>)/sqrt 2)
    (late, port r):     |l><l| / 4

which resolves the identity.  Slot offsets are 0, +T and +2T relative to the
photon's nominal arrival, with T the bin separation.
"""

from dataclasses import dataclass
from functools import reduce
from itertools import starmap

import numpy as np

from . import events
from .csvio import write_csv
from .linalg import ProjectorSetting, phase_projector, projector

# The values are the config tokens of analyzers.<channel>.mode.
MODE_TIME_OF_ARRIVAL = "time_of_arrival"
MODE_INTERFEROMETER = "interferometer"
ANALYZER_MODES = (MODE_TIME_OF_ARRIVAL, MODE_INTERFEROMETER)

# Gaussian timing response quoted as FWHM; FWHM = 2 sqrt(2 ln 2) sigma.
FWHM_TO_SIGMA = 2.355
DEFAULT_JITTER_FWHM_PS = 250.0

HISTOGRAM_CSV_HEADER = ("bin_start_ps", "count")

DEFAULT_PEAK_HALFWIDTH_PS = 500

# tdc_histogram_from_times walks the sorted starts this many at a time, so a
# pass's temporaries hold one block: 256 kB per int64 array, cache-sized.
_BLOCK_STARTS = 1 << 15


@dataclass(frozen=True)
class AnalyzerSetting:
    """One arm's measurement choice: arrival time, or interference phase."""

    mode: str = MODE_TIME_OF_ARRIVAL
    phase: float = 0.0

    def __post_init__(self):
        if self.mode not in ANALYZER_MODES:
            raise ValueError(f"mode must be one of {ANALYZER_MODES}, got {self.mode!r}")
        if not np.isfinite(self.phase):
            raise ValueError("analyzer phase must be finite")

    @classmethod
    def time_of_arrival(cls) -> "AnalyzerSetting":
        return cls(MODE_TIME_OF_ARRIVAL)

    @classmethod
    def interferometer(cls, phase: float) -> "AnalyzerSetting":
        return cls(MODE_INTERFEROMETER, float(phase))

    @classmethod
    def from_projector(cls, setting: ProjectorSetting) -> "AnalyzerSetting":
        """Map a projector basis to the hardware that measures it."""
        if setting.kind == "Z":
            return cls.time_of_arrival()
        return cls.interferometer(setting.analyzer_phase())


@dataclass(frozen=True, eq=False)
class AnalyzerOutcome:
    """A single detector click class: time slot, output port and POVM effect."""

    slot_offset_ps: int
    port: int
    bin: str
    effect: np.ndarray


def analyzer_outcomes(setting: AnalyzerSetting, bin_separation_ps: int) -> list[AnalyzerOutcome]:
    t = int(bin_separation_ps)
    early, late = (projector(ProjectorSetting.z(port)) for port in (+1, -1))
    if setting.mode == MODE_TIME_OF_ARRIVAL:
        return [
            AnalyzerOutcome(0, 0, events.BIN_EARLY, early),
            AnalyzerOutcome(t, 0, events.BIN_LATE, late),
        ]
    outs = [AnalyzerOutcome(0, port, events.BIN_EARLY, 0.25 * early) for port in (+1, -1)]
    outs += [
        AnalyzerOutcome(t, port, events.BIN_SUPERPOSED, 0.5 * phase_projector(setting.phase, port))
        for port in (+1, -1)
    ]
    outs += [AnalyzerOutcome(2 * t, port, events.BIN_LATE, 0.25 * late) for port in (+1, -1)]
    return outs


def joint_outcome_table(
    rho: np.ndarray,
    outcomes_a: list[AnalyzerOutcome],
    outcomes_b: list[AnalyzerOutcome],
    depolarizing: float = 0.0,
) -> np.ndarray:
    """Probability of every outcome pair, rows for arm a, columns for arm b.

    `depolarizing` mixes the input toward the maximally mixed two-qubit state.
    """
    if not 0.0 <= depolarizing <= 1.0:
        raise ValueError("depolarizing must lie in [0, 1]")
    ea = np.stack([o.effect for o in outcomes_a])
    eb = np.stack([o.effect for o in outcomes_b])
    rho4 = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    # tr((Ea (x) Eb) rho) contracted without forming the Kronecker products.
    pure = np.einsum("aij,bkl,jlik->ab", ea, eb, rho4).real
    if depolarizing == 0.0:
        return pure
    tra = np.trace(ea, axis1=1, axis2=2).real
    trb = np.trace(eb, axis1=1, axis2=2).real
    mixed = np.outer(tra, trb) / 4.0
    return (1.0 - depolarizing) * pure + depolarizing * mixed


@dataclass(frozen=True)
class DetectorConfig:
    """Detector parameters with the jitter quoted as FWHM, as in datasheets."""

    efficiency: float = 0.70
    jitter_fwhm_ps: float = DEFAULT_JITTER_FWHM_PS
    dark_rate_hz: float = 100.0

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in [0, 1]")
        for name in ("jitter_fwhm_ps", "dark_rate_hz"):
            if not 0.0 <= getattr(self, name) < float("inf"):
                raise ValueError(f"{name} must be finite and nonnegative")

    @property
    def jitter_sigma_ps(self) -> float:
        return self.jitter_fwhm_ps / FWHM_TO_SIGMA


@dataclass(frozen=True, eq=False)
class CoincidenceHistogram:
    """Start-stop delay histogram over [-window, +window) with fixed bins."""

    bin_width_ps: int
    window_ps: int
    counts: np.ndarray
    n_starts: int

    def __post_init__(self):
        if self.bin_width_ps <= 0:
            raise ValueError("bin_width_ps must be positive")
        if self.window_ps <= 0 or self.window_ps % self.bin_width_ps != 0:
            raise ValueError("window_ps must be a positive multiple of bin_width_ps")
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (2 * self.window_ps // self.bin_width_ps,):
            raise ValueError("counts length must match the binning")
        object.__setattr__(self, "counts", counts)
        if self.n_starts < 0:
            raise ValueError("n_starts must be nonnegative")

    def bin_starts(self) -> np.ndarray:
        return -self.window_ps + self.bin_width_ps * np.arange(self.counts.size)

    def to_csv(self, path) -> None:
        rows = ((int(s), int(c)) for s, c in zip(self.bin_starts(), self.counts))
        write_csv(path, HISTOGRAM_CSV_HEADER, rows)


def tdc_histogram_from_times(
    start_times_ps: np.ndarray,
    stop_times_ps: np.ndarray,
    bin_width_ps: int,
    window_ps: int,
) -> CoincidenceHistogram:
    """Histogram stop-minus-start delays for every start.

    Every stop in [start - window, start + window) counts once per start.
    Each start walks the sorted stops from the first one in its window: a
    pass bins every start's current stop and drops the starts whose stop
    has left their window.  The sorted starts are walked in blocks of
    _BLOCK_STARTS, each with its own passes, so memory is the sorted copies
    of the starts and stops plus one block's temporaries, with no pair-sized
    temporary; time is O(pairs + starts) of vector work spread over as many
    passes as the fullest window holds stops, so a burst of 1e5 stops in
    one window costs 1e5 passes (~1 s) however few starts see it."""
    starts = np.sort(np.asarray(start_times_ps, dtype=np.int64))
    # A sentinel at the last start's window end, which no window holds, ends
    # each walk in bounds wherever it sorts; the one copy is sorted in place.
    stops = np.append(np.asarray(stop_times_ps, dtype=np.int64), starts[-1:] + window_ps)
    stops.sort()
    counts = np.zeros(2 * window_ps // bin_width_ps, dtype=np.int64)
    for first in range(0, starts.size, _BLOCK_STARTS):
        origin = starts[first : first + _BLOCK_STARTS] - window_ps  # each window opens here
        idx = np.searchsorted(stops, origin, side="left")
        while origin.size:
            d = stops[idx] - origin
            inside = np.flatnonzero(d < 2 * window_ps)
            if inside.size < d.size:  # gather only when some walk has ended
                origin, idx, d = origin[inside], idx[inside], d[inside]
            counts += np.bincount(d // bin_width_ps, minlength=counts.size)
            idx += 1
    return CoincidenceHistogram(bin_width_ps, window_ps, counts, int(starts.size))


def windowed_stream(pieces, lo_ps: int, hi_ps: int):
    """Every start of clicks that arrive in pieces (starts, stops, floor), once
    its window [start + lo, start + hi) is whole, with the stops seen so far
    that the window can hold.  No click of a later piece lies below the floor
    (None on the last piece): one that does raises ValueError.  Between pieces
    only the pending starts and the stops they or later starts can reach stay."""
    starts = stops = np.zeros(0, dtype=np.int64)
    bound = np.iinfo(np.int64).min  # the highest floor so far
    for new_starts, new_stops, floor in pieces:
        if any(t.size and t.min() < bound for t in (new_starts, new_stops)):
            raise ValueError("a click lies below the floor of an earlier piece")
        starts = np.concatenate([starts, new_starts])
        stops = np.concatenate([stops, new_stops])
        del new_starts, new_stops  # nothing of a piece is held while the next is drawn
        if floor is None:  # the last piece: every pending start is ready
            break
        early = starts + hi_ps <= floor
        ready, starts = starts[early], starts[~early]
        if ready.size:
            yield ready, stops
        del early, ready
        stops = stops[stops >= min(floor, int(starts.min(initial=floor))) + lo_ps]
        bound = max(bound, floor)
    if starts.size:
        yield starts, stops


def tdc_histogram_from_stream(pieces, bin_width_ps: int, window_ps: int) -> CoincidenceHistogram:
    """tdc_histogram_from_times folded over windowed_stream's (-window,
    +window) windows, equal bit for bit to one pass over every piece: counts
    and n_starts are summed from zero counts and no starts.  starmap drops
    each piece as its histogram returns, so none is held while the next is
    drawn."""
    hists = starmap(
        lambda starts, stops: tdc_histogram_from_times(starts, stops, bin_width_ps, window_ps),
        windowed_stream(pieces, -window_ps, window_ps),
    )
    counts, n_starts = reduce(
        lambda total, hist: (total[0] + hist.counts, total[1] + hist.n_starts),
        hists,
        (np.zeros(2 * window_ps // bin_width_ps, dtype=np.int64), 0),
    )
    return CoincidenceHistogram(bin_width_ps, window_ps, counts, n_starts)


def coincidence_rate(
    hist: CoincidenceHistogram,
    delay_ps: int,
    peak_halfwidth_ps: int = DEFAULT_PEAK_HALFWIDTH_PS,
) -> int:
    """Total counts in bins overlapping [delay - halfwidth, delay + halfwidth)."""
    lo = delay_ps - peak_halfwidth_ps
    hi = delay_ps + peak_halfwidth_ps
    if lo < -hist.window_ps or hi > hist.window_ps:
        raise ValueError("peak window extends beyond the histogram span")
    starts = hist.bin_starts()
    mask = (starts < hi) & (starts + hist.bin_width_ps > lo)
    return int(hist.counts[mask].sum())
