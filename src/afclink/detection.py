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

Every coincidence count is one walk of sorted start and stop times, summed
over a streamed run by windowed_fold: the TDC histogram bins the delays, and
window_counts counts them in exact closed windows, for g2 and CHSH.
"""

from dataclasses import dataclass
from functools import lru_cache

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

# _walk takes the sorted starts this many at a time, so a pass's temporaries
# hold one block: 256 kB per int64 array, cache-sized.
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


def bin_count(bin_width_ps: int, window_ps: int) -> int:
    """The number of bins over [-window, +window), once the binning is checked."""
    if bin_width_ps <= 0:
        raise ValueError("bin_width_ps must be positive")
    if window_ps <= 0 or window_ps % bin_width_ps != 0:
        raise ValueError("window_ps must be a positive multiple of bin_width_ps")
    return 2 * window_ps // bin_width_ps


@dataclass(frozen=True, eq=False)
class CoincidenceHistogram:
    """Start-stop delay histogram over [-window, +window) with fixed bins."""

    bin_width_ps: int
    window_ps: int
    counts: np.ndarray
    n_starts: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (bin_count(self.bin_width_ps, self.window_ps),):
            raise ValueError("counts length must match the binning")
        object.__setattr__(self, "counts", counts)
        if self.n_starts < 0:
            raise ValueError("n_starts must be nonnegative")

    def bin_starts(self) -> np.ndarray:
        return -self.window_ps + self.bin_width_ps * np.arange(self.counts.size)

    def to_csv(self, path) -> None:
        rows = ((int(s), int(c)) for s, c in zip(self.bin_starts(), self.counts))
        write_csv(path, HISTOGRAM_CSV_HEADER, rows)


def _walk(starts, stops, lo: int, span: int):
    """stop - start - lo of every pair with stop - start in [lo, lo + span),
    pass by pass: each start walks the sorted stops from the first in its
    reach, one a pass, until a stop (or the sentinel) leaves the reach.
    Memory is a sorted copy of each input and one _BLOCK_STARTS block of
    temporaries; time is O(pairs + starts) over as many passes as the
    fullest reach holds stops (1e5 stops in one reach: ~1 s)."""
    starts = np.sort(np.asarray(starts, dtype=np.int64))
    stops = np.append(np.asarray(stops, dtype=np.int64), starts[-1:] + lo + span)
    stops.sort()
    for first in range(0, starts.size, _BLOCK_STARTS):
        origin = starts[first : first + _BLOCK_STARTS] + lo  # each reach opens here
        idx = np.searchsorted(stops, origin, side="left")
        while origin.size:
            d = stops[idx] - origin
            inside = np.flatnonzero(d < span)
            if inside.size < d.size:  # gather only when some walk has ended
                origin, idx, d = origin[inside], idx[inside], d[inside]
            yield d
            idx += 1


def tdc_histogram_from_times(
    start_times_ps: np.ndarray, stop_times_ps: np.ndarray, bin_width_ps: int, window_ps: int
) -> CoincidenceHistogram:
    """Histogram stop-minus-start delays: every stop in [start - window,
    start + window) counts once per start, in the bin delay // bin_width_ps."""
    counts = np.zeros(bin_count(bin_width_ps, window_ps), dtype=np.int64)
    for d in _walk(start_times_ps, stop_times_ps, -window_ps, 2 * window_ps):
        counts += np.bincount(d // bin_width_ps, minlength=counts.size)
    return CoincidenceHistogram(bin_width_ps, window_ps, counts, np.size(start_times_ps))


@lru_cache(maxsize=8)
def _segments(offsets: tuple[int, ...], hw: int):
    """The lowest delay lo of the windows [o - hw, o + hw], the segment between
    window edges of each delay d - lo, and the 0/1 (windows, segments) matrix
    of the segments each window covers; cached, so built once per fold."""
    opens = np.array(offsets, dtype=np.int64) - hw
    lo = min(offsets, default=hw) - hw
    edges = np.sort(np.concatenate([[0], opens - lo, opens - lo + 2 * hw + 1]))
    segments = np.arange(edges.size - 1, dtype=np.min_scalar_type(edges.size))
    inside = (edges[:-1] >= opens[:, None] - lo) & (edges[:-1] <= opens[:, None] - lo + 2 * hw)
    return lo, np.repeat(segments, np.diff(edges)), inside.astype(np.int64)


def window_counts(starts, stops, offsets, hw, start_labels=None, stop_labels=None) -> np.ndarray:
    """For each offset o, the (start s, stop t) pairs with t in the closed
    window [s + o - hw, s + o + hw]; each delay counts once, in its segment,
    however the windows overlap.  With 0/1 labels a per start and b per stop,
    split as [offset, a, b]: the walk runs on 4 s - 2 a and 4 t + b, whose
    delay 4 (t - s) + 2 a + b keeps both labels in its two low bits."""
    lo, table, inside = _segments(tuple(offsets), hw)
    k = 1 if start_labels is None else 4
    if k == 4:
        starts = 4 * np.asarray(starts) - 2 * np.asarray(start_labels)
        stops = 4 * np.asarray(stops) + np.asarray(stop_labels)
    counts = np.zeros(k * inside.shape[1], dtype=np.int64)
    for d in _walk(starts, stops, k * lo, k * table.size):
        seg = table[d] if k == 1 else 4 * table[d >> 2].astype(np.intp) + (d & 3)
        counts += np.bincount(seg, minlength=counts.size)
    return (inside @ counts.reshape(inside.shape[1], k)).reshape((-1, 2, 2) if k == 4 else -1)


def windowed_fold(pieces, lo_ps: int, hi_ps: int, kernel) -> tuple:
    """The term-by-term sum of kernel(starts, stops), a tuple of counts, from no
    clicks and over the starts of pieces (starts, stops, floor), each once its
    window [start + lo, start + hi) is whole: for a kernel that counts pairs in
    that window, one call on every piece bit for bit.  A click below an earlier
    floor raises ValueError; only pending starts and their stops are carried."""
    starts = stops = np.zeros(0, dtype=np.int64)
    total = kernel(starts, stops)
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
        total = tuple(map(np.add, total, kernel(ready, stops)))
        del early, ready
        stops = stops[stops >= min(floor, int(starts.min(initial=floor))) + lo_ps]
        bound = max(bound, floor)
    return tuple(map(np.add, total, kernel(starts, stops)))
