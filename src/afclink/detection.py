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

from dataclasses import dataclass, field

import numpy as np

from . import events
from .csvio import csv_rows, write_csv
from .linalg import ProjectorSetting, projector

# The values are the config tokens of analyzers.<channel>.mode.
MODE_TIME_OF_ARRIVAL = "time_of_arrival"
MODE_INTERFEROMETER = "interferometer"
ANALYZER_MODES = (MODE_TIME_OF_ARRIVAL, MODE_INTERFEROMETER)

# Gaussian timing response quoted as FWHM; FWHM = 2 sqrt(2 ln 2) sigma.
FWHM_TO_SIGMA = 2.355
DEFAULT_JITTER_FWHM_PS = 250.0

HISTOGRAM_CSV_HEADER = ("bin_start_ps", "count")

DEFAULT_PEAK_HALFWIDTH_PS = 500

# Start-stop pairs expanded at once by tdc_histogram_from_times; one start
# whose own window holds more is expanded alone.
HISTOGRAM_CHUNK_PAIRS = 2**18


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
    if setting.mode == MODE_TIME_OF_ARRIVAL:
        early = np.diag([1.0, 0.0]).astype(complex)
        late = np.diag([0.0, 1.0]).astype(complex)
        return [
            AnalyzerOutcome(0, 0, events.BIN_EARLY, early),
            AnalyzerOutcome(t, 0, events.BIN_LATE, late),
        ]
    outs = []
    for port in (+1, -1):
        outs.append(AnalyzerOutcome(0, port, events.BIN_EARLY, 0.25 * np.diag([1.0, 0.0]).astype(complex)))
    for port in (+1, -1):
        effect = 0.5 * projector(ProjectorSetting.phase(setting.phase, port))
        outs.append(AnalyzerOutcome(t, port, events.BIN_SUPERPOSED, effect))
    for port in (+1, -1):
        outs.append(AnalyzerOutcome(2 * t, port, events.BIN_LATE, 0.25 * np.diag([0.0, 1.0]).astype(complex)))
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
    counts: np.ndarray = field(default=None)  # type: ignore[assignment]
    n_starts: int = 0

    def __post_init__(self):
        if self.bin_width_ps <= 0:
            raise ValueError("bin_width_ps must be positive")
        if self.window_ps <= 0 or self.window_ps % self.bin_width_ps != 0:
            raise ValueError("window_ps must be a positive multiple of bin_width_ps")
        n_bins = 2 * self.window_ps // self.bin_width_ps
        counts = self.counts
        if counts is None:
            counts = np.zeros(n_bins, dtype=np.int64)
        else:
            counts = np.asarray(counts, dtype=np.int64)
            if counts.shape != (n_bins,):
                raise ValueError("counts length must match the binning")
        object.__setattr__(self, "counts", counts)
        if self.n_starts < 0:
            raise ValueError("n_starts must be nonnegative")

    @classmethod
    def empty(cls, bin_width_ps: int, window_ps: int) -> "CoincidenceHistogram":
        return cls(bin_width_ps=bin_width_ps, window_ps=window_ps)

    def with_counts(self, counts, n_starts: int) -> "CoincidenceHistogram":
        return CoincidenceHistogram(self.bin_width_ps, self.window_ps, counts, n_starts)

    @property
    def n_bins(self) -> int:
        return self.counts.shape[0]

    def bin_starts(self) -> np.ndarray:
        return -self.window_ps + self.bin_width_ps * np.arange(self.n_bins)

    def merge(self, other: "CoincidenceHistogram") -> "CoincidenceHistogram":
        if (self.bin_width_ps, self.window_ps) != (other.bin_width_ps, other.window_ps):
            raise ValueError("histograms must share their binning to merge")
        return self.with_counts(self.counts + other.counts, self.n_starts + other.n_starts)

    def to_csv(self, path) -> None:
        rows = ((int(s), int(c)) for s, c in zip(self.bin_starts(), self.counts))
        write_csv(path, HISTOGRAM_CSV_HEADER, rows)


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


def tdc_histogram_from_times(
    start_times_ps: np.ndarray,
    stop_times_ps: np.ndarray,
    bin_width_ps: int,
    window_ps: int,
) -> CoincidenceHistogram:
    """Histogram stop-minus-start delays for every start.

    Every stop in [start - window, start + window) counts once per start.
    The start-stop pairs are expanded chunk by chunk of starts, at most
    HISTOGRAM_CHUNK_PAIRS at a time, so memory stays bounded."""
    starts = np.sort(np.asarray(start_times_ps, dtype=np.int64))
    stops = np.sort(np.asarray(stop_times_ps, dtype=np.int64))
    hist = CoincidenceHistogram.empty(bin_width_ps, window_ps)
    counts = np.zeros(hist.n_bins, dtype=np.int64)
    lo = np.searchsorted(stops, starts - window_ps, side="left")
    m = np.searchsorted(stops, starts + window_ps, side="left") - lo
    ends = np.cumsum(m)
    first = 0
    while first < starts.size:
        limit = ends[first] - m[first] + HISTOGRAM_CHUNK_PAIRS
        last = max(first + 1, int(np.searchsorted(ends, limit, side="right")))
        mm = m[first:last]
        # Expand the [lo, lo + m) ranges without a Python loop.
        offsets = lo[first:last] - (np.cumsum(mm) - mm)
        pos = np.arange(int(mm.sum())) + np.repeat(offsets, mm)
        dts = stops[pos] - np.repeat(starts[first:last], mm)
        counts += np.bincount((dts + window_ps) // bin_width_ps, minlength=counts.size)
        first = last
    return hist.with_counts(counts, n_starts=int(starts.size))


def tdc_histogram_from_stream(pieces, bin_width_ps: int, window_ps: int) -> CoincidenceHistogram:
    """tdc_histogram_from_times over clicks that arrive in pieces, equal bit
    for bit to one pass over all of them.

    Each piece is (start times, stop times, floor): no click of a later piece
    lies below the floor, which is None on the last piece.  A start is
    histogrammed once the floor has passed its window, against the stops
    seen so far, so it counts once with every stop it reaches.  Between
    pieces only the pending starts and the stops that they or later starts
    can reach are kept, about one window of clicks."""
    hist = CoincidenceHistogram.empty(bin_width_ps, window_ps)
    starts = stops = np.zeros(0, dtype=np.int64)
    bound = np.iinfo(np.int64).min  # the highest floor so far
    for new_starts, new_stops, floor in pieces:
        if any(t.size and t.min() < bound for t in (new_starts, new_stops)):
            raise ValueError("a click lies below the floor of an earlier piece")
        floor = np.iinfo(np.int64).max if floor is None else floor
        starts = np.concatenate([starts, new_starts])
        stops = np.concatenate([stops, new_stops])
        # A start's stops lie below start + window: once the floor is there,
        # no later click can join it.
        early = starts + window_ps <= floor
        ready, starts = starts[early], starts[~early]
        if ready.size:
            hist = hist.merge(tdc_histogram_from_times(ready, stops, bin_width_ps, window_ps))
        reach = min(floor, int(starts.min(initial=floor))) - window_ps
        stops = stops[stops >= reach]
        bound = max(bound, floor)
    return hist


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
