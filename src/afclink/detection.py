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

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from . import events
from .linalg import ProjectorSetting, partial_trace, projector
from .source import PairEmission, SourceConfig

MODE_TIME_OF_ARRIVAL = "TIME_OF_ARRIVAL"
MODE_INTERFEROMETER = "INTERFEROMETER"
ANALYZER_MODES = (MODE_TIME_OF_ARRIVAL, MODE_INTERFEROMETER)

# Gaussian timing response quoted as FWHM; FWHM = 2 sqrt(2 ln 2) sigma.
FWHM_TO_SIGMA = 2.355
DEFAULT_JITTER_FWHM_PS = 250.0

EVENT_CSV_HEADER = ("cycle", "channel", "time_ps", "bin", "origin", "memory_outcome")
HISTOGRAM_CSV_HEADER = ("bin_start_ps", "count")

DEFAULT_PEAK_HALFWIDTH_PS = 500

# Start-stop pairs expanded at once by tdc_histogram_from_times; one start
# whose own window holds more is expanded alone.
HISTOGRAM_CHUNK_PAIRS = 2**18


@dataclass(frozen=True)
class AnalyzerSetting:
    """One arm's measurement choice: arrival time, or interference phase."""

    mode: str
    phase: float = 0.0

    def __post_init__(self):
        if self.mode not in ANALYZER_MODES:
            raise ValueError(f"unknown analyzer mode {self.mode!r}")
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


def single_outcome_table(
    rho2: np.ndarray, outcomes: list[AnalyzerOutcome], depolarizing: float = 0.0
) -> np.ndarray:
    """Outcome probabilities for one arm given its reduced state."""
    if not 0.0 <= depolarizing <= 1.0:
        raise ValueError("depolarizing must lie in [0, 1]")
    effects = np.stack([o.effect for o in outcomes])
    pure = np.einsum("aij,ji->a", effects, np.asarray(rho2, dtype=complex)).real
    if depolarizing == 0.0:
        return pure
    mixed = np.trace(effects, axis1=1, axis2=2).real / 2.0
    return (1.0 - depolarizing) * pure + depolarizing * mixed


def _multinomial_counts(table: np.ndarray, n_samples: int, rng: np.random.Generator):
    if n_samples < 0:
        raise ValueError("n_samples must be non-negative")
    p = np.clip(table.reshape(-1), 0.0, None)
    counts = rng.multinomial(int(n_samples), p / p.sum())
    return counts.reshape(table.shape)


def joint_outcome_counts(
    rho: np.ndarray,
    outcomes_a: list[AnalyzerOutcome],
    outcomes_b: list[AnalyzerOutcome],
    n_samples: int,
    rng: np.random.Generator,
    depolarizing: float = 0.0,
) -> np.ndarray:
    """Outcome counts for n_samples identically prepared pairs.

    One multinomial draw over the joint table: distributed identically to
    n_samples single-pair samples, at batch cost.
    """
    return _multinomial_counts(
        joint_outcome_table(rho, outcomes_a, outcomes_b, depolarizing), n_samples, rng
    )


def single_outcome_counts(
    rho2: np.ndarray,
    outcomes: list[AnalyzerOutcome],
    n_samples: int,
    rng: np.random.Generator,
    depolarizing: float = 0.0,
) -> np.ndarray:
    """Outcome counts for n_samples identically prepared lone photons."""
    return _multinomial_counts(
        single_outcome_table(rho2, outcomes, depolarizing), n_samples, rng
    )


def _sample_index(probs: np.ndarray, rng: np.random.Generator) -> int:
    p = np.clip(probs, 0.0, None)
    cum = np.cumsum(p)
    return int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))


def _resolve(event: events.PhotonEvent, outcome: AnalyzerOutcome) -> events.PhotonEvent:
    return replace(
        event,
        timestamp_ps=event.timestamp_ps + outcome.slot_offset_ps,
        bin=outcome.bin,
        port=outcome.port,
    )


def analyzer_sample(
    pair: PairEmission,
    survivors: list[events.PhotonEvent],
    settings: dict[str, AnalyzerSetting],
    source_config: SourceConfig,
    rng: np.random.Generator,
) -> list[events.PhotonEvent]:
    """Collapse one pair's surviving photons through the analyzers.

    Photons of an entangled pair are sampled jointly; if only one photon
    survived the other arm is traced out.  Returned events carry resolved
    bins, output ports and slot-shifted timestamps, in input order.
    """
    if not survivors:
        return []
    binsep = source_config.bin_separation_ps
    noise = source_config.depolarizing_noise
    if pair.joint_state is None:
        rho4 = np.zeros((4, 4), dtype=complex)
        rho4[0, 0] = 1.0  # both photons in the early bin
    else:
        rho4 = pair.joint_state.density().matrix
    if len(survivors) == 2:
        channels = {ev.channel for ev in survivors}
        if channels != {events.SIGNAL_794, events.IDLER_1535}:
            raise ValueError("a pair must have one photon per channel")
        by_channel = {ev.channel: ev for ev in survivors}
        outs_a = analyzer_outcomes(settings[events.SIGNAL_794], binsep)
        outs_b = analyzer_outcomes(settings[events.IDLER_1535], binsep)
        table = joint_outcome_table(rho4, outs_a, outs_b, depolarizing=noise)
        k = _sample_index(table.ravel(), rng)
        ia, ib = divmod(k, len(outs_b))
        resolved = {
            events.SIGNAL_794: _resolve(by_channel[events.SIGNAL_794], outs_a[ia]),
            events.IDLER_1535: _resolve(by_channel[events.IDLER_1535], outs_b[ib]),
        }
        return [resolved[ev.channel] for ev in survivors]
    if len(survivors) > 2:
        raise ValueError("a pair emits at most two photons")
    ev = survivors[0]
    # Tracing out the lost arm commutes with the depolarizing mix, so the
    # single-qubit table uses the same noise parameter.
    rho2 = partial_trace(rho4, keep=0 if ev.channel == events.SIGNAL_794 else 1)
    outs = analyzer_outcomes(settings[ev.channel], binsep)
    probs = single_outcome_table(rho2, outs, depolarizing=noise)
    return [_resolve(ev, outs[_sample_index(probs, rng)])]


@dataclass(frozen=True)
class DetectorConfig:
    efficiency: float = 0.70
    jitter_sigma_ps: float = DEFAULT_JITTER_FWHM_PS / FWHM_TO_SIGMA
    dark_rate_hz: float = 100.0

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in [0, 1]")
        if self.jitter_sigma_ps < 0.0:
            raise ValueError("jitter_sigma_ps must be nonnegative")
        if self.dark_rate_hz < 0.0:
            raise ValueError("dark_rate_hz must be nonnegative")


def detect(
    event: events.PhotonEvent, config: DetectorConfig, rng: np.random.Generator
) -> events.PhotonEvent | None:
    """Detector response for one photon: None if it goes unregistered."""
    if event.memory_outcome == events.OUTCOME_LOST:
        return None
    if config.efficiency < 1.0 and rng.random() >= config.efficiency:
        return None
    if config.jitter_sigma_ps > 0.0:
        return event.shifted(int(round(rng.normal(0.0, config.jitter_sigma_ps))))
    return event


def dark_events(
    config: DetectorConfig,
    rng: np.random.Generator,
    channels: list[str],
    n_cycles: int,
    rep_period_ps: int,
) -> list[events.PhotonEvent]:
    """Uniformly timed noise clicks over the full acquisition span."""
    span_ps = int(n_cycles) * int(rep_period_ps)
    expected = config.dark_rate_hz * span_ps * 1e-12
    out: list[events.PhotonEvent] = []
    for channel in channels:
        n = int(rng.poisson(expected))
        if n == 0:
            continue
        times = np.sort(rng.integers(0, span_ps, size=n))
        for t in times:
            out.append(
                events.PhotonEvent(
                    cycle=int(t // rep_period_ps),
                    channel=channel,
                    timestamp_ps=int(t),
                    bin=events.BIN_NONE,
                    origin=events.ORIGIN_DARK,
                )
            )
    return out


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

    def bin_centers(self) -> np.ndarray:
        return self.bin_starts() + self.bin_width_ps / 2.0

    def merge(self, other: "CoincidenceHistogram") -> "CoincidenceHistogram":
        if (self.bin_width_ps, self.window_ps) != (other.bin_width_ps, other.window_ps):
            raise ValueError("histograms must share their binning to merge")
        return self.with_counts(self.counts + other.counts, self.n_starts + other.n_starts)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(HISTOGRAM_CSV_HEADER)
            for start, count in zip(self.bin_starts(), self.counts):
                writer.writerow([int(start), int(count)])


def histogram_from_csv(path) -> CoincidenceHistogram:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != HISTOGRAM_CSV_HEADER:
            raise ValueError(f"unexpected histogram header {header!r}")
        rows = [(int(a), int(b)) for a, b in reader]
    if len(rows) < 2:
        raise ValueError("histogram needs at least two bins")
    starts = np.array([r[0] for r in rows])
    widths = np.diff(starts)
    if not np.all(widths == widths[0]):
        raise ValueError("histogram bins must be uniform")
    bin_width = int(widths[0])
    window = -int(starts[0])
    counts = np.array([r[1] for r in rows], dtype=np.int64)
    return CoincidenceHistogram(bin_width, window, counts, n_starts=0)


def tdc_histogram(
    detections: list[events.PhotonEvent],
    rep_period_ps: int,
    bin_width_ps: int,
    window_ps: int,
    start_channel: str = events.IDLER_1535,
    stop_channel: str = events.SIGNAL_794,
) -> CoincidenceHistogram:
    """Histogram stop-minus-start delays for every start within the window.

    Starts are clicks on `start_channel` coincident with the pulse clock;
    the clock ticks every repetition period, so each start-channel click is
    within half a period of a tick and the gate passes all of them.  The
    recorded start time is the click's own timestamp.
    """
    if rep_period_ps <= 0:
        raise ValueError("rep_period_ps must be positive")
    starts = np.array(
        [e.timestamp_ps for e in detections if e.channel == start_channel], dtype=np.int64
    )
    stops = np.array(
        [e.timestamp_ps for e in detections if e.channel == stop_channel], dtype=np.int64
    )
    return tdc_histogram_from_times(starts, stops, bin_width_ps, window_ps)


def tdc_histogram_from_times(
    start_times_ps: np.ndarray,
    stop_times_ps: np.ndarray,
    bin_width_ps: int,
    window_ps: int,
) -> CoincidenceHistogram:
    """Array-level histogram accumulation (the core of tdc_histogram).

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


def events_to_csv(event_list: list[events.PhotonEvent], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EVENT_CSV_HEADER)
        for ev in event_list:
            writer.writerow(
                [ev.cycle, ev.channel, ev.timestamp_ps, ev.bin, ev.origin, ev.memory_outcome]
            )


def events_from_csv(path) -> list[events.PhotonEvent]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != EVENT_CSV_HEADER:
            raise ValueError(f"unexpected event header {header!r}")
        out = []
        for row in reader:
            cycle, channel, time_ps, bin_tag, origin, outcome = row
            out.append(
                events.PhotonEvent(
                    cycle=int(cycle),
                    channel=channel,
                    timestamp_ps=int(time_ps),
                    bin=bin_tag,
                    origin=origin,
                    memory_outcome=outcome,
                )
            )
    return out
