"""End-to-end pipelines: simulation runs, measured-data analysis, parameter
sweeps and report generation.

The simulation engine works on whole arrays of photons, and its cost scales
with detected photons, not with pairs or cycles.  A photon is detected with
q = p_alive * eta_det; by the colouring theorem (Kingman, Poisson Processes,
1993, sec. 5.1) a shard's Poisson(mu * cycles) pairs split into four
independent Poisson classes (PAIR_CLASSES) of means mu * cycles times
q_s q_i, q_s (1 - q_i), (1 - q_s) q_i and (1 - q_s)(1 - q_i).
Cycles are processed in fixed-size shards, each with its own generator seeded
from (master seed, shard index).  The draw order inside a shard is fixed: the
four class counts; the cycles of the both-detected pairs (shared by the two
photons), then of the lone signal and idler photons; joint analyzer outcomes,
then single-arm outcomes per channel; memory outcomes conditioned on survival
per channel; then, channel by channel, detector jitter and dark counts.
Changing that order would change every seeded result.  Click arrays are not
time-sorted within a shard.

The start-stop histogram is streamed shard by shard through
detection.tdc_histogram_from_stream, with the floor below which no later
shard has a click; it equals one pass over the whole run bit for bit.  Click
arrays are kept only where events.csv or the CHSH matching needs them
(simulate); sweep --parameter mu keeps one shard and the carried window.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import events
from .config import ExperimentConfig
from .csvio import csv_rows, float_fields
from .detection import (
    MODE_INTERFEROMETER,
    AnalyzerSetting,
    CoincidenceHistogram,
    DetectorConfig,
    analyzer_outcomes,
    joint_outcome_table,
    single_outcome_table,
    tdc_histogram_from_stream,
)
from .errors import UndefinedEstimateError
from .estimation import (
    CHSH_PAIRS,
    MC_MIN_TRIALS,
    METRIC_FUNCTIONS,
    ChshEstimate,
    MetricsReport,
    TomographyResult,
    chsh_s,
    correlation_coefficient,
    fidelity,
    find_histogram_peaks,
    g2_cross,
    monte_carlo_samples,
    tomography_from_csv,
    tomography_mle,
)
from .linalg import partial_trace
from .memory import MemoryConfig

SHARD_CYCLES = 1_000_000
# Detector jitter moves a click by less than this many sigma: a Gaussian draw
# beyond it has P < 1e-300, and tdc_histogram_from_stream fails if one does.
_JITTER_BOUND_SIGMAS = 40
# events.csv rows formatted per write; bounds the writer's memory.
_EVENTS_CHUNK_ROWS = 1 << 14

EVENT_CSV_HEADER = ("cycle", "channel", "time_ps", "bin", "origin", "memory_outcome")

STAGE_INPUT = "in"
STAGE_OUTPUT = "out"

CHSH_CSV_HEADER = ("stage", "setting_a", "setting_b", "correlation", "sigma")
WAVELENGTH_CSV_HEADER = (
    "signal_nm",
    "idler_nm",
    "efficiency_794",
    "efficiency_1535",
    "link_efficiency",
)
ECHOES_CSV_HEADER = ("delay_ns", "relative_amplitude")
METRICS_CSV_HEADER = ("stage", "metric", "value", "sigma")

DATA_TOMOGRAPHY_IN = "tomography_before_storage.csv"
DATA_TOMOGRAPHY_OUT = "tomography_after_storage.csv"
DATA_CHSH = "chsh_correlations.csv"
DATA_WAVELENGTH = "wavelength_efficiency.csv"
DATA_SYNTHETIC_COMB = "synthetic_comb.csv"

SWEEP_PARAMETERS = ("mu", "pump_power", "analyzer_phase")

# summary.json lists the histogram peaks above this fraction of the tallest bin.
_SUMMARY_PEAK_FRACTION = 0.05

_CHANNELS = (events.SIGNAL_794, events.IDLER_1535)
# Emitted pairs by which of their photons are detected: both, the signal
# alone, the idler alone, neither.
PAIR_CLASSES = ("both", "signal_only", "idler_only", "neither")

_BIN_LABELS = events.BINS
_BIN_CODE = {label: i for i, label in enumerate(_BIN_LABELS)}
_ORIGIN_LABELS = events.ORIGINS
_ORIGIN_CODE = {label: i for i, label in enumerate(_ORIGIN_LABELS)}

# Memory outcome codes: 0 none, 1 transmitted, 2 + k for echo k.  Lost photons
# are dropped before detection and never appear in the arrays.
_OUTCOME_NONE = 0
_OUTCOME_TRANSMITTED = 1
_OUTCOME_RECALL_BASE = 2


def data_path(name: str) -> Path:
    """Path of a data file shipped inside the package."""
    return Path(__file__).parent / "data" / name


# ---------------------------------------------------------------------------
# Simulation engine


@dataclass(frozen=True, eq=False)
class ChannelRecord:
    """All detected clicks of one channel as parallel arrays, shard after
    shard; within a shard the clicks are not in time order."""

    channel: str
    times: np.ndarray
    cycles: np.ndarray
    ports: np.ndarray
    bins: np.ndarray
    origins: np.ndarray
    outcomes: np.ndarray

    @property
    def dark_count(self) -> int:
        return int((self.origins == _ORIGIN_CODE[events.ORIGIN_DARK]).sum())


@dataclass(frozen=True, eq=False)
class SimulationData:
    """Click arrays per channel, the emitted pairs counted per PAIR_CLASSES
    class, and the configured detection probability of each channel.

    `shards` holds, per shard, where its clicks end in the idler and the
    signal arrays, and the floor of every later click (None after the last)."""

    config: ExperimentConfig
    n_cycles: int
    pair_classes: dict[str, int]
    p_detect: dict[str, float]
    channels: dict[str, ChannelRecord]
    shards: tuple[tuple[int, int, int | None], ...]

    @property
    def n_pairs(self) -> int:
        return sum(self.pair_classes.values())

    def histogram(self) -> CoincidenceHistogram:
        """Idler starts against signal stops, streamed shard by shard."""
        starts = self.channels[events.IDLER_1535].times
        stops = self.channels[events.SIGNAL_794].times
        pieces, i0, s0 = [], 0, 0
        for i1, s1, floor in self.shards:
            pieces.append((starts[i0:i1], stops[s0:s1], floor))
            i0, s0 = i1, s1
        tdc = self.config.tdc
        return tdc_histogram_from_stream(pieces, tdc.bin_width_ps, tdc.window_ps)


@dataclass(frozen=True, eq=False)
class _MemoryTable:
    """The outcomes a photon can survive with; p_alive = 1 - p_lost."""

    p_alive: float
    cumulative: np.ndarray
    delay_ps: np.ndarray
    codes: np.ndarray
    spurious: np.ndarray


def _memory_table(config: MemoryConfig | None) -> _MemoryTable | None:
    if config is None:
        return None
    _, probs = config.outcome_table()
    n_echo = len(config.echo_delays)
    delays = [0] + [config.echo_delay_ps(k) for k in range(n_echo)]
    codes = [_OUTCOME_TRANSMITTED]
    codes += [_OUTCOME_RECALL_BASE + k for k in range(n_echo)]
    spurious = [False]
    spurious += [k != config.primary_echo_index for k in range(n_echo)]
    return _MemoryTable(
        p_alive=min(1.0, max(0.0, 1.0 - float(probs[-1]))),
        cumulative=np.cumsum(probs[:-1]),
        delay_ps=np.asarray(delays, dtype=np.int64),
        codes=np.asarray(codes, dtype=np.int16),
        spurious=np.asarray(spurious, dtype=bool),
    )


@dataclass(frozen=True, eq=False)
class _AnalyzerTable:
    slots: np.ndarray
    ports: np.ndarray
    bins: np.ndarray


@dataclass(frozen=True, eq=False)
class _EngineTables:
    seed: int
    mu: float
    rep_period_ps: int
    outcomes: dict[str, _AnalyzerTable]
    joint_cum: np.ndarray
    n_out_idler: int
    single_cum: dict[str, np.ndarray]
    memory: dict[str, _MemoryTable | None]
    detectors: dict[str, DetectorConfig]
    p_detect: dict[str, float]


def _cumulative(table: np.ndarray) -> np.ndarray:
    return np.cumsum(np.clip(np.asarray(table, dtype=float).reshape(-1), 0.0, None))


def _build_tables(cfg: ExperimentConfig) -> _EngineTables:
    src = cfg.source
    state = src.joint_state()
    if state is None:
        rho4 = np.zeros((4, 4), dtype=complex)
        rho4[0, 0] = 1.0  # both photons in the early bin
    else:
        rho4 = state.density().matrix
    outs = {
        ch: analyzer_outcomes(cfg.analyzer_setting(ch), src.bin_separation_ps)
        for ch in _CHANNELS
    }
    tables = {
        ch: _AnalyzerTable(
            slots=np.asarray([o.slot_offset_ps for o in outs[ch]], dtype=np.int64),
            ports=np.asarray([o.port for o in outs[ch]], dtype=np.int8),
            bins=np.asarray([_BIN_CODE[o.bin] for o in outs[ch]], dtype=np.int8),
        )
        for ch in _CHANNELS
    }
    noise = src.depolarizing_noise
    joint = joint_outcome_table(
        rho4, outs[events.SIGNAL_794], outs[events.IDLER_1535], depolarizing=noise
    )
    # A photon whose partner goes undetected sees the reduced state.  Tracing out the
    # lost arm commutes with the depolarizing mix, so the single-arm table
    # takes the same noise parameter.
    single_cum = {}
    for keep, ch in ((0, events.SIGNAL_794), (1, events.IDLER_1535)):
        rho2 = partial_trace(rho4, keep=keep)
        single_cum[ch] = _cumulative(
            single_outcome_table(rho2, outs[ch], depolarizing=noise)
        )
    memory = {ch: _memory_table(cfg.memory_config(ch)) for ch in _CHANNELS}
    detectors = {ch: cfg.detector_config(ch) for ch in _CHANNELS}
    # The detector efficiency is the same for every memory outcome and port.
    p_detect = {
        ch: (1.0 if memory[ch] is None else memory[ch].p_alive) * detectors[ch].efficiency
        for ch in _CHANNELS
    }
    return _EngineTables(
        seed=cfg.run.seed,
        mu=src.mean_pairs_per_pulse,
        rep_period_ps=src.rep_period_ps,
        outcomes=tables,
        joint_cum=_cumulative(joint),
        n_out_idler=len(outs[events.IDLER_1535]),
        single_cum=single_cum,
        memory=memory,
        detectors=detectors,
        p_detect=p_detect,
    )


@dataclass(frozen=True, eq=False)
class _MemoryDraw:
    """The memory outcomes of one channel's detected photons."""

    delay: np.ndarray
    code: np.ndarray
    spurious: np.ndarray


def _draw_memory(table: _MemoryTable, n: int, rng: np.random.Generator) -> _MemoryDraw:
    """Outcomes of n detected photons, from the table conditioned on survival."""
    u = rng.random(n) * table.cumulative[-1]
    k = np.minimum(np.searchsorted(table.cumulative, u, side="right"), table.codes.size - 1)
    return _MemoryDraw(
        delay=table.delay_ps[k], code=table.codes[k], spurious=table.spurious[k]
    )


def _draw_outcomes(cum: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    if n == 0:
        return np.zeros(0, dtype=np.intp)
    k = np.searchsorted(cum, rng.random(n) * cum[-1], side="right")
    return np.minimum(k, cum.size - 1)


# A dark click has no port, bin or memory outcome.
_DARK_FIELDS = {
    "ports": 0,
    "bins": _BIN_CODE[events.BIN_NONE],
    "origins": _ORIGIN_CODE[events.ORIGIN_DARK],
    "outcomes": _OUTCOME_NONE,
}


def _simulate_shard(
    t: _EngineTables, shard_index: int, first_cycle: int, n_cycles: int
) -> tuple[np.ndarray, dict[str, dict[str, np.ndarray]]]:
    """The class counts (PAIR_CLASSES order) and click arrays of one shard."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=t.seed, spawn_key=(shard_index,))
    )
    q_s, q_i = (t.p_detect[ch] for ch in _CHANNELS)
    probs = np.array([q_s * q_i, q_s * (1 - q_i), (1 - q_s) * q_i, (1 - q_s) * (1 - q_i)])
    classes = rng.poisson(t.mu * n_cycles * probs)
    n_both, n_sig, n_idl, _ = classes.tolist()
    both_cycles = rng.integers(0, n_cycles, n_both)
    lone_cycles = [rng.integers(0, n_cycles, n) for n in (n_sig, n_idl)]

    joint_idx = np.divmod(_draw_outcomes(t.joint_cum, n_both, rng), t.n_out_idler)
    picks = [
        np.concatenate([joint, _draw_outcomes(t.single_cum[ch], lone.size, rng)])
        for ch, joint, lone in zip(_CHANNELS, joint_idx, lone_cycles)
    ]
    cycles = [np.concatenate([both_cycles, lone]) + first_cycle for lone in lone_cycles]
    # A channel with no memory passes every photon unchanged; nothing is drawn.
    draws = [
        None if t.memory[ch] is None else _draw_memory(t.memory[ch], c.size, rng)
        for ch, c in zip(_CHANNELS, cycles)
    ]

    span = n_cycles * t.rep_period_ps
    lo = first_cycle * t.rep_period_ps
    shard: dict[str, dict[str, np.ndarray]] = {}
    for ch, pick, cyc, draw in zip(_CHANNELS, picks, cycles, draws):
        out, det = t.outcomes[ch], t.detectors[ch]
        times = cyc * t.rep_period_ps + out.slots[pick]
        if draw is None:
            origins = np.full(times.size, _ORIGIN_CODE[events.ORIGIN_PAIR], dtype=np.int8)
            outcomes = np.full(times.size, _OUTCOME_NONE, dtype=np.int16)
        else:
            times += draw.delay
            origins = np.where(
                draw.spurious,
                _ORIGIN_CODE[events.ORIGIN_SPURIOUS_ECHO],
                _ORIGIN_CODE[events.ORIGIN_PAIR],
            ).astype(np.int8)
            outcomes = draw.code
        if det.jitter_sigma_ps > 0.0:
            shift = rng.normal(0.0, det.jitter_sigma_ps, times.size)
            times += np.rint(shift).astype(np.int64)
        arrays = {
            "times": times,
            "cycles": cyc,
            "ports": out.ports[pick],
            "bins": out.bins[pick],
            "origins": origins,
            "outcomes": outcomes,
        }
        # Dark counts, uniform over the shard's span.
        n_dark = int(rng.poisson(det.dark_rate_hz * span * 1e-12))
        if n_dark:
            dark = rng.integers(lo, lo + span, size=n_dark)
            fill = {"times": dark, "cycles": dark // t.rep_period_ps}
            fill.update(
                (key, np.full(n_dark, code, dtype=arrays[key].dtype))
                for key, code in _DARK_FIELDS.items()
            )
            arrays = {key: np.concatenate([val, fill[key]]) for key, val in arrays.items()}
        shard[ch] = arrays
    return classes, shard


def _shards(t: _EngineTables, n_cycles: int):
    """The class counts and click arrays of every shard in cycle order, each
    with the floor below which no later shard has a click (None after the
    last).  Memory delays and analyzer slots only delay a click and dark
    counts fall inside their shard, so only jitter moves a click before its
    shard's first cycle."""
    lead = max(
        math.ceil(_JITTER_BOUND_SIGMAS * det.jitter_sigma_ps) for det in t.detectors.values()
    )
    for shard_index, first in enumerate(range(0, n_cycles, SHARD_CYCLES)):
        end = min(first + SHARD_CYCLES, n_cycles)
        floor = end * t.rep_period_ps - lead if end < n_cycles else None
        yield (*_simulate_shard(t, shard_index, first, end - first), floor)


def simulate(cfg: ExperimentConfig) -> SimulationData:
    """Run the full chain for every configured cycle; returns click arrays."""
    tables = _build_tables(cfg)
    parts: dict[str, list[dict[str, np.ndarray]]] = {ch: [] for ch in _CHANNELS}
    totals = np.zeros(len(PAIR_CLASSES), dtype=np.int64)
    ends = dict.fromkeys(_CHANNELS, 0)
    shards = []
    for classes, shard, floor in _shards(tables, cfg.run.cycles):
        totals += classes
        for ch in _CHANNELS:
            parts[ch].append(shard[ch])
            ends[ch] += shard[ch]["times"].size
        shards.append((ends[events.IDLER_1535], ends[events.SIGNAL_794], floor))
    channels = {}
    for ch in _CHANNELS:
        # Key by key, so each key's shard arrays are freed once joined.
        merged = {
            key: np.concatenate([p.pop(key) for p in parts[ch]])
            for key in ("times", "cycles", "ports", "bins", "origins", "outcomes")
        }
        channels[ch] = ChannelRecord(channel=ch, **merged)
    classes = dict(zip(PAIR_CLASSES, map(int, totals)))
    return SimulationData(
        cfg, cfg.run.cycles, classes, dict(tables.p_detect), channels, tuple(shards)
    )


# ---------------------------------------------------------------------------
# run_simulation: files plus summary


@dataclass(frozen=True, eq=False)
class SimulationResult:
    data: SimulationData
    histogram: CoincidenceHistogram
    summary: dict
    events_path: Path
    histogram_path: Path
    summary_path: Path


def _write_events_csv(data: SimulationData, path: Path) -> None:
    """events.csv rows in (time, channel, cycle) order, formatted straight
    from the code arrays into the bytes csv.writer would write."""
    recs = [data.channels[ch] for ch in sorted(_CHANNELS)]
    cycles, times, bins, origins, outcomes = (
        np.concatenate([getattr(r, key) for r in recs])
        for key in ("cycles", "times", "bins", "origins", "outcomes")
    )
    chans = np.concatenate(
        [np.full(r.times.size, i, dtype=np.int8) for i, r in enumerate(recs)]
    )
    order = np.lexsort((cycles, chans, times))
    outcome_labels = [events.OUTCOME_NONE, events.OUTCOME_TRANSMITTED]
    top = int(outcomes.max(initial=_OUTCOME_TRANSMITTED))
    outcome_labels += [events.recalled_token(k) for k in range(top - 1)]
    # Each row is cycle, mid[channel], time, then one of the label tails,
    # indexed by (bin, origin, outcome) in row-major order.
    mid = [f",{r.channel}," for r in recs]
    tails = [
        f",{b},{o},{u}\r\n"
        for b in _BIN_LABELS for o in _ORIGIN_LABELS for u in outcome_labels
    ]
    n_origin, n_outcome = len(_ORIGIN_LABELS), len(outcome_labels)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(EVENT_CSV_HEADER) + "\r\n")
        for first in range(0, order.size, _EVENTS_CHUNK_ROWS):
            rows = order[first : first + _EVENTS_CHUNK_ROWS]
            # intp: int8 bins times the label counts would overflow.
            tail = bins[rows].astype(np.intp)
            tail *= n_origin
            tail += origins[rows]
            tail *= n_outcome
            tail += outcomes[rows]
            columns = (col[rows].tolist() for col in (cycles, chans, times))
            fh.write(
                "".join(
                    f"{c}{mid[h]}{t}{tails[k]}"
                    for c, h, t, k in zip(*columns, tail.tolist())
                )
            )


def _is_outcome_label(label: str) -> bool:
    """NONE, TRANSMITTED or RECALLED_k: the labels _write_events_csv writes."""
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
            ("channel", channel, _CHANNELS),
            ("bin", bin_label, _BIN_LABELS),
            ("origin", origin, _ORIGIN_LABELS),
        ):
            if label not in known:
                raise ValueError(f"{path}: line {line_no}: unknown {kind} {label!r}")
        if not _is_outcome_label(outcome):
            raise ValueError(
                f"{path}: line {line_no}: unknown memory outcome {outcome!r}"
            )
        rows.append((cycle, channel, time_ps, bin_label, origin, outcome))
    return rows


def _g2_payload(hist, delay_ps: int, cfg: ExperimentConfig) -> dict | None:
    try:
        est = g2_cross(
            hist,
            delay_ps,
            rep_period_ps=cfg.source.rep_period_ps,
            peak_halfwidth_ps=cfg.tdc.peak_halfwidth_ps,
        )
    except (UndefinedEstimateError, ValueError):
        return None
    return {
        "value": float(est.value),
        "sigma": float(est.sigma),
        "peak_counts": int(est.peak_counts),
        "reference_counts": int(est.reference_counts),
    }


def _build_summary(data: SimulationData, hist: CoincidenceHistogram) -> dict:
    cfg = data.config
    span_s = data.n_cycles * cfg.source.rep_period_ps * 1e-12
    duty = cfg.duty_cycle.duty_factor
    peaks = []
    for peak in find_histogram_peaks(hist, min_height_fraction=_SUMMARY_PEAK_FRACTION):
        rate_storage = peak.count / span_s
        peaks.append(
            {
                "delay_ps": int(peak.delay_ps),
                "count": int(peak.count),
                "rate_per_cycle": peak.count / data.n_cycles,
                "rate_hz_storage": rate_storage,
                "rate_hz_wall_clock": rate_storage * duty,
                "g2": _g2_payload(hist, peak.delay_ps, cfg),
            }
        )
    detections = {}
    for ch in _CHANNELS:
        rec = data.channels[ch]
        detections[ch.lower()] = {"total": int(rec.times.size), "dark": rec.dark_count}
    return {
        "cycles": int(data.n_cycles),
        "seed": int(cfg.run.seed),
        "rep_period_ps": int(cfg.source.rep_period_ps),
        "mean_pairs_per_pulse": float(cfg.source.mean_pairs_per_pulse),
        "duty_factor": float(duty),
        "pairs_emitted": int(data.n_pairs),
        "pair_classes": dict(data.pair_classes),
        "detection_probability": {ch.lower(): q for ch, q in data.p_detect.items()},
        "detections": detections,
        "histogram": {
            "bin_width_ps": int(hist.bin_width_ps),
            "window_ps": int(hist.window_ps),
            "n_starts": int(hist.n_starts),
            "total_counts": int(hist.counts.sum()),
        },
        "g2_zero_delay": _g2_payload(hist, 0, cfg),
        "peaks": peaks,
    }


def run_simulation(cfg: ExperimentConfig, out_dir) -> SimulationResult:
    """Simulate, then write events.csv, histogram.csv and summary.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data = simulate(cfg)
    hist = data.histogram()
    summary = _build_summary(data, hist)
    events_path = out / "events.csv"
    histogram_path = out / "histogram.csv"
    summary_path = out / "summary.json"
    _write_events_csv(data, events_path)
    hist.to_csv(histogram_path)
    summary_path.write_text(json.dumps(summary, indent=2) + "\n")
    return SimulationResult(data, hist, summary, events_path, histogram_path, summary_path)


# ---------------------------------------------------------------------------
# CHSH from simulated clicks


def _expected_recall_delta_ps(cfg: ExperimentConfig) -> int:
    delta = 0
    mem = cfg.memory_config(events.SIGNAL_794)
    if mem is not None:
        delta += mem.echo_delay_ps(mem.primary_echo_index)
    mem = cfg.memory_config(events.IDLER_1535)
    if mem is not None:
        delta -= mem.echo_delay_ps(mem.primary_echo_index)
    return delta


def _central_port_counts(data: SimulationData) -> dict[tuple[int, int], int]:
    """Coincidences between central-slot clicks, keyed by (signal, idler) port.

    Pairs are matched by arrival-time difference around the expected
    recall-to-recall delay, within the configured peak halfwidth."""
    cfg = data.config
    hw = cfg.tdc.peak_halfwidth_ps
    delta = _expected_recall_delta_ps(cfg)
    sup = _BIN_CODE[events.BIN_SUPERPOSED]
    sig = data.channels[events.SIGNAL_794]
    idl = data.channels[events.IDLER_1535]
    counts = {}
    for pa in (+1, -1):
        stops = np.sort(sig.times[(sig.bins == sup) & (sig.ports == pa)])
        for pb in (+1, -1):
            # Sorted keys keep the two searches cache-friendly.
            starts = np.sort(idl.times[(idl.bins == sup) & (idl.ports == pb)])
            lo = np.searchsorted(stops, starts + (delta - hw), side="left")
            hi = np.searchsorted(stops, starts + (delta + hw), side="right")
            counts[(pa, pb)] = int((hi - lo).sum())
    return counts


@dataclass(frozen=True)
class ChshSimulation:
    counts: tuple[tuple[int, int, int, int], ...]
    e_values: tuple[float, ...]
    sigmas: tuple[float, ...]
    estimate: ChshEstimate


def chsh_simulation(cfg: ExperimentConfig) -> ChshSimulation:
    """One simulation run of cfg.run.cycles per setting pair of CHSH_PAIRS,
    then the Bell sum.

    Each setting pair gets an independent seed derived from the master seed,
    and both analyzers are switched to the pair's interferometer phases."""
    e_values, sigmas, per_counts = [], [], []
    for i, (sa, sb) in enumerate(CHSH_PAIRS):
        seed = int(
            np.random.SeedSequence(
                entropy=cfg.run.seed, spawn_key=(9001 + i,)
            ).generate_state(1)[0]
        )
        sub = replace(
            cfg,
            run=replace(cfg.run, seed=seed),
            analyzer_794=AnalyzerSetting.interferometer(sa.analyzer_phase()),
            analyzer_1535=AnalyzerSetting.interferometer(sb.analyzer_phase()),
        )
        counts = _central_port_counts(simulate(sub))
        same = counts[(+1, +1)] + counts[(-1, -1)]
        diff = counts[(+1, -1)] + counts[(-1, +1)]
        e, sigma = correlation_coefficient(same, diff)
        e_values.append(e)
        sigmas.append(sigma)
        per_counts.append(
            (counts[(+1, +1)], counts[(+1, -1)], counts[(-1, +1)], counts[(-1, -1)])
        )
    return ChshSimulation(
        counts=tuple(per_counts),
        e_values=tuple(e_values),
        sigmas=tuple(sigmas),
        estimate=chsh_s(e_values, sigmas),
    )


# ---------------------------------------------------------------------------
# Measured-data loaders


def chsh_from_csv(path) -> dict[str, tuple[tuple[float, ...], tuple[float, ...]]]:
    """Read correlators per stage; returns {stage: (e_values, sigmas)} with
    the four values in CHSH_PAIRS order (a,b), (a,b'), (a',b), (a',b')."""
    slot_of = {(a.token(), b.token()): i for i, (a, b) in enumerate(CHSH_PAIRS)}
    stages: dict[str, dict[int, tuple[float, float]]] = {}
    n_rows = 0
    for line_no, raw in csv_rows(path, CHSH_CSV_HEADER, "correlator"):
        stage, tok_a, tok_b, corr_s, sigma_s = (v.strip() for v in raw)
        if stage not in (STAGE_INPUT, STAGE_OUTPUT):
            raise ValueError(f"{path}: line {line_no}: unknown stage {stage!r}")
        corr, sigma = float_fields(path, line_no, (corr_s, sigma_s))
        if not -1.0 <= corr <= 1.0:
            raise ValueError(
                f"{path}: line {line_no}: correlation {corr!r} outside [-1, 1]"
            )
        if sigma < 0.0:
            raise ValueError(f"{path}: line {line_no}: negative sigma")
        slot = slot_of.get((tok_a, tok_b))
        if slot is None:
            raise ValueError(
                f"{path}: line {line_no}: ({tok_a}, {tok_b}) is not one of "
                "the four correlator setting pairs"
            )
        per = stages.setdefault(stage, {})
        if slot in per:
            raise ValueError(
                f"{path}: line {line_no}: duplicate correlator for "
                f"({tok_a}, {tok_b})"
            )
        per[slot] = (corr, sigma)
        n_rows += 1
    if n_rows == 0:
        raise ValueError(f"{path}: no correlator rows")
    out = {}
    for stage, per in stages.items():
        for i in range(4):
            if i not in per:
                a, b = CHSH_PAIRS[i]
                raise ValueError(
                    f"{path}: stage {stage!r}: missing correlator for "
                    f"({a.token()}, {b.token()})"
                )
        out[stage] = (
            tuple(per[i][0] for i in range(4)),
            tuple(per[i][1] for i in range(4)),
        )
    return out


@dataclass(frozen=True)
class WavelengthRow:
    signal_nm: float
    idler_nm: float
    efficiency_794: float
    efficiency_1535: float
    link_efficiency: float


@dataclass(frozen=True)
class WavelengthTable:
    rows: tuple[WavelengthRow, ...]

    def best(self) -> WavelengthRow:
        return max(self.rows, key=lambda r: r.link_efficiency)


def wavelength_table_from_csv(path) -> WavelengthTable:
    rows = []
    for line_no, raw in csv_rows(path, WAVELENGTH_CSV_HEADER, "wavelength"):
        row = WavelengthRow(*float_fields(path, line_no, raw))
        if row.signal_nm <= 0.0 or row.idler_nm <= 0.0:
            raise ValueError(f"{path}: line {line_no}: wavelengths must be positive")
        for eff in (row.efficiency_794, row.efficiency_1535):
            if not 0.0 <= eff <= 1.0:
                raise ValueError(
                    f"{path}: line {line_no}: efficiency {eff!r} outside [0, 1]"
                )
        product = row.efficiency_794 * row.efficiency_1535
        if abs(row.link_efficiency - product) > 1e-6:
            raise ValueError(
                f"{path}: line {line_no}: link efficiency {row.link_efficiency!r} "
                f"is not the per-memory product {product!r}"
            )
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no wavelength rows")
    return WavelengthTable(tuple(rows))


# ---------------------------------------------------------------------------
# Measured-data analysis

_STATE_METRICS = (
    "fidelity_phi_plus",
    "purity",
    "concurrence",
    "entanglement_of_formation",
)


@dataclass(frozen=True, eq=False)
class AnalysisReport:
    """Tomography fits, state metrics and Bell sums from measured tables.

    Metric values are fractions in [0, 1]; `metrics` repeats the headline
    numbers on the percent scale once both stages are available.
    `mc_failures` counts the Monte-Carlo trials dropped because a fit did not
    converge or a metric failed."""

    input_state: TomographyResult
    output_state: TomographyResult | None
    input_metrics: dict[str, tuple[float, float]]
    output_metrics: dict[str, tuple[float, float]] | None
    io_fidelity: tuple[float, float] | None
    metrics: MetricsReport | None
    chsh_in: ChshEstimate | None
    chsh_out: ChshEstimate | None
    trials: int
    mc_failures: int

    def rows(self) -> list[tuple[str, str, float, float]]:
        rows = [
            ("input", name, value, sigma)
            for name, (value, sigma) in self.input_metrics.items()
        ]
        if self.output_metrics is not None:
            rows += [
                ("output", name, value, sigma)
                for name, (value, sigma) in self.output_metrics.items()
            ]
        if self.io_fidelity is not None:
            rows.append(("link", "input_output_fidelity", *self.io_fidelity))
        if self.chsh_in is not None:
            rows.append(("input", "chsh_s", self.chsh_in.value, self.chsh_in.sigma))
        if self.chsh_out is not None:
            rows.append(("output", "chsh_s", self.chsh_out.value, self.chsh_out.sigma))
        return rows

    def to_json_dict(self) -> dict:
        def pair(value_sigma):
            return {"value": value_sigma[0], "sigma": value_sigma[1]}

        states = {
            "input": {
                "residual": self.input_state.residual,
                "n_converged": self.input_state.n_converged,
                "iterations": self.input_state.iterations,
                "metrics": {k: pair(v) for k, v in self.input_metrics.items()},
            }
        }
        if self.output_state is not None:
            states["output"] = {
                "residual": self.output_state.residual,
                "n_converged": self.output_state.n_converged,
                "iterations": self.output_state.iterations,
                "metrics": {k: pair(v) for k, v in self.output_metrics.items()},
            }
        payload: dict = {
            "trials": self.trials,
            "mc_failures": self.mc_failures,
            "states": states,
        }
        if self.io_fidelity is not None:
            payload["input_output_fidelity"] = pair(self.io_fidelity)
        chsh = {}
        for stage, est in ((STAGE_INPUT, self.chsh_in), (STAGE_OUTPUT, self.chsh_out)):
            if est is not None:
                chsh[stage] = {
                    "value": est.value,
                    "sigma": est.sigma,
                    "minus_slot": est.minus_slot,
                }
        payload["chsh"] = chsh
        if self.metrics is not None:
            payload["summary_percent"] = json.loads(self.metrics.to_json())
        return payload


def _point_metrics(result: TomographyResult) -> dict[str, float]:
    return {name: float(METRIC_FUNCTIONS[name](result.rho)) for name in _STATE_METRICS}


def _trial_metrics(states) -> list[float]:
    """State metrics of every stage of one Monte-Carlo trial, then the
    input-output fidelity when both stages are present."""
    values = [
        float(METRIC_FUNCTIONS[name](rho)) for rho in states for name in _STATE_METRICS
    ]
    if len(states) == 2:
        values.append(float(fidelity(*states)))
    return values


def analyze_paper_data(
    tomography_in,
    tomography_out=None,
    chsh=None,
    trials: int = 200,
    seed: int = 0,
) -> AnalysisReport:
    """Reconstruct the measured states and evaluate every headline number.

    Uncertainties come from paired Monte-Carlo resampling: each trial redraws
    both tomography tables within their stated errors and refits both states,
    so the input-output fidelity spread respects the pairing.  trials=0 skips
    resampling and reports zero uncertainties."""
    if trials != 0 and trials < MC_MIN_TRIALS:
        raise ValueError(f"trials must be 0 or at least {MC_MIN_TRIALS}, got {trials}")
    tin_in = tomography_from_csv(tomography_in)
    base_in = tomography_mle(tin_in)
    point_in = _point_metrics(base_in)

    tin_out = base_out = point_out = io_point = None
    if tomography_out is not None:
        tin_out = tomography_from_csv(tomography_out)
        base_out = tomography_mle(tin_out)
        point_out = _point_metrics(base_out)
        io_point = float(fidelity(base_in.rho, base_out.rho))

    sigma_in = {name: 0.0 for name in _STATE_METRICS}
    sigma_out = {name: 0.0 for name in _STATE_METRICS}
    io_sigma = 0.0
    mc_failures = 0
    if trials:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2,)))
        tins = (tin_in,) if tin_out is None else (tin_in, tin_out)
        samples, mc_failures = monte_carlo_samples(tins, trials, rng, _trial_metrics)
        sigmas = samples.std(axis=0, ddof=1)
        count = len(_STATE_METRICS)
        sigma_in = dict(zip(_STATE_METRICS, map(float, sigmas[:count])))
        if tin_out is not None:
            sigma_out = dict(zip(_STATE_METRICS, map(float, sigmas[count : 2 * count])))
            io_sigma = float(sigmas[-1])

    input_metrics = {name: (point_in[name], sigma_in[name]) for name in _STATE_METRICS}
    output_metrics = None
    io_fidelity = None
    metrics = None
    if point_out is not None:
        output_metrics = {
            name: (point_out[name], sigma_out[name]) for name in _STATE_METRICS
        }
        io_fidelity = (io_point, io_sigma)
        metrics = MetricsReport(
            entanglement_of_formation=tuple(
                100.0 * v for v in input_metrics["entanglement_of_formation"]
            ),
            purity=tuple(100.0 * v for v in input_metrics["purity"]),
            fidelity_phi_plus=tuple(100.0 * v for v in input_metrics["fidelity_phi_plus"]),
            input_output_fidelity=tuple(100.0 * v for v in io_fidelity),
        )

    chsh_in = chsh_out = None
    if chsh is not None:
        stages = chsh_from_csv(chsh)
        if STAGE_INPUT in stages:
            chsh_in = chsh_s(*stages[STAGE_INPUT])
        if STAGE_OUTPUT in stages:
            chsh_out = chsh_s(*stages[STAGE_OUTPUT])

    return AnalysisReport(
        input_state=base_in,
        output_state=base_out,
        input_metrics=input_metrics,
        output_metrics=output_metrics,
        io_fidelity=io_fidelity,
        metrics=metrics,
        chsh_in=chsh_in,
        chsh_out=chsh_out,
        trials=trials,
        mc_failures=mc_failures,
    )


# ---------------------------------------------------------------------------
# Parameter sweeps


@dataclass(frozen=True)
class SweepResult:
    parameter: str
    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            writer.writerows(self.rows)


def sweep(
    cfg: ExperimentConfig,
    parameter: str,
    values,
    cycles_per_point: int | None = None,
) -> SweepResult:
    """Repeat the simulation over one swept parameter.

    mu and pump_power report the zero-delay cross-correlation (pump power
    acts as a multiplier on the configured pair rate); analyzer_phase sweeps
    the signal analyzer phase and reports central-slot (+1, +1) coincidences.
    Every point reuses the master seed, so a single-value sweep reproduces a
    direct run exactly.  A point that fails (an undefined g2, or a value
    the config rejects) raises an error that names the parameter and the
    value."""
    if parameter not in SWEEP_PARAMETERS:
        raise ValueError(
            f"unknown sweep parameter {parameter!r}; expected one of {SWEEP_PARAMETERS}"
        )
    points = [float(v) for v in values]
    if not points:
        raise ValueError("sweep needs at least one value")
    run = cfg.run if cycles_per_point is None else replace(cfg.run, cycles=int(cycles_per_point))
    base = replace(cfg, run=run)
    if parameter in ("mu", "pump_power"):
        columns = ("mu" if parameter == "mu" else "power_factor", "g2_zero", "g2_sigma")
        scale = 1.0 if parameter == "mu" else base.source.mean_pairs_per_pulse

        def point(value):
            if parameter == "pump_power" and value <= 0.0:
                raise ValueError("pump power factors must be positive")
            sub = replace(
                base, source=replace(base.source, mean_pairs_per_pulse=scale * value)
            )
            # Straight from the shards: no run's click arrays are kept.
            pieces = (
                (clicks[events.IDLER_1535]["times"], clicks[events.SIGNAL_794]["times"], floor)
                for _, clicks, floor in _shards(_build_tables(sub), sub.run.cycles)
            )
            est = g2_cross(
                tdc_histogram_from_stream(pieces, sub.tdc.bin_width_ps, sub.tdc.window_ps),
                0,
                rep_period_ps=sub.source.rep_period_ps,
                peak_halfwidth_ps=sub.tdc.peak_halfwidth_ps,
            )
            return value, est.value, est.sigma

    else:
        columns = ("phase_rad", "central_coincidences")
        idler = base.analyzer_1535
        if idler.mode != MODE_INTERFEROMETER:
            idler = AnalyzerSetting.interferometer(0.0)

        def point(value):
            sub = replace(
                base,
                analyzer_794=AnalyzerSetting.interferometer(value),
                analyzer_1535=idler,
            )
            counts = _central_port_counts(simulate(sub))
            return value, float(counts[(+1, +1)])

    rows = []
    for value in points:
        try:
            rows.append(point(value))
        except (UndefinedEstimateError, ValueError) as exc:
            raise type(exc)(f"{parameter}={value:g}: {exc}") from exc
    return SweepResult(parameter, columns, tuple(tuple(row) for row in rows))


# ---------------------------------------------------------------------------
# Report bundle


def echoes_to_csv(echoes, path) -> None:
    """Write (delay_ns, relative amplitude) rows for plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ECHOES_CSV_HEADER)
        writer.writerows((float(d), float(a)) for d, a in echoes)


def write_report_files(out_dir, payload: dict, report: AnalysisReport) -> None:
    """Write payload to report.json and report.rows() to state_metrics.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps(payload, indent=2) + "\n")
    with open(out / "state_metrics.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_CSV_HEADER)
        writer.writerows(report.rows())


@dataclass(frozen=True, eq=False)
class ReportBundle:
    payload: dict
    report: AnalysisReport


def generate_report(out_dir, trials: int = 200, seed: int = 0) -> ReportBundle:
    """Analyze every shipped data table and write the combined report."""
    report = analyze_paper_data(
        data_path(DATA_TOMOGRAPHY_IN),
        tomography_out=data_path(DATA_TOMOGRAPHY_OUT),
        chsh=data_path(DATA_CHSH),
        trials=trials,
        seed=seed,
    )
    table = wavelength_table_from_csv(data_path(DATA_WAVELENGTH))
    best = table.best()
    payload = {
        "state_analysis": report.to_json_dict(),
        "wavelength_link": {
            "rows": [
                {
                    "signal_nm": row.signal_nm,
                    "idler_nm": row.idler_nm,
                    "efficiency_794": row.efficiency_794,
                    "efficiency_1535": row.efficiency_1535,
                    "link_efficiency": row.link_efficiency,
                }
                for row in table.rows
            ],
            "best": {"signal_nm": best.signal_nm, "link_efficiency": best.link_efficiency},
        },
    }
    write_report_files(out_dir, payload, report)
    return ReportBundle(payload=payload, report=report)
