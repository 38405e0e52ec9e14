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
then per channel the lone photons' outcomes, drawn from that arm's marginal of
the joint table; memory outcomes conditioned on survival per channel; then,
channel by channel, detector jitter and dark counts.
Changing that order would change every seeded result.  Click arrays are not
time-sorted within a shard.

The start-stop histogram is streamed shard by shard through
detection.tdc_histogram_from_stream, with the floor below which no later
shard has a click; it equals one pass over the whole run bit for bit.  Click
arrays are kept only where events.csv or the CHSH matching needs them
(simulate); sweep --parameter mu keeps one shard and the carried window.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, events
from .config import ExperimentConfig, save_config
from .csvio import csv_rows, float_fields, write_csv
from .detection import (
    MODE_INTERFEROMETER,
    AnalyzerSetting,
    CoincidenceHistogram,
    DetectorConfig,
    analyzer_outcomes,
    joint_outcome_table,
    tdc_histogram_from_stream,
)
from .errors import UndefinedEstimateError
from .estimation import (
    CHSH_PAIRS,
    MC_MIN_TRIALS,
    METRIC_FUNCTIONS,
    ChshEstimate,
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
METRICS_CSV_HEADER = ("stage", "metric", "value", "sigma")

DATA_TOMOGRAPHY_IN = "tomography_before_storage.csv"
DATA_TOMOGRAPHY_OUT = "tomography_after_storage.csv"
DATA_CHSH = "chsh_correlations.csv"
DATA_WAVELENGTH = "wavelength_efficiency.csv"
DATA_SYNTHETIC_COMB = "synthetic_comb.csv"

SWEEP_PARAMETERS = ("mu", "analyzer_phase")

# summary.json lists the histogram peaks above this fraction of the tallest bin.
_SUMMARY_PEAK_FRACTION = 0.05

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
    """The outcomes a photon can survive with, each with its code, delay and
    origin; p_alive = 1 - p_lost."""

    p_alive: float
    cumulative: np.ndarray
    delay_ps: np.ndarray
    codes: np.ndarray
    origins: np.ndarray


def _memory_table(config: MemoryConfig | None) -> _MemoryTable | None:
    if config is None:
        return None
    probs = config.outcome_table()
    echoes = range(len(config.echo_delays))
    pair, spurious = (_ORIGIN_CODE[o] for o in (events.ORIGIN_PAIR, events.ORIGIN_SPURIOUS_ECHO))
    origins = [pair if k == config.primary_echo_index else spurious for k in echoes]
    return _MemoryTable(
        p_alive=min(1.0, max(0.0, 1.0 - float(probs[-1]))),
        cumulative=np.cumsum(probs[:-1]),
        delay_ps=np.array([0] + [config.echo_delay_ps(k) for k in echoes], dtype=np.int64),
        codes=np.arange(_OUTCOME_TRANSMITTED, _OUTCOME_RECALL_BASE + len(echoes), dtype=np.int16),
        origins=np.array([pair] + origins, dtype=np.int8),
    )


@dataclass(frozen=True, eq=False)
class _ChannelTable:
    """One arm: its analyzer outcomes (slot, port, bin), the cumulative
    outcome table of a lone photon, its memory and detector, and the
    probability q that one of its photons is detected."""

    slots: np.ndarray
    ports: np.ndarray
    bins: np.ndarray
    single_cum: np.ndarray
    memory: _MemoryTable | None
    detector: DetectorConfig
    p_detect: float


@dataclass(frozen=True, eq=False)
class _EngineTables:
    seed: int
    mu: float
    rep_period_ps: int
    joint_cum: np.ndarray
    n_out_idler: int
    channels: dict[str, _ChannelTable]


def _build_tables(cfg: ExperimentConfig) -> _EngineTables:
    src = cfg.source
    outs = [analyzer_outcomes(cfg.analyzers[ch], src.bin_separation_ps) for ch in events.CHANNELS]
    rho = src.joint_state().density().matrix
    joint = joint_outcome_table(rho, *outs, depolarizing=src.depolarizing_noise).clip(0.0, None)
    # Rows: the signal arm, columns: the idler arm.  A lone photon, whose
    # partner goes undetected, draws from its arm's marginal.
    marginals = (joint.sum(axis=1), joint.sum(axis=0))
    channels = {}
    for ch, out, marginal in zip(events.CHANNELS, outs, marginals):
        memory = _memory_table(cfg.memory_config(ch))
        detector = cfg.detectors[ch]
        channels[ch] = _ChannelTable(
            slots=np.array([o.slot_offset_ps for o in out], dtype=np.int64),
            ports=np.array([o.port for o in out], dtype=np.int8),
            bins=np.array([_BIN_CODE[o.bin] for o in out], dtype=np.int8),
            single_cum=np.cumsum(marginal),
            memory=memory,
            detector=detector,
            # The detector efficiency is the same for every memory outcome and port.
            p_detect=(1.0 if memory is None else memory.p_alive) * detector.efficiency,
        )
    return _EngineTables(
        seed=cfg.run.seed,
        mu=src.mean_pairs_per_pulse,
        rep_period_ps=src.rep_period_ps,
        joint_cum=np.cumsum(joint.reshape(-1)),
        n_out_idler=len(outs[1]),
        channels=channels,
    )


def _draw_memory(table: _MemoryTable, n: int, rng: np.random.Generator) -> np.ndarray:
    """Outcome indices into table's arrays of n detected photons, drawn from
    the table conditioned on survival."""
    u = rng.random(n) * table.cumulative[-1]
    return np.minimum(np.searchsorted(table.cumulative, u, side="right"), table.codes.size - 1)


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
    tabs = [t.channels[ch] for ch in events.CHANNELS]
    q_s, q_i = (tab.p_detect for tab in tabs)
    probs = np.array([q_s * q_i, q_s * (1 - q_i), (1 - q_s) * q_i, (1 - q_s) * (1 - q_i)])
    classes = rng.poisson(t.mu * n_cycles * probs)
    n_both, n_sig, n_idl, _ = classes.tolist()
    both_cycles = rng.integers(0, n_cycles, n_both)
    lone_cycles = [rng.integers(0, n_cycles, n) for n in (n_sig, n_idl)]

    joint_idx = np.divmod(_draw_outcomes(t.joint_cum, n_both, rng), t.n_out_idler)
    picks = [
        np.concatenate([joint, _draw_outcomes(tab.single_cum, lone.size, rng)])
        for tab, joint, lone in zip(tabs, joint_idx, lone_cycles)
    ]
    cycles = [np.concatenate([both_cycles, lone]) + first_cycle for lone in lone_cycles]
    # A channel with no memory passes every photon unchanged; nothing is drawn.
    mem_picks = [
        None if tab.memory is None else _draw_memory(tab.memory, c.size, rng)
        for tab, c in zip(tabs, cycles)
    ]

    span = n_cycles * t.rep_period_ps
    lo = first_cycle * t.rep_period_ps
    shard: dict[str, dict[str, np.ndarray]] = {}
    for ch, tab, pick, cyc, mpick in zip(events.CHANNELS, tabs, picks, cycles, mem_picks):
        mem, det = tab.memory, tab.detector
        times = cyc * t.rep_period_ps + tab.slots[pick]
        if mem is None:
            origins = np.full(times.size, _ORIGIN_CODE[events.ORIGIN_PAIR], dtype=np.int8)
            outcomes = np.full(times.size, _OUTCOME_NONE, dtype=np.int16)
        else:
            times += mem.delay_ps[mpick]
            origins = mem.origins[mpick]
            outcomes = mem.codes[mpick]
        if det.jitter_sigma_ps > 0.0:
            shift = rng.normal(0.0, det.jitter_sigma_ps, times.size)
            times += np.rint(shift).astype(np.int64)
        arrays = {
            "times": times,
            "cycles": cyc,
            "ports": tab.ports[pick],
            "bins": tab.bins[pick],
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
    sigma = max(tab.detector.jitter_sigma_ps for tab in t.channels.values())
    lead = math.ceil(_JITTER_BOUND_SIGMAS * sigma)
    for shard_index, first in enumerate(range(0, n_cycles, SHARD_CYCLES)):
        end = min(first + SHARD_CYCLES, n_cycles)
        floor = end * t.rep_period_ps - lead if end < n_cycles else None
        yield (*_simulate_shard(t, shard_index, first, end - first), floor)


def simulate(cfg: ExperimentConfig) -> SimulationData:
    """Run the full chain for every configured cycle; returns click arrays."""
    tables = _build_tables(cfg)
    parts: dict[str, list[dict[str, np.ndarray]]] = {ch: [] for ch in events.CHANNELS}
    totals = np.zeros(len(PAIR_CLASSES), dtype=np.int64)
    ends = dict.fromkeys(events.CHANNELS, 0)
    shards = []
    for classes, shard, floor in _shards(tables, cfg.run.cycles):
        totals += classes
        for ch in events.CHANNELS:
            parts[ch].append(shard[ch])
            ends[ch] += shard[ch]["times"].size
        shards.append((ends[events.IDLER_1535], ends[events.SIGNAL_794], floor))
    channels = {}
    for ch in events.CHANNELS:
        # Key by key, so each key's shard arrays are freed once joined.
        merged = {
            key: np.concatenate([p.pop(key) for p in parts[ch]])
            for key in ("times", "cycles", "ports", "bins", "origins", "outcomes")
        }
        channels[ch] = ChannelRecord(channel=ch, **merged)
    classes = dict(zip(PAIR_CLASSES, map(int, totals)))
    p_detect = {ch: tab.p_detect for ch, tab in tables.channels.items()}
    return SimulationData(cfg, cfg.run.cycles, classes, p_detect, channels, tuple(shards))


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
    config_path: Path


def _write_events_csv(data: SimulationData, path: Path) -> None:
    """events.csv rows in (time, channel, cycle) order, formatted straight
    from the code arrays into the bytes csv.writer would write."""
    recs = [data.channels[ch] for ch in sorted(events.CHANNELS)]
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
            ("channel", channel, events.CHANNELS),
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
    except UndefinedEstimateError:
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
    recall = recall_delay_ps(cfg)
    detections = {}
    for ch in events.CHANNELS:
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
        "g2_recall": {"delay_ps": recall, "g2": _g2_payload(hist, recall, cfg)},
        "peaks": peaks,
        "provenance": {"afclink": __version__, "numpy": np.__version__},
    }


def run_simulation(cfg: ExperimentConfig, out_dir) -> SimulationResult:
    """Simulate, then write events.csv, histogram.csv, summary.json and the
    resolved config as config.json, from which the run can be repeated."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data = simulate(cfg)
    hist = data.histogram()
    summary = _build_summary(data, hist)
    events_path = out / "events.csv"
    histogram_path = out / "histogram.csv"
    summary_path = out / "summary.json"
    config_path = out / "config.json"
    _write_events_csv(data, events_path)
    hist.to_csv(histogram_path)
    summary_path.write_text(json.dumps(summary, indent=2) + "\n")
    save_config(cfg, config_path)
    return SimulationResult(
        data, hist, summary, events_path, histogram_path, summary_path, config_path
    )


# ---------------------------------------------------------------------------
# CHSH from simulated clicks


def recall_delay_ps(cfg: ExperimentConfig) -> int:
    """Start-stop delay of a pair whose photons both leave their memories in
    the primary echo: the signal's echo delay minus the idler's (0 for a
    channel without a memory)."""
    signal, idler = (
        0 if mem is None else mem.echo_delay_ps(mem.primary_echo_index)
        for mem in map(cfg.memory_config, events.CHANNELS)
    )
    return signal - idler


def _central_port_counts(data: SimulationData) -> dict[tuple[int, int], int]:
    """Coincidences between central-slot clicks, keyed by (signal, idler) port.

    Pairs are matched by arrival-time difference around the expected
    recall-to-recall delay, within the configured peak halfwidth."""
    cfg = data.config
    hw = cfg.tdc.peak_halfwidth_ps
    delta = recall_delay_ps(cfg)
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
            analyzers={
                events.SIGNAL_794: AnalyzerSetting.interferometer(sa.analyzer_phase()),
                events.IDLER_1535: AnalyzerSetting.interferometer(sb.analyzer_phase()),
            },
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

# Rows and states name the stages in full; the first tomography table is the
# input stage.
_STAGE_NAMES = {STAGE_INPUT: "input", STAGE_OUTPUT: "output"}
_IO_FIDELITY = ("link", "input_output_fidelity")
# report.json's summary_percent: these metrics entries times 100.
_SUMMARY_PERCENT = (
    ("input", "entanglement_of_formation"),
    ("input", "purity"),
    ("input", "fidelity_phi_plus"),
    _IO_FIDELITY,
)


@dataclass(frozen=True, eq=False)
class AnalysisReport:
    """Tomography fits, state metrics and Bell sums from measured tables.

    `metrics` maps (stage, metric) to (value, sigma), values as fractions in
    [0, 1], in state_metrics.csv order: the four METRIC_FUNCTIONS of "input",
    then of "output" when an output table was fitted, then
    ("link", "input_output_fidelity") when both were.  `chsh` maps each
    correlator stage of the table ("in", then "out") to its Bell sum.
    `mc_failures` counts the Monte-Carlo trials dropped because a fit did not
    converge or a metric failed."""

    input_state: TomographyResult
    output_state: TomographyResult | None
    metrics: dict[tuple[str, str], tuple[float, float]]
    chsh: dict[str, ChshEstimate]
    trials: int
    mc_failures: int

    def rows(self) -> list[tuple[str, str, float, float]]:
        rows = [(stage, name, *pair) for (stage, name), pair in self.metrics.items()]
        rows += [
            (_STAGE_NAMES[stage], "chsh_s", est.value, est.sigma)
            for stage, est in self.chsh.items()
        ]
        return rows

    def to_json_dict(self) -> dict:
        def pair(value_sigma):
            return {"value": value_sigma[0], "sigma": value_sigma[1]}

        fits = (self.input_state, self.output_state)
        states = {
            stage: {
                "residual": fit.residual,
                "n_converged": fit.n_converged,
                "iterations": fit.iterations,
                "metrics": {},
            }
            for stage, fit in zip(_STAGE_NAMES.values(), fits)
            if fit is not None
        }
        payload: dict = {
            "trials": self.trials,
            "mc_failures": self.mc_failures,
            "states": states,
        }
        # The link entry has no state; it sits at the top level.
        for (stage, name), value_sigma in self.metrics.items():
            target = states[stage]["metrics"] if stage in states else payload
            target[name] = pair(value_sigma)
        payload["chsh"] = {stage: asdict(est) for stage, est in self.chsh.items()}
        if _IO_FIDELITY in self.metrics:
            payload["summary_percent"] = {
                name: pair([100.0 * v for v in self.metrics[stage, name]])
                for stage, name in _SUMMARY_PERCENT
            }
        return payload


def _trial_metrics(states) -> np.ndarray:
    """State metrics of every stage, from one (B, 4, 4) stack of states per
    tomography table, then the input-output fidelity when both stages are
    present: a (B, metrics) array whose columns are AnalysisReport.metrics in
    order.  The point estimate is a batch of one, the Monte-Carlo a batch of
    all trials."""
    columns = [metric(rho) for rho in states for metric in METRIC_FUNCTIONS.values()]
    if len(states) == 2:
        columns.append(fidelity(*states))
    return np.stack(columns, axis=-1)


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
    paths = [tomography_in] if tomography_out is None else [tomography_in, tomography_out]
    tins, fits, keys = [], [], []
    for stage, path in zip(_STAGE_NAMES.values(), paths):
        tins.append(tomography_from_csv(path))
        fits.append(tomography_mle(tins[-1]))
        keys += [(stage, name) for name in METRIC_FUNCTIONS]
    if len(fits) == 2:
        keys.append(_IO_FIDELITY)
    values = _trial_metrics([fit.rho.matrix[None] for fit in fits])[0].tolist()

    sigmas = [0.0] * len(keys)
    mc_failures = 0
    if trials:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2,)))
        samples, mc_failures = monte_carlo_samples(tins, trials, rng, _trial_metrics)
        sigmas = samples.std(axis=0, ddof=1).tolist()

    correlators = {} if chsh is None else chsh_from_csv(chsh)
    return AnalysisReport(
        input_state=fits[0],
        output_state=fits[1] if len(fits) == 2 else None,
        metrics={key: (v, sigma) for key, v, sigma in zip(keys, values, sigmas)},
        chsh={
            stage: chsh_s(*correlators[stage]) for stage in _STAGE_NAMES if stage in correlators
        },
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
        write_csv(path, self.columns, self.rows)


def sweep(
    cfg: ExperimentConfig,
    parameter: str,
    values,
    cycles_per_point: int | None = None,
) -> SweepResult:
    """Repeat the simulation over one swept parameter.

    mu reports the zero-delay cross-correlation; analyzer_phase sweeps the
    signal analyzer phase and reports central-slot (+1, +1) coincidences.
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
    if parameter == "mu":
        columns = ("mu", "g2_zero", "g2_sigma")

        def point(value):
            sub = replace(base, source=replace(base.source, mean_pairs_per_pulse=value))
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
        idler = base.analyzers[events.IDLER_1535]
        if idler.mode != MODE_INTERFEROMETER:
            idler = AnalyzerSetting.interferometer(0.0)

        def point(value):
            signal = AnalyzerSetting.interferometer(value)
            sub = replace(base, analyzers={events.SIGNAL_794: signal, events.IDLER_1535: idler})
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
# Report files


def write_report_files(out_dir, payload: dict, report: AnalysisReport) -> None:
    """Write payload to report.json and report.rows() to state_metrics.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps(payload, indent=2) + "\n")
    write_csv(out / "state_metrics.csv", METRICS_CSV_HEADER, report.rows())


def generate_report(
    out_dir, trials: int = 200, seed: int = 0
) -> tuple[dict, AnalysisReport]:
    """Analyze every shipped data table and write the combined report;
    returns the report.json payload and the analysis."""
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
            "rows": [asdict(row) for row in table.rows],
            "best": {"signal_nm": best.signal_nm, "link_efficiency": best.link_efficiency},
        },
    }
    write_report_files(out_dir, payload, report)
    return payload, report
