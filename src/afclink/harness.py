"""End-to-end pipelines: simulation runs, measured-data analysis, parameter
sweeps and report generation.

The simulation engine works on whole arrays of photons instead of one event
at a time.  Cycles are processed in fixed-size shards, each with its own
generator seeded from (master seed, shard index); the draw order inside a
shard is fixed (pair counts, memory outcomes per channel, analyzer outcomes
for pairs then lone photons, detector thinning and jitter per channel, dark
counts per channel).  Changing that order would change every seeded result.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import events
from .config import AnalyzerSpec, ExperimentConfig
from .detection import (
    MODE_INTERFEROMETER,
    EVENT_CSV_HEADER,
    CoincidenceHistogram,
    DetectorConfig,
    analyzer_outcomes,
    joint_outcome_table,
    single_outcome_table,
    tdc_histogram_from_times,
)
from .errors import UndefinedEstimateError
from .estimation import (
    MC_MIN_TRIALS,
    METRIC_FUNCTIONS,
    ChshEstimate,
    ChshSettings,
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

DATA_TOMOGRAPHY_IN = "tomography_before_storage.csv"
DATA_TOMOGRAPHY_OUT = "tomography_after_storage.csv"
DATA_CHSH = "chsh_correlations.csv"
DATA_WAVELENGTH = "wavelength_efficiency.csv"
DATA_SYNTHETIC_COMB = "synthetic_comb.csv"

SWEEP_PARAMETERS = ("mu", "pump_power", "analyzer_phase")

_CHANNELS = (events.SIGNAL_794, events.IDLER_1535)

_BIN_LABELS = (events.BIN_EARLY, events.BIN_LATE, events.BIN_SUPERPOSED, events.BIN_NONE)
_BIN_CODE = {label: i for i, label in enumerate(_BIN_LABELS)}
_ORIGIN_LABELS = (events.ORIGIN_PAIR, events.ORIGIN_DARK, events.ORIGIN_SPURIOUS_ECHO)
_ORIGIN_CODE = {label: i for i, label in enumerate(_ORIGIN_LABELS)}

# Memory outcome codes: 0 none, 1 transmitted, 2 + k for echo k.  Lost photons
# are dropped before detection and never appear in the arrays.
_OUTCOME_NONE = 0
_OUTCOME_TRANSMITTED = 1
_OUTCOME_RECALL_BASE = 2


def data_path(name: str) -> Path:
    """Path of a data file shipped inside the package."""
    return Path(__file__).parent / "data" / name


def _outcome_label_array(codes: np.ndarray) -> np.ndarray:
    top = int(codes.max(initial=_OUTCOME_TRANSMITTED))
    lut = [events.OUTCOME_NONE, events.OUTCOME_TRANSMITTED]
    lut += [events.recalled_token(k) for k in range(max(0, top - 1))]
    return np.asarray(lut, dtype=object)[codes]


# ---------------------------------------------------------------------------
# Simulation engine


@dataclass(frozen=True, eq=False)
class ChannelRecord:
    """All detected clicks of one channel, parallel arrays in shard order."""

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

    def bin_labels(self) -> np.ndarray:
        return np.asarray(_BIN_LABELS, dtype=object)[self.bins]

    def origin_labels(self) -> np.ndarray:
        return np.asarray(_ORIGIN_LABELS, dtype=object)[self.origins]

    def outcome_labels(self) -> np.ndarray:
        return _outcome_label_array(self.outcomes)


@dataclass(frozen=True, eq=False)
class SimulationData:
    config: ExperimentConfig
    n_cycles: int
    n_pairs: int
    channels: dict[str, ChannelRecord]

    def histogram(self) -> CoincidenceHistogram:
        tdc = self.config.tdc
        return tdc_histogram_from_times(
            self.channels[events.IDLER_1535].times,
            self.channels[events.SIGNAL_794].times,
            tdc.bin_width_ps,
            tdc.window_ps,
        )


@dataclass(frozen=True, eq=False)
class _MemoryTable:
    cumulative: np.ndarray
    delay_ps: np.ndarray
    codes: np.ndarray
    spurious: np.ndarray
    lost_index: int


def _memory_table(config: MemoryConfig | None) -> _MemoryTable | None:
    if config is None:
        return None
    _, probs = config.outcome_table()
    n_echo = len(config.echo_delays)
    delays = [0] + [config.echo_delay_ps(k) for k in range(n_echo)] + [0]
    codes = [_OUTCOME_TRANSMITTED]
    codes += [_OUTCOME_RECALL_BASE + k for k in range(n_echo)]
    codes.append(_OUTCOME_NONE)
    spurious = [False]
    spurious += [k != config.primary_echo_index for k in range(n_echo)]
    spurious.append(False)
    return _MemoryTable(
        cumulative=np.cumsum(probs),
        delay_ps=np.asarray(delays, dtype=np.int64),
        codes=np.asarray(codes, dtype=np.int16),
        spurious=np.asarray(spurious, dtype=bool),
        lost_index=len(probs) - 1,
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
    single_cum = {}
    for keep, ch in ((0, events.SIGNAL_794), (1, events.IDLER_1535)):
        rho2 = partial_trace(rho4, keep=keep)
        single_cum[ch] = _cumulative(
            single_outcome_table(rho2, outs[ch], depolarizing=noise)
        )
    return _EngineTables(
        seed=cfg.run.seed,
        mu=src.mean_pairs_per_pulse,
        rep_period_ps=src.rep_period_ps,
        outcomes=tables,
        joint_cum=_cumulative(joint),
        n_out_idler=len(outs[events.IDLER_1535]),
        single_cum=single_cum,
        memory={ch: _memory_table(cfg.memory_config(ch)) for ch in _CHANNELS},
        detectors={ch: cfg.detector_config(ch) for ch in _CHANNELS},
    )


@dataclass(frozen=True, eq=False)
class _MemoryDraw:
    alive: np.ndarray
    delay: np.ndarray
    code: np.ndarray
    spurious: np.ndarray


def _draw_memory(
    table: _MemoryTable | None, n: int, rng: np.random.Generator
) -> _MemoryDraw:
    if table is None or n == 0:
        return _MemoryDraw(
            alive=np.ones(n, dtype=bool),
            delay=np.zeros(n, dtype=np.int64),
            code=np.full(n, _OUTCOME_NONE, dtype=np.int16),
            spurious=np.zeros(n, dtype=bool),
        )
    idx = np.searchsorted(table.cumulative, rng.random(n), side="right")
    idx = np.minimum(idx, table.cumulative.size - 1)
    return _MemoryDraw(
        alive=idx != table.lost_index,
        delay=table.delay_ps[idx],
        code=table.codes[idx],
        spurious=table.spurious[idx],
    )


def _draw_outcomes(cum: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    if n == 0:
        return np.zeros(0, dtype=np.intp)
    k = np.searchsorted(cum, rng.random(n) * cum[-1], side="right")
    return np.minimum(k, cum.size - 1)


def _simulate_shard(
    t: _EngineTables, shard_index: int, first_cycle: int, n_cycles: int
) -> tuple[int, dict[str, dict[str, np.ndarray]]]:
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=t.seed, spawn_key=(shard_index,))
    )
    counts = rng.poisson(t.mu, n_cycles)
    n_pairs = int(counts.sum())
    pair_cycles = np.repeat(np.arange(n_cycles, dtype=np.int64), counts) + first_cycle
    base_times = pair_cycles * t.rep_period_ps

    draws = {ch: _draw_memory(t.memory[ch], n_pairs, rng) for ch in _CHANNELS}
    sig, idl = draws[events.SIGNAL_794], draws[events.IDLER_1535]
    both = sig.alive & idl.alive
    only = {
        events.SIGNAL_794: sig.alive & ~idl.alive,
        events.IDLER_1535: idl.alive & ~sig.alive,
    }

    k = _draw_outcomes(t.joint_cum, int(both.sum()), rng)
    joint_idx = dict(zip(_CHANNELS, np.divmod(k, t.n_out_idler)))
    single_idx = {
        ch: _draw_outcomes(t.single_cum[ch], int(only[ch].sum()), rng)
        for ch in _CHANNELS
    }

    shard: dict[str, dict[str, np.ndarray]] = {}
    for ch in _CHANNELS:
        out = t.outcomes[ch]
        draw = draws[ch]
        picks = np.concatenate([joint_idx[ch], single_idx[ch]])
        sel = np.concatenate([np.flatnonzero(both), np.flatnonzero(only[ch])])
        times = base_times[sel] + draw.delay[sel] + out.slots[picks]
        origins = np.where(
            draw.spurious[sel],
            _ORIGIN_CODE[events.ORIGIN_SPURIOUS_ECHO],
            _ORIGIN_CODE[events.ORIGIN_PAIR],
        ).astype(np.int8)
        shard[ch] = {
            "times": times,
            "cycles": pair_cycles[sel],
            "ports": out.ports[picks],
            "bins": out.bins[picks],
            "origins": origins,
            "outcomes": draw.code[sel],
        }

    # Detector response, channel by channel: thinning, then timing jitter.
    for ch in _CHANNELS:
        det = t.detectors[ch]
        arrays = shard[ch]
        if det.efficiency < 1.0:
            keep = rng.random(arrays["times"].size) < det.efficiency
            arrays = {key: val[keep] for key, val in arrays.items()}
        if det.jitter_sigma_ps > 0.0:
            shift = rng.normal(0.0, det.jitter_sigma_ps, arrays["times"].size)
            arrays = dict(arrays)
            arrays["times"] = arrays["times"] + np.rint(shift).astype(np.int64)
        shard[ch] = arrays

    # Dark counts, uniform over the shard's span.
    span = n_cycles * t.rep_period_ps
    lo = first_cycle * t.rep_period_ps
    for ch in _CHANNELS:
        det = t.detectors[ch]
        n_dark = int(rng.poisson(det.dark_rate_hz * span * 1e-12))
        if n_dark == 0:
            continue
        dark_times = np.sort(rng.integers(lo, lo + span, size=n_dark))
        arrays = shard[ch]
        shard[ch] = {
            "times": np.concatenate([arrays["times"], dark_times]),
            "cycles": np.concatenate(
                [arrays["cycles"], dark_times // t.rep_period_ps]
            ),
            "ports": np.concatenate(
                [arrays["ports"], np.zeros(n_dark, dtype=np.int8)]
            ),
            "bins": np.concatenate(
                [
                    arrays["bins"],
                    np.full(n_dark, _BIN_CODE[events.BIN_NONE], dtype=np.int8),
                ]
            ),
            "origins": np.concatenate(
                [
                    arrays["origins"],
                    np.full(
                        n_dark, _ORIGIN_CODE[events.ORIGIN_DARK], dtype=np.int8
                    ),
                ]
            ),
            "outcomes": np.concatenate(
                [arrays["outcomes"], np.full(n_dark, _OUTCOME_NONE, dtype=np.int16)]
            ),
        }
    return n_pairs, shard


def simulate(cfg: ExperimentConfig) -> SimulationData:
    """Run the full chain for every configured cycle; returns click arrays."""
    tables = _build_tables(cfg)
    n_cycles = cfg.run.cycles
    parts: dict[str, list[dict[str, np.ndarray]]] = {ch: [] for ch in _CHANNELS}
    n_pairs = 0
    for shard_index, first in enumerate(range(0, n_cycles, SHARD_CYCLES)):
        count = min(SHARD_CYCLES, n_cycles - first)
        pairs, shard = _simulate_shard(tables, shard_index, first, count)
        n_pairs += pairs
        for ch in _CHANNELS:
            parts[ch].append(shard[ch])
    channels = {}
    for ch in _CHANNELS:
        merged = {
            key: np.concatenate([p[key] for p in parts[ch]])
            for key in ("times", "cycles", "ports", "bins", "origins", "outcomes")
        }
        channels[ch] = ChannelRecord(channel=ch, **merged)
    return SimulationData(
        config=cfg, n_cycles=n_cycles, n_pairs=n_pairs, channels=channels
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
    recs = [data.channels[ch] for ch in sorted(_CHANNELS)]
    times = np.concatenate([r.times for r in recs])
    cycles = np.concatenate([r.cycles for r in recs])
    chan_codes = np.concatenate(
        [np.full(r.times.size, i, dtype=np.int8) for i, r in enumerate(recs)]
    )
    labels = np.concatenate(
        [np.full(r.times.size, r.channel, dtype=object) for r in recs]
    )
    bins = np.concatenate([r.bin_labels() for r in recs])
    origins = np.concatenate([r.origin_labels() for r in recs])
    outcomes = np.concatenate([r.outcome_labels() for r in recs])
    order = np.lexsort((cycles, chan_codes, times))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EVENT_CSV_HEADER)
        writer.writerows(
            zip(
                cycles[order].tolist(),
                labels[order],
                times[order].tolist(),
                bins[order],
                origins[order],
                outcomes[order],
            )
        )


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


def _build_summary(
    data: SimulationData, hist: CoincidenceHistogram, min_peak_fraction: float
) -> dict:
    cfg = data.config
    span_s = data.n_cycles * cfg.source.rep_period_ps * 1e-12
    duty = cfg.duty_cycle.duty_factor
    peaks = []
    for peak in find_histogram_peaks(hist, min_height_fraction=min_peak_fraction):
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


def run_simulation(
    cfg: ExperimentConfig, out_dir, min_peak_fraction: float = 0.05
) -> SimulationResult:
    """Simulate, then write events.csv, histogram.csv and summary.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data = simulate(cfg)
    hist = data.histogram()
    summary = _build_summary(data, hist, min_peak_fraction)
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
            starts = idl.times[(idl.bins == sup) & (idl.ports == pb)]
            lo = np.searchsorted(stops, starts + (delta - hw), side="left")
            hi = np.searchsorted(stops, starts + (delta + hw), side="right")
            counts[(pa, pb)] = int((hi - lo).sum())
    return counts


@dataclass(frozen=True)
class ChshSimulation:
    settings: ChshSettings
    cycles_per_setting: int
    counts: tuple[tuple[int, int, int, int], ...]
    e_values: tuple[float, ...]
    sigmas: tuple[float, ...]
    estimate: ChshEstimate


def chsh_simulation(
    cfg: ExperimentConfig,
    settings: ChshSettings | None = None,
    cycles_per_setting: int | None = None,
) -> ChshSimulation:
    """One simulation run per correlator setting pair, then the Bell sum.

    Each setting pair gets an independent seed derived from the master seed,
    and both analyzers are switched to the pair's interferometer phases."""
    if settings is None:
        settings = ChshSettings.default()
    cycles = int(cycles_per_setting) if cycles_per_setting else cfg.run.cycles
    e_values, sigmas, per_counts = [], [], []
    for i, (sa, sb) in enumerate(settings.pairs()):
        seed = int(
            np.random.SeedSequence(
                entropy=cfg.run.seed, spawn_key=(9001 + i,)
            ).generate_state(1)[0]
        )
        sub = replace(
            cfg,
            run=replace(cfg.run, cycles=cycles, seed=seed),
            analyzer_794=AnalyzerSpec(
                mode=MODE_INTERFEROMETER, phase=sa.analyzer_phase()
            ),
            analyzer_1535=AnalyzerSpec(
                mode=MODE_INTERFEROMETER, phase=sb.analyzer_phase()
            ),
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
        settings=settings,
        cycles_per_setting=cycles,
        counts=tuple(per_counts),
        e_values=tuple(e_values),
        sigmas=tuple(sigmas),
        estimate=chsh_s(e_values, sigmas),
    )


# ---------------------------------------------------------------------------
# Measured-data loaders


def chsh_from_csv(
    path, settings: ChshSettings | None = None
) -> dict[str, tuple[tuple[float, ...], tuple[float, ...]]]:
    """Read correlators per stage; returns {stage: (e_values, sigmas)} with
    the four values in canonical (a,b), (a,b'), (a',b), (a',b') order."""
    if settings is None:
        settings = ChshSettings.default()
    pairs = settings.pairs()
    slot_of = {(a.token(), b.token()): i for i, (a, b) in enumerate(pairs)}
    stages: dict[str, dict[int, tuple[float, float]]] = {}
    n_rows = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = tuple(next(reader))
        except StopIteration:
            raise ValueError(f"{path}: empty correlator file") from None
        if header != CHSH_CSV_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        for line_no, raw in enumerate(reader, start=2):
            if not raw:
                continue
            if len(raw) != 5:
                raise ValueError(
                    f"{path}: line {line_no}: expected 5 fields, got {len(raw)}"
                )
            stage, tok_a, tok_b, corr_s, sigma_s = (v.strip() for v in raw)
            if stage not in (STAGE_INPUT, STAGE_OUTPUT):
                raise ValueError(f"{path}: line {line_no}: unknown stage {stage!r}")
            try:
                corr = float(corr_s)
                sigma = float(sigma_s)
            except ValueError:
                raise ValueError(
                    f"{path}: line {line_no}: non-numeric correlation or sigma"
                ) from None
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
                a, b = pairs[i]
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
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = tuple(next(reader))
        except StopIteration:
            raise ValueError(f"{path}: empty wavelength file") from None
        if header != WAVELENGTH_CSV_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        for line_no, raw in enumerate(reader, start=2):
            if not raw:
                continue
            if len(raw) != 5:
                raise ValueError(
                    f"{path}: line {line_no}: expected 5 fields, got {len(raw)}"
                )
            try:
                values = [float(v) for v in raw]
            except ValueError:
                raise ValueError(
                    f"{path}: line {line_no}: non-numeric field"
                ) from None
            row = WavelengthRow(*values)
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


def _g2_point(cfg: ExperimentConfig):
    est = g2_cross(
        simulate(cfg).histogram(),
        0,
        rep_period_ps=cfg.source.rep_period_ps,
        peak_halfwidth_ps=cfg.tdc.peak_halfwidth_ps,
    )
    return est


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
    direct run exactly."""
    if parameter not in SWEEP_PARAMETERS:
        raise ValueError(
            f"unknown sweep parameter {parameter!r}; expected one of {SWEEP_PARAMETERS}"
        )
    points = [float(v) for v in values]
    if not points:
        raise ValueError("sweep needs at least one value")
    run = cfg.run if cycles_per_point is None else replace(cfg.run, cycles=int(cycles_per_point))
    base = replace(cfg, run=run)
    rows = []
    if parameter == "mu":
        columns = ("mu", "g2_zero", "g2_sigma")
        for value in points:
            sub = replace(
                base, source=replace(base.source, mean_pairs_per_pulse=value)
            )
            est = _g2_point(sub)
            rows.append((value, est.value, est.sigma))
    elif parameter == "pump_power":
        columns = ("power_factor", "g2_zero", "g2_sigma")
        mu = base.source.mean_pairs_per_pulse
        for value in points:
            if value <= 0.0:
                raise ValueError("pump power factors must be positive")
            sub = replace(
                base, source=replace(base.source, mean_pairs_per_pulse=mu * value)
            )
            est = _g2_point(sub)
            rows.append((value, est.value, est.sigma))
    else:
        columns = ("phase_rad", "central_coincidences")
        idler = base.analyzer_1535
        if idler.mode != MODE_INTERFEROMETER:
            idler = AnalyzerSpec(mode=MODE_INTERFEROMETER, phase=0.0)
        for value in points:
            sub = replace(
                base,
                analyzer_794=AnalyzerSpec(mode=MODE_INTERFEROMETER, phase=value),
                analyzer_1535=idler,
            )
            counts = _central_port_counts(simulate(sub))
            rows.append((value, float(counts[(+1, +1)])))
    return SweepResult(parameter, columns, tuple(tuple(row) for row in rows))


# ---------------------------------------------------------------------------
# Report bundle


def echoes_to_csv(echoes, path) -> None:
    """Write (delay_ns, relative amplitude) rows for plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ECHOES_CSV_HEADER)
        writer.writerows((float(d), float(a)) for d, a in echoes)


@dataclass(frozen=True, eq=False)
class ReportBundle:
    payload: dict
    report_path: Path
    metrics_path: Path


def generate_report(out_dir, trials: int = 200, seed: int = 0) -> ReportBundle:
    """Analyze every shipped data table and write the combined report."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
    report_path = out / "report.json"
    report_path.write_text(json.dumps(payload, indent=2) + "\n")
    metrics_path = out / "state_metrics.csv"
    with open(metrics_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("stage", "metric", "value", "sigma"))
        writer.writerows(report.rows())
    return ReportBundle(payload=payload, report_path=report_path, metrics_path=metrics_path)
