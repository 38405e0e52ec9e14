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

A shard holds three arrays per channel: the clicks' times (ps), cycles and
codes.  A code names one click a run can produce, as _build_tables numbers
them (_ChannelTable says how); one per-code table, _EngineTables.labels,
holds each code's channel, delay and port, and its bin, origin and memory
outcome as the tokens events.csv is written with; every consumer reads them
there.

Each shard comes with the floor below which no later shard has a click.
detection.windowed_fold carries that rule for every count: run_simulation's
histogram and g2 windows, run_g2's windows (the mu sweep) and the
central-slot counts (_central_counts) are folds of their kernels over the
shards, equal bit for bit to one pass over the whole run, and each holds a
shard's times or keys, never two shards.  _settle_events carries the
events.csv rows by the same floor.  No product path calls simulate(), which
joins a whole run's shards, in this format, for the tests.

A sweep's points and a CHSH run's setting pairs are independent runs, seeded
in the caller.  _fan_out runs them on every CPU of the affinity mask: the
caller runs the heaviest share and one forked child per other CPU runs the
rest, so the results are those of the serial loop, which one CPU gives.
run_simulation hands it one contiguous block of shards per CPU; each block
draws the shards beside it again for the clicks that cross its edges, so the
joined files are the serial loop's byte for byte.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import platform
import shutil
from dataclasses import asdict, dataclass, replace
from functools import partial
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import __version__, events
from .config import ExperimentConfig, save_config
from .csvio import csv_rows, floats, write_csv
from .detection import (
    MODE_INTERFEROMETER,
    AnalyzerSetting,
    CoincidenceHistogram,
    DetectorConfig,
    analyzer_outcomes,
    joint_outcome_table,
    tdc_histogram_from_times,
    window_counts,
    windowed_fold,
)
from .errors import UndefinedEstimateError
from .estimation import (
    CHSH_PAIRS,
    MC_MIN_TRIALS,
    METRIC_FUNCTIONS,
    ChshEstimate,
    G2Estimate,
    TomographyResult,
    born_minus_slot,
    chsh_s,
    correlation_coefficient,
    fidelity,
    find_histogram_peaks,
    g2_cross,
    g2_windows,
    monte_carlo_samples,
    tomography_from_csv,
    tomography_mle,
)
from .linalg import bell_phi_plus

SHARD_CYCLES = 1_000_000
# Detector jitter moves a click by less than this many sigma: a Gaussian draw
# beyond it has P < 1e-300; windowed_fold fails if one does, in either stream.
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

SWEEP_PARAMETERS = ("mu", "analyzer_phase")

# summary.json lists the histogram peaks above this fraction of the tallest bin.
_SUMMARY_PEAK_FRACTION = 0.05

# Emitted pairs by which of their photons are detected: both, the signal
# alone, the idler alone, neither.
PAIR_CLASSES = ("both", "signal_only", "idler_only", "neither")

# A shard's arrays per channel.  A click's code indexes _EngineTables.labels.
_CLICK_KEYS = ("times", "cycles", "codes")
# The channels in events.csv name order, which sorts rows of equal time.
_EVENT_CHANNELS = tuple(sorted(events.CHANNELS))


def data_path(name: str) -> Path:
    """Path of a data file shipped inside the package."""
    return Path(__file__).parent / "data" / name


def provenance() -> dict[str, str]:
    """The versions a seeded output depends on: numpy does not promise a
    Generator's stream across its versions (NEP 19)."""
    return {"afclink": __version__, "numpy": np.__version__, "python": platform.python_version()}


# ---------------------------------------------------------------------------
# Simulation engine


@dataclass(frozen=True, eq=False)
class _Labels:
    """Per click code: the channel's place in events.csv name order, the
    delay after the cycle's start (analyzer slot plus echo delay; 0 for a
    dark count), the port, and the bin, origin and memory outcome as the
    events.csv tokens of events.py.  Lost photons are dropped before
    detection, so no code has a lost outcome."""

    channel: np.ndarray
    delay_ps: np.ndarray
    port: np.ndarray
    bin: np.ndarray
    origin: np.ndarray
    outcome: np.ndarray


@dataclass(frozen=True, eq=False)
class _ChannelTable:
    """One arm: the cumulative outcome table of a lone photon and its
    analyzer outcome in each joint one, the cumulative table of the memory
    outcomes a photon can survive with (transmitted, then echo k; None with
    no memory), its detector, the probability q of detecting its photon, and
    its codes: analyzer outcome a and memory outcome m have code
    first_code + a * n_memory + m, and dark_code follows them."""

    single_cum: np.ndarray
    joint_pick: np.ndarray
    memory: np.ndarray | None
    detector: DetectorConfig
    p_detect: float
    first_code: int
    n_memory: int
    dark_code: int


@dataclass(frozen=True, eq=False)
class _EngineTables:
    seed: int
    mu: float
    rep_period_ps: int
    joint_cum: np.ndarray
    channels: dict[str, _ChannelTable]
    labels: _Labels


def _build_tables(cfg: ExperimentConfig) -> _EngineTables:
    src = cfg.source
    outs = [analyzer_outcomes(cfg.analyzers[ch], src.bin_separation_ps) for ch in events.CHANNELS]
    rho = src.joint_state().matrix
    joint = joint_outcome_table(rho, *outs, depolarizing=src.depolarizing_noise).clip(0.0, None)
    # Rows: the signal arm, columns: the idler arm.  A lone photon, whose
    # partner goes undetected, draws from its arm's marginal.
    marginals = (joint.sum(axis=1), joint.sum(axis=0))
    # Each arm's outcome in every joint outcome, in joint_cum's row-major order.
    joint_picks = np.indices(joint.shape).reshape(2, -1)
    pair, spurious = events.ORIGIN_PAIR, events.ORIGIN_SPURIOUS_ECHO
    labels = []  # per code: channel, delay, port, bin, origin, outcome
    channels = {}
    for ch, out, marginal, joint_pick in zip(events.CHANNELS, outs, marginals, joint_picks):
        mem, memory, p_alive = cfg.memory_config(ch), None, 1.0
        # (delay, origin, outcome) of each memory outcome a detected photon has.
        passes = [(0, pair, events.OUTCOME_NONE)]
        if mem is not None:
            probs = mem.outcome_table()
            memory, p_alive = np.cumsum(probs[:-1]), min(1.0, max(0.0, 1.0 - float(probs[-1])))
            passes = [(0, pair, events.OUTCOME_TRANSMITTED)] + [
                (mem.echo_delay_ps(k), pair if k == mem.primary_echo_index else spurious,
                 events.recalled_token(k))
                for k in range(len(mem.echo_delays))
            ]
        h, first = _EVENT_CHANNELS.index(ch), len(labels)
        labels += [
            (h, o.slot_offset_ps + d, o.port, o.bin, *rest)
            for o in out for d, *rest in passes
        ]
        detector = cfg.detectors[ch]
        channels[ch] = _ChannelTable(
            single_cum=np.cumsum(marginal),
            joint_pick=joint_pick,
            memory=memory,
            detector=detector,
            # The detector efficiency is the same for every memory outcome and port.
            p_detect=p_alive * detector.efficiency,
            first_code=first,
            n_memory=len(passes),
            dark_code=len(labels),
        )
        # A dark click has no port, bin or memory outcome.
        labels.append((h, 0, 0, events.BIN_NONE, events.ORIGIN_DARK, events.OUTCOME_NONE))
    dtypes = (np.int8, np.int64, np.int8, object, object, object)
    return _EngineTables(
        seed=cfg.run.seed,
        mu=src.mean_pairs_per_pulse,
        rep_period_ps=src.rep_period_ps,
        joint_cum=np.cumsum(joint.reshape(-1)),
        channels=channels,
        labels=_Labels(*(np.array(col, dtype=d) for col, d in zip(zip(*labels), dtypes))),
    )


def _draw_memory(cum: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Memory outcomes (0 transmitted, 1 + k echo k) of n detected photons,
    drawn from the survivor table cum, so conditioned on survival."""
    u = rng.random(n) * cum[-1]
    return np.minimum(np.searchsorted(cum, u, side="right"), cum.size - 1)


def _draw_outcomes(cum: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    k = np.searchsorted(cum, rng.random(n) * cum[-1], side="right")
    return np.minimum(k, cum.size - 1)


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
    end = first_cycle + n_cycles
    both = rng.integers(first_cycle, end, n_both)
    cycles = [np.concatenate([both, rng.integers(first_cycle, end, n)]) for n in (n_sig, n_idl)]
    joint = _draw_outcomes(t.joint_cum, n_both, rng)
    picks = [
        np.concatenate([tab.joint_pick[joint], _draw_outcomes(tab.single_cum, n, rng)])
        for tab, n in zip(tabs, (n_sig, n_idl))
    ]
    del both, joint  # copied into each channel's cycles and picks: freed now
    # A channel with no memory passes every photon unchanged; nothing is drawn.
    mem_picks = [
        None if tab.memory is None else _draw_memory(tab.memory, c.size, rng)
        for tab, c in zip(tabs, cycles)
    ]

    span = n_cycles * t.rep_period_ps
    lo = first_cycle * t.rep_period_ps
    dtype = np.min_scalar_type(t.labels.delay_ps.size - 1)
    shard: dict[str, dict[str, np.ndarray]] = {}
    for ch, tab in zip(events.CHANNELS, tabs):
        # Popped, so no list holds a channel's picks once its arrays are built.
        code, cyc, mpick = picks.pop(0), cycles.pop(0), mem_picks.pop(0)
        # Codes built in place on the fresh analyzer picks.
        if mpick is not None:
            code *= tab.n_memory
            code += mpick
        code += tab.first_code
        times = cyc * t.rep_period_ps
        times += t.labels.delay_ps[code]
        code = code.astype(dtype)
        det = tab.detector
        if det.jitter_sigma_ps > 0.0:
            shift = rng.normal(0.0, det.jitter_sigma_ps, times.size)
            times += np.rint(shift, out=shift).astype(np.int64)
        arrays = (times, cyc, code)
        # Dark counts, uniform over the shard's span.
        n_dark = int(rng.poisson(det.dark_rate_hz * span * 1e-12))
        if n_dark:
            dark = rng.integers(lo, lo + span, size=n_dark)
            fill = (dark, dark // t.rep_period_ps, np.full(n_dark, tab.dark_code, dtype=dtype))
            arrays = [np.concatenate(pair) for pair in zip(arrays, fill)]
        shard[ch] = dict(zip(_CLICK_KEYS, arrays))
    return classes, shard


def _jitter_lead(t: _EngineTables) -> int:
    """How far (ps) detector jitter can move a click from its nominal time."""
    sigma = max(tab.detector.jitter_sigma_ps for tab in t.channels.values())
    return math.ceil(_JITTER_BOUND_SIGMAS * sigma)


def _shards(t: _EngineTables, n_cycles: int, part: slice = slice(None)):
    """The class counts and click arrays of every shard in cycle order (of
    the shard indices in part), each with the floor below which no later
    shard has a click (None after the last).  Memory delays and analyzer
    slots only delay a click and dark counts fall inside their shard, so only
    jitter moves a click before its shard's first cycle."""
    lead = _jitter_lead(t)
    for shard_index in range(-(-n_cycles // SHARD_CYCLES))[part]:
        first = shard_index * SHARD_CYCLES
        end = min(first + SHARD_CYCLES, n_cycles)
        floor = end * t.rep_period_ps - lead if end < n_cycles else None
        yield (*_simulate_shard(t, shard_index, first, end - first), floor)


def simulate(cfg: ExperimentConfig) -> tuple[_EngineTables, np.ndarray, dict]:
    """A whole run joined in the engine's own format: the tables, the pairs
    per PAIR_CLASSES class, and per channel the clicks' times, cycles and codes."""
    tables = _build_tables(cfg)
    totals, parts = np.zeros(len(PAIR_CLASSES), dtype=np.int64), []
    for classes, shard, _ in _shards(tables, cfg.run.cycles):
        totals += classes
        parts.append(shard)
    # Key by key, so each key's shard arrays are freed once joined.
    clicks = {ch: {key: np.concatenate([p[ch].pop(key) for p in parts]) for key in _CLICK_KEYS}
              for ch in events.CHANNELS}
    return tables, totals, clicks


def _stream_pieces(shards, key, scale: int):
    """windowed_fold's pieces from shards: key(arrays) of a shard's idler,
    then of its signal, and its floor times scale.  The two channels are
    popped, so no frame holds a shard's clicks while the next is drawn."""
    for _, clicks, floor in shards:
        arrays = (key(clicks.pop(ch)) for ch in (events.IDLER_1535, events.SIGNAL_794))
        yield (*arrays, None if floor is None else scale * floor)


def _g2_plan(cfg: ExperimentConfig, delays):
    """The offsets of every window that g2 at these delays counts, and the
    g2_cross of one delay from those windows' counts."""
    rule = cfg.source.rep_period_ps, cfg.tdc.peak_halfwidth_ps, cfg.tdc.window_ps
    offsets = sorted({o for d in delays for o in g2_windows(d, *rule).values()})
    return offsets, lambda counts, d: g2_cross(dict(zip(offsets, counts.tolist())), d, *rule)


def run_g2(cfg: ExperimentConfig, delays) -> list[G2Estimate]:
    """g2 at each delay over every configured cycle, from the window counts
    of one pass over the shards that keeps no click arrays."""
    (offsets, g2), w, hw = _g2_plan(cfg, delays), cfg.tdc.window_ps, cfg.tdc.peak_halfwidth_ps
    pieces = _stream_pieces(_shards(_build_tables(cfg), cfg.run.cycles), itemgetter("times"), 1)
    # A closed window can hold a delay of exactly +window.
    (counts,) = windowed_fold(pieces, -w, w + 1, lambda s, t: (window_counts(s, t, offsets, hw),))
    return [g2(counts, delay) for delay in delays]


# ---------------------------------------------------------------------------
# run_simulation: files plus summary


@dataclass(frozen=True, eq=False)
class SimulationResult:
    histogram: CoincidenceHistogram
    summary: dict
    events_path: Path
    histogram_path: Path
    summary_path: Path
    config_path: Path


def _write_events_csv(fh, labels: _Labels, rows: dict[str, np.ndarray], order: np.ndarray) -> None:
    """Write the settled rows rows[order], already in (time, channel, cycle)
    order, formatted straight from the code arrays into the bytes csv.writer
    would write, at most _EVENTS_CHUNK_ROWS per write."""
    # Each row is cycle, mid[code], time, tail[code].
    mid = [f",{_EVENT_CHANNELS[h]}," for h in labels.channel.tolist()]
    tail = [f",{b},{o},{u}\r\n" for b, o, u in zip(labels.bin, labels.origin, labels.outcome)]
    for first in range(0, order.size, _EVENTS_CHUNK_ROWS):
        idx = order[first : first + _EVENTS_CHUNK_ROWS]
        columns = (rows[key][idx].tolist() for key in ("cycles", "codes", "times"))
        fh.write("".join(f"{c}{mid[k]}{t}{tail[k]}" for c, k, t in zip(*columns)))


def _settle_events(fh, labels: _Labels, carry, clicks, floor) -> dict[str, np.ndarray]:
    """Write to fh (drop, if fh is None) the rows of carry and of one shard's
    clicks that lie below the floor, sorted by (time, channel, cycle); return
    the rest, sorted, to carry to the next shard.  No later click lies below
    the floor, and rows of different shards never tie (each shard has its own
    cycles), so the stable sort puts the rows as one sort over the whole run
    would."""
    parts = ([carry] if carry else []) + [clicks[ch] for ch in _EVENT_CHANNELS]
    rows = {key: np.concatenate([p[key] for p in parts]) for key in _CLICK_KEYS}
    order = np.lexsort((rows["cycles"], labels.channel[rows["codes"]], rows["times"]))
    settled = order.size if floor is None else np.count_nonzero(rows["times"] < floor)
    if fh is not None:
        _write_events_csv(fh, labels, rows, order[:settled])
    return {key: col[order[settled:]] for key, col in rows.items()}


def _detections(tables: _EngineTables, code_counts: np.ndarray, pairs: int) -> dict:
    """summary.json's detections from a run's clicks counted per code: per
    channel the total, the dark counts, the other clicks per memory outcome,
    keyed by their events.csv label, and z, those clicks' deviation from
    pairs * q in binomial sigmas (None when that sigma is 0)."""
    out = {}
    for ch, tab in tables.channels.items():
        own = code_counts[tab.first_code : tab.dark_code + 1]
        # Codes run analyzer-outcome major: a row per analyzer outcome.
        per_outcome = own[:-1].reshape(-1, tab.n_memory).sum(axis=0).tolist()
        outcomes = tables.labels.outcome[tab.first_code : tab.first_code + tab.n_memory]
        expected, var = pairs * tab.p_detect, pairs * tab.p_detect * (1.0 - tab.p_detect)
        out[ch.lower()] = {
            "total": int(own.sum()),
            "dark": int(own[-1]),
            "memory_outcomes": dict(zip(outcomes.tolist(), per_outcome)),
            "z": (sum(per_outcome) - expected) / math.sqrt(var) if var > 0.0 else None,
        }
    return out


def _g2_payload(g2, counts: np.ndarray, delay_ps: int) -> dict | None:
    try:
        est = asdict(g2(counts, delay_ps))
    except UndefinedEstimateError:
        return None
    return {**est, "reference_periods": list(est["reference_periods"])}


def _build_summary(cfg: ExperimentConfig, tallies: dict, hist: CoincidenceHistogram, g2s) -> dict:
    """summary.json from the histogram, the g2 payloads at 0 and the recall
    delay, and the tallies: pair_classes, detection_probability, detections."""
    n_cycles = cfg.run.cycles
    span_s = n_cycles * cfg.source.rep_period_ps * 1e-12
    duty = cfg.duty_cycle.duty_factor
    peaks = [
        {
            "delay_ps": int(peak.delay_ps),
            "count": int(peak.count),
            "rate_per_cycle": peak.count / n_cycles,
            "rate_hz_storage": peak.count / span_s,
            "rate_hz_wall_clock": peak.count / span_s * duty,
        }
        for peak in find_histogram_peaks(hist, min_height_fraction=_SUMMARY_PEAK_FRACTION)
    ]
    recall = recall_delay_ps(cfg)
    return {
        "cycles": int(n_cycles),
        "seed": int(cfg.run.seed),
        "rep_period_ps": int(cfg.source.rep_period_ps),
        "mean_pairs_per_pulse": float(cfg.source.mean_pairs_per_pulse),
        "duty_factor": float(duty),
        "pairs_emitted": sum(tallies["pair_classes"].values()),
        **tallies,
        "histogram": {
            "bin_width_ps": int(hist.bin_width_ps),
            "window_ps": int(hist.window_ps),
            "n_starts": int(hist.n_starts),
            "total_counts": int(hist.counts.sum()),
        },
        "g2_zero_delay": g2s[0],
        "g2_recall": {"delay_ps": recall, "g2": g2s[1]},
        "peaks": peaks,
        "provenance": provenance(),
    }


def run_simulation(cfg: ExperimentConfig, out_dir) -> SimulationResult:
    """Simulate in one pass over the shards, then write events.csv,
    histogram.csv, summary.json and the resolved config as config.json, from
    which the run can be repeated.

    Each shard feeds the events.csv writer, the summary tallies, the
    histogram and the g2 windows in turn and is then dropped, so memory does
    not grow with the cycle count.  The shards run as one contiguous block
    per CPU (_fan_out), block 0 in the caller, and the blocks' tallies and
    counts are summed.  A block tallies and counts only its own shards.  It
    draws the k shards on each side of it again: their stops enter its
    windows, and the lower ones give the rows the serial loop would carry
    into it.  k shards span more than the largest delay, twice the jitter
    lead and the window together, so no further shard can matter.  Block 0
    writes events.csv under a temporary name and each other block a part
    file, which the caller appends in block order; the file is renamed once
    all is done, so a pass that fails leaves none of them."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tables, n_cycles = _build_tables(cfg), cfg.run.cycles
    tdc, delays = cfg.tdc, (0, recall_delay_ps(cfg))
    (offsets, g2), reach = _g2_plan(cfg, delays), (-tdc.window_ps, tdc.window_ps + 1)
    far = int(tables.labels.delay_ps.max()) + 2 * _jitter_lead(tables) + reach[1]
    k = 1 + far // (SHARD_CYCLES * tables.rep_period_ps)
    n_shards = -(-n_cycles // SHARD_CYCLES)
    n_blocks = _workers(n_shards)
    bounds = [-(-b * n_shards // n_blocks) for b in range(n_blocks + 1)]  # the first are largest
    partial = out / "events.csv.partial"
    paths = [partial] + [out / f"events.csv.part{b}" for b in range(1, n_blocks)]

    def kernel(starts, stops):
        hist = tdc_histogram_from_times(starts, stops, tdc.bin_width_ps, tdc.window_ps)
        windows = window_counts(starts, stops, offsets, tdc.peak_halfwidth_ps)
        return hist.counts, hist.n_starts, windows

    def block(b):
        """Block b's class counts, per-code counts and fold; its events.csv
        rows go to paths[b]."""
        first, end = bounds[b], bounds[b + 1]
        lo, hi = max(0, first - k), min(n_shards, end + k)
        classes = np.zeros(len(PAIR_CLASSES), dtype=np.int64)
        code_counts = np.zeros(tables.labels.delay_ps.size, dtype=np.int64)

        def settled(fh):
            """The block's shards between its neighbours, each once its
            tallies and events.csv rows are taken; a neighbour adds no tally,
            no row and no start."""
            nonlocal classes, code_counts
            carry = None
            for i, (counts, clicks, floor) in enumerate(_shards(tables, n_cycles, slice(lo, hi)), lo):
                own = first <= i < end
                if own:
                    classes += counts
                    for rec in clicks.values():
                        code_counts += np.bincount(rec["codes"], minlength=code_counts.size)
                if i < end:
                    carry = _settle_events(fh if own else None, tables.labels, carry, clicks, floor)
                if not own:
                    clicks[events.IDLER_1535] = {"times": np.zeros(0, dtype=np.int64)}
                yield counts, clicks, None if i == hi - 1 else floor

        with open(paths[b], "w", newline="", encoding="utf-8") as fh:
            if b == 0:
                fh.write(",".join(EVENT_CSV_HEADER) + "\r\n")
            fold = windowed_fold(_stream_pieces(settled(fh), itemgetter("times"), 1), *reach, kernel)
        return classes, code_counts, *fold

    cycles = [min(n_cycles, e * SHARD_CYCLES) - s * SHARD_CYCLES for s, e in zip(bounds, bounds[1:])]
    try:
        results = _fan_out(block, range(n_blocks), cycles)
        with open(partial, "ab") as fh:
            for path in paths[1:]:
                with open(path, "rb") as part:
                    shutil.copyfileobj(part, fh)
                path.unlink()
    except BaseException:
        for path in paths:
            path.unlink(missing_ok=True)
        raise
    events_path = out / "events.csv"
    os.replace(partial, events_path)
    classes, code_counts, counts, n_starts, windows = (sum(col) for col in zip(*results))

    tallies = {
        "pair_classes": dict(zip(PAIR_CLASSES, map(int, classes))),
        "detection_probability": {ch.lower(): tab.p_detect for ch, tab in tables.channels.items()},
        "detections": _detections(tables, code_counts, int(classes.sum())),
    }
    hist = CoincidenceHistogram(tdc.bin_width_ps, tdc.window_ps, counts, int(n_starts))
    g2s = [_g2_payload(g2, windows, delay) for delay in delays]
    summary = _build_summary(cfg, tallies, hist, g2s)
    histogram_path = out / "histogram.csv"
    summary_path = out / "summary.json"
    config_path = out / "config.json"
    hist.to_csv(histogram_path)
    summary_path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    save_config(cfg, config_path)
    return SimulationResult(hist, summary, events_path, histogram_path, summary_path, config_path)


# ---------------------------------------------------------------------------
# Independent runs on every CPU


def _run_share(fn, items, share) -> list:
    """(index, ok, value or exception) per item of share in order, up to the
    first failure: no later item can be the lowest-index failure."""
    records = []
    for i in share:
        try:
            records.append((i, True, fn(items[i])))
        except Exception as exc:
            records.append((i, False, exc))
            break
    return records


def _serve(fn, items, share, fd: int):
    """A forked worker: pickle its share's records, as one list, into the
    pipe end fd (a value that does not round-trip goes as a RuntimeError
    naming its type), then leave by os._exit, so none of the caller's cleanup
    runs twice."""
    try:
        records = []
        for i, ok, value in _run_share(fn, items, share):
            try:
                pickle.loads(pickle.dumps(value))
            except Exception as err:
                why = f"{type(value).__name__}: {value} (not sent: {err})"
                ok, value = False, RuntimeError(why)
            records.append((i, ok, value))
        with open(fd, "wb") as fh:
            pickle.dump(records, fh)
    finally:
        os._exit(0)  # a list that never came is the error


def _workers(n_items: int) -> int:
    """One worker per CPU of the affinity mask, at most one per item (one
    where the platform has no fork or sched_getaffinity)."""
    can_fork = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    return max(1, min(n_items, len(os.sched_getaffinity(0)) if can_fork else 1))


def _fan_out(fn, items, weights) -> list:
    """[fn(x) for x in items] on _workers(len(items)) workers; the
    lowest-index failure is raised, as the serial loop would raise it.
    Items go heaviest first to the least-loaded worker, then to the one with
    fewer.  The caller is worker 0
    and so runs the heaviest item; each other worker is a forked child
    (_serve).  Every child is SIGKILLed (a no-op once it has exited) and
    reaped on the way out."""
    items = list(items)
    n_workers = _workers(len(items))
    shares, loads = [[] for _ in range(n_workers)], [0.0] * n_workers
    for i in sorted(range(len(items)), key=lambda i: -weights[i]):
        k = min(range(n_workers), key=lambda k: (loads[k], len(shares[k])))
        shares[k].append(i)
        loads[k] += weights[i]
    children = []  # (pid, the pipe's read end, share)
    try:
        for share in map(sorted, filter(None, shares[1:])):
            r, w = os.pipe()
            if (pid := os.fork()) == 0:
                _serve(fn, items, share, w)
            os.close(w)
            children.append((pid, open(r, "rb"), share))
        records = _run_share(fn, items, sorted(shares[0]))
        for pid, fh, share in children:
            # A child whose first item lies above the lowest failure so far
            # cannot change the outcome: it is not waited for.
            if share[0] < min((i for i, ok, _ in records if not ok), default=len(items)):
                try:
                    records += pickle.load(fh)
                except EOFError:
                    records.append((share[0], False, RuntimeError(f"worker {pid} ended early")))
    finally:
        for pid, fh, _ in children:
            fh.close()
            os.kill(pid, 9)  # SIGKILL: importing signal costs every command ~0.7 ms
            os.waitpid(pid, 0)
    failures = [record for record in records if not record[1]]
    if failures:
        raise min(failures, key=itemgetter(0))[2]
    return [value for _, _, value in sorted(records, key=itemgetter(0))]


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


def _central_keys(labels: _Labels, central: np.ndarray, clicks: dict) -> np.ndarray:
    """Keys time * 2 + (port == +1) of a channel's central-slot clicks;
    central marks the central-slot codes."""
    codes = clicks["codes"]
    sup = central[codes]
    return clicks["times"][sup] * 2 + (labels.port[codes[sup]] == 1)


def _central_port_counts(starts: np.ndarray, stops: np.ndarray, delta: int, hw: int) -> np.ndarray:
    """Idler starts with the signal stops in [delta - hw, delta + hw] after
    them, per (signal, idler) port (+1, +1), (+1, -1), (-1, +1), (-1, -1): one
    labelled window_counts on keys time * 2 + (port == +1), in any order."""
    counts = window_counts(starts >> 1, stops >> 1, [delta], hw, starts & 1, stops & 1)
    return counts[0].T[::-1, ::-1].ravel()


def _central_counts(cfg: ExperimentConfig, signal_phase: float, idler_phase: float) -> np.ndarray:
    """Central-slot coincidences of cfg's run with both analyzers switched
    to interferometers at these phases (the central slot exists only in that
    mode), as an int64 array in _central_port_counts' (signal, idler) port
    order, at the recall delay +- the peak halfwidth: _central_port_counts
    folded over the stream of keys.  A key floor is twice the time floor,
    and [2(delta - hw) - 1, 2(delta + hw + 1)) holds a start key's window
    whatever the ports."""
    phases = zip(events.CHANNELS, (signal_phase, idler_phase))
    cfg = replace(cfg, analyzers={ch: AnalyzerSetting.interferometer(p) for ch, p in phases})
    delta, hw = recall_delay_ps(cfg), cfg.tdc.peak_halfwidth_ps
    tables = _build_tables(cfg)
    keys = partial(_central_keys, tables.labels, tables.labels.bin == events.BIN_SUPERPOSED)
    pieces = _stream_pieces(_shards(tables, cfg.run.cycles), keys, 2)
    lo, hi = 2 * (delta - hw) - 1, 2 * (delta + hw + 1)
    return windowed_fold(pieces, lo, hi, lambda s, t: (_central_port_counts(s, t, delta, hw),))[0]


@dataclass(frozen=True)
class ChshSimulation:
    counts: tuple[tuple[int, int, int, int], ...]
    e_values: tuple[float, ...]
    sigmas: tuple[float, ...]
    estimate: ChshEstimate
    seeds: tuple[int, ...]


def chsh_simulation(cfg: ExperimentConfig) -> ChshSimulation:
    """One simulation run of cfg.run.cycles per setting pair of CHSH_PAIRS,
    then the Bell sum.

    Each setting pair gets an independent seed derived from the master seed
    (returned as `seeds`), and both analyzers are switched to the pair's
    interferometer phases; the seeds are drawn here and the pairs run on
    every CPU (_fan_out).  The minus slot of the Bell sum is fixed before
    counting, by born_minus_slot on the configured pair state.  Depolarizing
    noise scales every correlator alike, so it leaves the slot."""
    minus_slot = born_minus_slot(cfg.source.joint_state())
    seqs = (np.random.SeedSequence(entropy=cfg.run.seed, spawn_key=(9001 + i,)) for i in range(4))
    seeds = tuple(int(seq.generate_state(1)[0]) for seq in seqs)

    def setting_pair(i):
        (sa, sb), sub = CHSH_PAIRS[i], replace(cfg, run=replace(cfg.run, seed=seeds[i]))
        return tuple(_central_counts(sub, sa.analyzer_phase(), sb.analyzer_phase()).tolist())

    counts = _fan_out(setting_pair, range(4), [1] * 4)
    correlators = (correlation_coefficient(pp + mm, pm + mp) for pp, pm, mp, mm in counts)
    e_values, sigmas = zip(*correlators)
    estimate = chsh_s(e_values, sigmas, minus_slot)
    return ChshSimulation(tuple(counts), e_values, sigmas, estimate, seeds)


# ---------------------------------------------------------------------------
# Measured-data loaders


def chsh_from_csv(path) -> dict[str, tuple[tuple[float, ...], tuple[float, ...]]]:
    """Read correlators per stage; returns {stage: (e_values, sigmas)} with
    the four values in CHSH_PAIRS order (a,b), (a,b'), (a',b), (a',b')."""
    slot_of = {(a.token(), b.token()): i for i, (a, b) in enumerate(CHSH_PAIRS)}
    stages: dict[str, list[tuple[float, float] | None]] = {}

    def row(fields):
        stage, tok_a, tok_b, corr_s, sigma_s = (v.strip() for v in fields)
        if stage not in (STAGE_INPUT, STAGE_OUTPUT):
            raise ValueError(f"unknown stage {stage!r}")
        corr, sigma = floats((corr_s, sigma_s))
        if not -1.0 <= corr <= 1.0:
            raise ValueError(f"correlation {corr!r} outside [-1, 1]")
        if sigma < 0.0:
            raise ValueError("negative sigma")
        slot = slot_of.get((tok_a, tok_b))
        if slot is None:
            raise ValueError(f"({tok_a}, {tok_b}) is not one of the four correlator setting pairs")
        per = stages.setdefault(stage, [None] * 4)
        if per[slot] is not None:
            raise ValueError(f"duplicate correlator for ({tok_a}, {tok_b})")
        per[slot] = (corr, sigma)

    for _ in csv_rows(path, CHSH_CSV_HEADER, "correlator", row):
        pass  # row fills stages
    if not stages:
        raise ValueError(f"{path}: no correlator rows")
    for stage, per in stages.items():
        if None in per:
            a, b = CHSH_PAIRS[per.index(None)]
            raise ValueError(
                f"{path}: stage {stage!r}: missing correlator for ({a.token()}, {b.token()})"
            )
    return {stage: tuple(zip(*per)) for stage, per in stages.items()}


def _wavelength_row(fields) -> dict[str, float]:
    row = dict(zip(WAVELENGTH_CSV_HEADER, floats(fields)))
    if row["signal_nm"] <= 0.0 or row["idler_nm"] <= 0.0:
        raise ValueError("wavelengths must be positive")
    for eff in (row["efficiency_794"], row["efficiency_1535"]):
        if not 0.0 <= eff <= 1.0:
            raise ValueError(f"efficiency {eff!r} outside [0, 1]")
    product = row["efficiency_794"] * row["efficiency_1535"]
    if abs(row["link_efficiency"] - product) > 1e-6:
        raise ValueError(
            f"link efficiency {row['link_efficiency']!r} is not the per-memory product {product!r}"
        )
    return row


def wavelength_table_from_csv(path) -> list[dict[str, float]]:
    """The rows of a wavelength table, each a dict keyed by
    WAVELENGTH_CSV_HEADER, checked as they are read."""
    rows = [row for _, row in csv_rows(path, WAVELENGTH_CSV_HEADER, "wavelength", _wavelength_row)]
    if not rows:
        raise ValueError(f"{path}: no wavelength rows")
    return rows


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
    correlator stage of the table ("in", then "out") to its Bell sum;
    to_json_dict adds the slot Phi+ fixes before any count (phi_plus_slot).
    `seed` seeds the Monte-Carlo resampling; `mc_failures` counts its trials
    dropped because a fit did not converge or a metric failed."""

    input_state: TomographyResult
    output_state: TomographyResult | None
    metrics: dict[tuple[str, str], tuple[float, float]]
    chsh: dict[str, ChshEstimate]
    trials: int
    seed: int
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
                "chi2": 2.0 * fit.residual,
                "dof": fit.dof,
                "p_value": fit.p_value(),
                # A table that fits this well has sigmas far above its scatter.
                "fits_inside_sigmas": fit.p_value() > 0.999,
                "n_converged": fit.n_converged,
                "iterations": fit.iterations,
                "metrics": {},
            }
            for stage, fit in zip(_STAGE_NAMES.values(), fits)
            if fit is not None
        }
        payload: dict = {
            "trials": self.trials,
            "seed": self.seed,
            "mc_failures": self.mc_failures,
            "states": states,
        }
        # The link entry has no state; it sits at the top level.
        for (stage, name), value_sigma in self.metrics.items():
            target = states[stage]["metrics"] if stage in states else payload
            target[name] = pair(value_sigma)
        slot = born_minus_slot(bell_phi_plus())  # fixed by Phi+ before any count
        payload["chsh"] = {k: {**asdict(e), "phi_plus_slot": slot} for k, e in self.chsh.items()}
        if _IO_FIDELITY in self.metrics:
            payload["summary_percent"] = {
                name: pair([100.0 * v for v in self.metrics[stage, name]])
                for stage, name in _SUMMARY_PERCENT
            }
        payload["provenance"] = provenance()
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
        seed=seed,
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


def sweep(cfg: ExperimentConfig, parameter: str, values) -> SweepResult:
    """Repeat cfg's run (cfg.run.cycles cycles) over one swept parameter.

    mu reports the zero-delay cross-correlation.  analyzer_phase reports the
    central-slot (+1, +1) coincidences with the signal interferometer at each
    phase and the idler's at its configured phase, 0 if it reads time of
    arrival.  Every point reuses the master seed, so a single-value sweep
    reproduces a direct run exactly.  The points run on every CPU, the
    heaviest (the largest mu) in the caller (_fan_out).  A point that fails
    (an undefined g2, or a value the config rejects) raises an error naming
    parameter and value; of several, the first in input order."""
    if parameter not in SWEEP_PARAMETERS:
        raise ValueError(
            f"unknown sweep parameter {parameter!r}; expected one of {SWEEP_PARAMETERS}"
        )
    points = [float(v) for v in values]
    if not points:
        raise ValueError("sweep needs at least one value")
    if parameter == "mu":
        columns = ("mu", "g2_zero", "g2_sigma")

        def point(value):
            sub = replace(cfg, source=replace(cfg.source, mean_pairs_per_pulse=value))
            (est,) = run_g2(sub, [0])
            return value, est.value, est.sigma

    else:
        columns = ("phase_rad", "central_coincidences")
        idler = cfg.analyzers[events.IDLER_1535]
        idler_phase = idler.phase if idler.mode == MODE_INTERFEROMETER else 0.0

        def point(value):
            return value, float(_central_counts(cfg, value, idler_phase)[0])

    def named_point(value):
        try:
            return point(value)
        except (UndefinedEstimateError, ValueError) as exc:
            raise type(exc)(f"{parameter}={value:g}: {exc}") from exc

    weights = points if parameter == "mu" else [1] * len(points)
    rows = _fan_out(named_point, points, weights)
    return SweepResult(parameter, columns, tuple(tuple(row) for row in rows))


# ---------------------------------------------------------------------------
# Report files


def write_report_files(out_dir, payload: dict, report: AnalysisReport) -> None:
    """Write payload to report.json and report.rows() to state_metrics.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
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
    rows = wavelength_table_from_csv(data_path(DATA_WAVELENGTH))
    best = max(rows, key=itemgetter("link_efficiency"))
    payload = {
        "state_analysis": report.to_json_dict(),
        "wavelength_link": {
            "rows": rows,
            "best": {key: best[key] for key in ("signal_nm", "link_efficiency")},
        },
    }
    write_report_files(out_dir, payload, report)
    return payload, report
