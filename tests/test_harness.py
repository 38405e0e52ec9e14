"""End-to-end pipeline tests: simulation runs, file outputs, data analysis,
sweeps and the shipped data files.

Stochastic assertions use explicit statistical tolerances (so they hold for
any seed); exact assertions pin determinism and pure arithmetic.
"""

import codecs
import csv
import io
import json
import math
import os
import platform
import time
import tracemalloc
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import (
    BINS,
    IDEAL_DETECTORS,
    ORIGINS,
    SYNTHETIC_COMB,
    events_from_csv,
    histogram_from_csv,
    make_config,
    run_histogram,
)

import afclink
from afclink import detection, events, harness
from afclink.cli import main as cli_main
from afclink.config import load_config
from afclink.detection import analyzer_outcomes, tdc_histogram_from_times
from afclink.errors import ConfigError, UndefinedEstimateError
from afclink.estimation import CHSH_PAIRS, chsh_s, g2_cross, tomography_from_csv
from afclink.harness import (
    CHSH_CSV_HEADER,
    DATA_CHSH,
    DATA_TOMOGRAPHY_IN,
    DATA_TOMOGRAPHY_OUT,
    DATA_WAVELENGTH,
    EVENT_CSV_HEADER,
    SHARD_CYCLES,
    STAGE_INPUT,
    STAGE_OUTPUT,
    WAVELENGTH_CSV_HEADER,
    analyze_paper_data,
    chsh_from_csv,
    chsh_simulation,
    data_path,
    recall_delay_ps,
    run_g2,
    run_simulation,
    simulate,
    sweep,
    wavelength_table_from_csv,
)
from afclink.memory import comb_from_csv, fit_comb

ROOT = Path(__file__).resolve().parents[1]


def direct_window_count(data, offset_ps, hw_ps):
    """Idler starts against the signal stops in the closed window [start +
    offset - hw, start + offset + hw], over a run's joined click arrays."""
    stops = np.sort(data.channels[events.SIGNAL_794].times)
    starts = data.channels[events.IDLER_1535].times
    lo = np.searchsorted(stops, starts + (offset_ps - hw_ps), side="left")
    hi = np.searchsorted(stops, starts + (offset_ps + hw_ps), side="right")
    return int((hi - lo).sum())


def histogram_sum(hist, lo_ps, hi_ps):
    """The counts of the histogram bins that start in [lo, hi)."""
    starts = hist.bin_starts()
    return int(hist.counts[(starts >= lo_ps) & (starts < hi_ps)].sum())


# ---------------------------------------------------------------------------
# run_simulation and the simulation engine


class TestRunSimulation:
    def test_outputs_bit_identical_across_runs(self, tmp_path):
        cfg = make_config(seed=11, cycles=50_000, mu=0.05)
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        res_a = run_simulation(cfg, dir_a)
        res_b = run_simulation(cfg, dir_b)
        for name in ("events.csv", "histogram.csv", "summary.json"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
        assert res_a.summary == res_b.summary

    def test_emitted_files_reparse(self, tmp_path):
        cfg = make_config(seed=3, cycles=30_000, mu=0.05)
        res = run_simulation(cfg, tmp_path)
        parsed = events_from_csv(res.events_path)
        totals = res.summary["detections"]
        assert len(parsed) == (
            totals["signal_794"]["total"] + totals["idler_1535"]["total"]
        )
        hist = histogram_from_csv(res.histogram_path)
        assert np.array_equal(hist.counts, res.histogram.counts)
        with open(res.summary_path) as fh:
            assert json.load(fh) == res.summary

    def test_events_sorted_by_timestamp(self, tmp_path):
        cfg = make_config(seed=5, cycles=20_000, mu=0.05)
        res = run_simulation(cfg, tmp_path)
        times = [row[2] for row in events_from_csv(res.events_path)]
        assert times == sorted(times)

    def test_zero_detector_efficiency_clean(self, tmp_path):
        cfg = make_config(
            seed=2,
            cycles=10_000,
            mu=0.1,
            detectors={
                "signal_794": {"efficiency": 0.0, "dark_rate_hz": 0.0},
                "idler_1535": {"efficiency": 0.0, "dark_rate_hz": 0.0},
            },
        )
        res = run_simulation(cfg, tmp_path)
        assert events_from_csv(res.events_path) == []
        assert res.histogram.counts.sum() == 0
        assert res.histogram.n_starts == 0
        assert res.summary["g2_zero_delay"] is None
        assert res.summary["peaks"] == []
        assert res.summary["pairs_emitted"] > 0  # pairs were made, none seen
        # q = 0: the funnel's binomial sigma is 0, so z is undefined.
        assert all(d["z"] is None for d in res.summary["detections"].values())

    def test_ideal_chain_pair_bookkeeping(self, tmp_path):
        # No loss anywhere: every emitted pair must yield exactly one start
        # (idler click) and one stop (signal click).
        cfg = make_config(
            seed=13, cycles=2_000, mu=0.2, detectors=IDEAL_DETECTORS
        )
        res = run_simulation(cfg, tmp_path)
        n_pairs = res.summary["pairs_emitted"]
        assert n_pairs > 300
        dets = res.summary["detections"]
        assert dets["signal_794"]["total"] == n_pairs
        assert dets["idler_1535"]["total"] == n_pairs
        assert dets["signal_794"]["dark"] == 0
        # q = 1: the funnel's binomial sigma is 0, so z is undefined.
        assert dets["signal_794"]["z"] is None and dets["idler_1535"]["z"] is None
        assert res.histogram.n_starts == n_pairs
        assert len(events_from_csv(res.events_path)) == 2 * n_pairs
        # Both photons of a pair share bin and cycle, so every pair lands at
        # zero delay regardless of the early/late outcome.
        assert histogram_sum(res.histogram, 0, 80) >= n_pairs

    def test_early_only_g2_matches_poisson_oracle(self, tmp_path):
        mu = 0.05
        cfg = make_config(
            seed=21,
            cycles=200_000,
            mu=mu,
            source={"mean_pairs_per_pulse": mu, "pump_mode": "EARLY_ONLY"},
            detectors=IDEAL_DETECTORS,
        )
        res = run_simulation(cfg, tmp_path)
        entry = res.summary["g2_zero_delay"]
        # Without memories the recall peak is the zero-delay peak.
        assert res.summary["g2_recall"] == {"delay_ps": 0, "g2": entry}
        oracle = 1.0 + 1.0 / mu
        assert abs(entry["value"] - oracle) <= 4.0 * entry["sigma"]
        # The summary g2 must equal run_g2's over the same run.
        (again,) = run_g2(cfg, [0])
        assert entry["value"] == pytest.approx(again.value, abs=0.0)

    def test_memory_echo_moves_coincidence_peak(self, tmp_path):
        # Signal stored and recalled after 32.258 ns, idler direct: the
        # coincidence peak sits at +32258 ps, not zero.  Transmission is
        # suppressed by a deep mean OD.
        cfg = make_config(
            seed=31,
            cycles=30_000,
            mu=0.1,
            detectors=IDEAL_DETECTORS,
            memories={
                "signal_794": {
                    "coupling_efficiency": 1.0,
                    "device_efficiency": 0.5,
                    "mean_od": 23.0,
                    "echo_delays": [[32.258, 1.0]],
                }
            },
        )
        res = run_simulation(cfg, tmp_path)
        recalled = histogram_sum(res.histogram, 32_258 - 500, 32_258 + 500)
        direct = histogram_sum(res.histogram, -500, 500)
        expected = 30_000 * 0.1 * 0.5
        assert recalled > 0.8 * expected
        assert direct < 0.02 * expected
        assert any(
            abs(p["delay_ps"] - 32_258) <= cfg.tdc.bin_width_ps
            for p in res.summary["peaks"]
        )

    def test_multi_shard_bookkeeping(self, tmp_path):
        # More cycles than one shard: totals must still balance exactly.
        cfg = make_config(
            seed=41, cycles=SHARD_CYCLES + 64, mu=0.02, detectors=IDEAL_DETECTORS
        )
        data = simulate(cfg)
        n_sig = data.channels[events.SIGNAL_794].times.size
        n_idl = data.channels[events.IDLER_1535].times.size
        assert n_sig == data.n_pairs
        assert n_idl == data.n_pairs

    def test_simulate_deterministic(self):
        cfg = make_config(seed=43, cycles=40_000, mu=0.05)
        a = simulate(cfg)
        b = simulate(cfg)
        assert a.n_pairs == b.n_pairs
        for ch in (events.SIGNAL_794, events.IDLER_1535):
            assert np.array_equal(a.channels[ch].times, b.channels[ch].times)
            assert np.array_equal(a.channels[ch].ports, b.channels[ch].ports)

    def test_rates_raw_and_duty_normalized(self, tmp_path):
        cfg = make_config(
            seed=51, cycles=20_000, mu=0.2, detectors=IDEAL_DETECTORS
        )
        res = run_simulation(cfg, tmp_path)
        duty = res.summary["duty_factor"]
        assert duty == pytest.approx(0.5)
        assert res.summary["peaks"], "expected at least the zero-delay peak"
        span_s = cfg.run.cycles * cfg.source.rep_period_ps * 1e-12
        for peak in res.summary["peaks"]:
            assert peak["rate_per_cycle"] == pytest.approx(
                peak["count"] / cfg.run.cycles, rel=1e-12
            )
            assert peak["rate_hz_storage"] == pytest.approx(
                peak["count"] / span_s, rel=1e-12
            )
            assert peak["rate_hz_wall_clock"] == pytest.approx(
                peak["rate_hz_storage"] * duty, rel=1e-12
            )

    def test_summary_reports_recall_g2_and_provenance(self, tmp_path):
        # demo.json stores both photons: the pair peak sits at the signal's
        # primary echo (32.248 ns) minus the idler's (5.999 ns).
        cfg = load_config(ROOT / "configs" / "demo.json")
        res = run_simulation(cfg, tmp_path)
        recall = res.summary["g2_recall"]
        assert recall["delay_ps"] == recall_delay_ps(cfg) == 26_249
        # A direct closed-window count over the run's clicks: the references
        # inside +-70 ns are n = -5 .. -1 and 1 .. 3 periods away.
        data = simulate(cfg)
        peak = direct_window_count(data, 26_249, 500)
        refs = [
            direct_window_count(data, 26_249 + n * 12_500, 500)
            for n in (-5, -4, -3, -2, -1, 1, 2, 3)
        ]
        assert recall["g2"]["peak_counts"] == peak > 0
        assert recall["g2"]["reference_counts"] == sum(refs) > 0
        assert recall["g2"]["value"] == pytest.approx(peak / (sum(refs) / 8), rel=1e-12)
        assert recall["g2"]["value"] > 10.0
        assert res.summary["peaks"]
        assert all("g2" not in peak for peak in res.summary["peaks"])
        assert res.summary["provenance"] == {
            "afclink": afclink.__version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        }
        assert json.loads(res.summary_path.read_text()) == res.summary

    def test_g2_payloads_list_their_reference_periods(self, tmp_path):
        # Each g2 names the periods n whose windows, delay + n * 12.5 ns
        # +- 500 ps, fit in the +-70 ns TDC window, and pools exactly those,
        # each counted over the closed window.
        cfg = load_config(ROOT / "configs" / "realistic.json")
        res = run_simulation(cfg, tmp_path)
        data = simulate(cfg)
        period, hw = cfg.source.rep_period_ps, cfg.tdc.peak_halfwidth_ps
        window = cfg.tdc.window_ps
        payloads = [(0, res.summary["g2_zero_delay"])]
        payloads.append((res.summary["g2_recall"]["delay_ps"], res.summary["g2_recall"]["g2"]))
        assert payloads[1][0] == 26_234
        for delay, g2 in payloads:
            periods = [n for n in range(-5, 6) if n and abs(delay + n * period) + hw <= window]
            assert g2["reference_periods"] == periods
            assert g2["peak_counts"] == direct_window_count(data, delay, hw)
            refs = [direct_window_count(data, delay + n * period, hw) for n in periods]
            assert g2["reference_counts"] == sum(refs)
        assert payloads[0][1]["reference_periods"] == [-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]
        assert payloads[1][1]["reference_periods"] == [-5, -4, -3, -2, -1, 1, 2, 3]

    def test_out_dir_created(self, tmp_path):
        cfg = make_config(seed=1, cycles=1_000, mu=0.05)
        target = tmp_path / "deep" / "nested" / "dir"
        res = run_simulation(cfg, target)
        assert res.summary_path.exists()


def within_5_sigma(count, n, p):
    """count successes of n trials agree with probability p within 5 sigma."""
    return abs(count / n - p) <= 5.0 * math.sqrt(p * (1.0 - p) / n)


def funnel_z(rec, pairs, q):
    """summary.json's detections z of a channel's whole-run clicks: the
    clicks that are not dark against pairs * q, in binomial sigmas."""
    var = pairs * q * (1.0 - q)
    clicks = int(rec.times.size) - rec.dark_count
    return (clicks - pairs * q) / math.sqrt(var) if var > 0.0 else None


# Three echoes, the middle one primary, so both spurious-echo outcomes occur.
THREE_ECHO_MEMORY = {
    "coupling_efficiency": 0.6,
    "device_efficiency": 0.5,
    "mean_od": 0.7,
    "echo_delays": [[16.129, 0.5], [32.258, 1.0], [64.516, 0.3]],
}


def csv_writer_events(data) -> bytes:
    """events.csv as csv.writer writes it from a run's click arrays: the
    channels in name order, then a stable sort by (time, channel, cycle)."""
    keyed = []
    for i, ch in enumerate(sorted(data.channels)):
        rec = data.channels[ch]
        for t, c, b, o, u in zip(
            rec.times.tolist(),
            rec.cycles.tolist(),
            rec.bins.tolist(),
            rec.origins.tolist(),
            rec.outcomes.tolist(),
        ):
            row = [c, ch, t, b, o, u]
            keyed.append(((t, i, c), row))
    keyed.sort(key=lambda item: item[0])
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(EVENT_CSV_HEADER)
    writer.writerows(row for _, row in keyed)
    return buf.getvalue().encode()


class TestEngineDraws:
    def test_pair_counts_per_cycle_are_poisson(self):
        mu, n_cycles, first = 0.5, 200_000, 3_000_000
        cfg = make_config(seed=9, cycles=n_cycles, mu=mu, detectors=IDEAL_DETECTORS)
        classes, shard = harness._simulate_shard(
            harness._build_tables(cfg), 3, first, n_cycles
        )
        n_pairs = int(classes.sum())
        # Lossless chain: every pair leaves exactly one signal click.
        cycles = shard[events.SIGNAL_794]["cycles"]
        assert cycles.size == n_pairs
        assert cycles.min() >= first and cycles.max() < first + n_cycles
        per_cycle = np.bincount(cycles - first, minlength=n_cycles)
        pmf = [math.exp(-mu) * mu**k / math.factorial(k) for k in range(3)]
        for k, p in enumerate(pmf):
            assert within_5_sigma(int((per_cycle == k).sum()), n_cycles, p), k
        assert within_5_sigma(int((per_cycle >= 3).sum()), n_cycles, 1.0 - sum(pmf))

    def test_survivor_outcome_frequencies(self):
        # A detected photon draws its outcome conditioned on survival: the
        # outcome table without its lost entry, renormalised.
        # Memory outcome m of the early, zero-slot analyzer outcome has code
        # first_code + m.
        n = 400_000
        cfg = make_config(memories={"signal_794": THREE_ECHO_MEMORY})
        tables = harness._build_tables(cfg)
        mem, tab = cfg.memory_config(events.SIGNAL_794), tables.channels[events.SIGNAL_794]
        picks = tab.first_code + harness._draw_memory(tab.memory, n, np.random.default_rng(5))
        lab = tables.labels
        outcome, delay, origin = lab.outcome[picks], lab.delay_ps[picks], lab.origin[picks]
        probs = mem.outcome_table()
        alive = probs[:-1] / probs[:-1].sum()
        recalled = [events.recalled_token(k) for k in range(3)]
        counts = [int((outcome == u).sum()) for u in [events.OUTCOME_TRANSMITTED, *recalled]]
        assert sum(counts) == n
        for count, p in zip(counts, alive):
            assert within_5_sigma(count, n, p)
        pair = events.ORIGIN_PAIR
        for k, token in enumerate(recalled):
            echo = outcome == token
            assert np.all(delay[echo] == mem.echo_delay_ps(k))
            expected = pair if k == mem.primary_echo_index else events.ORIGIN_SPURIOUS_ECHO
            assert np.all(origin[echo] == expected)
        transmitted = outcome == events.OUTCOME_TRANSMITTED
        assert np.all(delay[transmitted] == 0)
        assert np.all(origin[transmitted] == pair)

    def test_channels_survive_independently(self):
        # The four class counts of one shard are independent Poisson counts
        # with means mu N q_s q_i, mu N q_s (1 - q_i), mu N (1 - q_s) q_i and
        # mu N (1 - q_s)(1 - q_i), where q = p_alive * detector efficiency.
        mu, n_cycles = 0.05, SHARD_CYCLES
        det = {"jitter_fwhm_ps": 0.0, "dark_rate_hz": 0.0}
        cfg = make_config(
            cycles=n_cycles,
            mu=mu,
            memories={
                "signal_794": {
                    "coupling_efficiency": 0.5,
                    "device_efficiency": 0.4,
                    "mean_od": 1.0,
                    "echo_delays": [[32.258, 1.0]],
                },
                "idler_1535": {
                    "coupling_efficiency": 0.3,
                    "device_efficiency": 0.6,
                    "mean_od": 2.0,
                    "echo_delays": [[6.024, 1.0]],
                },
            },
            detectors={
                "signal_794": {"efficiency": 0.8, **det},
                "idler_1535": {"efficiency": 0.6, **det},
            },
        )
        tables = harness._build_tables(cfg)
        q_s, q_i = (
            tables.channels[ch].memory.p_alive * cfg.detectors[ch].efficiency
            for ch in (events.SIGNAL_794, events.IDLER_1535)
        )
        assert tables.channels[events.SIGNAL_794].p_detect == q_s
        assert tables.channels[events.IDLER_1535].p_detect == q_i
        classes, shard = harness._simulate_shard(tables, 0, 0, n_cycles)
        probs = (q_s * q_i, q_s * (1 - q_i), (1 - q_s) * q_i, (1 - q_s) * (1 - q_i))
        for count, p in zip(classes.tolist(), probs):
            mean = mu * n_cycles * p
            assert abs(count - mean) <= 5.0 * math.sqrt(mean), (count, mean)
        n_both, n_sig, n_idl, _ = classes.tolist()
        sig = shard[events.SIGNAL_794]["cycles"]
        idl = shard[events.IDLER_1535]["cycles"]
        assert (sig.size, idl.size) == (n_both + n_sig, n_both + n_idl)
        # The two photons of a both-detected pair share their cycle.
        assert np.array_equal(sig[:n_both], idl[:n_both])

    def test_zero_size_outcome_draw_leaves_the_generator_alone(self):
        # A shard whose class count is 0 draws no outcomes; every seeded
        # output depends on that draw consuming nothing of the generator.
        cum = np.cumsum([0.25, 0.25, 0.5])
        rng, untouched = np.random.default_rng(8), np.random.default_rng(8)
        picks = harness._draw_outcomes(cum, 0, rng)
        assert picks.size == 0 and picks.dtype == np.intp
        assert rng.random() == untouched.random()

    def test_survival_edge_cases(self, monkeypatch):
        rng = np.random.default_rng(2)
        # No memory: every photon passes with no outcome and no draw.
        cfg = make_config(mu=0.2, detectors=IDEAL_DETECTORS)
        tables = harness._build_tables(cfg)

        def no_draw(*args):
            raise AssertionError("memory drawn for a channel with no memory")

        with monkeypatch.context() as patch:
            patch.setattr(harness, "_draw_memory", no_draw)
            _, shard = harness._simulate_shard(tables, 0, 0, 1_000)
        lab = tables.labels
        for ch, clicks in shard.items():
            assert clicks["times"].size > 0
            assert np.all(lab.outcome[clicks["codes"]] == events.OUTCOME_NONE)
            assert np.all(lab.origin[clicks["codes"]] == events.ORIGIN_PAIR)
            # Arrival = cycle start + analyzer slot, with no memory delay.
            offsets = clicks["times"] - clicks["cycles"] * cfg.source.rep_period_ps
            outs = analyzer_outcomes(cfg.analyzers[ch], cfg.source.bin_separation_ps)
            assert set(offsets.tolist()) <= {o.slot_offset_ps for o in outs}
        # No photons at all.
        cfg = make_config(memories={"signal_794": THREE_ECHO_MEMORY})
        middle = harness._build_tables(cfg).channels[events.SIGNAL_794].memory
        assert harness._draw_memory(middle, 0, rng).size == 0
        # q = 0: zero coupling loses every signal photon, so no pair is
        # detected on that side.
        dead = {
            "coupling_efficiency": 0.0,
            "device_efficiency": 0.5,
            "mean_od": 1.0,
            "echo_delays": [[32.258, 1.0]],
        }
        cfg = make_config(
            mu=0.2, memories={"signal_794": dead}, detectors=IDEAL_DETECTORS
        )
        tables = harness._build_tables(cfg)
        assert tables.channels[events.SIGNAL_794].p_detect == 0.0
        classes, shard = harness._simulate_shard(tables, 0, 0, 10_000)
        n_both, n_sig, n_idl, n_none = classes.tolist()
        assert n_both == n_sig == n_none == 0 and n_idl > 0
        assert shard[events.SIGNAL_794]["times"].size == 0
        assert shard[events.IDLER_1535]["times"].size == n_idl
        # q = 1: full coupling, no absorption and ideal detectors; every pair
        # is detected on both sides and every photon is transmitted.
        clear = dict(dead, coupling_efficiency=1.0, device_efficiency=0.0, mean_od=0.0)
        cfg = make_config(
            mu=0.2, memories={"signal_794": clear}, detectors=IDEAL_DETECTORS
        )
        tables = harness._build_tables(cfg)
        assert tables.channels[events.SIGNAL_794].p_detect == 1.0
        classes, shard = harness._simulate_shard(tables, 0, 0, 10_000)
        n_both, n_sig, n_idl, n_none = classes.tolist()
        assert n_both > 0 and n_sig == n_idl == n_none == 0
        outcomes = tables.labels.outcome[shard[events.SIGNAL_794]["codes"]]
        assert outcomes.size == n_both
        assert np.all(outcomes == events.OUTCOME_TRANSMITTED)

    def test_shard_holds_times_cycles_and_codes(self):
        # A click's code names its analyzer outcome a and memory outcome m,
        # analyzer-outcome major: it lands slot(a) + echo delay(m) after its
        # cycle's start.  A dark code carries no port, bin or outcome.
        det = {"efficiency": 0.8, "jitter_fwhm_ps": 0.0, "dark_rate_hz": 2e6}
        cfg = make_config(
            seed=3,
            cycles=20_000,
            mu=0.2,
            analyzers=CENTRAL_ANALYZERS,
            memories={"signal_794": THREE_ECHO_MEMORY},
            detectors={ch: det for ch in ("signal_794", "idler_1535")},
        )
        tables = harness._build_tables(cfg)
        lab, period = tables.labels, cfg.source.rep_period_ps
        _, shard = harness._simulate_shard(tables, 0, 0, cfg.run.cycles)
        for ch, clicks in shard.items():
            assert list(clicks) == ["times", "cycles", "codes"]
            tab, mem = tables.channels[ch], cfg.memory_config(ch)
            echoes = [0]
            if mem is not None:
                echoes += [mem.echo_delay_ps(k) for k in range(len(mem.echo_delays))]
            outs = analyzer_outcomes(cfg.analyzers[ch], cfg.source.bin_separation_ps)
            own = slice(tab.first_code, tab.dark_code + 1)
            assert tab.n_memory == len(echoes)
            assert tab.dark_code - tab.first_code == len(outs) * len(echoes)
            assert np.all(lab.channel[own] == sorted(events.CHANNELS).index(ch))
            delays = [o.slot_offset_ps + d for o in outs for d in echoes]
            assert lab.delay_ps[own][:-1].tolist() == delays
            assert lab.port[own][:-1].tolist() == [o.port for o in outs for _ in echoes]
            codes = clicks["codes"]
            assert codes.min() >= tab.first_code and codes.max() == tab.dark_code
            lit = codes != tab.dark_code
            assert np.count_nonzero(lit) > 0
            offsets = clicks["times"] - clicks["cycles"] * period
            assert np.array_equal(offsets[lit], lab.delay_ps[codes[lit]])
            assert np.all((offsets[~lit] >= 0) & (offsets[~lit] < period))
            dark = tab.dark_code
            decoded = (int(lab.port[dark]), lab.bin[dark], lab.origin[dark], lab.outcome[dark])
            assert decoded == (0, events.BIN_NONE, events.ORIGIN_DARK, events.OUTCOME_NONE)
        signal, idler = (tables.channels[ch] for ch in events.CHANNELS)
        assert idler.first_code == signal.dark_code + 1 and lab.channel.size == idler.dark_code + 1

    @pytest.mark.parametrize("name", ["demo", "realistic", "source_only", "three-echo"])
    def test_every_code_holds_events_csv_tokens(self, name):
        # The table holds the tokens events.csv is written with.  A lit
        # code's memory outcome runs NONE without a memory, else TRANSMITTED,
        # RECALLED_0, ... in outcome_table() order, once per analyzer outcome.
        if name == "three-echo":
            cfg = make_config(memories={"signal_794": THREE_ECHO_MEMORY})
        else:
            cfg = load_config(ROOT / "configs" / f"{name}.json")
        tables = harness._build_tables(cfg)
        lab = tables.labels
        for column, known in ((lab.bin, BINS), (lab.origin, ORIGINS)):
            assert all(type(token) is str and token in known for token in column)
        for ch, tab in tables.channels.items():
            mem = cfg.memory_config(ch)
            outcomes = [events.OUTCOME_NONE]
            if mem is not None:
                n_echoes = mem.outcome_table().size - 2  # less transmitted and lost
                outcomes = [events.OUTCOME_TRANSMITTED]
                outcomes += [events.recalled_token(k) for k in range(n_echoes)]
            lit = lab.outcome[tab.first_code : tab.dark_code].tolist()
            assert tab.n_memory == len(outcomes)
            assert lit == outcomes * (len(lit) // tab.n_memory)
            dark = tab.dark_code
            assert (lab.bin[dark], lab.origin[dark], lab.outcome[dark]) == (
                events.BIN_NONE, events.ORIGIN_DARK, events.OUTCOME_NONE
            )

    @pytest.mark.parametrize("pump_mode", ["BOTH_ARMS", "EARLY_ONLY"])
    @pytest.mark.parametrize("noise", [0.0, 0.4, 1.0])
    def test_joint_marginals_equal_single_tables(self, pump_mode, noise):
        # The colouring draws a lone photon from its arm's marginal of the
        # joint table, even when its partner survived the memory; that is
        # exact only because the marginal is the Born rule on the arm's
        # reduced state.  That state is traced out here, and the
        # depolarizing mix is applied to it, as I/2 on one qubit.
        amplitudes = {
            "BOTH_ARMS": np.array([1.0, 0.0, 0.0, np.exp(0.6j)]) / math.sqrt(2.0),
            "EARLY_ONLY": np.array([1.0, 0.0, 0.0, 0.0]),
        }[pump_mode]
        rho = np.outer(amplitudes, amplitudes.conj()).reshape(2, 2, 2, 2)
        reduced = {
            events.SIGNAL_794: np.einsum("ajbj->ab", rho),
            events.IDLER_1535: np.einsum("jajb->ab", rho),
        }
        analyzers = [{"mode": "time_of_arrival"}] + [
            {"mode": "interferometer", "phase": phase}
            for phase in (0.0, 0.7, -1.9, math.pi)
        ]
        for signal in analyzers:
            for idler in analyzers:
                cfg = make_config(
                    source={"pump_mode": pump_mode, "depolarizing_noise": noise,
                            "pump_phase": 0.3},
                    analyzers={"signal_794": signal, "idler_1535": idler},
                )
                tables = harness._build_tables(cfg)
                for ch, red in reduced.items():
                    state = (1.0 - noise) * red + noise * np.eye(2) / 2.0
                    setting = cfg.analyzers[ch]
                    outs = analyzer_outcomes(setting, cfg.source.bin_separation_ps)
                    born = [np.trace(o.effect @ state).real for o in outs]
                    single = np.diff(tables.channels[ch].single_cum, prepend=0.0)
                    assert np.allclose(single, born, rtol=0.0, atol=1e-12), ch

    def test_pair_classes_match_configured_detection(self, tmp_path):
        # configs/realistic.json at 1e7 cycles: each observed class fraction
        # lies within 5 sigma of its configured probability, and summary.json
        # reports the classes and the configured q per channel.
        cfg = load_config(ROOT / "configs" / "realistic.json")
        cfg = replace(cfg, run=replace(cfg.run, cycles=10_000_000))
        res = run_simulation(cfg, tmp_path)
        data = simulate(cfg)
        assert res.summary["pair_classes"] == data.pair_classes
        assert res.summary["detection_probability"] == {
            ch.lower(): q for ch, q in data.p_detect.items()
        }
        assert res.summary["detections"] == {
            ch.lower(): {
                "total": int(rec.times.size),
                "dark": rec.dark_count,
                "memory_outcomes": memory_outcome_counts(cfg, ch, rec),
                "z": funnel_z(rec, data.n_pairs, data.p_detect[ch]),
            }
            for ch, rec in data.channels.items()
        }
        q_s, q_i = (data.p_detect[ch] for ch in (events.SIGNAL_794, events.IDLER_1535))
        probs = {
            "both": q_s * q_i,
            "signal_only": q_s * (1 - q_i),
            "idler_only": (1 - q_s) * q_i,
            "neither": (1 - q_s) * (1 - q_i),
        }
        n = data.n_pairs
        assert set(data.pair_classes) == set(probs)
        for name, p in probs.items():
            assert within_5_sigma(data.pair_classes[name], n, p), name
        for ch, q in data.p_detect.items():
            clicks = data.channels[ch].times.size - data.channels[ch].dark_count
            assert within_5_sigma(clicks, n, q), ch

    def test_events_csv_matches_csv_writer(self, tmp_path):
        cfg = make_config(
            seed=17,
            cycles=100_000,
            mu=0.1,
            memories={
                "signal_794": {
                    "coupling_efficiency": 0.6,
                    "device_efficiency": 0.5,
                    "mean_od": 0.7,
                    "echo_delays": [[16.129, 0.5], [32.258, 1.0], [64.516, 0.3]],
                }
            },
            detectors={
                ch: {"efficiency": 0.7, "jitter_fwhm_ps": 250.0, "dark_rate_hz": 1e5}
                for ch in ("signal_794", "idler_1535")
            },
        )
        res = run_simulation(cfg, tmp_path)
        expected = csv_writer_events(simulate(cfg))
        assert res.events_path.read_bytes() == expected
        # Every label kind was rendered.
        text = expected.decode()
        for label in (events.ORIGIN_DARK, events.ORIGIN_SPURIOUS_ECHO,
                      events.recalled_token(2), events.OUTCOME_TRANSMITTED):
            assert f",{label}" in text

    def test_dark_times_uniform_over_span(self):
        # No pairs; darks over two shards, counted per tenth of the span.
        n_cycles = 2 * SHARD_CYCLES
        det = {"efficiency": 1.0, "jitter_fwhm_ps": 0.0, "dark_rate_hz": 1e6}
        cfg = make_config(
            seed=19, cycles=n_cycles, mu=0.0,
            detectors={"signal_794": det, "idler_1535": det},
        )
        span = n_cycles * cfg.source.rep_period_ps
        for rec in simulate(cfg).channels.values():
            n = rec.times.size
            assert n > 20_000
            deciles = np.bincount(rec.times * 10 // span, minlength=10)
            assert deciles.size == 10
            for count in deciles:
                assert within_5_sigma(int(count), n, 0.1)


def shipped_config(name, cycles, mu=None, dark_rate_hz=None):
    cfg = load_config(ROOT / "configs" / f"{name}.json")
    cfg = replace(cfg, run=replace(cfg.run, cycles=cycles))
    if mu is not None:
        cfg = replace(cfg, source=replace(cfg.source, mean_pairs_per_pulse=mu))
    if dark_rate_hz is not None:
        detectors = {
            ch: replace(det, dark_rate_hz=dark_rate_hz) for ch, det in cfg.detectors.items()
        }
        cfg = replace(cfg, detectors=detectors)
    return cfg


def pin_cpus(monkeypatch, n):
    """Give harness._fan_out an affinity mask of n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def shard_count(cfg):
    """How many pieces harness._shards yields for cfg's run."""
    return sum(1 for _ in harness._shards(harness._build_tables(cfg), cfg.run.cycles))


def sweep_window_counts(cfg, monkeypatch):
    """The window counts, by offset, that sweep --parameter mu takes g2
    from, at cfg's mu."""
    seen = []

    def keep(counts, *args, **kwargs):
        seen.append(counts)
        return SimpleNamespace(value=0.0, sigma=0.0)

    with monkeypatch.context() as patch:
        patch.setattr(harness, "g2_cross", keep)
        sweep(cfg, "mu", [cfg.source.mean_pairs_per_pulse])
    (counts,) = seen
    return counts


class TestStreamedHistogram:
    """The histogram streamed shard by shard equals one
    tdc_histogram_from_times pass over a run's concatenated clicks: counts
    bit for bit and the number of starts.  The mu sweep's g2 windows, counted
    shard by shard, equal direct closed-window counts over those clicks."""

    @staticmethod
    def assert_single_pass(hist, data):
        tdc = data.config.tdc
        single = tdc_histogram_from_times(
            data.channels[events.IDLER_1535].times,
            data.channels[events.SIGNAL_794].times,
            tdc.bin_width_ps,
            tdc.window_ps,
        )
        assert single.counts.sum() > 0
        assert np.array_equal(hist.counts, single.counts)
        assert hist.n_starts == single.n_starts

    @staticmethod
    def assert_windows_single_pass(counts, data):
        hw, period = data.config.tdc.peak_halfwidth_ps, data.config.source.rep_period_ps
        assert sorted(counts) == [n * period for n in range(-5, 6)]
        assert sum(counts.values()) > 0
        for offset, count in counts.items():
            assert count == direct_window_count(data, offset, hw), offset

    @pytest.mark.parametrize(
        "name, mu",
        [
            ("realistic", None),  # jitter, dark counts and echoes
            ("demo", None),  # comb memories
            ("source_only", 0.128),
        ],
    )
    def test_equals_single_pass(self, name, mu, monkeypatch):
        cfg = shipped_config(name, 2 * SHARD_CYCLES + 12_345, mu)
        data = simulate(cfg)
        assert shard_count(cfg) == 3
        self.assert_single_pass(run_histogram(cfg), data)
        self.assert_windows_single_pass(sweep_window_counts(cfg, monkeypatch), data)

    @pytest.mark.parametrize("block", [1, None], ids=["block-1", "block-default"])
    def test_window_spans_several_shards(self, block, monkeypatch):
        # Two-cycle shards are 25 ns long, so the +-70 ns window spans about
        # six of them; comb echoes, jitter and dark counts all cross shard
        # edges.  With blocks of one start, every start is walked alone.
        monkeypatch.setattr(harness, "SHARD_CYCLES", 2)
        cfg = shipped_config("demo", 1_501, mu=0.5, dark_rate_hz=5e6)
        data = simulate(cfg)
        assert shard_count(cfg) == 751
        assert min(rec.dark_count for rec in data.channels.values()) > 0
        if block is not None:
            monkeypatch.setattr(detection, "_BLOCK_STARTS", block)
        self.assert_single_pass(run_histogram(cfg), data)
        self.assert_windows_single_pass(sweep_window_counts(cfg, monkeypatch), data)

    def test_sweep_peak_memory_independent_of_cycles(self):
        # One sweep point keeps at most a shard and the carry, so
        # quadrupling the cycles leaves its peak allocation where it was.
        cfg = shipped_config("source_only", 1)
        peaks = []
        for cycles in (2_000_000, 8_000_000):
            tracemalloc.start()
            try:
                sweep(replace(cfg, run=replace(cfg.run, cycles=cycles)), "mu", [0.128])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0], peaks

    @staticmethod
    def sweep_peak_and_shard_bytes(n_shards):
        """The traced peak of one mu = 0.128 point of n_shards shards on
        source_only.json, and the bytes of its first shard's click arrays,
        all of them and its times alone."""
        cfg = shipped_config("source_only", SHARD_CYCLES)
        sub = replace(cfg, source=replace(cfg.source, mean_pairs_per_pulse=0.128))
        _, clicks = harness._simulate_shard(harness._build_tables(sub), 0, 0, SHARD_CYCLES)
        shard_bytes = sum(a.nbytes for rec in clicks.values() for a in rec.values())
        times_bytes = sum(rec["times"].nbytes for rec in clicks.values())
        del clicks
        tracemalloc.start()
        try:
            sweep(replace(cfg, run=replace(cfg.run, cycles=n_shards * SHARD_CYCLES)), "mu", [0.128])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, shard_bytes, times_bytes

    def test_sweep_peak_memory_is_about_one_shard(self):
        # One point holds one shard's click arrays and the histogram's
        # working set, never a second shard beside them.
        peak, shard_bytes, _ = self.sweep_peak_and_shard_bytes(1)
        assert peak < 2 * shard_bytes, (peak, shard_bytes)

    def test_sweep_holds_no_piece_while_the_next_shard_is_drawn(self):
        # A frame that kept the previous piece's starts or stops alive while
        # the next shard is drawn lifts the three-shard peak above the
        # one-shard peak by about half a shard's times (1.1 MB at this mu);
        # one shard alone cannot show it.
        one, _, times_bytes = self.sweep_peak_and_shard_bytes(1)
        three, _, _ = self.sweep_peak_and_shard_bytes(3)
        assert three < one + times_bytes / 4, (three, one, times_bytes)


# Both memories with a spurious echo on either side of the primary one, so
# echoes reach over several one-cycle shards; 1 ns jitter, whose 40-sigma
# lead spans more than one 12.5 ns cycle; and dark counts.
NOISY_RUN = dict(
    seed=23,
    cycles=1_200,
    mu=0.4,
    memories={
        ch: {
            "coupling_efficiency": 0.6,
            "device_efficiency": 0.5,
            "mean_od": 0.7,
            "echo_delays": [[16.129, 0.5], [32.258, 1.0], [64.516, 0.3]],
        }
        for ch in ("signal_794", "idler_1535")
    },
    detectors={
        ch: {"efficiency": 0.8, "jitter_fwhm_ps": 1_000.0, "dark_rate_hz": 2e6}
        for ch in ("signal_794", "idler_1535")
    },
)
# Lossless and several pairs per cycle: clicks of one channel tie in time.
TIED_RUN = dict(seed=29, cycles=1_200, mu=0.5, detectors=IDEAL_DETECTORS)


def memory_outcome_counts(cfg, channel, rec):
    """The memory outcomes of a channel's joined clicks that are not dark,
    counted per events.csv token: NONE without a memory, else TRANSMITTED
    and RECALLED_k for each echo k."""
    mem = cfg.memory_config(channel)
    outcomes = [events.OUTCOME_NONE]
    if mem is not None:
        recalled = [events.recalled_token(k) for k in range(len(mem.echo_delays))]
        outcomes = [events.OUTCOME_TRANSMITTED, *recalled]
    lit = rec.outcomes[rec.origins != events.ORIGIN_DARK]
    return {u: int(np.count_nonzero(lit == u)) for u in outcomes}


class TestStreamedRun:
    """run_simulation's one shard pass writes what whole-run click arrays
    give: events.csv in a stable (time, channel, cycle) order, the
    single-pass histogram and the summary of the run's tallies."""

    @pytest.mark.parametrize("shard_cycles", [1, 7, 1000])
    @pytest.mark.parametrize("run", [NOISY_RUN, TIED_RUN], ids=["noisy", "tied"])
    def test_files_equal_whole_run_arrays(self, run, shard_cycles, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "SHARD_CYCLES", shard_cycles)
        cfg = make_config(**run)
        res = run_simulation(cfg, tmp_path / "run")
        data = simulate(cfg)
        assert shard_count(cfg) == -(-cfg.run.cycles // shard_cycles)

        expected = csv_writer_events(data)
        assert res.events_path.read_bytes() == expected
        rows = [line.split(",") for line in expected.decode().splitlines()[1:]]
        if run is NOISY_RUN:
            for ch in events.CHANNELS:
                labels = {label for row in rows if row[1] == ch for label in row[3:]}
                assert {events.ORIGIN_DARK, events.ORIGIN_SPURIOUS_ECHO} <= labels, ch
        else:
            times = [(row[1], row[2]) for row in rows]
            assert len(set(times)) < len(times)

        tdc = cfg.tdc
        single = tdc_histogram_from_times(
            data.channels[events.IDLER_1535].times,
            data.channels[events.SIGNAL_794].times,
            tdc.bin_width_ps,
            tdc.window_ps,
        )
        assert single.counts.sum() > 0
        single.to_csv(tmp_path / "single.csv")
        assert res.histogram_path.read_bytes() == (tmp_path / "single.csv").read_bytes()
        tallies = {
            "pair_classes": data.pair_classes,
            "detection_probability": {ch.lower(): q for ch, q in data.p_detect.items()},
            "detections": {
                ch.lower(): {
                    "total": int(rec.times.size),
                    "dark": rec.dark_count,
                    "memory_outcomes": memory_outcome_counts(cfg, ch, rec),
                    "z": funnel_z(rec, data.n_pairs, data.p_detect[ch]),
                }
                for ch, rec in data.channels.items()
            },
        }
        # g2 from direct closed-window counts over the same clicks.
        delays = (0, recall_delay_ps(cfg))
        offsets, g2 = harness._g2_plan(cfg, delays)
        counts = np.array([direct_window_count(data, o, tdc.peak_halfwidth_ps) for o in offsets])
        g2s = [harness._g2_payload(g2, counts, delay) for delay in delays]
        summary = harness._build_summary(cfg, tallies, single, g2s)
        assert res.summary_path.read_text() == json.dumps(summary, indent=2) + "\n"

    @pytest.mark.parametrize("run", [NOISY_RUN, TIED_RUN], ids=["noisy", "tied"])
    def test_memory_outcome_counts_are_the_clicks_that_are_not_dark(self, run, tmp_path):
        cfg = make_config(**run)
        detections = run_simulation(cfg, tmp_path).summary["detections"]
        for ch, rec in simulate(cfg).channels.items():
            det = detections[ch.lower()]
            assert sum(det["memory_outcomes"].values()) == det["total"] - det["dark"] > 0
            assert det["memory_outcomes"] == memory_outcome_counts(cfg, ch, rec)

    def test_memory_outcome_counts_follow_the_configured_funnel(self, tmp_path):
        # Each memory outcome is detected from pairs x its configured
        # probability x the detector efficiency, within 5 sigma.
        cfg = shipped_config("realistic", 2_000_000)
        summary = run_simulation(cfg, tmp_path).summary
        pairs = summary["pairs_emitted"]
        for ch in events.CHANNELS:
            mem, efficiency = cfg.memory_config(ch), cfg.detectors[ch].efficiency
            labels = [events.OUTCOME_TRANSMITTED]
            labels += [events.recalled_token(k) for k in range(len(mem.echo_delays))]
            counts = summary["detections"][ch.lower()]["memory_outcomes"]
            assert list(counts) == labels
            for label, p in zip(labels, mem.outcome_table()[:-1]):
                assert within_5_sigma(counts[label], pairs, p * efficiency), (ch, label, counts)

    def test_detection_funnel_z_within_5_sigma(self, tmp_path):
        # summary.json's z puts each channel's clicks that are not dark
        # against pairs x q.  The seeds are fixed in advance; a signal arm
        # with a memory (q = 0.2) and a bare idler arm (q = 0.7), ~4e4 pairs a
        # seed, so a draw made with 1.05 q reads z ~ +15 on the idler.
        memories = {
            "signal_794": {
                "coupling_efficiency": 0.5,
                "device_efficiency": 0.4,
                "mean_od": 2.0,
                "echo_delays": [[50.0, 1.0], [100.0, 0.1]],
            }
        }
        for seed in range(1, 11):
            cfg = make_config(seed=seed, cycles=200_000, mu=0.2, memories=memories)
            summary = run_simulation(cfg, tmp_path / str(seed)).summary
            assert summary["pairs_emitted"] > 35_000
            for ch, det in summary["detections"].items():
                assert abs(det["z"]) < 5.0, (seed, ch, det["z"])

    def test_failed_pass_leaves_no_events_csv(self, tmp_path, monkeypatch):
        # One CPU, so every shard is drawn, once, in this process.
        pin_cpus(monkeypatch, 1)
        monkeypatch.setattr(harness, "SHARD_CYCLES", 7)
        shard, calls = harness._simulate_shard, []

        def third_call_fails(*args):
            calls.append(args)
            if len(calls) == 3:
                raise RuntimeError("shard 2 failed")
            return shard(*args)

        monkeypatch.setattr(harness, "_simulate_shard", third_call_fails)
        with pytest.raises(RuntimeError, match="shard 2 failed"):
            run_simulation(make_config(**NOISY_RUN), tmp_path)
        assert len(calls) == 3
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def traced_peaks(tmp_path):
        """The caller's traced peak of realistic.json runs at 2e6 and 2e7 cycles."""
        peaks = []
        for cycles in (2_000_000, 20_000_000):
            cfg = shipped_config("realistic", cycles)
            tracemalloc.start()
            try:
                run_simulation(cfg, tmp_path / str(cycles))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peaks

    def test_peak_memory_independent_of_cycles(self, tmp_path, monkeypatch):
        # One pass keeps a shard and the carried rows, so ten times the
        # cycles leaves the peak allocation where it was.  One CPU, so
        # tracemalloc sees the whole run.
        pin_cpus(monkeypatch, 1)
        peaks = self.traced_peaks(tmp_path)
        assert peaks[1] < 1.1 * peaks[0], peaks

    def test_caller_peak_memory_independent_of_cycles_on_two_cpus(self, tmp_path, monkeypatch):
        # The caller's block, its upper neighbour drawn again and the
        # child's sums: still one shard at a time, at either cycle count.
        pin_cpus(monkeypatch, 2)
        peaks = self.traced_peaks(tmp_path)
        assert peaks[1] < 1.1 * peaks[0], peaks


HEAD = ",".join(EVENT_CSV_HEADER) + "\n"


class TestEventsCsv:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty events file"),
            ("cycle,channel,time\n", "unexpected header"),
            (HEAD + "1,SIGNAL_794,12500,EARLY,PAIR\n", "line 2: expected 6 fields, got 5"),
            (HEAD + "1,SIGNAL_794,12.5,EARLY,PAIR,NONE\n", "line 2: non-integer"),
            (HEAD + "x,SIGNAL_794,12500,EARLY,PAIR,NONE\n", "line 2: non-integer"),
            (HEAD + "1,CLOCK,12500,EARLY,PAIR,NONE\n", "line 2: unknown channel 'CLOCK'"),
            (HEAD + "1,SIGNAL_794,12500,MIDDLE,PAIR,NONE\n", "line 2: unknown bin 'MIDDLE'"),
            (HEAD + "1,SIGNAL_794,12500,EARLY,STRAY,NONE\n", "line 2: unknown origin 'STRAY'"),
            (HEAD + "1,SIGNAL_794,12500,EARLY,PAIR,LOST\n", "line 2: unknown memory outcome"),
            (HEAD + "1,SIGNAL_794,12500,EARLY,PAIR,RECALLED_x\n", "unknown memory outcome"),
            (HEAD + "1,SIGNAL_794,12500,EARLY,PAIR,RECALLED_-1\n", "unknown memory outcome"),
        ],
        ids=["empty", "header", "field-count", "float-time", "word-cycle", "channel",
             "bin", "origin", "lost-outcome", "recall-word", "recall-negative"],
    )
    def test_reader_names_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "events.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            events_from_csv(path)
        assert str(info.value).startswith(f"{path}: ")
        assert message in str(info.value)

    def test_reader_returns_one_field_per_column(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(
            ",".join(EVENT_CSV_HEADER)
            + "\r\n2,SIGNAL_794,57123,LATE,SPURIOUS_ECHO,RECALLED_1\r\n"
            + "3,IDLER_1535,37600,NONE,DARK,NONE\r\n"
        )
        assert events_from_csv(path) == [
            (2, events.SIGNAL_794, 57_123, events.BIN_LATE,
             events.ORIGIN_SPURIOUS_ECHO, events.recalled_token(1)),
            (3, events.IDLER_1535, 37_600, events.BIN_NONE,
             events.ORIGIN_DARK, events.OUTCOME_NONE),
        ]


# ---------------------------------------------------------------------------
# CHSH from simulation


# Interferometers on both arms, so clicks land in the central slot; a
# quarter turn apart, so every port pair is about as likely.
CENTRAL_PHASES = (1.6, 0.0)
CENTRAL_ANALYZERS = {
    ch: {"mode": "interferometer", "phase": phase}
    for ch, phase in zip(("signal_794", "idler_1535"), CENTRAL_PHASES)
}


def staggered_run(seed, signal_ns, idler_ns):
    """NOISY_RUN's jitter and dark counts, with brighter memories whose
    primary echoes come at signal_ns and idler_ns, and spurious echoes at
    half and twice each."""
    return dict(
        NOISY_RUN,
        seed=seed,
        memories={
            ch: {
                "coupling_efficiency": 0.9,
                "device_efficiency": 0.5,
                "mean_od": 2.3,
                "echo_delays": [[d / 2, 0.5], [d, 1.0], [2 * d, 0.3]],
            }
            for ch, d in (("signal_794", signal_ns), ("idler_1535", idler_ns))
        },
    )


# Jitter-free, with spurious signal echoes one peak halfwidth (500 ps)
# before and after the primary one: stops land on both edges of the window.
EDGE_RUN = dict(
    seed=43,
    mu=0.3,
    memories={
        "signal_794": {
            "coupling_efficiency": 0.9,
            "device_efficiency": 0.5,
            "mean_od": 2.3,
            "echo_delays": [[31.758, 0.5], [32.258, 1.0], [32.758, 0.5]],
        },
        "idler_1535": {
            "coupling_efficiency": 0.9,
            "device_efficiency": 0.5,
            "mean_od": 2.3,
            "echo_delays": [[6.024, 1.0]],
        },
    },
    detectors=IDEAL_DETECTORS,
)

# Runs for the central-slot counter: the sign of their recall delay, and ids.
CENTRAL_RUNS = [
    (staggered_run(23, 32.258, 32.258), 0),
    (staggered_run(31, 16.129, 32.258), -1),
    (staggered_run(37, 32.258, 16.129), 1),
    (EDGE_RUN, 1),
]
CENTRAL_RUN_IDS = ["level", "late-idler", "late-signal", "window-edges"]

# Acceptance criterion 4's stored pairs: memory efficiencies ~100x the
# hardware values, ideal detectors.
STORED_RUN = dict(
    mu=0.016,
    memories={
        "signal_794": {
            "coupling_efficiency": 0.2,
            "device_efficiency": 0.5,
            "mean_od": 2.3,
            "echo_delays": [[32.258, 1.0]],
        },
        "idler_1535": {
            "coupling_efficiency": 0.4,
            "device_efficiency": 1.0,
            "mean_od": 2.3,
            "echo_delays": [[6.024, 1.0]],
        },
    },
    detectors=IDEAL_DETECTORS,
)


def central_codes(labels, channel):
    """A central-slot click code of the channel for each port, -1 then +1."""
    own = labels.channel == sorted(events.CHANNELS).index(channel)
    central = own & (labels.bin == events.BIN_SUPERPOSED)
    return np.array([np.flatnonzero(central & (labels.port == port))[0] for port in (-1, 1)])


def whole_run_central_counts(data):
    """Central-slot coincidences of a run's joined click arrays, as a list
    over (signal, idler) ports (+1, +1), (+1, -1), (-1, +1), (-1, -1): per
    port pair, every idler start against the signal stops within the peak
    halfwidth of the recall delay."""
    cfg = data.config
    hw = cfg.tdc.peak_halfwidth_ps
    delta = recall_delay_ps(cfg)
    sup = events.BIN_SUPERPOSED
    sig, idl = data.channels[events.SIGNAL_794], data.channels[events.IDLER_1535]
    counts = []
    for pa in (+1, -1):
        stops = np.sort(sig.times[(sig.bins == sup) & (sig.ports == pa)])
        for pb in (+1, -1):
            starts = idl.times[(idl.bins == sup) & (idl.ports == pb)]
            lo = np.searchsorted(stops, starts + (delta - hw), side="left")
            hi = np.searchsorted(stops, starts + (delta + hw), side="right")
            counts.append(int((hi - lo).sum()))
    return counts


def matcher_central_port_counts(starts, stops, delta, hw):
    """The searchsorted and cumsum matcher that counted the central slot
    before window_counts did, on keys time * 2 + (port == +1): the sorted
    stops cover the starts' windows [delta - hw, delta + hw]."""
    first, end = np.searchsorted(stops, ((starts >> 1) + [[delta - hw], [delta + hw + 1]]) * 2)
    plus_before = np.concatenate([[0], np.cumsum(stops & 1)])
    plus = plus_before[end] - plus_before[first]
    idler = (starts & 1).astype(bool)
    return [int(n[m].sum()) for n in (plus, end - first - plus) for m in (idler, ~idler)]


class TestChshSimulation:
    def test_ideal_pairs_violate_bell_bound(self):
        # Low pair rate: multi-pair cycles add uncorrelated coincidences that
        # dilute the correlators by roughly 1/(1 + mu).
        cfg = make_config(
            seed=61, cycles=400_000, mu=0.01, detectors=IDEAL_DETECTORS
        )
        result = chsh_simulation(cfg)
        est = result.estimate
        assert est.minus_slot == 2
        assert est.sigma < 0.06
        assert est.value > 2.0 + 3.0 * est.sigma
        assert abs(est.value - 2.0 * math.sqrt(2.0)) < 5.0 * est.sigma
        assert len(result.e_values) == 4
        for counts in result.counts:
            assert all(c > 0 for c in counts)

    def test_minus_slot_comes_from_the_state(self):
        # At pump phase 1.17 the state's candidates are |S| = 2.032 in slot 1
        # and 1.967 in slot 2.  The counts of seed 3 favour slot 2; a slot
        # chosen on them would select on the noise.
        cfg = make_config(seed=3, cycles=100_000, mu=0.05, source={"pump_phase": 1.17})
        result = chsh_simulation(cfg)
        assert result.estimate.minus_slot == 1
        assert chsh_s(result.e_values, result.sigmas).minus_slot == 2

    def test_seeds_reproduce_each_setting_pair(self):
        # The four derived sub-seeds, in CHSH_PAIRS order: a run of one
        # setting pair on its seed gives that pair's counts again.
        cfg = make_config(seed=5, cycles=30_000, mu=0.05)
        result = chsh_simulation(cfg)
        assert len(result.seeds) == len(CHSH_PAIRS) == len(set(result.seeds))
        for seed, (sa, sb), counts in zip(result.seeds, CHSH_PAIRS, result.counts):
            sub = replace(cfg, run=replace(cfg.run, seed=seed))
            rerun = harness._central_counts(sub, sa.analyzer_phase(), sb.analyzer_phase())
            assert tuple(rerun.tolist()) == counts
        assert sum(map(sum, result.counts)) > 0

    def test_depolarized_pairs_stay_classical(self):
        cfg = make_config(
            seed=62,
            cycles=200_000,
            mu=0.1,
            source={"mean_pairs_per_pulse": 0.1, "depolarizing_noise": 0.9},
            detectors=IDEAL_DETECTORS,
        )
        result = chsh_simulation(cfg)
        assert result.estimate.value < 2.0

    def test_central_counts_ignore_click_order(self, monkeypatch):
        # Clicks leave a shard in no time order; the streamed counter must
        # count the same coincidences on any order of a shard's arrays.
        monkeypatch.setattr(harness, "SHARD_CYCLES", 7_000)
        cfg = make_config(
            seed=64,
            cycles=50_000,
            mu=0.1,
            analyzers={
                "signal_794": {"mode": "interferometer", "phase": 0.4},
                "idler_1535": {"mode": "interferometer", "phase": 0.0},
            },
        )
        counts = harness._central_counts(cfg, 0.4, 0.0)
        assert counts.min() > 0
        shard, rng = harness._simulate_shard, np.random.default_rng(0)

        def shuffled(*args):
            classes, clicks = shard(*args)
            for ch, arrays in clicks.items():
                perm = rng.permutation(arrays["times"].size)
                clicks[ch] = {key: col[perm] for key, col in arrays.items()}
            return classes, clicks

        monkeypatch.setattr(harness, "_simulate_shard", shuffled)
        assert np.array_equal(harness._central_counts(cfg, 0.4, 0.0), counts)

    def test_central_counts_switch_both_analyzers_to_interferometers(self):
        # The central slot exists only with interferometers, so the counter
        # sets both arms itself: a time-of-arrival config counts as the
        # interferometer config at the same phases.
        arrival = make_config(seed=66, cycles=20_000, mu=0.1)
        assert {a.mode for a in arrival.analyzers.values()} == {"time_of_arrival"}
        interferometers = make_config(seed=66, cycles=20_000, mu=0.1, analyzers=CENTRAL_ANALYZERS)
        counts = harness._central_counts(interferometers, *CENTRAL_PHASES)
        assert counts.min() > 0
        assert np.array_equal(harness._central_counts(arrival, *CENTRAL_PHASES), counts)

    @pytest.mark.parametrize("run, sign", CENTRAL_RUNS, ids=CENTRAL_RUN_IDS)
    def test_streamed_counts_equal_whole_run(self, run, sign, monkeypatch):
        # Two-cycle shards are 25 ns long: the echoes, the 1 ns jitter and
        # the recall delay reach over several of them, forward or backward.
        monkeypatch.setattr(harness, "SHARD_CYCLES", 2)
        cfg = make_config(**dict(run, cycles=6_000, analyzers=CENTRAL_ANALYZERS))
        assert np.sign(recall_delay_ps(cfg)) == sign
        expected = whole_run_central_counts(simulate(cfg))
        assert min(expected) > 0
        assert harness._central_counts(cfg, *CENTRAL_PHASES).tolist() == expected

    @pytest.mark.parametrize("run, sign", CENTRAL_RUNS, ids=CENTRAL_RUN_IDS)
    def test_labelled_window_counts_equal_the_matcher(self, run, sign):
        # The whole run's keys, through the one labelled window count and
        # through the matcher it replaced, port pair by port pair.
        cfg = make_config(**dict(run, cycles=6_000, analyzers=CENTRAL_ANALYZERS))
        tables = harness._build_tables(cfg)
        _, clicks = harness._simulate_shard(tables, 0, 0, cfg.run.cycles)  # the whole run
        central = tables.labels.bin == events.BIN_SUPERPOSED
        starts, stops = (
            np.sort(harness._central_keys(tables.labels, central, clicks[ch]))
            for ch in (events.IDLER_1535, events.SIGNAL_794)
        )
        delta, hw = recall_delay_ps(cfg), cfg.tdc.peak_halfwidth_ps
        expected = matcher_central_port_counts(starts, stops, delta, hw)
        assert min(expected) > 0
        assert harness._central_port_counts(starts, stops, delta, hw).tolist() == expected
        shuffled = np.random.default_rng(sign + 2).permutation(stops)
        assert harness._central_port_counts(starts, shuffled, delta, hw).tolist() == expected

    @pytest.mark.parametrize("run, sign", CENTRAL_RUNS, ids=CENTRAL_RUN_IDS)
    def test_tight_floors_equal_whole_run(self, run, sign, monkeypatch):
        # Synthetic pieces whose floor is their next click, so each start is
        # counted in the last piece it can be; clicks tie in time.
        cfg = make_config(**dict(run, analyzers=CENTRAL_ANALYZERS))
        rng = np.random.default_rng(abs(recall_delay_ps(cfg)))
        lab = harness._build_tables(cfg).labels
        run_clicks = {
            ch: {
                "times": rng.integers(0, 200_000, 4_000),
                "codes": rng.choice(central_codes(lab, ch), 4_000),
            }
            for ch in events.CHANNELS
        }
        edges = [-1, *np.sort(rng.integers(0, 200_000, 40)).tolist(), 200_000]
        pieces = []
        for a, b in zip(edges, edges[1:]):
            later = [rec["times"][rec["times"] >= b] for rec in run_clicks.values()]
            floor = min(int(t.min(initial=200_000)) for t in later) if b < 200_000 else None
            piece = {
                ch: {key: col[(rec["times"] >= a) & (rec["times"] < b)] for key, col in rec.items()}
                for ch, rec in run_clicks.items()
            }
            pieces.append((None, piece, floor))
        monkeypatch.setattr(harness, "_shards", lambda tables, cycles: iter(pieces))
        channels = {
            ch: SimpleNamespace(
                times=rec["times"], ports=lab.port[rec["codes"]], bins=lab.bin[rec["codes"]]
            )
            for ch, rec in run_clicks.items()
        }
        expected = whole_run_central_counts(SimpleNamespace(config=cfg, channels=channels))
        assert min(expected) > 0
        assert harness._central_counts(cfg, *CENTRAL_PHASES).tolist() == expected

    @pytest.mark.parametrize("channel", events.CHANNELS)
    def test_click_below_an_earlier_floor_raises(self, channel, monkeypatch):
        # The stream counts a start once the floor has passed its window; a
        # later central-slot click below that floor would be missed, so the
        # stream refuses it, for a start (idler) or a stop (signal) alike.
        cfg = make_config(analyzers=CENTRAL_ANALYZERS)
        lab = harness._build_tables(cfg).labels

        def central(ch, times):
            plus = central_codes(lab, ch)[1]
            return {"times": np.array(times, dtype=np.int64), "codes": np.full(len(times), plus)}

        first = {ch: central(ch, [1_000, 2_000]) for ch in events.CHANNELS}
        late = {ch: central(ch, [9_000]) for ch in events.CHANNELS}
        late[channel] = central(channel, [9_000, 4_000])  # below the first piece's floor
        pieces = [(None, first, 5_000), (None, late, None)]
        monkeypatch.setattr(harness, "_shards", lambda tables, cycles: iter(pieces))
        with pytest.raises(ValueError, match="below the floor of an earlier piece"):
            harness._central_counts(cfg, *CENTRAL_PHASES)

    @pytest.mark.parametrize("program", ["chsh", "phase-sweep"])
    def test_peak_memory_independent_of_cycles(self, program, monkeypatch):
        # The counter keeps a shard's central-slot keys and the carried
        # window, so ten times the cycles leaves the peak where it was.
        # One CPU: tracemalloc sees this process alone, so the whole run
        # must happen in it.
        pin_cpus(monkeypatch, 1)
        peaks = []
        for cycles in (2_000_000, 20_000_000):
            cfg = make_config(cycles=cycles, **STORED_RUN)
            tracemalloc.start()
            try:
                if program == "chsh":
                    chsh_simulation(cfg)
                else:
                    sweep(cfg, "analyzer_phase", [0.0])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.1 * peaks[0], peaks

    def test_no_product_path_joins_a_whole_run(self, tmp_path, monkeypatch):
        def joined(cfg):
            raise AssertionError("simulate() joins a whole run's click arrays")

        monkeypatch.setattr(harness, "simulate", joined)
        cfg = make_config(seed=65, cycles=20_000, analyzers=CENTRAL_ANALYZERS, **STORED_RUN)
        chsh_simulation(cfg)
        sweep(cfg, "mu", [0.05])
        sweep(cfg, "analyzer_phase", [0.0, 1.0])
        run_simulation(cfg, tmp_path)

    def test_deterministic(self):
        cfg = make_config(seed=63, cycles=50_000, mu=0.1, detectors=IDEAL_DETECTORS)
        a = chsh_simulation(cfg)
        b = chsh_simulation(cfg)
        assert a.e_values == b.e_values
        assert a.sigmas == b.sigmas


# ---------------------------------------------------------------------------
# Shipped data files and analyze_paper_data


class TestChshFromCsv:
    def test_shipped_values(self):
        stages = chsh_from_csv(data_path(DATA_CHSH))
        assert set(stages) == {STAGE_INPUT, STAGE_OUTPUT}
        e_in, s_in = stages[STAGE_INPUT]
        assert e_in == (0.6059, 0.6439, -0.6156, 0.6540)
        assert s_in == (0.0134, 0.0127, 0.0131, 0.0148)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d,e\n")
        with pytest.raises(ValueError, match="header"):
            chsh_from_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            chsh_from_csv(path)

    def test_header_only_is_empty_input(self, tmp_path):
        path = tmp_path / "header_only.csv"
        path.write_text(",".join(CHSH_CSV_HEADER) + "\n")
        with pytest.raises(ValueError, match="no correlator rows"):
            chsh_from_csv(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(
            ",".join(CHSH_CSV_HEADER) + "\nin,X,XpY,0.6\n"
        )
        with pytest.raises(ValueError, match="line 2"):
            chsh_from_csv(path)

    def test_bad_correlation_value_names_line(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text(
            ",".join(CHSH_CSV_HEADER)
            + "\nin,X,XpY,0.6,0.01\nin,X,XmY,oops,0.01\n"
        )
        with pytest.raises(ValueError, match="line 3"):
            chsh_from_csv(path)

    def test_unknown_setting_pair_names_line(self, tmp_path):
        path = tmp_path / "pair.csv"
        path.write_text(",".join(CHSH_CSV_HEADER) + "\nin,Z,XpY,0.6,0.01\n")
        with pytest.raises(ValueError, match="line 2"):
            chsh_from_csv(path)

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            ",".join(CHSH_CSV_HEADER)
            + "\nin,X,XpY,0.6,0.01\nin,X,XpY,0.7,0.01\n"
        )
        with pytest.raises(ValueError, match="duplicate"):
            chsh_from_csv(path)

    def test_incomplete_stage_rejected(self, tmp_path):
        path = tmp_path / "missing.csv"
        path.write_text(",".join(CHSH_CSV_HEADER) + "\nin,X,XpY,0.6,0.01\n")
        with pytest.raises(ValueError, match="missing"):
            chsh_from_csv(path)

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_names_line(self, tmp_path, sigma):
        path = tmp_path / "sigma.csv"
        rows = [
            f"in,{a.token()},{b.token()},0.6,{sigma if i == 2 else 0.01}"
            for i, (a, b) in enumerate(CHSH_PAIRS)
        ]
        path.write_text("\n".join([",".join(CHSH_CSV_HEADER), *rows]) + "\n")
        with pytest.raises(ValueError, match=f"{path}: line 4: non-finite"):
            chsh_from_csv(path)


class TestAnalyzePaperData:
    def test_shipped_chsh_values_exact(self):
        report = analyze_paper_data(
            data_path(DATA_TOMOGRAPHY_IN),
            tomography_out=data_path(DATA_TOMOGRAPHY_OUT),
            chsh=data_path(DATA_CHSH),
            trials=0,
        )
        # Pure arithmetic on the shipped correlators; oracles frozen by hand.
        assert report.chsh["in"].value == pytest.approx(2.5194, abs=1e-9)
        assert report.chsh["in"].sigma == pytest.approx(0.02704625667259704, abs=1e-12)
        assert report.chsh["in"].minus_slot == 2
        assert report.chsh["out"].value == pytest.approx(2.5911, abs=1e-9)
        assert report.chsh["out"].sigma == pytest.approx(0.20210158336836453, abs=1e-12)

    def test_point_estimates_near_published(self):
        report = analyze_paper_data(
            data_path(DATA_TOMOGRAPHY_IN),
            tomography_out=data_path(DATA_TOMOGRAPHY_OUT),
            trials=0,
        )
        fid_in = report.metrics["input", "fidelity_phi_plus"]
        assert fid_in[0] == pytest.approx(0.9168, abs=0.03)
        assert report.metrics["input", "purity"][0] == pytest.approx(0.8457, abs=0.04)
        assert report.metrics["input", "entanglement_of_formation"][0] == pytest.approx(
            0.8110, abs=0.07
        )
        assert report.metrics["output", "fidelity_phi_plus"][0] == pytest.approx(
            0.8768, abs=0.07
        )
        assert report.metrics["link", "input_output_fidelity"][0] == pytest.approx(
            0.9377, abs=0.06
        )
        # trials=0 leaves uncertainties at zero
        assert fid_in[1] == 0.0
        percent = report.to_json_dict()["summary_percent"]
        assert percent["fidelity_phi_plus"]["value"] == pytest.approx(
            fid_in[0] * 100.0, rel=1e-12
        )

    def test_monte_carlo_sigmas(self):
        report = analyze_paper_data(
            data_path(DATA_TOMOGRAPHY_IN),
            tomography_out=data_path(DATA_TOMOGRAPHY_OUT),
            trials=100,
            seed=5,
        )
        for key in ("fidelity_phi_plus", "purity", "entanglement_of_formation"):
            assert report.metrics["input", key][1] > 0.0
        assert report.metrics["output", "fidelity_phi_plus"][1] > 0.0
        assert report.metrics["link", "input_output_fidelity"][1] > 0.0
        # Published uncertainties are a couple of percentage points; the MC
        # spread should be the same order, not wildly off.
        assert 0.001 < report.metrics["input", "fidelity_phi_plus"][1] < 0.05
        assert report.trials == 100

    def test_input_only_report(self):
        report = analyze_paper_data(data_path(DATA_TOMOGRAPHY_IN), trials=0)
        assert report.output_state is None
        assert report.chsh == {}
        assert list(report.metrics) == [
            ("input", "fidelity_phi_plus"),
            ("input", "purity"),
            ("input", "concurrence"),
            ("input", "entanglement_of_formation"),
        ]
        assert "summary_percent" not in report.to_json_dict()

    def test_json_payload_serializes(self):
        report = analyze_paper_data(
            data_path(DATA_TOMOGRAPHY_IN),
            tomography_out=data_path(DATA_TOMOGRAPHY_OUT),
            chsh=data_path(DATA_CHSH),
            trials=0,
        )
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert payload["chsh"]["in"]["value"] == pytest.approx(2.5194)
        assert "input" in payload["states"]
        assert payload["mc_failures"] == 0
        for stage in ("input", "output"):
            state = payload["states"][stage]
            assert state["n_converged"] == 1
            assert state["iterations"] >= 0
            assert state["chi2"] == 2.0 * state["residual"]
            assert state["dof"] == 17
            # Both shipped tables fit far inside their stated sigmas: chi2 / 2 is
            # 3.1e-4 and ~1e-28 where ~8.5 is expected for 17 dof.
            assert state["p_value"] > 0.999 and state["fits_inside_sigmas"] is True
        rows = report.rows()
        assert ("input", "fidelity_phi_plus") in [(r[0], r[1]) for r in rows]

    def test_phi_plus_slot_beside_the_data_slot(self, tmp_path):
        # The data's argmax of |S| takes slot 3 here; Phi+ fixes slot 2.
        chsh = tmp_path / "chsh.csv"
        settings = [(a.token(), b.token()) for a, b in CHSH_PAIRS]
        rows = [f"in,{a},{b},{e},0.01" for (a, b), e in zip(settings, (0.6, 0.6, 0.6, -0.6))]
        chsh.write_text("\n".join([",".join(CHSH_CSV_HEADER), *rows]) + "\n")
        report = analyze_paper_data(data_path(DATA_TOMOGRAPHY_IN), chsh=chsh, trials=0)
        entry = report.to_json_dict()["chsh"]["in"]
        assert entry["minus_slot"] == 3
        assert entry["phi_plus_slot"] == 2
        assert entry["value"] == pytest.approx(2.4, abs=1e-12)

    def test_shipped_stages_take_the_phi_plus_slot(self):
        report = analyze_paper_data(
            data_path(DATA_TOMOGRAPHY_IN), chsh=data_path(DATA_CHSH), trials=0
        )
        payload = report.to_json_dict()["chsh"]
        assert list(payload) == ["in", "out"]
        for entry in payload.values():
            assert entry["minus_slot"] == entry["phi_plus_slot"] == 2

    def test_rows_json_and_percent_share_one_layout(self, tmp_path):
        # The correlator table lists the out stage first.
        lines = data_path(DATA_CHSH).read_text().splitlines()
        chsh = tmp_path / "out_first.csv"
        chsh.write_text("\n".join([lines[0], *reversed(lines[1:])]) + "\n")
        report = analyze_paper_data(
            data_path(DATA_TOMOGRAPHY_IN),
            tomography_out=data_path(DATA_TOMOGRAPHY_OUT),
            chsh=chsh,
            trials=100,
        )
        payload = report.to_json_dict()
        assert list(report.chsh) == ["in", "out"]
        assert list(payload["chsh"]) == ["in", "out"]
        chsh_key = {"input": "in", "output": "out"}
        for stage, name, value, sigma in report.rows():
            if name == "chsh_s":
                entry = payload["chsh"][chsh_key[stage]]
            elif stage == "link":
                entry = payload[name]
            else:
                entry = payload["states"][stage]["metrics"][name]
            assert (entry["value"], entry["sigma"]) == (value, sigma)
        sources = {
            "entanglement_of_formation": ("input", "entanglement_of_formation"),
            "purity": ("input", "purity"),
            "fidelity_phi_plus": ("input", "fidelity_phi_plus"),
            "input_output_fidelity": ("link", "input_output_fidelity"),
        }
        percent = payload["summary_percent"]
        assert list(percent) == list(sources)
        for name, key in sources.items():
            value, sigma = report.metrics[key]
            assert percent[name] == {"value": 100.0 * value, "sigma": 100.0 * sigma}
            assert 0.0 <= percent[name]["value"] <= 100.0
            assert percent[name]["sigma"] >= 0.0

    def test_trials_validation(self):
        with pytest.raises(ValueError, match="trials"):
            analyze_paper_data(data_path(DATA_TOMOGRAPHY_IN), trials=50)

    def test_empty_tomography_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            analyze_paper_data(path, trials=0)


class TestWavelengthTable:
    def test_shipped_table(self):
        rows = wavelength_table_from_csv(data_path(DATA_WAVELENGTH))
        assert len(rows) == 4
        for row in rows:
            assert list(row) == list(WAVELENGTH_CSV_HEADER)
            assert row["link_efficiency"] == pytest.approx(
                row["efficiency_794"] * row["efficiency_1535"], abs=1e-6
            )
            assert 0.0 < row["efficiency_794"] < 1.0
            assert 0.0 < row["efficiency_1535"] < 1.0
        best = max(rows, key=lambda row: row["link_efficiency"])
        assert best["signal_nm"] == pytest.approx(794.68)
        assert best["link_efficiency"] == pytest.approx(1.0e-4)

    def test_product_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "signal_nm,idler_nm,efficiency_794,efficiency_1535,link_efficiency\n"
            "794.0,1535.0,0.01,0.01,0.05\n"
        )
        with pytest.raises(ValueError, match="line 2"):
            wavelength_table_from_csv(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d,e\n1,2,3,4,5\n")
        with pytest.raises(ValueError, match="header"):
            wavelength_table_from_csv(path)

    @pytest.mark.parametrize(
        "row",
        [
            "nan,1535.0,0.01,0.01,0.0001",
            "794.0,inf,0.01,0.01,0.0001",
            "794.0,1535.0,0.01,0.01,nan",
        ],
    )
    def test_non_finite_field_names_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(
            "signal_nm,idler_nm,efficiency_794,efficiency_1535,link_efficiency\n"
            "794.0,1535.0,0.01,0.01,0.0001\n" + row + "\n"
        )
        with pytest.raises(ValueError, match=f"{path}: line 3: non-finite"):
            wavelength_table_from_csv(path)


class TestShippedCombFile:
    def test_fit_recovers_generation_parameters(self):
        fit = fit_comb(comb_from_csv(SYNTHETIC_COMB))
        assert fit.delta_mhz == pytest.approx(31.0, abs=0.3)
        assert fit.finesse == pytest.approx(2.0, abs=0.05)
        assert fit.background_od == pytest.approx(0.3, abs=0.02)
        assert fit.tooth_od == pytest.approx(2.0, abs=0.05)
        assert fit.residual_rms < 0.1


# Each shipped table with its reader; a comb profile compares as its arrays.
SHIPPED_READERS = {
    DATA_TOMOGRAPHY_IN: tomography_from_csv,
    DATA_TOMOGRAPHY_OUT: tomography_from_csv,
    DATA_CHSH: chsh_from_csv,
    DATA_WAVELENGTH: wavelength_table_from_csv,
    "synthetic_comb.csv": lambda path: asdict(comb_from_csv(path)),
}


class TestByteOrderMark:
    @pytest.mark.parametrize("name", sorted(SHIPPED_READERS))
    def test_bom_copy_loads_equal_to_the_original(self, tmp_path, name):
        # Spreadsheets save "UTF-8 CSV" with EF BB BF in front of the header.
        read, original = SHIPPED_READERS[name], data_path(name)
        copy = tmp_path / name
        copy.write_bytes(codecs.BOM_UTF8 + original.read_bytes())
        np.testing.assert_equal(read(copy), read(original))


# ---------------------------------------------------------------------------
# Parameter sweeps


class TestSweep:
    def test_mu_sweep_g2_strictly_decreasing(self):
        # Single-bin pumping keeps every coincidence at exactly zero or a
        # whole repetition period, so 1 + 1/mu is the exact oracle.
        cfg = make_config(
            seed=71,
            cycles=1_000_000,
            source={"mean_pairs_per_pulse": 0.016, "pump_mode": "EARLY_ONLY"},
            detectors=IDEAL_DETECTORS,
        )
        result = sweep(cfg, "mu", [0.004, 0.008, 0.016])
        assert result.columns == ("mu", "g2_zero", "g2_sigma")
        values = [row[1] for row in result.rows]
        assert values[0] > values[1] > values[2]
        # Each point should be consistent with its own 1 + 1/mu oracle.
        for (mu, g2, sigma) in result.rows:
            assert abs(g2 - (1.0 + 1.0 / mu)) <= 4.0 * sigma

    def test_phase_sweep_visibility(self):
        cfg = make_config(
            seed=73,
            cycles=50_000,
            mu=0.1,
            detectors=IDEAL_DETECTORS,
            analyzers={
                "signal_794": {"mode": "interferometer", "phase": 0.0},
                "idler_1535": {"mode": "interferometer", "phase": 0.0},
            },
        )
        phases = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
        result = sweep(cfg, "analyzer_phase", list(phases))
        assert result.columns == ("phase_rad", "central_coincidences")
        # N(theta) = N0 (1 + V cos(theta - theta0)) is linear in
        # (N0, N0 V cos theta0, N0 V sin theta0).
        theta, counts = np.array(result.rows).T
        design = np.column_stack([np.ones_like(theta), np.cos(theta), np.sin(theta)])
        (n0, a, b), *_ = np.linalg.lstsq(design, counts, rcond=None)
        assert math.hypot(a, b) / n0 > 0.9
        assert math.cos(math.atan2(b, a)) > 0.95
        # The phase is identified: the fringe amplitude lies over 3 sigma
        # from 0, sigma from the residual variance.
        resid = counts - design @ [n0, a, b]
        cov = resid @ resid / (theta.size - 3) * np.linalg.inv(design.T @ design)
        grad = np.array([0.0, a, b]) / math.hypot(a, b)
        assert math.hypot(a, b) > 3.0 * math.sqrt(grad @ cov @ grad)

    def test_single_value_sweep_equals_direct_run(self):
        cfg = make_config(seed=74, cycles=100_000, mu=0.05, detectors=IDEAL_DETECTORS)
        result = sweep(cfg, "mu", [0.05])
        assert len(result.rows) == 1
        data = simulate(cfg)
        period, hw = cfg.source.rep_period_ps, cfg.tdc.peak_halfwidth_ps
        counts = {n * period: direct_window_count(data, n * period, hw) for n in range(-5, 6)}
        direct = g2_cross(counts, 0, period, hw, cfg.tdc.window_ps)
        assert result.rows[0][1] == direct.value
        assert result.rows[0][2] == direct.sigma

    @pytest.mark.parametrize(
        "parameter, values, message",
        [
            ("mu", [0.05, 0.1], "mu=0.05"),
        ],
    )
    def test_undefined_point_names_parameter_and_value(self, parameter, values, message):
        # Blind detectors: no clicks, so every reference window is empty.
        blind = {"efficiency": 0.0, "dark_rate_hz": 0.0}
        cfg = make_config(
            cycles=5_000, detectors={"signal_794": blind, "idler_1535": blind}
        )
        with pytest.raises(UndefinedEstimateError) as excinfo:
            sweep(cfg, parameter, values)
        assert str(excinfo.value) == f"{message}: all reference peaks are empty"

    def test_flat_background_gives_unity(self):
        # Dark counts alone on the realistic TDC: starts and stops uniform in
        # time, so every window of one width holds as many coincidences and
        # g2(0) is 1.  The peak and each reference span 1001 ps; the 80 ps
        # bins that overlap them would span 1120 ps against 1040 or 1120 ps
        # and read 6.1 % high, over 5 sigma at this size.
        cfg = shipped_config("realistic", 1_000_000, dark_rate_hz=4e7)
        ((_, g2, sigma),) = sweep(cfg, "mu", [0.0]).rows
        assert sigma < 0.061 / 5
        assert abs(g2 - 1.0) < 3.0 * sigma

    def test_undefined_point_after_a_defined_one_names_its_value(self):
        # mu=0 with dark-free detectors gives no clicks; mu=0.05 before it is fine.
        cfg = make_config(cycles=20_000, detectors=IDEAL_DETECTORS)
        assert len(sweep(cfg, "mu", [0.05]).rows) == 1
        with pytest.raises(UndefinedEstimateError) as excinfo:
            sweep(cfg, "mu", [0.05, 0.0])
        assert str(excinfo.value) == "mu=0: all reference peaks are empty"

    @pytest.mark.parametrize(
        "parameter, value, message",
        [
            ("mu", math.nan, "mu=nan: mean pair number must be finite"),
            ("mu", math.inf, "mu=inf: mean pair number must be finite"),
            ("analyzer_phase", math.inf, "analyzer_phase=inf: analyzer phase must be finite"),
            ("analyzer_phase", math.nan, "analyzer_phase=nan: analyzer phase must be finite"),
        ],
    )
    def test_non_finite_point_names_parameter_and_value(self, parameter, value, message):
        cfg = make_config(cycles=1_000)
        with pytest.raises(ValueError) as excinfo:
            sweep(cfg, parameter, [value])
        assert str(excinfo.value).startswith(message)

    def test_unknown_parameter(self):
        cfg = make_config()
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            sweep(cfg, "detuning", [1.0])

    def test_pump_power_is_not_a_parameter(self, capsys):
        # pump_power was mu times a factor; sweep mu instead.
        with pytest.raises(ValueError, match="unknown sweep parameter 'pump_power'"):
            sweep(make_config(), "pump_power", [1.0])
        argv = ["sweep", "--config", str(ROOT / "configs" / "source_only.json")]
        with pytest.raises(SystemExit) as excinfo:
            cli_main([*argv, "--parameter", "pump_power", "--values", "1"])
        assert excinfo.value.code == 2
        assert json.loads(capsys.readouterr().err)["type"] == "UsageError"

    def test_invalid_value_rejected(self):
        cfg = make_config()
        with pytest.raises((ValueError, ConfigError)):
            sweep(cfg, "mu", [-0.1])

    def test_csv_round_trip(self, tmp_path):
        cfg = make_config(seed=75, cycles=20_000, mu=0.05, detectors=IDEAL_DETECTORS)
        result = sweep(cfg, "mu", [0.02, 0.05])
        path = tmp_path / "sweep.csv"
        result.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == result.columns
        assert len(rows) == 1 + len(result.rows)
        for parsed, row in zip(rows[1:], result.rows):
            assert tuple(float(v) for v in parsed) == pytest.approx(row)


class NeedsTwoArguments(Exception):
    """Pickles, but unpickling calls it with one argument and fails."""

    def __init__(self, a, b):
        super().__init__(f"{a} {b}")


@pytest.fixture
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.usefixtures("no_child_left")
class TestFanOut:
    """sweep and chsh_simulation run their items on every CPU of the
    affinity mask, the heaviest in the caller, and give what the serial loop
    gives: the same results, or the same lowest-index error."""

    @staticmethod
    def on_one_and_two_cpus(monkeypatch, run):
        results = []
        for n in (1, 2):
            pin_cpus(monkeypatch, n)
            results.append(run())
        return results

    def test_mu_sweep_equals_serial(self, monkeypatch):
        cfg = make_config(seed=76, cycles=40_000, detectors=IDEAL_DETECTORS)
        mus = [0.03, 0.2, 0.05, 0.1, 0.07]
        serial, fanned = self.on_one_and_two_cpus(monkeypatch, lambda: sweep(cfg, "mu", mus))
        assert [row[0] for row in serial.rows] == mus
        assert fanned == serial

    def test_phase_sweep_equals_serial(self, monkeypatch):
        cfg = make_config(seed=77, cycles=20_000, analyzers=CENTRAL_ANALYZERS, **STORED_RUN)
        run = partial(sweep, cfg, "analyzer_phase", [0.0, 1.6, 3.2])
        serial, fanned = self.on_one_and_two_cpus(monkeypatch, run)
        assert fanned == serial

    def test_chsh_equals_serial(self, monkeypatch):
        cfg = make_config(seed=78, cycles=20_000, **STORED_RUN)
        serial, fanned = self.on_one_and_two_cpus(monkeypatch, partial(chsh_simulation, cfg))
        assert repr(fanned) == repr(serial)

    @pytest.mark.skipif(
        len(getattr(os, "sched_getaffinity", lambda pid: {0})(0)) < 2,
        reason="a one-CPU mask: nothing is forked",
    )
    def test_items_run_in_several_processes(self):
        pids = harness._fan_out(lambda _: os.getpid(), range(4), [1] * 4)
        assert len(set(pids)) >= 2
        assert pids[0] == os.getpid()

    def test_caller_runs_the_heaviest_item(self, monkeypatch):
        pin_cpus(monkeypatch, 2)
        pids = harness._fan_out(lambda _: os.getpid(), range(3), [1, 5, 2])
        assert pids[1] == os.getpid() != pids[2]

    def test_caller_runs_shards(self, monkeypatch):
        # bench/launch.py ends set-up at the launched process's first shard,
        # so a run whose shards all ran in children would never end it.
        pin_cpus(monkeypatch, 2)
        shard, pids = harness._simulate_shard, []

        def record(*args):
            pids.append(os.getpid())
            return shard(*args)

        monkeypatch.setattr(harness, "_simulate_shard", record)
        cfg = make_config(seed=79, cycles=20_000, **STORED_RUN)
        for run in (partial(sweep, cfg, "mu", [0.02, 0.05, 0.03]), partial(chsh_simulation, cfg)):
            pids.clear()
            run()
            assert pids and set(pids) == {os.getpid()}

    @pytest.mark.parametrize(
        "mus, exc_type, message",
        [
            ([0.05, 0.0], UndefinedEstimateError, "mu=0: all reference peaks are empty"),
            ([0.0, 0.05, 0.02], UndefinedEstimateError, "mu=0: all reference peaks are empty"),
            # The caller's mu = inf fails, but the child's lower index wins.
            ([0.0, 0.05, math.inf], UndefinedEstimateError, "mu=0: all reference peaks are empty"),
            ([math.inf, 0.0], ValueError, "mu=inf: mean pair number must be finite"),
            ([0.0, 0.0], UndefinedEstimateError, "mu=0: all reference peaks are empty"),
        ],
    )
    def test_lowest_index_failure_is_raised(self, monkeypatch, mus, exc_type, message):
        cfg = make_config(cycles=20_000, detectors=IDEAL_DETECTORS)
        errors = []
        for n in (1, 2):
            pin_cpus(monkeypatch, n)
            with pytest.raises(exc_type) as excinfo:
                sweep(cfg, "mu", mus)
            errors.append(str(excinfo.value))
        assert errors[1] == errors[0]
        assert errors[0].startswith(message)

    @pytest.mark.parametrize("kind", ["local-class", "unpickles-badly"])
    def test_unpicklable_child_exception_names_its_type(self, monkeypatch, kind):
        class LocalError(Exception):
            """A local class: pickle cannot find it by name."""

        def fail(x):
            if x == 1:
                raise LocalError("boom") if kind == "local-class" else NeedsTwoArguments("a", "b")
            return x

        pin_cpus(monkeypatch, 2)
        name = "LocalError: boom" if kind == "local-class" else "NeedsTwoArguments: a b"
        with pytest.raises(RuntimeError, match=name):
            harness._fan_out(fail, [0, 1], [1, 0])

    def test_child_that_dies_is_an_error(self, monkeypatch):
        pin_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="ended early"):
            harness._fan_out(lambda x: x or os._exit(3), [1, 0], [1, 0])

    @pytest.mark.parametrize("exc_type", [ValueError, KeyboardInterrupt])
    def test_caller_failure_kills_children(self, monkeypatch, exc_type):
        # The child's item sleeps for a minute; it has a higher index than the
        # caller's failure, so it is killed, not waited for.
        caller = os.getpid()

        def run(x):
            if os.getpid() == caller:
                raise exc_type("caller")
            time.sleep(60)

        pin_cpus(monkeypatch, 2)
        start = time.monotonic()
        with pytest.raises(exc_type):
            harness._fan_out(run, [0, 1], [1, 0])
        assert time.monotonic() - start < 10


@pytest.mark.usefixtures("no_child_left")
class TestSimulationBlocks:
    """run_simulation runs one contiguous block of shards per CPU, the first
    in the caller, and writes what one CPU writes byte for byte, or raises
    what one CPU raises and leaves no file."""

    @pytest.mark.parametrize(
        "shard_cycles, build",
        [
            # Three uneven shards: two blocks, or three of one shard each.
            (SHARD_CYCLES, lambda: shipped_config("realistic", 2 * SHARD_CYCLES + 12_345)),
            # Two shards: three CPUs run two blocks.
            (SHARD_CYCLES, lambda: shipped_config("realistic", SHARD_CYCLES + 1)),
            # Echoes, jitter and dark counts reach over several shards.
            (1, lambda: make_config(**NOISY_RUN)),
            (2, lambda: make_config(**NOISY_RUN)),
            (7, lambda: make_config(**NOISY_RUN)),
        ],
        ids=["realistic-3-shards", "realistic-2-shards", "noisy-1", "noisy-2", "noisy-7"],
    )
    def test_files_equal_one_cpu(self, shard_cycles, build, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "SHARD_CYCLES", shard_cycles)
        cfg, files = build(), []
        for n in (1, 2, 3):
            pin_cpus(monkeypatch, n)
            run_simulation(cfg, tmp_path / str(n))
            files.append({p.name: p.read_bytes() for p in (tmp_path / str(n)).iterdir()})
        assert sorted(files[0]) == ["config.json", "events.csv", "histogram.csv", "summary.json"]
        assert files[1] == files[0]
        assert files[2] == files[0]

    def test_caller_runs_the_first_block(self, tmp_path, monkeypatch):
        # bench/launch.py ends set-up at the launched process's first shard.
        monkeypatch.setattr(harness, "SHARD_CYCLES", 7)
        cfg = make_config(**NOISY_RUN)
        n_shards = shard_count(cfg)
        shard, seen = harness._simulate_shard, []

        def record(t, shard_index, *args):
            seen.append((os.getpid(), shard_index))
            return shard(t, shard_index, *args)

        pin_cpus(monkeypatch, 2)
        monkeypatch.setattr(harness, "_simulate_shard", record)
        run_simulation(cfg, tmp_path)
        pids, indices = zip(*seen)
        assert set(pids) == {os.getpid()}
        assert indices == tuple(range(len(indices)))  # its block, then its upper neighbours
        assert len(indices) < n_shards

    @pytest.mark.parametrize("where", ["caller", "child", "both"])
    def test_failed_block_raises_the_serial_error_and_leaves_no_file(
        self, where, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(harness, "SHARD_CYCLES", 7)
        cfg = make_config(**NOISY_RUN)
        last = shard_count(cfg) - 1
        bad = {"caller": {2}, "child": {last - 1}, "both": {2, last - 1}}[where]
        shard = harness._simulate_shard

        def fails(t, shard_index, *args):
            if shard_index in bad:
                raise RuntimeError(f"shard {shard_index} failed")
            return shard(t, shard_index, *args)

        monkeypatch.setattr(harness, "_simulate_shard", fails)
        for n in (1, 2):
            pin_cpus(monkeypatch, n)
            with pytest.raises(RuntimeError, match=f"^shard {min(bad)} failed$"):
                run_simulation(cfg, tmp_path)
            assert list(tmp_path.iterdir()) == []
