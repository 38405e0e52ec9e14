"""End-to-end pipeline tests: simulation runs, file outputs, data analysis,
sweeps and the shipped data files.

Stochastic assertions use explicit statistical tolerances (so they hold for
any seed); exact assertions pin determinism and pure arithmetic.
"""

import csv
import io
import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import IDEAL_DETECTORS, make_config

import afclink
from afclink import events, harness
from afclink.cli import main as cli_main
from afclink.config import load_config
from afclink.detection import (
    analyzer_outcomes,
    coincidence_rate,
    histogram_from_csv,
    tdc_histogram_from_times,
)
from afclink.errors import ConfigError, UndefinedEstimateError
from afclink.estimation import CHSH_PAIRS, g2_cross, visibility_fit
from afclink.harness import (
    CHSH_CSV_HEADER,
    DATA_CHSH,
    DATA_SYNTHETIC_COMB,
    DATA_TOMOGRAPHY_IN,
    DATA_TOMOGRAPHY_OUT,
    DATA_WAVELENGTH,
    EVENT_CSV_HEADER,
    SHARD_CYCLES,
    STAGE_INPUT,
    STAGE_OUTPUT,
    analyze_paper_data,
    chsh_from_csv,
    chsh_simulation,
    data_path,
    events_from_csv,
    recall_delay_ps,
    run_simulation,
    simulate,
    sweep,
    wavelength_table_from_csv,
)
from afclink.memory import MemoryConfig, comb_from_csv, fit_comb

ROOT = Path(__file__).resolve().parents[1]


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
        assert res.histogram.n_starts == n_pairs
        assert len(events_from_csv(res.events_path)) == 2 * n_pairs
        # Both photons of a pair share bin and cycle, so every pair lands at
        # zero delay regardless of the early/late outcome.
        assert coincidence_rate(res.histogram, 0, 500) >= n_pairs

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
        # The summary g2 must match a recomputation from the emitted file.
        hist = histogram_from_csv(res.histogram_path)
        again = g2_cross(
            hist,
            0,
            rep_period_ps=cfg.source.rep_period_ps,
            peak_halfwidth_ps=cfg.tdc.peak_halfwidth_ps,
        )
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
        recalled = coincidence_rate(res.histogram, 32_258, 500)
        direct = coincidence_rate(res.histogram, 0, 500)
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
        # A direct count on the same histogram: the references inside
        # +-70 ns are n = -5 .. -1 and 1 .. 3 periods away.
        peak = coincidence_rate(res.histogram, 26_249, 500)
        refs = [
            coincidence_rate(res.histogram, 26_249 + n * 12_500, 500)
            for n in (-5, -4, -3, -2, -1, 1, 2, 3)
        ]
        assert recall["g2"]["peak_counts"] == peak > 0
        assert recall["g2"]["reference_counts"] == sum(refs) > 0
        assert recall["g2"]["value"] == pytest.approx(peak / (sum(refs) / 8), rel=1e-12)
        assert recall["g2"]["value"] > 10.0
        assert res.summary["provenance"] == {
            "afclink": afclink.__version__,
            "numpy": np.__version__,
        }
        assert json.loads(res.summary_path.read_text()) == res.summary

    def test_out_dir_created(self, tmp_path):
        cfg = make_config(seed=1, cycles=1_000, mu=0.05)
        target = tmp_path / "deep" / "nested" / "dir"
        res = run_simulation(cfg, target)
        assert res.summary_path.exists()


def within_5_sigma(count, n, p):
    """count successes of n trials agree with probability p within 5 sigma."""
    return abs(count / n - p) <= 5.0 * math.sqrt(p * (1.0 - p) / n)


# Three echoes, the middle one primary, so both spurious-echo outcomes occur.
THREE_ECHO_MEMORY = MemoryConfig(
    coupling_efficiency=0.6,
    device_efficiency=0.5,
    mean_od=0.7,
    echo_delays=((16.129, 0.5), (32.258, 1.0), (64.516, 0.3)),
)


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
        n = 400_000
        mem = THREE_ECHO_MEMORY
        table = harness._memory_table(mem)
        picks = harness._draw_memory(table, n, np.random.default_rng(5))
        code, delay, origin = table.codes[picks], table.delay_ps[picks], table.origins[picks]
        probs = mem.outcome_table()
        alive = probs[:-1] / probs[:-1].sum()
        codes = [harness._OUTCOME_TRANSMITTED] + [
            harness._OUTCOME_RECALL_BASE + k for k in range(3)
        ]
        counts = [int((code == c).sum()) for c in codes]
        assert sum(counts) == n
        for count, p in zip(counts, alive):
            assert within_5_sigma(count, n, p)
        spurious = harness._ORIGIN_CODE[events.ORIGIN_SPURIOUS_ECHO]
        pair = harness._ORIGIN_CODE[events.ORIGIN_PAIR]
        for k in range(3):
            echo = code == harness._OUTCOME_RECALL_BASE + k
            assert np.all(delay[echo] == mem.echo_delay_ps(k))
            expected = pair if k == mem.primary_echo_index else spurious
            assert np.all(origin[echo] == expected)
        transmitted = code == harness._OUTCOME_TRANSMITTED
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
        for ch, clicks in shard.items():
            assert clicks["times"].size > 0
            assert np.all(clicks["outcomes"] == harness._OUTCOME_NONE)
            pair = harness._ORIGIN_CODE[events.ORIGIN_PAIR]
            assert np.all(clicks["origins"] == pair)
            # Arrival = cycle start + analyzer slot, with no memory delay.
            offsets = clicks["times"] - clicks["cycles"] * cfg.source.rep_period_ps
            assert set(offsets.tolist()) <= set(tables.channels[ch].slots.tolist())
        # No photons at all.
        middle = harness._memory_table(THREE_ECHO_MEMORY)
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
        outcomes = shard[events.SIGNAL_794]["outcomes"]
        assert outcomes.size == n_both
        assert np.all(outcomes == harness._OUTCOME_TRANSMITTED)

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
        data = res.data
        assert res.summary["pair_classes"] == data.pair_classes
        assert res.summary["detection_probability"] == {
            ch.lower(): q for ch, q in data.p_detect.items()
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
        data = simulate(cfg)
        path = tmp_path / "events.csv"
        harness._write_events_csv(data, path)

        outcome_labels = [events.OUTCOME_NONE, events.OUTCOME_TRANSMITTED] + [
            events.recalled_token(k) for k in range(3)
        ]
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
                row = [c, ch, t, events.BINS[b], events.ORIGINS[o], outcome_labels[u]]
                keyed.append(((t, i, c), row))
        keyed.sort(key=lambda item: item[0])
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(EVENT_CSV_HEADER)
        writer.writerows(row for _, row in keyed)
        assert path.read_bytes() == buf.getvalue().encode()
        # Every label kind was rendered.
        text = buf.getvalue()
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


def sweep_histogram(cfg, monkeypatch):
    """The histogram that sweep --parameter mu takes g2 from, at cfg's mu."""
    seen = []

    def keep(hist, *args, **kwargs):
        seen.append(hist)
        return SimpleNamespace(value=0.0, sigma=0.0)

    with monkeypatch.context() as patch:
        patch.setattr(harness, "g2_cross", keep)
        sweep(cfg, "mu", [cfg.source.mean_pairs_per_pulse])
    (hist,) = seen
    return hist


class TestStreamedHistogram:
    """The histogram streamed shard by shard equals one
    tdc_histogram_from_times pass over a run's concatenated clicks: counts
    bit for bit and the number of starts."""

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
        assert len(data.shards) == 3
        self.assert_single_pass(data.histogram(), data)
        self.assert_single_pass(sweep_histogram(cfg, monkeypatch), data)

    def test_window_spans_several_shards(self, monkeypatch):
        # Two-cycle shards are 25 ns long, so the +-70 ns window spans about
        # six of them; comb echoes, jitter and dark counts all cross shard
        # edges.
        monkeypatch.setattr(harness, "SHARD_CYCLES", 2)
        cfg = shipped_config("demo", 1_501, mu=0.5, dark_rate_hz=5e6)
        data = simulate(cfg)
        assert len(data.shards) == 751
        assert min(rec.dark_count for rec in data.channels.values()) > 0
        self.assert_single_pass(data.histogram(), data)
        self.assert_single_pass(sweep_histogram(cfg, monkeypatch), data)

    def test_sweep_peak_memory_independent_of_cycles(self):
        # One sweep point keeps at most a shard and the carry, so
        # quadrupling the cycles leaves its peak allocation where it was.
        cfg = shipped_config("source_only", 1)
        peaks = []
        for cycles in (2_000_000, 8_000_000):
            tracemalloc.start()
            try:
                sweep(cfg, "mu", [0.128], cycles_per_point=cycles)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0], peaks


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

    def test_central_counts_ignore_click_order(self):
        # Clicks leave a shard in no time order; the central-slot matcher
        # must count the same coincidences on any order of the arrays.
        cfg = make_config(
            seed=64,
            cycles=50_000,
            mu=0.1,
            analyzers={
                "signal_794": {"mode": "interferometer", "phase": 0.4},
                "idler_1535": {"mode": "interferometer", "phase": 0.0},
            },
        )
        data = simulate(cfg)
        rng = np.random.default_rng(0)
        shuffled = {}
        for ch, rec in data.channels.items():
            perm = rng.permutation(rec.times.size)
            arrays = {
                key: getattr(rec, key)[perm]
                for key in ("times", "cycles", "ports", "bins", "origins", "outcomes")
            }
            shuffled[ch] = harness.ChannelRecord(channel=ch, **arrays)
        counts = harness._central_port_counts(data)
        assert all(c > 0 for c in counts.values())
        assert harness._central_port_counts(replace(data, channels=shuffled)) == counts

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
            assert payload["states"][stage]["n_converged"] == 1
            assert payload["states"][stage]["iterations"] >= 0
        rows = report.rows()
        assert ("input", "fidelity_phi_plus") in [(r[0], r[1]) for r in rows]

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
        table = wavelength_table_from_csv(data_path(DATA_WAVELENGTH))
        assert len(table.rows) == 4
        for row in table.rows:
            assert row.link_efficiency == pytest.approx(
                row.efficiency_794 * row.efficiency_1535, abs=1e-6
            )
            assert 0.0 < row.efficiency_794 < 1.0
            assert 0.0 < row.efficiency_1535 < 1.0
        best = table.best()
        assert best.signal_nm == pytest.approx(794.68)
        assert best.link_efficiency == pytest.approx(1.0e-4)

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
        fit = fit_comb(comb_from_csv(data_path(DATA_SYNTHETIC_COMB)))
        assert fit.delta_mhz == pytest.approx(31.0, abs=0.3)
        assert fit.finesse == pytest.approx(2.0, abs=0.05)
        assert fit.background_od == pytest.approx(0.3, abs=0.02)
        assert fit.tooth_od == pytest.approx(2.0, abs=0.05)
        assert fit.residual_rms < 0.1


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
        fit = visibility_fit([(row[0], row[1]) for row in result.rows])
        assert fit.visibility > 0.9
        assert fit.phase_identifiable
        assert math.cos(fit.phase_offset) > 0.95

    def test_single_value_sweep_equals_direct_run(self):
        cfg = make_config(seed=74, cycles=100_000, mu=0.05, detectors=IDEAL_DETECTORS)
        result = sweep(cfg, "mu", [0.05])
        assert len(result.rows) == 1
        direct = g2_cross(
            simulate(cfg).histogram(),
            0,
            rep_period_ps=cfg.source.rep_period_ps,
            peak_halfwidth_ps=cfg.tdc.peak_halfwidth_ps,
        )
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
