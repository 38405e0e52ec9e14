"""End-to-end pipeline tests: simulation runs, file outputs, data analysis,
sweeps and the shipped data files.

Stochastic assertions use explicit statistical tolerances (so they hold for
any seed); exact assertions pin determinism and pure arithmetic.
"""

import csv
import json
import math

import numpy as np
import pytest

from afclink import events
from afclink.config import config_from_dict
from afclink.detection import (
    coincidence_rate,
    events_from_csv,
    histogram_from_csv,
)
from afclink.errors import ConfigError
from afclink.estimation import g2_cross, visibility_fit
from afclink.harness import (
    CHSH_CSV_HEADER,
    DATA_CHSH,
    DATA_SYNTHETIC_COMB,
    DATA_TOMOGRAPHY_IN,
    DATA_TOMOGRAPHY_OUT,
    DATA_WAVELENGTH,
    SHARD_CYCLES,
    STAGE_INPUT,
    STAGE_OUTPUT,
    analyze_paper_data,
    chsh_from_csv,
    chsh_simulation,
    data_path,
    run_simulation,
    simulate,
    sweep,
    wavelength_table_from_csv,
)
from afclink.memory import comb_from_csv, fit_comb


def make_config(seed=7, cycles=50_000, mu=0.05, **overrides):
    """Build a validated config from a nested dict, with common knobs lifted
    to keyword arguments.  `overrides` replaces whole top-level sections."""
    data = {
        "run": {"seed": seed, "cycles": cycles},
        "source": {"mean_pairs_per_pulse": mu},
    }
    data.update(overrides)
    return config_from_dict(data)


IDEAL_DETECTORS = {
    "signal_794": {"efficiency": 1.0, "jitter_fwhm_ps": 0.0, "dark_rate_hz": 0.0},
    "idler_1535": {"efficiency": 1.0, "jitter_fwhm_ps": 0.0, "dark_rate_hz": 0.0},
}


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
        times = [ev.timestamp_ps for ev in events_from_csv(res.events_path)]
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

    def test_out_dir_created(self, tmp_path):
        cfg = make_config(seed=1, cycles=1_000, mu=0.05)
        target = tmp_path / "deep" / "nested" / "dir"
        res = run_simulation(cfg, target)
        assert res.summary_path.exists()


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


class TestAnalyzePaperData:
    def test_shipped_chsh_values_exact(self):
        report = analyze_paper_data(
            data_path(DATA_TOMOGRAPHY_IN),
            tomography_out=data_path(DATA_TOMOGRAPHY_OUT),
            chsh=data_path(DATA_CHSH),
            trials=0,
        )
        # Pure arithmetic on the shipped correlators; oracles frozen by hand.
        assert report.chsh_in.value == pytest.approx(2.5194, abs=1e-9)
        assert report.chsh_in.sigma == pytest.approx(0.02704625667259704, abs=1e-12)
        assert report.chsh_in.minus_slot == 2
        assert report.chsh_out.value == pytest.approx(2.5911, abs=1e-9)
        assert report.chsh_out.sigma == pytest.approx(0.20210158336836453, abs=1e-12)

    def test_point_estimates_near_published(self):
        report = analyze_paper_data(
            data_path(DATA_TOMOGRAPHY_IN),
            tomography_out=data_path(DATA_TOMOGRAPHY_OUT),
            trials=0,
        )
        fid_in = report.input_metrics["fidelity_phi_plus"]
        assert fid_in[0] == pytest.approx(0.9168, abs=0.03)
        assert report.input_metrics["purity"][0] == pytest.approx(0.8457, abs=0.04)
        assert report.input_metrics["entanglement_of_formation"][0] == pytest.approx(
            0.8110, abs=0.07
        )
        assert report.output_metrics["fidelity_phi_plus"][0] == pytest.approx(
            0.8768, abs=0.07
        )
        assert report.io_fidelity[0] == pytest.approx(0.9377, abs=0.06)
        # trials=0 leaves uncertainties at zero
        assert fid_in[1] == 0.0
        assert report.metrics is not None
        assert report.metrics.fidelity_phi_plus[0] == pytest.approx(
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
            assert report.input_metrics[key][1] > 0.0
        assert report.output_metrics["fidelity_phi_plus"][1] > 0.0
        assert report.io_fidelity[1] > 0.0
        # Published uncertainties are a couple of percentage points; the MC
        # spread should be the same order, not wildly off.
        assert 0.001 < report.input_metrics["fidelity_phi_plus"][1] < 0.05
        assert report.trials == 100

    def test_input_only_report(self):
        report = analyze_paper_data(data_path(DATA_TOMOGRAPHY_IN), trials=0)
        assert report.output_state is None
        assert report.output_metrics is None
        assert report.io_fidelity is None
        assert report.metrics is None
        assert report.chsh_in is None
        assert set(report.input_metrics) == {
            "fidelity_phi_plus",
            "purity",
            "concurrence",
            "entanglement_of_formation",
        }

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


class TestShippedCombFile:
    def test_fit_recovers_generation_parameters(self):
        detuning, od = comb_from_csv(data_path(DATA_SYNTHETIC_COMB))
        fit = fit_comb(detuning, od)
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

    def test_pump_power_sweep_scales_mu(self):
        cfg = make_config(
            seed=72,
            cycles=400_000,
            source={"mean_pairs_per_pulse": 0.02, "pump_mode": "EARLY_ONLY"},
            detectors=IDEAL_DETECTORS,
        )
        result = sweep(cfg, "pump_power", [0.5, 1.0, 2.0])
        assert result.columns == ("power_factor", "g2_zero", "g2_sigma")
        values = [row[1] for row in result.rows]
        assert values[0] > values[1] > values[2]

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

    def test_unknown_parameter(self):
        cfg = make_config()
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            sweep(cfg, "detuning", [1.0])

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
