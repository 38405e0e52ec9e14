"""Tests for analyzers, detectors and the time-to-digital converter.

The interferometer analyzer oracle is built by hand in this file: each arm
has six outcomes (early/central/late slot x two ports) with effects
E_early,r = |e><e|/4, E_late,r = |l><l|/4 and E_central,r = P_r/2 where P_r
projects on (|e> + r e^{i alpha}|l>)/sqrt(2).  Joint probabilities are
tr((E_a (x) E_b) rho), which the implementation must reproduce exactly.
"""

import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from conftest import (
    IDEAL_DETECTORS,
    events_from_csv,
    histogram_from_csv,
    histogram_from_stream,
    make_config,
)
from scipy.stats import chi2

from afclink import detection, events, harness
from afclink.detection import (
    AnalyzerSetting,
    DetectorConfig,
    analyzer_outcomes,
    joint_outcome_table,
    tdc_histogram_from_times,
    window_counts,
)
from afclink.harness import run_simulation, simulate
from afclink.linalg import bell_phi_plus

BIN_SEP = 1400


def phase_projector(alpha: float, port: int) -> np.ndarray:
    amp = port * np.exp(1j * alpha)
    return 0.5 * np.array([[1.0, np.conj(amp)], [amp, 1.0]], dtype=complex)


def hand_effects(alpha: float):
    """The six-outcome POVM of one interferometer arm, written out directly."""
    pe = np.diag([1.0, 0.0]).astype(complex)
    pl = np.diag([0.0, 1.0]).astype(complex)
    out = []
    for port in (+1, -1):
        out.append(("early", port, 0.25 * pe, 0))
    for port in (+1, -1):
        out.append(("central", port, 0.5 * phase_projector(alpha, port), BIN_SEP))
    for port in (+1, -1):
        out.append(("late", port, 0.25 * pl, 2 * BIN_SEP))
    return out


class TestAnalyzerOutcomes:
    def test_interferometer_povm_completeness(self):
        for alpha in np.linspace(0.0, 2.0 * np.pi, 9):
            outs = analyzer_outcomes(AnalyzerSetting.interferometer(alpha), BIN_SEP)
            total = sum(o.effect for o in outs)
            assert np.allclose(total, np.eye(2), atol=1e-12)

    def test_interferometer_matches_hand_povm(self):
        alpha = 0.7
        outs = analyzer_outcomes(AnalyzerSetting.interferometer(alpha), BIN_SEP)
        hand = hand_effects(alpha)
        assert len(outs) == 6
        # Match by (slot offset, port).
        for slot_name, port, effect, offset in hand:
            matches = [
                o for o in outs if o.port == port and o.slot_offset_ps == offset
            ]
            assert len(matches) == 1, (slot_name, port)
            assert np.allclose(matches[0].effect, effect, atol=1e-12)

    def test_time_of_arrival_povm(self):
        outs = analyzer_outcomes(AnalyzerSetting.time_of_arrival(), BIN_SEP)
        assert len(outs) == 2
        assert np.allclose(sum(o.effect for o in outs), np.eye(2), atol=1e-14)
        offsets = sorted(o.slot_offset_ps for o in outs)
        assert offsets == [0, BIN_SEP]


class TestJointTable:
    def grid_check(self, phi_s: float):
        rho = bell_phi_plus(phi_s).density().matrix
        for alpha in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False):
            for beta in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False):
                outs_a = analyzer_outcomes(AnalyzerSetting.interferometer(alpha), BIN_SEP)
                outs_b = analyzer_outcomes(AnalyzerSetting.interferometer(beta), BIN_SEP)
                table = joint_outcome_table(rho, outs_a, outs_b)
                assert table.sum() == pytest.approx(1.0, abs=1e-12)
                hand_a = hand_effects(alpha)
                hand_b = hand_effects(beta)
                for i, (_, _, ea, _) in enumerate(hand_a):
                    for j, (_, _, eb, _) in enumerate(hand_b):
                        expected = np.trace(np.kron(ea, eb) @ rho).real
                        assert table[i, j] == pytest.approx(expected, abs=1e-12)
                # Central-slot coincidence law: (1 + r s cos(alpha+beta-phi_s))/16.
                for i, (slot_a, ra, _, _) in enumerate(hand_a):
                    for j, (slot_b, rb, _, _) in enumerate(hand_b):
                        if slot_a == "central" and slot_b == "central":
                            law = (1.0 + ra * rb * math.cos(alpha + beta - phi_s)) / 16.0
                            assert table[i, j] == pytest.approx(law, abs=1e-12)

    def test_central_slot_law_on_phase_grid(self):
        self.grid_check(0.0)

    def test_pump_phase_shifts_the_law(self):
        self.grid_check(0.6)

    def test_no_signaling(self):
        rho = bell_phi_plus().density().matrix
        outs_a = analyzer_outcomes(AnalyzerSetting.interferometer(0.3), BIN_SEP)
        marginals = []
        for beta in (0.0, 0.9, 2.2, np.pi):
            outs_b = analyzer_outcomes(AnalyzerSetting.interferometer(beta), BIN_SEP)
            marginals.append(joint_outcome_table(rho, outs_a, outs_b).sum(axis=1))
        for m in marginals[1:]:
            assert np.allclose(m, marginals[0], atol=1e-12)

    def test_depolarizing_mix(self):
        rho = bell_phi_plus().density().matrix
        outs_a = analyzer_outcomes(AnalyzerSetting.interferometer(0.0), BIN_SEP)
        outs_b = analyzer_outcomes(AnalyzerSetting.interferometer(0.0), BIN_SEP)
        pure = joint_outcome_table(rho, outs_a, outs_b)
        mixed = joint_outcome_table(rho, outs_a, outs_b, depolarizing=1.0)
        # Full depolarization: product of effect traces / 4.
        tra = np.array([np.trace(o.effect).real for o in outs_a])
        trb = np.array([np.trace(o.effect).real for o in outs_b])
        assert np.allclose(mixed, np.outer(tra, trb) / 4.0, atol=1e-12)
        half = joint_outcome_table(rho, outs_a, outs_b, depolarizing=0.4)
        assert np.allclose(half, 0.6 * pure + 0.4 * mixed, atol=1e-12)

    def test_single_arm_table_from_reduced_state(self):
        # The engine's lone-signal table against the Born rule on the signal
        # arm's reduced state, traced out of the emitted state here.
        cfg = engine_config(analyzers=interferometers(1.1, 0.0))
        rho = bell_phi_plus().density().matrix.reshape(2, 2, 2, 2)
        reduced = np.einsum("ajbj->ab", rho)
        born = [np.trace(e @ reduced).real for _, _, e, _ in hand_effects(1.1)]
        cum = harness._build_tables(cfg).channels[events.SIGNAL_794].single_cum
        assert np.allclose(np.diff(cum, prepend=0.0), born, rtol=0.0, atol=1e-12)
        # Maximally mixed qubit: early 1/8 per port, central 1/4 per port, late 1/8.
        expected = np.array([0.125, 0.125, 0.25, 0.25, 0.125, 0.125])
        assert np.allclose(born, expected, atol=1e-12)


TIME_OF_ARRIVAL = {
    ch: {"mode": "time_of_arrival"} for ch in ("signal_794", "idler_1535")
}
# Zero coupling: the memory loses every photon it is offered.
DEAD_MEMORY = {
    "coupling_efficiency": 0.0,
    "device_efficiency": 0.5,
    "mean_od": 1.0,
    "echo_delays": [[32.258, 1.0]],
}
REP = 12_500


# Ideal detectors unless `detectors` is given; one 20k-cycle shard.
engine_config = partial(make_config, seed=1, cycles=20_000, detectors=IDEAL_DETECTORS)


def interferometers(alpha, beta):
    return {
        "signal_794": {"mode": "interferometer", "phase": float(alpha)},
        "idler_1535": {"mode": "interferometer", "phase": float(beta)},
    }


def slot_offsets(rec):
    """Each click's delay from the start of its pump cycle."""
    return rec.times - rec.cycles * REP


def draw_counts(cum, n, rng):
    """Outcome counts of n engine analyzer draws from a cumulative table."""
    return np.bincount(harness._draw_outcomes(cum, n, rng), minlength=cum.size)


def within(count, n, p, n_sigma):
    return abs(count / n - p) <= n_sigma * math.sqrt(p * (1.0 - p) / n) + 1e-12


class TestBatchSampling:
    """The engine's analyzer stage, harness._draw_outcomes on the tables that
    harness._build_tables derives, samples the joint and single-arm outcome
    tables.  Outcome order per interferometer arm: (early, central, late) x
    ports (+1, -1), as in hand_effects; joint index 6 * signal + idler."""

    def test_born_rule_on_phase_grid_million_pairs(self):
        # 10**6 pairs per setting, on the alpha = 0 row and the beta = 0
        # column of the 8 x 8 phase grid: 15 settings.  The joint table
        # depends on the phases through alpha + beta only, and these settings
        # reach all eight grid values of it through each arm's own phase.
        # TestJointTable checks the table itself on the whole grid.
        #
        # One Pearson chi-square per setting over the 28 possible outcomes
        # (early-late pairings never occur), 27 degrees of freedom, at a
        # false-alarm rate of 1e-4 for all 15 settings together.
        rho = bell_phi_plus(1.2).density().matrix
        phases = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
        settings = [(alpha, 0.0) for alpha in phases]
        settings += [(0.0, beta) for beta in phases[1:]]
        bound = chi2.isf(1e-4 / len(settings), 27)
        assert bound == pytest.approx(71.6, abs=0.05)
        rng = np.random.default_rng(61)
        n = 1_000_000
        for alpha, beta in settings:
            cfg = engine_config(
                source={"pump_phase": 0.6}, analyzers=interferometers(alpha, beta)
            )
            counts = draw_counts(harness._build_tables(cfg).joint_cum, n, rng)
            assert counts.sum() == n
            born = np.array(
                [
                    np.trace(np.kron(ea, eb) @ rho).real
                    for _, _, ea, _ in hand_effects(alpha)
                    for _, _, eb, _ in hand_effects(beta)
                ]
            )
            possible = born > 1e-12
            assert possible.sum() == 28
            assert np.all(counts[~possible] == 0), (alpha, beta)
            expected = n * born[possible]
            stat = float(((counts[possible] - expected) ** 2 / expected).sum())
            assert stat < bound, (alpha, beta, stat)

    def test_single_arm_counts_million_photons(self):
        cfg = engine_config(analyzers=interferometers(0.4, 0.0))
        cum = harness._build_tables(cfg).channels[events.SIGNAL_794].single_cum
        n = 1_000_000
        counts = draw_counts(cum, n, np.random.default_rng(62))
        assert counts.sum() == n
        # Reduced state I/2: early 1/8 per port, central 1/4 per port, late 1/8.
        for count, p in zip(counts, (0.125, 0.125, 0.25, 0.25, 0.125, 0.125)):
            assert within(count, n, p, 4.0)

    def test_no_signaling_at_sample_level(self):
        # Arm-A marginal frequencies must not depend on arm B's phase.
        rng = np.random.default_rng(63)
        n = 1_000_000
        marginals = []
        for beta in (0.0, 2.2):
            cfg = engine_config(analyzers=interferometers(0.3, beta))
            counts = draw_counts(harness._build_tables(cfg).joint_cum, n, rng)
            marginals.append(counts.reshape(6, 6).sum(axis=1) / n)
        p0, p1 = marginals
        base = (p0 + p1) / 2.0
        sigma = np.sqrt(base * (1.0 - base) * 2.0 / n)
        assert np.all(np.abs(p0 - p1) <= 5.0 * sigma + 1e-12)

    def test_deterministic_given_seed(self):
        cfg = engine_config(analyzers=interferometers(0.9, 0.9))
        cum = harness._build_tables(cfg).joint_cum
        a = harness._draw_outcomes(cum, 10_000, np.random.default_rng(5))
        b = harness._draw_outcomes(cum, 10_000, np.random.default_rng(5))
        assert np.array_equal(a, b)


class TestAnalyzerSample:
    """Analyzer outcomes as the engine draws them: stage draws on the joint
    and single tables, and the slots, ports and bins `simulate` reports."""

    def test_timestamps_ports_and_bins(self):
        data = simulate(engine_config(seed=7, analyzers=interferometers(0.0, 0.0)))
        bin_of_offset = {0: "EARLY", BIN_SEP: "SUPERPOSED", 2 * BIN_SEP: "LATE"}
        for rec in data.channels.values():
            assert rec.times.size == data.n_pairs > 0
            offsets = slot_offsets(rec)
            assert set(offsets.tolist()) == set(bin_of_offset)
            for offset, label in bin_of_offset.items():
                assert np.all(rec.bins[offsets == offset] == label)
            assert set(rec.ports.tolist()) == {+1, -1}

    def test_entangled_pair_never_splits_early_late(self):
        # |ee> + |ll> has no |el>/|le> component: one photon early-slot and the
        # other late-slot cannot happen.
        cfg = engine_config(analyzers=interferometers(0.4, 1.3))
        counts = draw_counts(
            harness._build_tables(cfg).joint_cum, 200_000, np.random.default_rng(3)
        ).reshape(3, 2, 3, 2)
        assert counts[0, :, 2, :].sum() == 0 and counts[2, :, 0, :].sum() == 0
        assert counts[0, :, 0, :].sum() > 0 and counts[2, :, 2, :].sum() > 0

    def test_central_coincidence_statistics(self):
        alpha, beta = 0.5, 0.9
        cfg = engine_config(analyzers=interferometers(alpha, beta))
        n = 200_000
        counts = draw_counts(
            harness._build_tables(cfg).joint_cum, n, np.random.default_rng(42)
        )
        # Central slot, port +1 on both arms: outcome 2 of each arm.
        p = (1.0 + math.cos(alpha + beta)) / 16.0
        assert within(counts[6 * 2 + 2], n, p, 4.0)

    def test_lost_partner_uses_reduced_state(self):
        # The idler memory loses every photon, so each signal photon is
        # analyzed alone and sees the reduced state I/2: early 1/4,
        # central 1/2, late 1/4, whatever the phase.
        cfg = engine_config(
            seed=9,
            cycles=100_000,
            mu=0.1,
            analyzers=interferometers(0.7, 0.0),
            memories={"idler_1535": DEAD_MEMORY},
        )
        data = simulate(cfg)
        offsets = slot_offsets(data.channels[events.SIGNAL_794])
        n = offsets.size
        assert n == data.n_pairs > 0
        for offset, p in ((0, 0.25), (BIN_SEP, 0.5), (2 * BIN_SEP, 0.25)):
            assert within(int((offsets == offset).sum()), n, p, 4.5)

    def test_no_survivors(self):
        cfg = engine_config(
            mu=0.2, memories={"signal_794": DEAD_MEMORY, "idler_1535": DEAD_MEMORY}
        )
        data = simulate(cfg)
        assert data.n_pairs > 0
        assert all(rec.times.size == 0 for rec in data.channels.values())

    def test_time_of_arrival_on_entangled_pair(self):
        # Perfect correlations in the arrival-time basis: in every cycle that
        # holds one pair, both photons arrive in the same bin.
        data = simulate(engine_config(seed=17, mu=0.1, analyzers=TIME_OF_ARRIVAL))
        sig = data.channels[events.SIGNAL_794]
        idl = data.channels[events.IDLER_1535]
        single = np.flatnonzero(np.bincount(sig.cycles) == 1)
        assert single.size > 1000
        sig_offset = dict(zip(sig.cycles.tolist(), slot_offsets(sig).tolist()))
        idl_offset = dict(zip(idl.cycles.tolist(), slot_offsets(idl).tolist()))
        same = [sig_offset[c] == idl_offset[c] for c in single.tolist()]
        assert all(same)
        early = sum(sig_offset[c] == 0 for c in single.tolist())
        assert within(early, single.size, 0.5, 5.0)

    def test_single_mode_pair_time_of_arrival(self):
        data = simulate(
            engine_config(
                seed=23, source={"pump_mode": "EARLY_ONLY"}, analyzers=TIME_OF_ARRIVAL
            )
        )
        for rec in data.channels.values():
            assert rec.times.size == data.n_pairs > 0
            assert np.all(rec.bins == events.BIN_EARLY)
            assert np.all(slot_offsets(rec) == 0)


class TestDetect:
    """The engine's detector stage, seen through `simulate`: thinning at the
    detector efficiency, Gaussian timing jitter, nothing from lost photons."""

    def test_ideal_detector_is_identity(self):
        data = simulate(engine_config(seed=3, analyzers=TIME_OF_ARRIVAL))
        for rec in data.channels.values():
            assert rec.times.size == data.n_pairs > 0
            assert set(slot_offsets(rec).tolist()) == {0, BIN_SEP}

    def test_zero_efficiency_drops_everything(self):
        dead = {"efficiency": 0.0, "jitter_fwhm_ps": 0.0, "dark_rate_hz": 0.0}
        cfg = engine_config(
            mu=0.2, detectors={"signal_794": dead, "idler_1535": dead}
        )
        data = simulate(cfg)
        assert data.n_pairs > 0
        assert all(rec.times.size == 0 for rec in data.channels.values())

    def test_lost_photons_never_detected(self):
        data = simulate(engine_config(mu=0.2, memories={"signal_794": DEAD_MEMORY}))
        assert data.channels[events.SIGNAL_794].times.size == 0
        assert data.channels[events.IDLER_1535].times.size == data.n_pairs > 0

    def test_efficiency_thinning_statistics(self):
        # Lossless source and no memories: every pair offers one photon per
        # detector, so clicks / pairs estimates the efficiency.
        det = {"efficiency": 0.7, "jitter_fwhm_ps": 0.0, "dark_rate_hz": 0.0}
        cfg = engine_config(
            seed=4, cycles=1_000_000, mu=0.2,
            detectors={"signal_794": det, "idler_1535": det},
        )
        data = simulate(cfg)
        assert data.n_pairs > 150_000
        for rec in data.channels.values():
            assert within(rec.times.size, data.n_pairs, 0.7, 5.0)

    def test_jitter_statistics(self):
        # Time-of-arrival slots sit at 0 and T = 1400 ps, over 6 jitter sigmas
        # apart, so each click's nearest slot is the one it was drawn in.
        fwhm = 250.0
        sigma_ps = fwhm / 2.355
        det = {"efficiency": 1.0, "jitter_fwhm_ps": fwhm, "dark_rate_hz": 0.0}
        cfg = engine_config(
            seed=8, cycles=200_000, mu=0.1, analyzers=TIME_OF_ARRIVAL,
            detectors={"signal_794": det, "idler_1535": det},
        )
        data = simulate(cfg)
        for rec in data.channels.values():
            offsets = slot_offsets(rec)
            shifts = (offsets - np.where(offsets > BIN_SEP / 2, BIN_SEP, 0)).astype(float)
            n = shifts.size
            assert n == data.n_pairs > 10_000
            assert abs(shifts.mean()) < 4.0 * sigma_ps / math.sqrt(n)
            # s.d. of a sample s.d. of n Gaussian draws: sigma / sqrt(2 n).
            assert abs(shifts.std() - sigma_ps) < 5.0 * sigma_ps / math.sqrt(2.0 * n)

    def test_default_jitter_value(self):
        cfg = DetectorConfig()
        assert cfg.efficiency == pytest.approx(0.70)
        assert cfg.jitter_sigma_ps == pytest.approx(250.0 / 2.355, rel=1e-6)
        assert cfg.dark_rate_hz == pytest.approx(100.0)


class TestDarkEvents:
    """Dark counts as `simulate` reports them, on a source that emits nothing."""

    def dark_run(self, rate_hz, cycles, seed):
        det = {"efficiency": 1.0, "jitter_fwhm_ps": 0.0, "dark_rate_hz": rate_hz}
        return simulate(
            engine_config(
                seed=seed, cycles=cycles, mu=0.0,
                detectors={"signal_794": det, "idler_1535": det},
            )
        )

    def test_poisson_rate(self):
        # Two shards; 1e5 Hz over 25 ms is 2500 expected per channel.
        n_cycles = 2_000_000
        data = self.dark_run(1e5, n_cycles, seed=12)
        expected = 1e5 * n_cycles * REP * 1e-12
        assert data.n_pairs == 0
        for rec in data.channels.values():
            assert abs(rec.times.size - expected) < 5.0 * math.sqrt(expected)
            assert rec.dark_count == rec.times.size

    def test_fields_and_range(self):
        data = self.dark_run(1e7, 1_000, seed=1)
        for rec in data.channels.values():
            assert rec.times.size > 0
            assert np.all(rec.origins == events.ORIGIN_DARK)
            assert np.all(rec.bins == events.BIN_NONE)
            assert np.all(rec.outcomes == events.OUTCOME_NONE)
            assert np.all(rec.ports == 0)
            assert np.all((rec.times >= 0) & (rec.times < 1_000 * REP))
            assert np.array_equal(rec.cycles, rec.times // REP)


class TestTdcHistogram:
    def test_hand_built_case(self):
        stops = [50_000 - 100, 50_000 + 30, 50_000 + 85, 50_000 + 10_000]
        hist = tdc_histogram_from_times([50_000], stops, bin_width_ps=80, window_ps=240)
        assert hist.n_starts == 1
        # Bins: [-240,-160) [-160,-80) [-80,0) [0,80) [80,160) [160,240);
        # the stop 10 ns late is outside the window.
        assert hist.counts.tolist() == [0, 1, 0, 1, 1, 0]

    def test_multiple_starts_accumulate(self):
        hist = tdc_histogram_from_times(
            [12_500, 25_000], [12_530, 25_030], bin_width_ps=80, window_ps=240
        )
        assert hist.n_starts == 2
        center = int((30 + 240) // 80)
        assert hist.counts[center] == 2
        # Each stop is also seen by the other start at +-12.5 us, outside the window.
        assert hist.counts.sum() == 2

    def test_cross_cycle_coincidences_visible_in_wide_window(self):
        hist = tdc_histogram_from_times([12_500], [25_010], bin_width_ps=80, window_ps=20_000)
        idx = int((12_510 + 20_000) // 80)
        assert hist.counts[idx] == 1

    @pytest.mark.parametrize("width", [0, -80])
    @pytest.mark.parametrize("kernel", ["times", "stream"])
    def test_bad_bin_width_is_named(self, kernel, width):
        # Both kernels check the binning before they size their counts.
        with pytest.raises(ValueError, match="bin_width_ps must be positive"):
            if kernel == "times":
                tdc_histogram_from_times([1], [2], width, 800)
            else:
                histogram_from_stream([], width, 800)


def brute_force_histogram(starts, stops, bin_width_ps, window_ps):
    counts = np.zeros(2 * window_ps // bin_width_ps, dtype=np.int64)
    for start in starts:
        for stop in stops:
            dt = int(stop) - int(start)
            if -window_ps <= dt < window_ps:
                counts[(dt + window_ps) // bin_width_ps] += 1
    return counts


def random_traffic(rng, kind):
    """(starts, stops) of one kind of traffic for a window of 800 ps."""
    n_start, n_stop = rng.integers(0, 60, 2)
    if kind == "sparse":
        return rng.integers(0, 6_000, n_start), rng.integers(0, 6_000, n_stop)
    if kind == "dense":
        # A burst of 50-120 stops inside one window, among sparse clicks.
        centre = int(rng.integers(1_000, 5_000))
        burst = rng.integers(centre - 800, centre + 800, rng.integers(50, 121))
        starts = np.append(rng.integers(0, 6_000, n_start), centre)
        return starts, np.concatenate([rng.integers(0, 6_000, n_stop), burst])
    if kind == "negative":
        return rng.integers(-6_000, 0, n_start), rng.integers(-6_000, 0, n_stop)
    # "ties": few distinct times, on the bin grid, so duplicate starts,
    # duplicate stops and stops at exactly +-800 ps and 0 from a start abound.
    return 80 * rng.integers(0, 30, n_start), 80 * rng.integers(0, 30, n_stop)


@pytest.fixture(params=[1, 3, None], ids=["block-1", "block-3", "block-default"])
def block_starts(request, monkeypatch):
    """Walk the starts in blocks of one, of three or of the default size."""
    if request.param is not None:
        monkeypatch.setattr(detection, "_BLOCK_STARTS", request.param)


class TestHistogramFromTimes:
    @pytest.mark.parametrize("kind", ["sparse", "dense", "negative", "ties"])
    def test_equals_brute_force(self, kind, block_starts):
        rng = np.random.default_rng(17)
        densest = 0
        for _ in range(40):
            starts, stops = random_traffic(rng, kind)
            hist = tdc_histogram_from_times(starts, stops, 80, 800)
            assert hist.n_starts == starts.size
            expected = brute_force_histogram(starts, stops, 80, 800)
            assert np.array_equal(hist.counts, expected)
            seen = [np.sum((stops >= t - 800) & (stops < t + 800)) for t in starts]
            densest = max(densest, *seen, 0)
        if kind == "dense":
            assert densest >= 50

    def test_window_edges(self, block_starts):
        # Each start's walk runs from its -window stop to past its +window one.
        starts = np.array([10_000, 20_000])
        stops = np.array([10_000 - 800, 10_000, 10_000 + 799, 10_000 + 800,
                          20_000 - 800, 20_000 + 800])
        hist = tdc_histogram_from_times(starts, stops, 80, 800)
        expected = brute_force_histogram(starts, stops, 80, 800)
        assert np.array_equal(hist.counts, expected)
        # -window lands in the first bin, +window is excluded.
        assert hist.counts[0] == 2
        assert hist.counts[-1] == 1
        assert hist.counts.sum() == 4

    def test_pair_count_does_not_set_peak_memory(self):
        # 2000 starts and 2000 stops inside one 70 ns window: 4e6 pairs,
        # while no temporary holds more than one entry per start or stop.
        rng = np.random.default_rng(5)
        starts = rng.integers(0, 70_000, 2_000)
        stops = rng.integers(0, 70_000, 2_000)
        tracemalloc.start()
        try:
            hist = tdc_histogram_from_times(starts, stops, 80, 80_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hist.counts.sum() == 2_000 * 2_000
        assert peak < 1_000_000

    def test_peak_memory_is_the_sorted_inputs_and_one_block(self):
        # 4e5 starts and 4e5 stops spread over 1 s: 13 blocks of
        # starts, each walked with its own temporaries, beside one sorted
        # copy of each input.
        rng = np.random.default_rng(8)
        starts = rng.integers(0, 10**12, 400_000)
        stops = rng.integers(0, 10**12, 400_000)
        tracemalloc.start()
        try:
            hist = tdc_histogram_from_times(starts, stops, 80, 70_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (starts.nbytes + stops.nbytes), peak
        # Every start-stop pair in a window, listed directly.
        stops = np.sort(stops)
        first, end = np.searchsorted(stops, [starts - 70_000, starts + 70_000])
        n = end - first
        pair_stops = np.arange(n.sum()) + np.repeat(first - np.cumsum(n) + n, n)
        delays = stops[pair_stops] - np.repeat(starts, n)
        assert delays.size > 10_000
        expected = np.bincount((delays + 70_000) // 80, minlength=hist.counts.size)
        assert np.array_equal(hist.counts, expected)
        assert hist.n_starts == starts.size

    def test_empty_inputs(self, block_starts):
        assert tdc_histogram_from_times([], [5], 80, 800).counts.sum() == 0
        hist = tdc_histogram_from_times([5, 6], [], 80, 800)
        assert hist.counts.sum() == 0
        assert hist.n_starts == 2


def brute_force_windows(starts, stops, offsets, hw, start_labels, stop_labels):
    """Every (start, stop) pair tested against every closed window, counted
    by [offset, start label, stop label]."""
    counts = np.zeros((len(offsets), 2, 2), dtype=np.int64)
    delays = np.subtract.outer(np.asarray(stops), np.asarray(starts))  # [stop, start]
    for k, offset in enumerate(offsets):
        hit = np.abs(delays - offset) <= hw
        for a in (0, 1):
            for b in (0, 1):
                counts[k, a, b] = hit[np.ix_(stop_labels == b, start_labels == a)].sum()
    return counts


# Window sets on the 800 ps traffic of random_traffic: overlapping windows,
# a repeated offset, windows wider than their spacing (2 hw > 800), and
# windows all on one side of zero.
WINDOW_SETS = [
    ([0, 300, -200, 800, 900, 900], 500),
    ([-1_600, -800, 0, 800, 1_600], 500),
    ([0], 0),
    ([250, 2_000], 80),
    ([-3_000, -2_500], 400),
]


class TestWindowCounts:
    @pytest.mark.parametrize("offsets, hw", WINDOW_SETS)
    @pytest.mark.parametrize("kind", ["sparse", "dense", "negative", "ties"])
    def test_equals_brute_force(self, kind, offsets, hw, block_starts):
        rng = np.random.default_rng(len(kind) + hw)
        for _ in range(20):
            starts, stops = random_traffic(rng, kind)
            start_labels, stop_labels = rng.integers(0, 2, starts.size), rng.integers(0, 2, stops.size)
            expected = brute_force_windows(starts, stops, offsets, hw, start_labels, stop_labels)
            labelled = window_counts(starts, stops, offsets, hw, start_labels, stop_labels)
            assert labelled.shape == (len(offsets), 2, 2)
            assert np.array_equal(labelled, expected)
            assert np.array_equal(window_counts(starts, stops, offsets, hw), expected.sum(axis=(1, 2)))

    def test_windows_are_closed(self):
        # The stops at o - hw and o + hw count; those one ps outside do not.
        stops = [10_000 + 700 + dt for dt in (-501, -500, 0, 500, 501)]
        assert window_counts([10_000], stops, [700, -700], 500).tolist() == [3, 0]
        assert window_counts([10_000], stops, [700], 0).tolist() == [1]

    def test_empty_inputs(self, block_starts):
        assert window_counts([], [5], [0, 800], 500).tolist() == [0, 0]
        assert window_counts([5, 6], [], [0, 800], 500).tolist() == [0, 0]


def random_pieces(rng, n_pieces, span, spill):
    """Unsorted start and stop times per piece; a piece's clicks fall in its
    own span or up to `spill` before it, and each floor is the earliest
    click of every later piece."""
    raw = []
    for k in range(n_pieces):
        lo = k * span - int(rng.integers(0, spill + 1))
        n_start, n_stop = rng.integers(0, 8, 2)
        raw.append(
            (rng.integers(lo, (k + 1) * span, n_start), rng.integers(lo, (k + 1) * span, n_stop))
        )
    pieces = []
    for k, (starts, stops) in enumerate(raw):
        later = [t for s, p in raw[k + 1 :] for t in (*s.tolist(), *p.tolist())]
        floor = None if k == n_pieces - 1 else min(later, default=(k + 1) * span)
        pieces.append((starts, stops, floor))
    return pieces


class TestHistogramFromStream:
    @pytest.mark.parametrize("window", [80, 800, 8_000])
    @pytest.mark.parametrize("span, spill", [(50, 0), (300, 200), (2_000, 1_500)])
    @pytest.mark.parametrize(
        "block_starts", [1, None], ids=["block-1", "block-default"], indirect=True
    )
    def test_equals_single_pass(self, window, span, spill, block_starts):
        # Windows from a fraction of a piece to many pieces, with pieces
        # that reach back into their predecessors.
        rng = np.random.default_rng(window + span)
        for _ in range(10):
            pieces = random_pieces(rng, int(rng.integers(1, 30)), span, spill)
            starts = np.concatenate([p[0] for p in pieces])
            stops = np.concatenate([p[1] for p in pieces])
            streamed = histogram_from_stream(pieces, 80, window)
            single = tdc_histogram_from_times(starts, stops, 80, window)
            assert np.array_equal(streamed.counts, single.counts)
            assert streamed.n_starts == single.n_starts == starts.size

    def test_no_clicks_give_zero_counts_in_the_requested_binning(self):
        no_clicks = np.zeros(0, dtype=np.int64)
        for pieces in ([], [(no_clicks, no_clicks, 1_000), (no_clicks, no_clicks, None)]):
            hist = histogram_from_stream(pieces, 80, 800)
            assert (hist.bin_width_ps, hist.window_ps, hist.n_starts) == (80, 800, 0)
            assert np.array_equal(hist.counts, np.zeros(20, dtype=np.int64))

    def test_click_below_an_earlier_floor_fails(self):
        pieces = [
            (np.array([100]), np.array([120]), 1_000),
            (np.array([1_500]), np.array([900]), None),
        ]
        with pytest.raises(ValueError, match="below the floor"):
            histogram_from_stream(pieces, 80, 800)


class TestCsvRoundTrips:
    def test_event_csv(self, tmp_path):
        # No memories: every click's memory outcome is NONE.
        cfg = engine_config(seed=2)
        res = run_simulation(cfg, tmp_path)
        expected = [
            (c, channel, t, b, o, events.OUTCOME_NONE)
            for channel, rec in simulate(cfg).channels.items()
            for c, t, b, o in zip(rec.cycles.tolist(), rec.times.tolist(),
                                  rec.bins.tolist(), rec.origins.tolist())
        ]
        assert len(expected) > 0
        assert sorted(events_from_csv(res.events_path)) == sorted(expected)

    def test_histogram_csv(self, tmp_path):
        hist = tdc_histogram_from_times([50_000], [50_030], bin_width_ps=80, window_ps=240)
        path = tmp_path / "hist.csv"
        hist.to_csv(path)
        assert path.read_text().splitlines()[0] == "bin_start_ps,count"
        back = histogram_from_csv(path)
        assert np.array_equal(back.counts, hist.counts)
        assert back.bin_width_ps == 80

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty histogram file"),
            ("bin_start_ps,count\n-80,1\n0,2,3\n", "line 3: expected 2 fields, got 3"),
            ("bin_start_ps,count\n-80,1\n0,12.5\n", "line 3: non-integer field"),
            ("bin_start_ps,count\n-80,1\nzero,2\n", "line 3: non-integer field"),
            ("start,count\n-80,1\n0,2\n", "unexpected header"),
            ("bin_start_ps,count\n-80,1\n", "at least two bins"),
            ("bin_start_ps,count\n0,1\n80,2\n", "window_ps must be a positive multiple"),
        ],
        ids=["empty", "field-count", "float-count", "word-start", "header", "one-bin",
             "no-negative-delays"],
    )
    def test_histogram_reader_names_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "hist.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            histogram_from_csv(path)
        assert str(info.value).startswith(f"{path}: ")
        assert message in str(info.value)
