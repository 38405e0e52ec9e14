"""Tests for analyzers, detectors and the time-to-digital converter.

The interferometer analyzer oracle is built by hand in this file: each arm
has six outcomes (early/central/late slot x two ports) with effects
E_early,r = |e><e|/4, E_late,r = |l><l|/4 and E_central,r = P_r/2 where P_r
projects on (|e> + r e^{i alpha}|l>)/sqrt(2).  Joint probabilities are
tr((E_a (x) E_b) rho), which the implementation must reproduce exactly.
"""

import math

import numpy as np
import pytest

from afclink import detection, events
from afclink.detection import (
    AnalyzerSetting,
    CoincidenceHistogram,
    DetectorConfig,
    analyzer_outcomes,
    analyzer_sample,
    coincidence_rate,
    dark_events,
    detect,
    events_from_csv,
    events_to_csv,
    histogram_from_csv,
    joint_outcome_counts,
    joint_outcome_table,
    single_outcome_counts,
    single_outcome_table,
    tdc_histogram,
    tdc_histogram_from_times,
)
from afclink.linalg import bell_phi_plus, partial_trace
from afclink.source import PairEmission, SourceConfig

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
        rho = bell_phi_plus().density().matrix
        reduced = partial_trace(rho, keep=0)
        outs = analyzer_outcomes(AnalyzerSetting.interferometer(1.1), BIN_SEP)
        probs = single_outcome_table(reduced, outs)
        # Maximally mixed qubit: early 1/8 per port, central 1/4 per port, late 1/8.
        expected = np.array([0.125, 0.125, 0.25, 0.25, 0.125, 0.125])
        assert np.allclose(probs, expected, atol=1e-12)


class TestBatchSampling:
    """Vectorized outcome counts for many identically prepared photons.

    A batch of n draws from the outcome table is one multinomial sample,
    distributed identically to n per-pair analyzer_sample calls (which sample
    the same table one event at a time).
    """

    def test_born_rule_on_phase_grid_million_pairs(self):
        rho = bell_phi_plus(1.2).density().matrix
        phases = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
        rng = np.random.default_rng(61)
        n = 1_000_000
        for alpha in phases:
            outs_a = analyzer_outcomes(AnalyzerSetting.interferometer(alpha), BIN_SEP)
            for beta in phases:
                outs_b = analyzer_outcomes(AnalyzerSetting.interferometer(beta), BIN_SEP)
                table = joint_outcome_table(rho, outs_a, outs_b)
                counts = joint_outcome_counts(rho, outs_a, outs_b, n, rng)
                assert counts.shape == (6, 6)
                assert counts.sum() == n
                freq = counts / n
                sigma = np.sqrt(table * (1.0 - table) / n)
                assert np.all(np.abs(freq - table) <= 4.0 * sigma + 1e-12), (alpha, beta)

    def test_single_arm_counts_million_photons(self):
        rho = bell_phi_plus().density().matrix
        reduced = partial_trace(rho, keep=0)
        outs = analyzer_outcomes(AnalyzerSetting.interferometer(0.4), BIN_SEP)
        table = single_outcome_table(reduced, outs)
        rng = np.random.default_rng(62)
        n = 1_000_000
        counts = single_outcome_counts(reduced, outs, n, rng)
        assert counts.shape == (6,)
        assert counts.sum() == n
        sigma = np.sqrt(table * (1.0 - table) / n)
        assert np.all(np.abs(counts / n - table) <= 4.0 * sigma + 1e-12)

    def test_no_signaling_at_sample_level(self):
        # Arm-A marginal frequencies must not depend on arm B's phase.
        rho = bell_phi_plus().density().matrix
        outs_a = analyzer_outcomes(AnalyzerSetting.interferometer(0.3), BIN_SEP)
        rng = np.random.default_rng(63)
        n = 1_000_000
        marginals = []
        for beta in (0.0, 2.2):
            outs_b = analyzer_outcomes(AnalyzerSetting.interferometer(beta), BIN_SEP)
            counts = joint_outcome_counts(rho, outs_a, outs_b, n, rng)
            marginals.append(counts.sum(axis=1) / n)
        p0, p1 = marginals
        base = (p0 + p1) / 2.0
        sigma = np.sqrt(base * (1.0 - base) * 2.0 / n)
        assert np.all(np.abs(p0 - p1) <= 5.0 * sigma + 1e-12)

    def test_deterministic_given_seed(self):
        rho = bell_phi_plus().density().matrix
        outs = analyzer_outcomes(AnalyzerSetting.interferometer(0.9), BIN_SEP)
        a = joint_outcome_counts(rho, outs, outs, 10_000, np.random.default_rng(5))
        b = joint_outcome_counts(rho, outs, outs, 10_000, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_negative_count_rejected(self):
        rho = bell_phi_plus().density().matrix
        outs = analyzer_outcomes(AnalyzerSetting.interferometer(0.0), BIN_SEP)
        with pytest.raises(ValueError):
            joint_outcome_counts(rho, outs, outs, -1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            single_outcome_counts(np.eye(2) / 2.0, outs, -1, np.random.default_rng(0))


def make_pair(cycle=0, pair_id=0, phi_p=0.0):
    cfg = SourceConfig(pump_phase=phi_p)
    return PairEmission(cycle=cycle, pair_id=pair_id, joint_state=cfg.joint_state())


def pair_events(pair, cfg):
    t0 = pair.cycle * cfg.rep_period_ps
    return [
        events.PhotonEvent(
            cycle=pair.cycle,
            channel=ch,
            timestamp_ps=t0,
            bin=events.BIN_SUPERPOSED,
            pair_id=pair.pair_id,
        )
        for ch in (events.SIGNAL_794, events.IDLER_1535)
    ]


class TestAnalyzerSample:
    def settings(self, alpha, beta):
        return {
            events.SIGNAL_794: AnalyzerSetting.interferometer(alpha),
            events.IDLER_1535: AnalyzerSetting.interferometer(beta),
        }

    def test_timestamps_ports_and_bins(self):
        cfg = SourceConfig()
        pair = make_pair(cycle=5)
        rng = np.random.default_rng(7)
        seen_offsets = set()
        for _ in range(400):
            resolved = analyzer_sample(
                pair, pair_events(pair, cfg), self.settings(0.0, 0.0), cfg, rng
            )
            assert len(resolved) == 2
            for ev in resolved:
                offset = ev.timestamp_ps - 5 * cfg.rep_period_ps
                assert offset in (0, BIN_SEP, 2 * BIN_SEP)
                assert ev.port in (+1, -1)
                if offset == 0:
                    assert ev.bin == events.BIN_EARLY
                elif offset == BIN_SEP:
                    assert ev.bin == events.BIN_SUPERPOSED
                else:
                    assert ev.bin == events.BIN_LATE
                seen_offsets.add(offset)
        assert seen_offsets == {0, BIN_SEP, 2 * BIN_SEP}

    def test_entangled_pair_never_splits_early_late(self):
        # |ee> + |ll> has no |el>/|le> component: one photon early-slot and the
        # other late-slot cannot happen.
        cfg = SourceConfig()
        pair = make_pair()
        rng = np.random.default_rng(3)
        for _ in range(2000):
            a, b = analyzer_sample(
                pair, pair_events(pair, cfg), self.settings(0.4, 1.3), cfg, rng
            )
            offsets = {a.timestamp_ps, b.timestamp_ps}
            assert offsets != {0, 2 * BIN_SEP}

    def test_central_coincidence_statistics(self):
        cfg = SourceConfig()
        pair = make_pair()
        alpha, beta = 0.5, 0.9
        rng = np.random.default_rng(42)
        n = 20_000
        hits = 0
        for _ in range(n):
            a, b = analyzer_sample(
                pair, pair_events(pair, cfg), self.settings(alpha, beta), cfg, rng
            )
            if (
                a.timestamp_ps == BIN_SEP
                and b.timestamp_ps == BIN_SEP
                and a.port == +1
                and b.port == +1
            ):
                hits += 1
        p = (1.0 + math.cos(alpha + beta)) / 16.0
        sigma = math.sqrt(p * (1.0 - p) / n)
        assert abs(hits / n - p) < 4.0 * sigma

    def test_lost_partner_uses_reduced_state(self):
        cfg = SourceConfig()
        pair = make_pair()
        rng = np.random.default_rng(9)
        evs = pair_events(pair, cfg)
        survivor = [evs[0]]  # only the 794 nm photon made it
        counts = {0: 0, BIN_SEP: 0, 2 * BIN_SEP: 0}
        n = 8000
        for _ in range(n):
            (resolved,) = analyzer_sample(pair, survivor, self.settings(0.7, 0.0), cfg, rng)
            counts[resolved.timestamp_ps] += 1
        # Reduced state is I/2: early 1/4, central 1/2, late 1/4.
        for offset, p in ((0, 0.25), (BIN_SEP, 0.5), (2 * BIN_SEP, 0.25)):
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(counts[offset] / n - p) < 4.5 * sigma

    def test_no_survivors(self):
        cfg = SourceConfig()
        pair = make_pair()
        rng = np.random.default_rng(1)
        assert analyzer_sample(pair, [], self.settings(0, 0), cfg, rng) == []

    def test_time_of_arrival_on_entangled_pair(self):
        cfg = SourceConfig()
        pair = make_pair()
        rng = np.random.default_rng(17)
        settings = {
            events.SIGNAL_794: AnalyzerSetting.time_of_arrival(),
            events.IDLER_1535: AnalyzerSetting.time_of_arrival(),
        }
        same = 0
        n = 4000
        for _ in range(n):
            a, b = analyzer_sample(pair, pair_events(pair, cfg), settings, cfg, rng)
            assert a.bin in (events.BIN_EARLY, events.BIN_LATE)
            # Perfect correlations in the arrival-time basis.
            assert a.bin == b.bin
            assert a.timestamp_ps == b.timestamp_ps
            same += 1
        assert same == n

    def test_single_mode_pair_time_of_arrival(self):
        cfg = SourceConfig(pump_mode="EARLY_ONLY")
        pair = PairEmission(cycle=0, pair_id=0, joint_state=None)
        rng = np.random.default_rng(23)
        settings = {
            events.SIGNAL_794: AnalyzerSetting.time_of_arrival(),
            events.IDLER_1535: AnalyzerSetting.time_of_arrival(),
        }
        evs = [
            events.PhotonEvent(cycle=0, channel=ch, timestamp_ps=0, bin=events.BIN_EARLY)
            for ch in (events.SIGNAL_794, events.IDLER_1535)
        ]
        for _ in range(50):
            a, b = analyzer_sample(pair, evs, settings, cfg, rng)
            assert a.bin == events.BIN_EARLY and b.bin == events.BIN_EARLY
            assert a.timestamp_ps == 0 and b.timestamp_ps == 0


class TestDetect:
    def test_ideal_detector_is_identity(self):
        cfg = DetectorConfig(efficiency=1.0, jitter_sigma_ps=0.0, dark_rate_hz=0.0)
        ev = events.PhotonEvent(cycle=0, channel=events.SIGNAL_794, timestamp_ps=123)
        rng = np.random.default_rng(0)
        out = detect(ev, cfg, rng)
        assert out is not None and out.timestamp_ps == 123

    def test_zero_efficiency_drops_everything(self):
        cfg = DetectorConfig(efficiency=0.0, jitter_sigma_ps=0.0, dark_rate_hz=0.0)
        ev = events.PhotonEvent(cycle=0, channel=events.SIGNAL_794, timestamp_ps=123)
        rng = np.random.default_rng(0)
        assert all(detect(ev, cfg, rng) is None for _ in range(100))

    def test_lost_photons_never_detected(self):
        cfg = DetectorConfig(efficiency=1.0, jitter_sigma_ps=0.0, dark_rate_hz=0.0)
        ev = events.PhotonEvent(
            cycle=0,
            channel=events.SIGNAL_794,
            timestamp_ps=5,
            memory_outcome=events.OUTCOME_LOST,
        )
        assert detect(ev, cfg, np.random.default_rng(0)) is None

    def test_efficiency_thinning_statistics(self):
        cfg = DetectorConfig(efficiency=0.7, jitter_sigma_ps=0.0, dark_rate_hz=0.0)
        ev = events.PhotonEvent(cycle=0, channel=events.SIGNAL_794, timestamp_ps=0)
        rng = np.random.default_rng(4)
        n = 20_000
        kept = sum(detect(ev, cfg, rng) is not None for _ in range(n))
        sigma = math.sqrt(0.7 * 0.3 / n)
        assert abs(kept / n - 0.7) < 4.0 * sigma

    def test_jitter_statistics(self):
        sigma_ps = 250.0 / 2.355
        cfg = DetectorConfig(efficiency=1.0, jitter_sigma_ps=sigma_ps, dark_rate_hz=0.0)
        ev = events.PhotonEvent(cycle=0, channel=events.SIGNAL_794, timestamp_ps=100_000)
        rng = np.random.default_rng(8)
        shifts = np.array(
            [detect(ev, cfg, rng).timestamp_ps - 100_000 for _ in range(20_000)], dtype=float
        )
        assert abs(shifts.mean()) < 4.0 * sigma_ps / math.sqrt(len(shifts))
        assert shifts.std() == pytest.approx(sigma_ps, rel=0.05)

    def test_default_jitter_value(self):
        cfg = DetectorConfig()
        assert cfg.efficiency == pytest.approx(0.70)
        assert cfg.jitter_sigma_ps == pytest.approx(250.0 / 2.355, rel=1e-6)
        assert cfg.dark_rate_hz == pytest.approx(100.0)


class TestDarkEvents:
    def test_poisson_rate(self):
        cfg = DetectorConfig(dark_rate_hz=100.0)
        rng = np.random.default_rng(12)
        n_cycles = 2_000_000
        rep = 12_500
        span_s = n_cycles * rep * 1e-12  # 25 ms
        expected = 100.0 * span_s  # 2.5 per channel
        totals = []
        for _ in range(200):
            evs = dark_events(cfg, rng, [events.SIGNAL_794], n_cycles, rep)
            totals.append(len(evs))
        mean = np.mean(totals)
        sigma = math.sqrt(expected / 200)
        assert abs(mean - expected) < 5.0 * sigma

    def test_fields_and_range(self):
        cfg = DetectorConfig(dark_rate_hz=1e7)
        rng = np.random.default_rng(1)
        evs = dark_events(cfg, rng, [events.IDLER_1535], 1000, 12_500)
        assert len(evs) > 0
        for ev in evs[:50]:
            assert ev.origin == events.ORIGIN_DARK
            assert ev.bin == events.BIN_NONE
            assert 0 <= ev.timestamp_ps < 1000 * 12_500
            assert ev.cycle == ev.timestamp_ps // 12_500


def det(channel, t):
    return events.PhotonEvent(cycle=int(t // 12_500), channel=channel, timestamp_ps=int(t))


class TestTdcHistogram:
    def test_hand_built_case(self):
        herald = [det(events.IDLER_1535, 50_000)]
        stops = [
            det(events.SIGNAL_794, 50_000 - 100),
            det(events.SIGNAL_794, 50_000 + 30),
            det(events.SIGNAL_794, 50_000 + 85),
            det(events.SIGNAL_794, 50_000 + 10_000),  # outside the window
        ]
        hist = tdc_histogram(
            herald + stops,
            rep_period_ps=12_500,
            bin_width_ps=80,
            window_ps=240,
        )
        assert hist.n_starts == 1
        # Bins: [-240,-160) [-160,-80) [-80,0) [0,80) [80,160) [160,240)
        assert hist.counts.tolist() == [0, 1, 0, 1, 1, 0]

    def test_multiple_starts_accumulate(self):
        herald = [det(events.IDLER_1535, 12_500), det(events.IDLER_1535, 25_000)]
        stops = [det(events.SIGNAL_794, 12_530), det(events.SIGNAL_794, 25_030)]
        hist = tdc_histogram(herald + stops, 12_500, bin_width_ps=80, window_ps=240)
        assert hist.n_starts == 2
        center = int((30 + 240) // 80)
        assert hist.counts[center] == 2
        # Each stop is also seen by the other start at +-12.5 us, outside the window.
        assert hist.counts.sum() == 2

    def test_cross_cycle_coincidences_visible_in_wide_window(self):
        herald = [det(events.IDLER_1535, 12_500)]
        stops = [det(events.SIGNAL_794, 25_010)]
        hist = tdc_histogram(herald + stops, 12_500, bin_width_ps=80, window_ps=20_000)
        idx = int((12_510 + 20_000) // 80)
        assert hist.counts[idx] == 1

    def test_merge_is_associative_and_commutative(self):
        rng = np.random.default_rng(3)

        def random_hist():
            h = CoincidenceHistogram.empty(bin_width_ps=80, window_ps=800)
            h = h.with_counts(rng.integers(0, 50, h.counts.shape[0]), n_starts=int(rng.integers(1, 9)))
            return h

        a, b, c = random_hist(), random_hist(), random_hist()
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert np.array_equal(left.counts, right.counts)
        assert left.n_starts == right.n_starts
        ab, ba = a.merge(b), b.merge(a)
        assert np.array_equal(ab.counts, ba.counts)

    def test_merge_requires_matching_binning(self):
        a = CoincidenceHistogram.empty(80, 800)
        b = CoincidenceHistogram.empty(40, 800)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_coincidence_rate_window(self):
        herald = [det(events.IDLER_1535, 100_000)]
        stops = [
            det(events.SIGNAL_794, 100_000 + dt) for dt in (-450, -30, 0, 200, 480, 900)
        ]
        hist = tdc_histogram(herald + stops, 12_500, bin_width_ps=80, window_ps=2_000)
        # Default halfwidth 500 ps picks up everything but the 900 ps stop.
        assert coincidence_rate(hist, 0) == 5
        assert coincidence_rate(hist, 0, peak_halfwidth_ps=100) == 2

    def test_coincidence_rate_out_of_span(self):
        hist = CoincidenceHistogram.empty(80, 800)
        with pytest.raises(ValueError):
            coincidence_rate(hist, 5_000)


def brute_force_histogram(starts, stops, bin_width_ps, window_ps):
    counts = np.zeros(2 * window_ps // bin_width_ps, dtype=np.int64)
    for start in starts:
        for stop in stops:
            dt = int(stop) - int(start)
            if -window_ps <= dt < window_ps:
                counts[(dt + window_ps) // bin_width_ps] += 1
    return counts


class TestHistogramFromTimes:
    @pytest.mark.parametrize("chunk", [1, 2, 7, 64, detection.HISTOGRAM_CHUNK_PAIRS])
    def test_equals_brute_force(self, chunk, monkeypatch):
        monkeypatch.setattr(detection, "HISTOGRAM_CHUNK_PAIRS", chunk)
        rng = np.random.default_rng(17)
        for _ in range(40):
            n_start, n_stop = rng.integers(0, 60, 2)
            starts = rng.integers(0, 6_000, n_start)
            stops = rng.integers(0, 6_000, n_stop)
            hist = tdc_histogram_from_times(starts, stops, 80, 800)
            assert hist.n_starts == n_start
            assert np.array_equal(
                hist.counts, brute_force_histogram(starts, stops, 80, 800)
            )

    def test_window_edges_and_chunk_edge(self, monkeypatch):
        # Chunks of 3 pairs: the first start's 3 stops fill one chunk, so
        # the second start begins the next chunk.
        monkeypatch.setattr(detection, "HISTOGRAM_CHUNK_PAIRS", 3)
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

    def test_empty_inputs(self):
        assert tdc_histogram_from_times([], [5], 80, 800).counts.sum() == 0
        hist = tdc_histogram_from_times([5, 6], [], 80, 800)
        assert hist.counts.sum() == 0
        assert hist.n_starts == 2


class TestCsvRoundTrips:
    def test_event_csv(self, tmp_path):
        evs = [
            events.PhotonEvent(
                cycle=2,
                channel=events.SIGNAL_794,
                timestamp_ps=25_123,
                bin=events.BIN_EARLY,
                origin=events.ORIGIN_PAIR,
                pair_id=4,
                memory_outcome=events.recalled_token(0),
            ),
            events.PhotonEvent(
                cycle=3,
                channel=events.IDLER_1535,
                timestamp_ps=37_600,
                bin=events.BIN_NONE,
                origin=events.ORIGIN_DARK,
            ),
        ]
        path = tmp_path / "events.csv"
        events_to_csv(evs, path)
        header = path.read_text().splitlines()[0]
        assert header == "cycle,channel,time_ps,bin,origin,memory_outcome"
        back = events_from_csv(path)
        assert len(back) == 2
        assert back[0].timestamp_ps == 25_123
        assert back[0].memory_outcome == events.recalled_token(0)
        assert back[1].origin == events.ORIGIN_DARK

    def test_histogram_csv(self, tmp_path):
        herald = [det(events.IDLER_1535, 50_000)]
        stops = [det(events.SIGNAL_794, 50_030)]
        hist = tdc_histogram(herald + stops, 12_500, bin_width_ps=80, window_ps=240)
        path = tmp_path / "hist.csv"
        hist.to_csv(path)
        assert path.read_text().splitlines()[0] == "bin_start_ps,count"
        back = histogram_from_csv(path)
        assert np.array_equal(back.counts, hist.counts)
        assert back.bin_width_ps == 80
