"""Tests for the pulsed down-conversion pair source and the engine's pair draw."""

from functools import partial

import numpy as np
import pytest
from conftest import IDEAL_DETECTORS, make_config

from afclink import events, harness
from afclink.harness import simulate
from afclink.source import PUMP_BOTH_ARMS, PUMP_EARLY_ONLY, SourceConfig


class TestSourceConfig:
    def test_defaults(self):
        cfg = SourceConfig()
        assert cfg.mean_pairs_per_pulse == pytest.approx(0.016)
        assert cfg.rep_period_ps == 12_500
        assert cfg.bin_separation_ps == 1_400
        assert cfg.pump_mode == PUMP_BOTH_ARMS
        assert cfg.pump_phase == 0.0
        assert cfg.depolarizing_noise == 0.0

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError):
            SourceConfig(mean_pairs_per_pulse=-0.01)

    def test_bins_must_fit_in_period(self):
        with pytest.raises(ValueError):
            SourceConfig(rep_period_ps=2_500, bin_separation_ps=1_400)

    def test_high_mu_warns(self):
        with pytest.warns(UserWarning):
            SourceConfig(mean_pairs_per_pulse=0.7)

    def test_bad_pump_mode(self):
        with pytest.raises(ValueError):
            SourceConfig(pump_mode="SIDEWAYS")

    def test_noise_bounds(self):
        with pytest.raises(ValueError):
            SourceConfig(depolarizing_noise=1.5)


# No memories, ideal detectors, time-of-arrival analyzers.
lossless_config = partial(
    make_config, seed=1, cycles=20_000, mu=0.1, detectors=IDEAL_DETECTORS
)


class TestSampleCycle:
    """The emitted state, and the engine's pair draw as `simulate` reports it."""

    def test_poisson_mean(self):
        n = 50_000
        _, classes, _ = simulate(lossless_config(seed=5, cycles=n, mu=0.1))
        sigma = np.sqrt(0.1 / n)
        assert abs(classes.sum() / n - 0.1) < 4.0 * sigma

    def test_pair_fields(self):
        # The pure state is its density matrix: the outer product of the
        # amplitudes, bit for bit.
        state = SourceConfig(pump_phase=0.3).joint_state()
        amps = np.array([1.0, 0.0, 0.0, np.exp(2j * 0.3)]) / np.sqrt(2.0)
        assert np.array_equal(state.matrix, np.outer(amps, amps.conj()))

    def test_early_only_is_single_mode(self):
        cfg = lossless_config(source={"pump_mode": PUMP_EARLY_ONLY})
        amps = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        rho = cfg.source.joint_state().matrix
        assert rho.dtype == complex and np.array_equal(rho, np.outer(amps, amps.conj()))
        # Both photons early: the joint arrival-time table is all (EARLY, EARLY).
        joint = np.diff(harness._build_tables(cfg).joint_cum, prepend=0.0)
        assert np.allclose(joint, [1.0, 0.0, 0.0, 0.0], atol=1e-15)


class TestCycleRng:
    """Each shard seeds its own stream from (seed, shard index)."""

    def _pair_cycles(self, shard_index):
        cfg = lossless_config(seed=3, cycles=10_000, mu=0.3)
        _, shard = harness._simulate_shard(
            harness._build_tables(cfg), shard_index, 0, 10_000
        )
        return shard[events.SIGNAL_794]["cycles"]

    def test_streams_differ_by_cycle(self):
        a, b = self._pair_cycles(0), self._pair_cycles(1)
        assert a.size > 0 and b.size > 0
        assert not np.array_equal(a, b)

    def test_streams_reproducible(self):
        assert np.array_equal(self._pair_cycles(5), self._pair_cycles(5))


class TestEmittedPairs:
    """Pairs as they leave a lossless chain: one photon per channel each."""

    def test_two_events_per_pair(self):
        _, classes, clicks = simulate(lossless_config(seed=4, mu=0.3))
        sig = clicks[events.SIGNAL_794]
        idl = clicks[events.IDLER_1535]
        assert sig["times"].size == idl["times"].size == classes.sum() > 0
        # Partners share their cycle, so both channels count alike per cycle.
        assert np.array_equal(np.sort(sig["cycles"]), np.sort(idl["cycles"]))

    def test_timestamps_on_cycle_grid(self):
        cfg = lossless_config(seed=7)
        _, _, clicks = simulate(cfg)
        for rec in clicks.values():
            offsets = rec["times"] - rec["cycles"] * cfg.source.rep_period_ps
            assert set(offsets.tolist()) == {0, cfg.source.bin_separation_ps}

    def test_bins_follow_pump_mode(self):
        early, late = events.BIN_EARLY, events.BIN_LATE
        tables, _, clicks = simulate(lossless_config(seed=2))
        for rec in clicks.values():
            assert set(tables.labels.bin[rec["codes"]].tolist()) == {early, late}
        tables, _, clicks = simulate(
            lossless_config(seed=2, source={"pump_mode": PUMP_EARLY_ONLY})
        )
        for rec in clicks.values():
            assert rec["times"].size > 0
            assert set(tables.labels.bin[rec["codes"]].tolist()) == {early}

    def test_origin_is_pair(self):
        tables, _, clicks = simulate(lossless_config(seed=3))
        lab = tables.labels
        for rec in clicks.values():
            assert rec["times"].size > 0
            assert np.all(lab.origin[rec["codes"]] == events.ORIGIN_PAIR)
            assert np.all(lab.outcome[rec["codes"]] == events.OUTCOME_NONE)


class TestChannelBalance:
    def test_equal_counts_per_channel_property(self):
        # Photons are created strictly in pairs: without loss every pair gives
        # one 794 nm and one 1535 nm click, whatever the pump mode or
        # brightness.
        for case in range(1000):
            rng = np.random.default_rng(10_000 + case)
            mu = float(rng.uniform(0.05, 0.45))
            mode = PUMP_BOTH_ARMS if case % 2 == 0 else PUMP_EARLY_ONLY
            cfg = lossless_config(seed=case, cycles=20, mu=mu, source={"pump_mode": mode})
            _, classes, clicks = simulate(cfg)
            n_signal = clicks[events.SIGNAL_794]["times"].size
            n_idler = clicks[events.IDLER_1535]["times"].size
            assert n_signal == n_idler == classes.sum()
