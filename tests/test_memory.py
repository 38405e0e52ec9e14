"""Tests for comb construction, fitting, recall efficiency and echo spectra.

Oracles: the device-efficiency formula is re-evaluated inline from its
definition; echo delays are checked against 1/spacing arithmetic; the comb
fit is checked as a synthetic round trip and against scipy's trust-region
least squares from the same start, and its model's Jacobian against central
differences.
"""

import math

import numpy as np
import pytest
from conftest import IDEAL_DETECTORS, SYNTHETIC_COMB, make_config, noisy_flat_profile

from afclink import events, memory
from afclink.errors import FitError
from afclink.estimation import find_peaks
from afclink.harness import simulate
from afclink.memory import (
    CombSpectrum,
    FittedComb,
    MemoryConfig,
    _comb_model,
    build_comb,
    comb_from_csv,
    comb_to_csv,
    device_efficiency,
    echo_response,
    fit_comb,
    storage_time_ns,
)


def era_comb(**overrides):
    kwargs = dict(
        delta_mhz=166.0,
        finesse=2.0,
        background_od=0.1,
        tooth_od=2.0,
        bandwidth_ghz=8.0,
        grid_step_mhz=2.0,
    )
    kwargs.update(overrides)
    return build_comb(**kwargs)


def noisy_comb():
    """A comb (Delta 31 MHz, F 3) with Gaussian noise of sigma 0.01 OD."""
    comb = build_comb(31.0, 3.0, 0.2, 1.5, 10.0, 1.0)
    rng = np.random.default_rng(42)
    noisy = np.clip(comb.od + rng.normal(0.0, 0.01, comb.od.shape), 0.0, None)
    return CombSpectrum(comb.detuning_mhz, noisy)


def modulated_comb():
    return build_comb(31.0, 2.0, 0.3, 2.0, 4.0, 0.25, modulation_depth=0.5)


class TestBuildComb:
    def test_teeth_and_storage_time(self):
        comb = era_comb()
        assert find_peaks(comb.od).size == 48  # floor(8000 / 166) teeth
        assert storage_time_ns(166.0) == pytest.approx(1000.0 / 166.0, abs=1e-9)
        assert storage_time_ns(166.0) == pytest.approx(6.02, abs=0.01)

    def test_long_storage_comb(self):
        comb = build_comb(31.0, 2.0, 0.0, 2.0, bandwidth_ghz=10.0, grid_step_mhz=1.0)
        assert storage_time_ns(31.0) == pytest.approx(32.26, abs=0.01)
        assert find_peaks(comb.od).size == 322

    def test_profile_levels(self):
        comb = era_comb()
        # d0 + d1 on a tooth center; the floor sits above d0 because finesse-2
        # teeth overlap (exp(-4 ln 2) ~ 6% of each neighbor at the midpoint).
        assert comb.od.max() == pytest.approx(2.1, abs=0.02)
        assert comb.od.min() >= 0.1 - 1e-9
        sharp = era_comb(finesse=8.0, grid_step_mhz=4.0)
        assert sharp.od.min() == pytest.approx(0.1, abs=0.01)

    def test_grid_spans_bandwidth(self):
        comb = era_comb()
        assert comb.detuning_mhz[0] == pytest.approx(-4000.0)
        assert comb.detuning_mhz[-1] == pytest.approx(4000.0)
        steps = np.diff(comb.detuning_mhz)
        assert np.allclose(steps, steps[0], atol=1e-9)

    def test_grid_step_precondition(self):
        # Gaussian teeth need >= 4 samples per FWHM: step <= delta/(4F).
        with pytest.raises(ValueError):
            era_comb(grid_step_mhz=30.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            era_comb(finesse=1.0)
        with pytest.raises(ValueError):
            era_comb(finesse=0.8)
        with pytest.raises(ValueError):
            era_comb(tooth_od=-0.5)
        with pytest.raises(ValueError):
            era_comb(background_od=-0.1)
        with pytest.raises(ValueError):
            era_comb(bandwidth_ghz=0.1)

    def test_modulation_alternates_teeth(self):
        comb = build_comb(31.0, 2.0, 0.0, 2.0, 10.0, 1.0, modulation_depth=0.5)
        # Tallest teeth reach d1*(1+m); mean tooth height stays d1.
        assert comb.od.max() == pytest.approx(3.0, abs=0.03)
        with pytest.raises(ValueError):
            build_comb(31.0, 2.0, 0.0, 2.0, 10.0, 1.0, modulation_depth=1.5)


class TestDeviceEfficiency:
    def test_reference_point(self):
        assert device_efficiency(0.0, 2.0, 2.0) == pytest.approx(0.0639, abs=5e-5)

    def test_hand_evaluated_grid(self):
        # Five-point check against the literal formula, to 1e-12.
        grid = [
            (0.0, 2.0, 2.0),
            (0.1, 1.5, 2.5),
            (0.3, 4.0, 3.0),
            (0.0, 8.0, 4.0),
            (0.05, 2.5, 2.0),
        ]
        for d0, d1, f in grid:
            expected = (d1 / f) ** 2 * math.exp(-d1 / f) * math.exp(-7.0 / f**2) * math.exp(-d0)
            assert device_efficiency(d0, d1, f) == pytest.approx(expected, abs=1e-12)

    def test_background_only_attenuates(self):
        base = device_efficiency(0.0, 2.0, 2.0)
        assert device_efficiency(1.0, 2.0, 2.0) == pytest.approx(base * math.exp(-1.0), rel=1e-12)

    def test_interior_maximum_in_tooth_od(self):
        # At fixed finesse the efficiency peaks at d1 = 2F.
        for f in (2.0, 3.0, 5.0):
            d1_grid = np.linspace(0.05, 6.0 * f, 4000)
            vals = [device_efficiency(0.0, d1, f) for d1 in d1_grid]
            best = d1_grid[int(np.argmax(vals))]
            assert best == pytest.approx(2.0 * f, abs=0.02 * f)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            device_efficiency(-0.1, 2.0, 2.0)
        with pytest.raises(ValueError):
            device_efficiency(0.0, -2.0, 2.0)
        with pytest.raises(ValueError):
            device_efficiency(0.0, 2.0, 0.9)

    def test_background_monotone_decreasing_property(self):
        rng = np.random.default_rng(29)
        for _ in range(1000):
            d1 = float(rng.uniform(0.2, 8.0))
            f = float(rng.uniform(1.1, 10.0))
            a, b = np.sort(rng.uniform(0.0, 3.0, size=2))
            if b - a < 1e-6:
                continue
            lo = device_efficiency(b, d1, f)
            hi = device_efficiency(a, d1, f)
            assert lo < hi
            assert lo == pytest.approx(hi * math.exp(a - b), rel=1e-9)

    def test_tooth_od_stationary_at_twice_finesse_property(self):
        # The derivative in d1 vanishes at d1 = 2F: check by central
        # differences, and that nearby points sit strictly below the peak.
        rng = np.random.default_rng(37)
        for _ in range(1000):
            f = float(rng.uniform(1.1, 10.0))
            h = 1e-5 * f
            peak = device_efficiency(0.0, 2.0 * f, f)
            fd = (
                device_efficiency(0.0, 2.0 * f + h, f)
                - device_efficiency(0.0, 2.0 * f - h, f)
            ) / (2.0 * h)
            assert abs(fd) <= 1e-6 * peak / f
            assert device_efficiency(0.0, 1.9 * f, f) < peak
            assert device_efficiency(0.0, 2.1 * f, f) < peak


class TestEchoResponse:
    @pytest.mark.parametrize("seed", range(5))
    def test_noisy_flat_profile_has_no_echoes(self, seed):
        # The tallest noise peak carries < 1e-3 of the zero-delay term; a
        # comb's primary echo carries 0.25-0.4 of it.
        comb = noisy_flat_profile(seed)
        assert echo_response(comb) == []
        with pytest.raises(ValueError, match="comb shows no echo peaks"):
            MemoryConfig.from_comb(comb, coupling_efficiency=0.2, device_efficiency=0.1)

    def test_clean_comb_dominant_delay(self):
        comb = build_comb(31.0, 2.0, 0.1, 2.0, 10.0, 1.0)
        echoes = echo_response(comb)
        assert len(echoes) >= 1
        dominant = max(echoes, key=lambda e: e[1])
        # One FFT bin is 1000/(n*step) ~ 0.1 ns here.
        assert dominant[0] == pytest.approx(1000.0 / 31.0, abs=0.11)
        assert dominant[1] == pytest.approx(1.0)

    def test_modulated_comb_half_and_double_delays(self):
        comb = build_comb(31.0, 2.0, 0.0, 2.0, 10.0, 1.0, modulation_depth=0.4)
        echoes = echo_response(comb, rel_threshold=0.02)
        delays = np.array([d for d, _ in echoes])
        fundamental = 1000.0 / 31.0
        for target in (fundamental / 2.0, fundamental, 2.0 * fundamental):
            assert np.min(np.abs(delays - target)) <= 0.11, f"no echo near {target:.2f} ns"

    def test_clean_comb_has_no_half_delay(self):
        comb = build_comb(31.0, 2.0, 0.1, 2.0, 10.0, 1.0)
        echoes = echo_response(comb, rel_threshold=0.02)
        delays = np.array([d for d, _ in echoes])
        half = 0.5 * 1000.0 / 31.0
        assert np.min(np.abs(delays - half)) > 1.0

    def test_short_storage_comb(self):
        comb = era_comb()
        echoes = echo_response(comb)
        dominant = max(echoes, key=lambda e: e[1])
        # 8 GHz span at 2 MHz steps: one FFT bin is 0.125 ns.
        assert dominant[0] == pytest.approx(1000.0 / 166.0, abs=0.13)

    @pytest.mark.parametrize("threshold", [float("nan"), -1e-9, 1.0 + 1e-9, float("inf")])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        comb = build_comb(31.0, 2.0, 0.1, 2.0, 10.0, 1.0)
        with pytest.raises(ValueError, match=r"rel_threshold must lie in \[0, 1\]"):
            echo_response(comb, rel_threshold=threshold)
        # The ends of the interval are accepted: 0 keeps every peak, 1 the
        # strongest alone.
        assert len(echo_response(comb, rel_threshold=0.0)) >= len(echo_response(comb))
        assert [amp for _, amp in echo_response(comb, rel_threshold=1.0)] == [1.0]

    def test_dominant_echo_at_inverse_spacing_property(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            delta = float(rng.uniform(40.0, 400.0))
            finesse = float(rng.uniform(1.5, 4.0))
            step = 0.9 * delta / (4.0 * finesse)
            comb = build_comb(
                delta,
                finesse,
                float(rng.uniform(0.0, 0.3)),
                float(rng.uniform(0.5, 3.0)),
                bandwidth_ghz=4.0,
                grid_step_mhz=step,
            )
            echoes = echo_response(comb)
            assert echoes
            dominant = max(echoes, key=lambda e: e[1])
            bin_ns = 1000.0 / (comb.od.shape[0] * comb.grid_step_mhz)
            assert abs(dominant[0] - 1000.0 / delta) <= bin_ns + 1e-9


class TestStorageTimeUnits:
    def test_inverse_spacing_round_trip_property(self):
        # tau[ns] * Delta[MHz] = 1000, i.e. tau * Delta = 1 in SI units.
        rng = np.random.default_rng(23)
        for _ in range(1000):
            delta = float(rng.uniform(1.0, 1000.0))
            tau_s = storage_time_ns(delta) * 1e-9
            delta_hz = delta * 1e6
            assert tau_s * delta_hz == pytest.approx(1.0, rel=1e-12)


class TestFitComb:
    def test_synthetic_round_trip(self):
        fit = fit_comb(era_comb())
        assert fit.delta_mhz == pytest.approx(166.0, rel=0.01)
        assert fit.finesse == pytest.approx(2.0, rel=0.01)
        assert fit.background_od == pytest.approx(0.1, abs=0.01 * 2.0)
        assert fit.tooth_od == pytest.approx(2.0, rel=0.01)

    def test_round_trip_with_noise(self):
        fit = fit_comb(noisy_comb())
        assert fit.delta_mhz == pytest.approx(31.0, rel=0.01)
        assert fit.finesse == pytest.approx(3.0, rel=0.05)
        assert fit.tooth_od == pytest.approx(1.5, rel=0.05)

    def test_flat_input_rejected(self):
        det = np.linspace(-4000.0, 4000.0, 2001)
        with pytest.raises(FitError):
            fit_comb(CombSpectrum(det, np.full_like(det, 0.7)))

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError, match="matching 1-d arrays"):
            CombSpectrum(np.arange(10.0), np.arange(9.0))

    def test_too_few_points_rejected(self):
        det = np.arange(12.0)
        with pytest.raises(ValueError, match="at least 16 points"):
            fit_comb(CombSpectrum(det, np.cos(det) + 1.0))

    @pytest.mark.parametrize("bad", ["reversed", "uneven"])
    def test_bad_grid_cannot_reach_the_fit(self, bad):
        # fit_comb takes only a CombSpectrum, and a reversed or uneven grid
        # fails when that is built; scipy's fit would fail on such a grid
        # with a bound error that names nothing.
        comb = comb_from_csv(SYNTHETIC_COMB)
        detuning, od = comb.detuning_mhz.copy(), comb.od
        if bad == "reversed":
            detuning, od = detuning[::-1], od[::-1]
        else:
            detuning[100] += comb.grid_step_mhz / 3.0
        with pytest.raises(ValueError, match="strictly increasing and uniform"):
            fit_comb(CombSpectrum(detuning, od))

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(memory, "COMB_FIT_MAX_STEPS", 1)
        with pytest.raises(FitError, match="comb fit did not converge"):
            fit_comb(era_comb())


def assert_jacobian_matches_central_differences(x, grid):
    _, jac = _comb_model(grid, *x)
    numeric = np.empty_like(jac)
    # Steps on each parameter's own scale; the offset's is the tooth FWHM.
    delta, finesse = x[:2]
    for i, h in enumerate(1e-7 * np.array([delta, finesse, 1.0, 1.0, delta / finesse])):
        step = np.eye(5)[i] * h
        hi, _ = _comb_model(grid, *(np.array(x) + step))
        lo, _ = _comb_model(grid, *(np.array(x) - step))
        numeric[:, i] = (hi - lo) / (2.0 * h)
    err = np.abs(jac - numeric).max(axis=0)
    assert np.all(err <= 1e-6 * np.abs(jac).max(axis=0)), err


class TestCombModelJacobian:
    """The analytic Jacobian against central differences: a wrong sign or
    factor there still converges, only slowly, so no fit test would catch it."""

    @pytest.mark.parametrize(
        "x, grid",
        [
            ((166.0, 2.0, 0.1, 2.0, 0.0), era_comb().detuning_mhz),
            ((31.0, 6.0, 0.0, 1.5, 3.0), modulated_comb().detuning_mhz),
            ((166.0, 2.0, 0.1, 2.0, 0.499 * 166.0), era_comb().detuning_mhz),
            ((166.0, 1.2, 0.1, 2.0, -0.499 * 166.0), era_comb().detuning_mhz),
        ],
        ids=["plain", "fine-teeth", "offset+half", "offset-half"],
    )
    def test_matches_central_differences(self, x, grid):
        assert_jacobian_matches_central_differences(x, grid)

    def test_matches_central_differences_at_a_modulated_fit(self):
        comb = modulated_comb()
        fit = fit_comb(comb)
        x = [fit.delta_mhz, fit.finesse, fit.background_od, fit.tooth_od, fit.offset_mhz]
        assert_jacobian_matches_central_differences(x, comb.detuning_mhz)


class TestFitCombAgainstScipy:
    """fit_comb against scipy.optimize.least_squares (trust-region reflective,
    finite-difference Jacobian) from the same start and bounds, which
    _least_squares is handed."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: comb_from_csv(SYNTHETIC_COMB),
            era_comb,
            noisy_comb,
            lambda: era_comb(background_od=0.0),
            modulated_comb,
        ],
        ids=["synthetic-csv", "era", "noisy", "no-background", "modulated"],
    )
    def test_same_optimum(self, monkeypatch, make):
        optimize = pytest.importorskip("scipy.optimize")
        calls = []

        def recording(model, y, x0, lower, upper):
            calls.append((model, y, x0, lower, upper))
            return solve(model, y, x0, lower, upper)

        solve = memory._least_squares
        monkeypatch.setattr(memory, "_least_squares", recording)
        fit = fit_comb(make())
        [(model, y, x0, lower, upper)] = calls
        ref = optimize.least_squares(
            lambda x: model(x)[0] - y, x0, bounds=(lower, upper), method="trf"
        )
        assert ref.success
        expected = FittedComb(*ref.x.tolist(), float(np.sqrt(np.mean(ref.fun**2))))
        for name, value in vars(expected).items():
            assert getattr(fit, name) == pytest.approx(value, abs=1e-6), name


class TestCombCsv:
    def test_round_trip(self, tmp_path):
        comb = era_comb()
        path = tmp_path / "comb.csv"
        comb_to_csv(comb, path)
        text = path.read_text()
        assert text.splitlines()[0] == "detuning_MHz,optical_depth"
        read = comb_from_csv(path)
        assert isinstance(read, CombSpectrum)
        assert np.allclose(read.detuning_mhz, comb.detuning_mhz, atol=1e-6)
        assert np.allclose(read.od, comb.od, atol=1e-9)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,1.0\n1.0,2.0\n")
        with pytest.raises(ValueError):
            comb_from_csv(path)

    def test_non_finite_od_names_line(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("detuning_MHz,optical_depth\n0.0,1.0\n1.0,nan\n")
        with pytest.raises(ValueError, match=f"{path}: line 3: non-finite"):
            comb_from_csv(path)


    def test_bad_grid_names_first_bad_step(self, tmp_path):
        # Steps 1, 1, 1.5: the third step (into line 5) is the first uneven one.
        path = tmp_path / "uneven.csv"
        path.write_text("detuning_MHz,optical_depth\n0,1\n1,1\n2,1\n3.5,1\n4.5,1\n")
        with pytest.raises(ValueError, match=f"{path}: line 5: detuning grid"):
            comb_from_csv(path)
        # Equal detunings are not strictly increasing.
        path.write_text("detuning_MHz,optical_depth\n0,1\n0,1\n")
        with pytest.raises(ValueError, match=f"{path}: line 3: detuning grid"):
            comb_from_csv(path)

    def test_short_profile_names_file(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("detuning_MHz,optical_depth\n0,1\n1,1\n2,1\n")
        with pytest.raises(ValueError, match=f"{path}: detuning and OD must be matching"):
            comb_from_csv(path)

    def test_negative_od_sample_loads(self, tmp_path):
        # A measured profile may dip below zero OD through baseline noise;
        # the reader keeps it, as only build_comb promises a non-negative OD.
        path = tmp_path / "noisy.csv"
        rows = "".join(f"{k},{-0.01 if k == 3 else 1.0}\n" for k in range(10))
        path.write_text("detuning_MHz,optical_depth\n" + rows)
        assert comb_from_csv(path).od.min() == pytest.approx(-0.01)


class TestMemoryConfig:
    def test_from_comb_probabilities(self):
        comb = era_comb()
        eta = device_efficiency(0.1, 2.0, 2.0)
        cfg = MemoryConfig.from_comb(comb, coupling_efficiency=0.2, device_efficiency=eta)
        probs = cfg.outcome_table()
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(probs >= 0.0)
        # Transmission through the mean optical depth, then coupling loss.
        expected_trans = math.exp(-float(np.mean(comb.od))) * 0.2
        assert probs[0] == pytest.approx(expected_trans, rel=1e-9)
        # The primary echo carries the full device efficiency.
        assert probs[1 + cfg.primary_echo_index] == pytest.approx(
            eta * 0.2, rel=1e-6
        )

    def test_inconsistent_probabilities_rejected(self):
        with pytest.raises(ValueError):
            MemoryConfig(
                coupling_efficiency=1.0,
                device_efficiency=0.9,
                mean_od=0.0,
                echo_delays=((32.0, 1.0), (16.0, 0.9)),
            )

    @pytest.mark.parametrize("excess, raises", [(2e-9, True), (5e-10, False)])
    def test_over_full_table_tolerance(self, excess, raises):
        # No loss and no absorption: the table sums to 1 + device efficiency,
        # and an excess up to 1e-9 passes as rounding.
        kwargs = dict(coupling_efficiency=1.0, device_efficiency=excess, mean_od=0.0,
                      echo_delays=((32.0, 1.0),))
        if raises:
            with pytest.raises(ValueError, match="outcome probabilities sum to"):
                MemoryConfig(**kwargs)
        else:
            assert MemoryConfig(**kwargs).outcome_table()[:-1].sum() == 1.0 + excess

    def test_coupling_bounds(self):
        with pytest.raises(ValueError):
            MemoryConfig(
                coupling_efficiency=1.2,
                device_efficiency=0.01,
                mean_od=1.0,
                echo_delays=((32.0, 1.0),),
            )


class TestApplyMemory:
    """The engine's memory stage as `simulate` reports it: the signal photon
    of every pair meets this memory; ideal detectors, no darks."""

    MEMORY = {
        "coupling_efficiency": 0.5,
        "device_efficiency": 0.4,
        "mean_od": 1.0,
        "echo_delays": [[32.0, 1.0], [16.0, 0.25]],
    }

    def run(self, seed, cycles, mu=0.2):
        """The config and what simulate returns for it."""
        cfg = make_config(
            seed=seed, cycles=cycles, mu=mu,
            memories={"signal_794": self.MEMORY}, detectors=IDEAL_DETECTORS,
        )
        return cfg, *simulate(cfg)

    def test_outcome_frequencies(self):
        cfg, tables, classes, clicks = self.run(seed=2024, cycles=200_000)
        n = int(classes.sum())
        assert n > 30_000
        outcomes = tables.labels.outcome[clicks[events.SIGNAL_794]["codes"]]
        counts = [int((outcomes == events.OUTCOME_TRANSMITTED).sum())]
        counts += [int((outcomes == events.recalled_token(k)).sum()) for k in range(2)]
        counts.append(n - outcomes.size)  # lost photons leave no click
        probs = cfg.memory_config(events.SIGNAL_794).outcome_table()
        for count, p in zip(counts, probs):
            assert abs(count / n - p) < 5.0 * math.sqrt(p * (1.0 - p) / n) + 1e-12

    def test_timestamps_and_tags(self):
        # Time-of-arrival analyzers: an EARLY click leaves its slot at 0, a
        # LATE one at the bin separation; the rest of the delay is the memory's.
        _, tables, _, clicks = self.run(seed=11, cycles=50_000)
        lab, rec = tables.labels, clicks[events.SIGNAL_794]
        outcomes, origins = lab.outcome[rec["codes"]], lab.origin[rec["codes"]]
        late = lab.bin[rec["codes"]] == events.BIN_LATE
        delay = rec["times"] - rec["cycles"] * 12_500 - np.where(late, 1_400, 0)
        pair, spurious = events.ORIGIN_PAIR, events.ORIGIN_SPURIOUS_ECHO
        for outcome, expected_delay, origin in (
            (events.OUTCOME_TRANSMITTED, 0, pair),
            (events.recalled_token(0), 32_000, pair),
            # Secondary echoes are tagged as spurious.
            (events.recalled_token(1), 16_000, spurious),
        ):
            hit = outcomes == outcome
            assert hit.any(), outcome
            assert np.all(delay[hit] == expected_delay)
            assert np.all(origins[hit] == origin)

    def test_lost_partner_keeps_qubit_fields(self):
        # Storage leaves the time-bin qubit alone: in every cycle that holds
        # one pair, the stored signal photon and its direct idler partner
        # still share their arrival bin.
        _, tables, _, clicks = self.run(seed=0, cycles=200_000, mu=0.05)
        lab = tables.labels
        sig = clicks[events.SIGNAL_794]
        idl = clicks[events.IDLER_1535]
        single = np.flatnonzero(
            (np.bincount(sig["cycles"], minlength=200_000) == 1)
            & (np.bincount(idl["cycles"], minlength=200_000) == 1)
        )
        sig_row = dict(zip(sig["cycles"].tolist(), range(sig["cycles"].size)))
        idl_row = dict(zip(idl["cycles"].tolist(), range(idl["cycles"].size)))
        rows = [(sig_row[c], idl_row[c]) for c in single.tolist()]
        recalled = {events.recalled_token(k) for k in range(2)}
        sig_outcomes = lab.outcome[sig["codes"]]
        sig_bins, idl_bins = lab.bin[sig["codes"]], lab.bin[idl["codes"]]
        assert sum(sig_outcomes[i] in recalled for i, _ in rows) > 100
        assert all(sig_bins[i] == idl_bins[j] for i, j in rows)


class TestCombSpectrumValidation:
    @pytest.mark.parametrize("bad", ["reversed", "uneven", "nan"])
    def test_bad_detuning_grid_rejected(self, bad):
        detuning = np.linspace(-10, 10, 21)
        if bad == "reversed":
            detuning = detuning[::-1]
        elif bad == "uneven":
            detuning[7] += 0.1
        else:
            detuning[7] = np.nan
        with pytest.raises(ValueError, match="strictly increasing and uniform"):
            CombSpectrum(detuning_mhz=detuning, od=np.ones(21))

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match=r"\(>= 8 points\)"):
            CombSpectrum(detuning_mhz=np.arange(7.0), od=np.ones(7))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_od_rejected(self, value):
        # One bad sample in a built profile, which no CSV reader has checked.
        comb = build_comb(31.0, 2.0, 0.3, 2.0, 1.0, 0.5)
        od = comb.od.copy()
        od[10] = value
        with pytest.raises(ValueError, match="^OD must be finite$"):
            CombSpectrum(detuning_mhz=comb.detuning_mhz, od=od)
