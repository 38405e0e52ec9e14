"""Tests for the statistical estimators.

Oracle values used below and frozen by hand:
  - Werner state p = 0.75: concurrence 0.625, purity 0.671875, overlap with
    the maximally entangled target 0.8125, formation entropy
    H(0.5 + 0.5*sqrt(1 - 0.625^2)) = 0.49897302161497825.
  - Correlator quadruple (0.6059, 0.6439, -0.6156, 0.6540) -> 2.5194 with
    quadrature sigma 0.02704625667259704; (0.6873, 0.6303, -0.5928, 0.6807)
    -> 2.5911 with sigma 0.20210158336836453.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from afclink.errors import EstimationError, FitError, UndefinedEstimateError
from afclink.estimation import (
    CHSH_PAIRS,
    METRIC_FUNCTIONS,
    TomographyInput,
    TomographyRow,
    _build_mle_data,
    _frobenius_inner,
    _gradient,
    _objective,
    _project_to_states,
    _start,
    born_correlation,
    chsh_s,
    concurrence,
    correlation_coefficient,
    efficiencies,
    entanglement_of_formation,
    eof_from_concurrence,
    fidelity,
    find_histogram_peaks,
    find_peaks,
    fit_batch,
    g2_cross,
    informationally_complete_pairs,
    monte_carlo_samples,
    purity,
    resample_rows,
    synthesize_input,
    tomography_from_csv,
    tomography_mle,
    tomography_to_csv,
    visibility_fit,
)
from afclink.detection import CoincidenceHistogram
from afclink.harness import (
    DATA_TOMOGRAPHY_IN,
    DATA_TOMOGRAPHY_OUT,
    _trial_metrics,
    analyze_paper_data,
    data_path,
)
from afclink.linalg import (
    DensityMatrix,
    Ket,
    ProjectorSetting,
    bell_phi_plus,
)

PHI_PLUS = bell_phi_plus().density()


def random_density(rng) -> DensityMatrix:
    """A full-rank random state A A^dagger / tr(A A^dagger), A complex Ginibre."""
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return DensityMatrix(a @ a.conj().T / np.trace(a @ a.conj().T).real)


def werner(p: float) -> DensityMatrix:
    return DensityMatrix(p * PHI_PLUS.matrix + (1.0 - p) * np.eye(4) / 4.0)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the absolute eigenvalue sum of rho - sigma."""
    return 0.5 * float(np.abs(np.linalg.eigvalsh(rho.matrix - sigma.matrix)).sum())


def objective_and_gradient(rho, tin):
    """The fit objective at a 4x4 matrix and its Hermitian gradient."""
    data = _build_mle_data(tin, tin.probabilities()[None])
    f, dfdp = _objective(data, rho[None], np.arange(1))
    return f[0], _gradient(data.effects, dfdp)[0]


def with_probabilities(tin, probs):
    """tin's rows carrying the probabilities `probs` instead."""
    return TomographyInput(
        tuple(replace(row, probability=float(p)) for row, p in zip(tin.rows, probs))
    )


def noisy_input(truth, sigma, rng):
    """Informationally complete rows drawn around `truth` with Gaussian noise
    of width sigma."""
    exact = synthesize_input(truth, informationally_complete_pairs(), sigma)
    return with_probabilities(exact, resample_rows(exact, rng))


def random_pure(rng) -> DensityMatrix:
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return Ket(v / np.linalg.norm(v)).density()


def flat_histogram(level: int = 0, window_ps: int = 70_000) -> CoincidenceHistogram:
    h = CoincidenceHistogram.empty(bin_width_ps=80, window_ps=window_ps)
    counts = np.full(h.n_bins, level, dtype=np.int64)
    return h.with_counts(counts, n_starts=1000)


def put(hist, delay_ps, count):
    counts = hist.counts.copy()
    counts[(delay_ps + hist.window_ps) // hist.bin_width_ps] += count
    return hist.with_counts(counts, n_starts=hist.n_starts)


class TestG2Cross:
    def synthetic(self, peak=500, side=50):
        h = flat_histogram()
        h = put(h, 0, peak)
        for n in list(range(-5, 0)) + list(range(1, 6)):
            h = put(h, n * 12_500, side)
        return h

    def test_exact_ratio(self):
        est = g2_cross(self.synthetic(), delay_ps=0)
        assert est.value == pytest.approx(10.0, abs=1e-12)
        assert est.sigma == pytest.approx(10.0 * math.sqrt(1 / 500 + 1 / 500), rel=1e-12)

    def test_scaling_invariance_property(self):
        # Ratio estimator: uniform count scaling leaves the value unchanged
        # and shrinks the uncertainty.
        rng = np.random.default_rng(11)
        for _ in range(1000):
            peak = int(rng.integers(10, 2000))
            side = int(rng.integers(5, 500))
            scale = int(rng.integers(2, 30))
            h = self.synthetic(peak, side)
            base = g2_cross(h, delay_ps=0)
            scaled_h = h.with_counts(h.counts * scale, h.n_starts)
            scaled = g2_cross(scaled_h, delay_ps=0)
            assert scaled.value == pytest.approx(base.value, rel=1e-12)
            assert scaled.sigma < base.sigma

    def test_empty_sidebands(self):
        h = put(flat_histogram(), 0, 100)
        with pytest.raises(UndefinedEstimateError):
            g2_cross(h, delay_ps=0)

    def test_sidebands_must_fit_in_span(self):
        # +-20 ns holds the windows at n = +-1 (12.5 +- 0.5 ns) but not +-2.
        h = put(put(put(flat_histogram(window_ps=20_000), 0, 90), -12_500, 20), 12_500, 10)
        est = g2_cross(h, delay_ps=0)
        assert est.reference_counts == 30
        assert est.value == pytest.approx(6.0, abs=1e-12)
        # +-12 ns holds no reference window at all.
        with pytest.raises(UndefinedEstimateError, match="g2 at 0 ps: .*12000 ps histogram; 0 references"):
            g2_cross(flat_histogram(level=1, window_ps=12_000), delay_ps=0)

    def test_peak_must_fit_in_span(self):
        with pytest.raises(UndefinedEstimateError, match="g2 at 69800 ps: .*70000 ps"):
            g2_cross(flat_histogram(level=1), delay_ps=69_800)

    def test_uncorrelated_streams_give_unity(self):
        rng = np.random.default_rng(5)
        h = flat_histogram()
        h = h.with_counts(rng.poisson(100.0, h.n_bins).astype(np.int64), 1000)
        est = g2_cross(h, delay_ps=0)
        assert abs(est.value - 1.0) < 4.0 * est.sigma

    def test_offset_peak(self):
        h = flat_histogram()
        h = put(h, 26_230, 300)
        # Inside +-70 ns: n = -5 .. -1 and 1 .. 3; n = 4 would end at 76.7 ns.
        for n in list(range(-5, 0)) + list(range(1, 4)):
            h = put(h, 26_230 + n * 12_500, 30)
        est = g2_cross(h, delay_ps=26_230)
        assert est.reference_counts == 8 * 30
        assert est.value == pytest.approx(10.0, abs=1e-12)

    def test_empty_peak_has_one_count_poisson_bound(self):
        est = g2_cross(self.synthetic(peak=0, side=40), delay_ps=0)
        assert est.value == 0.0
        assert est.peak_counts == 0
        # One count over the mean reference of 40 counts, with the Poisson
        # errors of 1 and of the 400 pooled reference counts.
        assert est.sigma == pytest.approx(math.sqrt(1.0 + 1.0 / 400) / 40.0, rel=1e-12)


class TestTomography:
    def exact_input(self, rho, sigma=0.01):
        return synthesize_input(rho, informationally_complete_pairs(), sigma)

    def test_exact_phi_plus(self):
        result = tomography_mle(self.exact_input(PHI_PLUS))
        assert fidelity(result.rho.matrix, PHI_PLUS.matrix) >= 0.999

    def test_exact_werner(self):
        truth = werner(0.75)
        result = tomography_mle(self.exact_input(truth))
        assert trace_distance(result.rho, truth) < 0.01

    def test_forward_model_consistency_property(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            truth = random_density(rng)
            result = tomography_mle(self.exact_input(truth))
            assert trace_distance(result.rho, truth) < 0.01

    def test_deterministic_given_seed(self):
        tin = self.exact_input(werner(0.6))
        a = tomography_mle(tin)
        b = tomography_mle(tin)
        assert np.array_equal(a.rho.matrix, b.rho.matrix)

    def test_rank_deficient_set_rejected(self):
        rows = [
            TomographyRow(ProjectorSetting.z(pa), ProjectorSetting.z(pb), 0.25, 0.01)
            for pa in (+1, -1)
            for pb in (+1, -1)
        ]
        with pytest.raises(ValueError):
            tomography_mle(TomographyInput(tuple(rows)))

    def test_gradient_matches_finite_differences(self):
        # f(rho + eps H) - f(rho - eps H) = 2 eps tr(G H) for Hermitian H.
        rng = np.random.default_rng(17)
        rho = werner(0.7).matrix
        tin = noisy_input(werner(0.8), 0.01, rng)
        _, grad = objective_and_gradient(rho, tin)
        for _ in range(16):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = (g + g.conj().T) / 2.0
            eps = 1e-6
            fd = (
                objective_and_gradient(rho + eps * h, tin)[0]
                - objective_and_gradient(rho - eps * h, tin)[0]
            ) / (2 * eps)
            assert np.trace(grad @ h).real == pytest.approx(fd, rel=1e-5, abs=1e-6)

    def test_optimality_certificate(self):
        # rho* minimizes a convex f over the states iff its gradient G has
        # lambda_min(G) >= tr(G rho*).
        rng = np.random.default_rng(29)
        for k in range(6):
            truth = random_density(rng) if k % 2 else random_pure(rng)
            for sigma in (0.002, 0.01, 0.05):
                tin = noisy_input(truth, sigma, rng)
                rho = tomography_mle(tin).rho.matrix
                _, grad = objective_and_gradient(rho, tin)
                lowest = np.linalg.eigvalsh(grad)[0]
                slack = 1e-8 * np.linalg.norm(grad)
                assert lowest >= np.trace(grad @ rho).real - slack

    def test_fixed_step_meets_sufficient_decrease(self):
        # The fit steps 1/L with no line search.  That is safe because the
        # objective is quadratic and L from _start is its exact Lipschitz
        # constant on the states, so every projected step x = P(y - G/L) meets
        # the Beck-Teboulle test f(x) <= f(y) + <G, x - y> + L/2 |x - y|^2.
        rng = np.random.default_rng(47)
        pairs = informationally_complete_pairs()
        for sigma in (0.002, 0.01, 0.05):
            truths = [random_density(rng) if k % 2 else random_pure(rng) for k in range(70)]
            measured = [resample_rows(synthesize_input(t, pairs, sigma), rng) for t in truths]
            data = _build_mle_data(synthesize_input(truths[0], pairs, sigma), measured)
            _, step = _start(data)
            y = np.stack([random_density(rng).matrix for _ in truths])
            idx = np.arange(len(truths))
            f_y, dfdp = _objective(data, y, idx)
            grad = _gradient(data.effects, dfdp)
            x = _project_to_states(y - step[:, None, None] * grad)
            f_x, _ = _objective(data, x, idx)
            d = x - y
            bound = f_y + _frobenius_inner(grad, d) + _frobenius_inner(d, d) / (2.0 * step)
            assert np.all(f_x <= bound + 1e-12 * np.abs(f_y))

    def test_single_fit_matches_batched_fit(self):
        rng = np.random.default_rng(31)
        # Noise around a pure state puts most fits on the boundary, where the
        # solver iterates and elements stop at different iterations.
        exact = synthesize_input(PHI_PLUS, informationally_complete_pairs(), 0.02)
        measured = np.stack([resample_rows(exact, rng) for _ in range(12)])
        batch = fit_batch(exact, measured)
        assert batch.converged.all()
        assert len(set(batch.iterations.tolist())) > 3
        for k in (0, 5, 11):
            single = tomography_mle(with_probabilities(exact, measured[k]))
            assert np.abs(single.rho.matrix - batch.rho[k]).max() <= 1e-12
            assert single.iterations == batch.iterations[k]

    def test_measured_stack_must_match_rows(self):
        exact = self.exact_input(werner(0.75))
        for bad in (exact.probabilities(), np.zeros((3, 35))):
            with pytest.raises(ValueError, match=r"\(B, 36\)"):
                fit_batch(exact, bad)

    def test_row_validation(self):
        a = ProjectorSetting.x()
        with pytest.raises(ValueError):
            TomographyRow(a, a, 1.3, 0.01)
        with pytest.raises(ValueError):
            TomographyRow(a, a, 0.5, -0.1)


class TestCsv:
    def test_round_trip(self, tmp_path):
        tin = synthesize_input(werner(0.75), informationally_complete_pairs(), 0.013)
        path = tmp_path / "tomo.csv"
        tomography_to_csv(tin, path)
        assert path.read_text().splitlines()[0] == "setting_a,setting_b,probability,sigma"
        back = tomography_from_csv(path)
        assert len(back.rows) == len(tin.rows)
        for r0, r1 in zip(tin.rows, back.rows):
            assert r0.setting_a == r1.setting_a
            assert r0.setting_b == r1.setting_b
            assert r1.probability == pytest.approx(r0.probability, abs=1e-12)
            assert r1.sigma == pytest.approx(r0.sigma, abs=1e-12)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("setting_a,setting_b,probability,sigma\nX,Y,0.5,0.01\nX,Q,0.5\n")
        with pytest.raises(ValueError, match="line 3"):
            tomography_from_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            tomography_from_csv(path)


class TestEntanglementMetrics:
    def test_concurrence_oracles(self):
        assert concurrence(PHI_PLUS.matrix) == pytest.approx(1.0, abs=1e-9)
        assert concurrence(bell_phi_plus(0.77).density().matrix) == pytest.approx(1.0, abs=1e-9)
        assert concurrence(np.eye(4) / 4) == pytest.approx(0.0, abs=1e-9)
        assert concurrence(werner(0.75).matrix) == pytest.approx(0.625, abs=1e-9)
        ee = Ket(np.array([1, 0, 0, 0], dtype=complex)).density()
        assert concurrence(ee.matrix) == pytest.approx(0.0, abs=1e-9)

    def test_concurrence_requires_two_qubits(self):
        for bad in (np.eye(2) / 2, np.stack([np.eye(2) / 2] * 3), np.eye(4)[None, None] / 4):
            with pytest.raises(ValueError, match="two-qubit"):
                concurrence(bad)

    def test_eof_oracles(self):
        assert entanglement_of_formation(PHI_PLUS.matrix) == pytest.approx(1.0, abs=1e-9)
        assert entanglement_of_formation(np.eye(4) / 4) == 0.0
        assert entanglement_of_formation(werner(0.75).matrix) == pytest.approx(
            0.49897302161497825, abs=1e-9
        )

    def test_eof_monotone_in_concurrence(self):
        grid = [eof_from_concurrence(c / 10.0) for c in range(11)]
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(1.0, abs=1e-12)
        assert all(b >= a for a, b in zip(grid, grid[1:]))
        assert eof_from_concurrence(np.arange(11) / 10.0).tolist() == grid

    def test_eof_range_check(self):
        for bad in (1.1, -0.01, math.nan, [0.5, 1.1]):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                eof_from_concurrence(bad)

    def test_fidelity_oracles(self):
        assert fidelity(werner(0.75).matrix, werner(0.75).matrix) == pytest.approx(1.0, abs=1e-9)
        ee = Ket(np.array([1, 0, 0, 0], dtype=complex)).density()
        ll = Ket(np.array([0, 0, 0, 1], dtype=complex)).density()
        assert fidelity(ee.matrix, ll.matrix) == pytest.approx(0.0, abs=1e-9)
        assert fidelity(werner(0.75).matrix, PHI_PLUS.matrix) == pytest.approx(0.8125, abs=1e-9)

    def test_fidelity_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(np.eye(2) / 2, PHI_PLUS.matrix)

    def test_fidelity_symmetry_and_pure_overlap_property(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            va = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            vb = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            ka = Ket(va / np.linalg.norm(va))
            kb = Ket(vb / np.linalg.norm(vb))
            f_ab = fidelity(ka.density().matrix, kb.density().matrix)
            f_ba = fidelity(kb.density().matrix, ka.density().matrix)
            assert abs(f_ab - f_ba) < 1e-9
            overlap = abs(np.vdot(ka.amplitudes, kb.amplitudes)) ** 2
            assert f_ab == pytest.approx(overlap, abs=1e-9)

    def test_purity_oracles_and_range_property(self):
        assert purity(np.eye(4) / 4) == pytest.approx(0.25, abs=1e-12)
        assert purity(werner(0.75).matrix) == pytest.approx(0.671875, abs=1e-12)
        assert purity(PHI_PLUS.matrix) == pytest.approx(1.0, abs=1e-9)
        rng = np.random.default_rng(37)
        for _ in range(1000):
            rho = random_density(rng).matrix
            p = purity(rho)
            assert 0.25 - 1e-12 <= p <= 1.0 + 1e-12
            # Unit purity certifies a single nonzero eigenvalue and vice versa.
            evals = np.linalg.eigvalsh(rho)
            if p >= 1.0 - 1e-9:
                assert sorted(evals)[-2] < 2e-5
            if sorted(evals)[-2] > 1e-3:
                assert p < 1.0 - 1e-6

    def test_stacks_equal_one_state_at_a_time(self):
        # Pure and mixed states in one stack: the rank-one branch is picked
        # state by state.
        rng = np.random.default_rng(53)
        states = [PHI_PLUS, werner(0.75), DensityMatrix(np.eye(4) / 4)]
        states += [random_pure(rng) for _ in range(4)] + [random_density(rng) for _ in range(4)]
        stack = np.stack([rho.matrix for rho in states])
        other = stack[::-1]
        for metric in (purity, concurrence, entanglement_of_formation):
            batched = metric(stack)
            assert batched.shape == (len(states),)
            single = [metric(m) for m in stack]
            assert np.abs(batched - single).max() <= 1e-12
        pairs = fidelity(stack, other)
        assert np.abs(pairs - [fidelity(a, b) for a, b in zip(stack, other)]).max() <= 1e-12
        against_one = fidelity(stack, PHI_PLUS.matrix)
        single = [fidelity(m, PHI_PLUS.matrix) for m in stack]
        assert np.abs(against_one - single).max() <= 1e-12


class TestCorrelation:
    def test_balanced_counts(self):
        e, sigma = correlation_coefficient(500, 500)
        assert e == 0.0
        assert sigma == pytest.approx(1.0 / math.sqrt(1000), rel=1e-12)

    def test_perfect_correlation(self):
        e, sigma = correlation_coefficient(400, 0)
        assert e == 1.0
        assert sigma == 0.0

    def test_zero_denominator(self):
        with pytest.raises(UndefinedEstimateError):
            correlation_coefficient(0, 0)

    def test_born_rule_value(self):
        a = ProjectorSetting.x()
        b = ProjectorSetting("XPY")
        assert born_correlation(PHI_PLUS, a, b) == pytest.approx(math.cos(math.pi / 4), abs=1e-12)


class TestChsh:
    IN_E = (0.6059, 0.6439, -0.6156, 0.6540)
    IN_SIGMA = (0.0134, 0.0127, 0.0131, 0.0148)
    OUT_E = (0.6873, 0.6303, -0.5928, 0.6807)
    OUT_SIGMA = (0.1129, 0.0822, 0.1032, 0.1034)

    def test_published_quadruples(self):
        s_in = chsh_s(self.IN_E, self.IN_SIGMA)
        assert s_in.value == pytest.approx(2.5194, abs=1e-12)
        assert s_in.sigma == pytest.approx(0.02704625667259704, abs=1e-12)
        s_out = chsh_s(self.OUT_E, self.OUT_SIGMA)
        assert s_out.value == pytest.approx(2.5911, abs=1e-12)
        assert s_out.sigma == pytest.approx(0.20210158336836453, abs=1e-12)

    def test_minus_slot_maximizes(self):
        est = chsh_s((0.6, 0.6, 0.6, -0.6), (0.01,) * 4)
        assert est.value == pytest.approx(2.4, abs=1e-12)
        assert est.minus_slot == 3

    def test_ideal_state_reaches_tsirelson(self):
        e = [born_correlation(PHI_PLUS, a, b) for a, b in CHSH_PAIRS]
        est = chsh_s(e, (0.0,) * 4)
        assert est.value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)

    def test_quantum_bound_property(self):
        rng = np.random.default_rng(41)
        bound = 2.0 * math.sqrt(2.0) + 1e-9
        for _ in range(1000):
            rho = random_density(rng)
            e = [born_correlation(rho, a, b) for a, b in CHSH_PAIRS]
            assert chsh_s(e, (0.0,) * 4).value <= bound

    def test_local_bound_for_product_states_property(self):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            va = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            vb = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            psi = np.kron(va / np.linalg.norm(va), vb / np.linalg.norm(vb))
            rho = Ket(psi).density()
            e = [born_correlation(rho, a, b) for a, b in CHSH_PAIRS]
            assert chsh_s(e, (0.0,) * 4).value <= 2.0 + 1e-9

    def test_requires_four_values(self):
        with pytest.raises(ValueError):
            chsh_s((0.5, 0.5), (0.1, 0.1))


def mc_mean_std(tin, metric, seed):
    """Mean and sample standard deviation of one metric over 100
    Monte-Carlo trials of one input."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    samples, _ = monte_carlo_samples([tin], 100, rng, lambda states: metric(states[0])[:, None])
    return float(samples[:, 0].mean()), float(samples[:, 0].std(ddof=1))


class TestMonteCarlo:
    def test_degenerate_resampling(self):
        tin = synthesize_input(werner(0.75), informationally_complete_pairs(), 0.0)
        mean, std = mc_mean_std(tin, purity, seed=7)
        assert std == 0.0
        assert mean == pytest.approx(0.671875, abs=0.01)

    def test_monotone_in_sigma(self):
        pairs = informationally_complete_pairs()
        tight = synthesize_input(werner(0.75), pairs, 0.01)
        loose = synthesize_input(werner(0.75), pairs, 0.04)
        _, std_tight = mc_mean_std(tight, purity, seed=13)
        _, std_loose = mc_mean_std(loose, purity, seed=13)
        assert std_loose > std_tight

    def test_metric_tag(self):
        tin = synthesize_input(werner(0.75), informationally_complete_pairs(), 0.01)
        mean, std = mc_mean_std(tin, METRIC_FUNCTIONS["fidelity_phi_plus"], seed=3)
        assert mean == pytest.approx(0.8125, abs=0.03)
        assert std > 0.0

    def test_failure_threshold(self):
        tin = synthesize_input(werner(0.75), informationally_complete_pairs(), 0.01)

        def undefined_metric(rho):
            return np.full(len(rho), np.nan)

        with pytest.raises(EstimationError, match="100/100"):
            mc_mean_std(tin, undefined_metric, seed=1)

    def test_failed_trials_are_counted(self):
        tin = synthesize_input(werner(0.75), informationally_complete_pairs(), 0.01)

        def every_tenth_fails(states):
            values = np.stack([purity(states[0]), concurrence(states[0])], axis=1)
            values[9::10, 1] = np.inf
            return values

        rng = np.random.default_rng(3)
        samples, failures = monte_carlo_samples([tin], 100, rng, every_tenth_fails)
        assert failures == 10
        assert samples.shape == (90, 2)
        assert np.isfinite(samples).all()

    def test_batched_samples_equal_per_trial_reference(self):
        # Each drawn vector fitted alone gives the batched state to within
        # 1e-12, and each batched state scored as a single (4, 4) matrix gives
        # its sample to within 1e-12.  (Scoring the single fits instead moves
        # concurrence by up to ~1e-8: its sqrt(lambda) turns the ~1e-15
        # rounding of a rank-deficient optimum into ~1e-8.)
        tins = [
            tomography_from_csv(data_path(name))
            for name in (DATA_TOMOGRAPHY_IN, DATA_TOMOGRAPHY_OUT)
        ]
        fitted = []

        def evaluate(states):
            fitted.extend(states)
            return _trial_metrics(states)

        samples, failures = monte_carlo_samples(tins, 20, np.random.default_rng(19), evaluate)
        assert failures == 0 and samples.shape == (20, 9)
        rng = np.random.default_rng(19)
        names = ("fidelity_phi_plus", "purity", "concurrence", "entanglement_of_formation")
        for trial in range(20):
            for tin, stack in zip(tins, fitted):
                alone = tomography_mle(with_probabilities(tin, resample_rows(tin, rng)))
                assert np.abs(alone.rho.matrix - stack[trial]).max() <= 1e-12
            states = [stack[trial] for stack in fitted]
            reference = [METRIC_FUNCTIONS[name](rho) for rho in states for name in names]
            reference.append(fidelity(*states))
            assert all(np.ndim(v) == 0 for v in reference)
            assert np.abs(samples[trial] - reference).max() <= 1e-12

    def test_minimum_trials(self):
        with pytest.raises(ValueError):
            analyze_paper_data(data_path(DATA_TOMOGRAPHY_IN), trials=50)


class TestVisibilityFit:
    def test_perfect_sinusoid(self):
        thetas = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
        counts = 200.0 * (1.0 + 1.0 * np.cos(thetas - 0.8))
        fit = visibility_fit(list(zip(thetas, counts)))
        assert fit.visibility == pytest.approx(1.0, abs=1e-6)
        assert fit.phase_offset == pytest.approx(0.8, abs=1e-6)
        assert fit.mean_level == pytest.approx(200.0, rel=1e-6)
        assert fit.phase_identifiable

    def test_constant_data(self):
        thetas = np.linspace(0.0, 2.0 * np.pi, 10, endpoint=False)
        fit = visibility_fit([(t, 100.0) for t in thetas])
        assert fit.visibility == pytest.approx(0.0, abs=1e-9)
        assert not fit.phase_identifiable

    def test_noisy_recovery(self):
        rng = np.random.default_rng(19)
        thetas = np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
        counts = rng.poisson(300.0 * (1.0 + 0.8 * np.cos(thetas - 1.2))).astype(float)
        fit = visibility_fit(list(zip(thetas, counts)))
        assert abs(fit.visibility - 0.8) < 4.0 * fit.visibility_sigma + 0.02
        assert abs((fit.phase_offset - 1.2 + np.pi) % (2 * np.pi) - np.pi) < 0.2

    def test_span_precondition(self):
        thetas = np.linspace(0.0, 2.0, 8)  # spans 2 rad < pi
        with pytest.raises(ValueError):
            visibility_fit([(t, 100.0) for t in thetas])

    def test_point_count_precondition(self):
        with pytest.raises(ValueError):
            visibility_fit([(0.0, 1.0), (2.0, 1.0), (4.0, 1.0)])


class TestEfficiencies:
    def test_identity(self):
        eff = efficiencies(r_in=10.0, r_out=10.0, p_in=3.0, p_out=3.0)
        assert eff == (1.0, 1.0, 1.0)

    def test_published_ratios(self):
        system, coupling, device = efficiencies(r_in=1000.0, r_out=1.0, p_in=5.0, p_out=1.0)
        assert system == pytest.approx(0.001, rel=1e-12)
        assert coupling == pytest.approx(0.20, rel=1e-12)
        assert device == pytest.approx(0.005, rel=1e-12)
        system, coupling, device = efficiencies(r_in=1000.0, r_out=4.0, p_in=5.0, p_out=1.0)
        assert system == pytest.approx(0.004, rel=1e-12)
        assert device == pytest.approx(0.020, rel=1e-12)

    def test_zero_denominators(self):
        with pytest.raises(ValueError):
            efficiencies(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            efficiencies(1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            efficiencies(1.0, 1.0, 1.0, 0.0)


class TestPeakDetection:
    def test_known_peaks(self):
        h = CoincidenceHistogram.empty(bin_width_ps=80, window_ps=70_000)
        counts = np.zeros(h.n_bins, dtype=np.int64)
        for delay, height in ((-6_020, 400), (10_110, 150), (26_230, 900), (58_490, 80)):
            counts[(delay + 70_000) // 80] = height
        h = h.with_counts(counts, 10)
        peaks = find_histogram_peaks(h, min_height_fraction=0.05, min_separation_ps=2_000)
        found = sorted(p.delay_ps for p in peaks)
        assert len(found) == 4
        for expect, got in zip(sorted((-6_020, 10_110, 26_230, 58_490)), found):
            assert abs(got - expect) <= 80

    def test_height_threshold(self):
        h = CoincidenceHistogram.empty(bin_width_ps=80, window_ps=10_000)
        counts = np.zeros(h.n_bins, dtype=np.int64)
        counts[(0 + 10_000) // 80] = 1000
        counts[(5_000 + 10_000) // 80] = 20
        h = h.with_counts(counts, 10)
        peaks = find_histogram_peaks(h, min_height_fraction=0.1, min_separation_ps=1_000)
        assert len(peaks) == 1
        assert abs(peaks[0].delay_ps) <= 80


class TestFindPeaks:
    """find_peaks against scipy.signal.find_peaks, index for index."""

    def same_as_scipy(self, x, height=None, distance=None):
        signal = pytest.importorskip("scipy.signal")
        expected, _ = signal.find_peaks(x, height=height, distance=distance)
        got = find_peaks(x, height=height, distance=distance)
        assert got.tolist() == expected.tolist(), (x, height, distance)
        return got

    def test_plateau_peak_at_midpoint(self):
        assert self.same_as_scipy(np.array([0, 2, 2, 2, 2, 0])).tolist() == [2]
        assert self.same_as_scipy(np.array([0, 1, 3, 3, 3, 1, 0])).tolist() == [3]

    def test_plateau_below_a_rise_is_no_peak(self):
        assert self.same_as_scipy(np.array([0, 2, 2, 3, 1])).tolist() == [3]

    def test_edge_plateaus_are_no_peaks(self):
        assert self.same_as_scipy(np.array([5, 5, 1, 3, 1, 4, 4])).tolist() == [3]
        assert self.same_as_scipy(np.array([5, 1, 2, 1, 6])).tolist() == [2]

    def test_all_equal_and_short_arrays(self):
        for x in ([], [1], [1, 2], [2, 1], [3, 3, 3], [4] * 50):
            assert self.same_as_scipy(np.array(x, dtype=np.int64)).size == 0

    def test_height_is_inclusive(self):
        x = np.array([0, 3, 0, 5, 0])
        assert self.same_as_scipy(x, height=3).tolist() == [1, 3]
        assert self.same_as_scipy(x, height=3.5).tolist() == [3]

    def test_distance_keeps_the_taller_and_rounds_up(self):
        x = np.array([0, 4, 0, 6, 0, 0, 5, 0])
        assert self.same_as_scipy(x, distance=2).tolist() == [1, 3, 6]
        assert self.same_as_scipy(x, distance=2.1).tolist() == [3, 6]
        assert self.same_as_scipy(x, distance=3).tolist() == [3, 6]
        assert self.same_as_scipy(x, distance=4).tolist() == [3]

    def test_random_integer_arrays(self):
        rng = np.random.default_rng(20240611)
        for trial in range(1200):
            n = int(rng.integers(0, 400))
            x = rng.poisson(rng.uniform(0.3, 30.0), n)
            if trial % 3 == 0:
                x = np.minimum(x, int(rng.integers(1, 6)))  # wide plateaus
            height = None if trial % 4 == 1 else float(rng.uniform(0.0, x.max(initial=1)))
            distance = None if trial % 4 == 2 else float(rng.uniform(1.0, 40.0))
            self.same_as_scipy(x, height=height, distance=distance)


class TestResampleRows:
    def rows(self, p, sigma, n):
        setting = ProjectorSetting.z()
        return TomographyInput(
            tuple(TomographyRow(setting, setting, p, sigma) for _ in range(n))
        )

    def draws(self, p, sigma, n=4000, seed=0):
        return resample_rows(self.rows(p, sigma, n), np.random.default_rng(seed))

    @pytest.mark.parametrize("p, sigma", [(0.0, 0.05), (1.0, 0.05), (0.5, 0.3), (0.02, 2.0)])
    def test_matches_truncated_normal(self, p, sigma):
        stats = pytest.importorskip("scipy.stats")
        drawn = self.draws(p, sigma, seed=int(1000 * p + 100 * sigma))
        assert drawn.min() >= 0.0 and drawn.max() <= 1.0
        reference = stats.truncnorm((0.0 - p) / sigma, (1.0 - p) / sigma, loc=p, scale=sigma)
        assert stats.kstest(drawn, reference.cdf).pvalue > 1e-3

    def test_draws_stay_in_unit_interval(self):
        pairs = informationally_complete_pairs()
        rng = np.random.default_rng(11)
        for sigma in (0.01, 0.2, 5.0):
            tin = synthesize_input(werner(0.75), pairs, sigma)
            for _ in range(20):
                probs = resample_rows(tin, rng)
                assert probs.shape == (36,)
                assert min(probs) >= 0.0 and max(probs) <= 1.0

    def test_zero_sigma_rows_unchanged(self):
        setting = ProjectorSetting.z()
        rows = (
            TomographyRow(setting, setting, 0.3, 0.0),
            TomographyRow(setting, setting, 0.4, 0.1),
            TomographyRow(setting, setting, 1.0, 0.0),
        )
        drawn = resample_rows(TomographyInput(rows), np.random.default_rng(2))
        assert drawn[0] == 0.3 and drawn[2] == 1.0
        assert drawn[1] != 0.4

    def test_same_generator_state_same_draws(self):
        a = self.draws(0.1, 0.2, n=500, seed=5)
        b = self.draws(0.1, 0.2, n=500, seed=5)
        assert a.tolist() == b.tolist()
        assert a.tolist() != self.draws(0.1, 0.2, n=500, seed=6).tolist()

    def test_draws_equal_explicit_normal_calls(self):
        # Trial by trial: one normal draw per sigma > 0 row, then one per row
        # still outside [0, 1], in row order, from the same generator.
        setting = ProjectorSetting.z()
        probs, sigmas = [0.02, 0.5, 0.7, 0.98, 0.3], [0.05, 0.0, 0.2, 0.05, 0.4]
        tin = TomographyInput(
            tuple(TomographyRow(setting, setting, p, s) for p, s in zip(probs, sigmas))
        )
        probs, sigmas = np.array(probs), np.array(sigmas)
        rng, ref = np.random.default_rng(8), np.random.default_rng(8)
        redraws = 0
        for _ in range(50):
            expected = probs.copy()
            todo = np.flatnonzero(sigmas > 0.0)
            while todo.size:
                expected[todo] = [ref.normal(probs[k], sigmas[k]) for k in todo]
                todo = todo[(expected[todo] < 0.0) | (expected[todo] > 1.0)]
                redraws += todo.size
            assert resample_rows(tin, rng).tolist() == expected.tolist()
        assert redraws > 10

    def test_non_finite_sigma_rejected(self):
        setting = ProjectorSetting.z()
        for sigma in (math.inf, math.nan):
            with pytest.raises(ValueError):
                TomographyRow(setting, setting, 0.5, sigma)
