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

from afclink import estimation
from afclink.errors import EstimationError, UndefinedEstimateError
from afclink.estimation import (
    CHSH_PAIRS,
    METRIC_FUNCTIONS,
    TomographyInput,
    TomographyRow,
    _build_mle_data,
    _gradient,
    _objective,
    born_correlation,
    chi2_sf,
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


REFERENCE_PERIODS = [*range(-5, 0), *range(1, 6)]


def g2(counts, delay_ps=0, window_ps=70_000):
    """g2_cross on the realistic TDC: 12.5 ns periods, +-500 ps windows."""
    return g2_cross(counts, delay_ps, 12_500, 500, window_ps)


class TestG2Cross:
    def synthetic(self, peak=500, side=50):
        """Window counts by offset: the peak at 0, `side` in every reference."""
        return {0: peak, **{n * 12_500: side for n in REFERENCE_PERIODS}}

    def test_exact_ratio(self):
        est = g2(self.synthetic())
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
            counts = self.synthetic(peak, side)
            base = g2(counts)
            scaled = g2({offset: scale * c for offset, c in counts.items()})
            assert scaled.value == pytest.approx(base.value, rel=1e-12)
            assert scaled.sigma < base.sigma

    def test_empty_sidebands(self):
        with pytest.raises(UndefinedEstimateError):
            g2(self.synthetic(peak=100, side=0))

    def test_sidebands_must_fit_in_span(self):
        # +-20 ns holds the windows at n = +-1 (12.5 +- 0.5 ns) but not +-2,
        # whose counts are not read.
        counts = {**self.synthetic(side=1_000), 0: 90, -12_500: 20, 12_500: 10}
        est = g2(counts, window_ps=20_000)
        assert est.reference_counts == 30
        assert est.reference_periods == (-1, 1)
        assert est.value == pytest.approx(6.0, abs=1e-12)
        # +-12 ns holds no reference window at all.
        with pytest.raises(UndefinedEstimateError, match="g2 at 0 ps: .*12000 ps TDC window; 0 references"):
            g2(self.synthetic(), window_ps=12_000)

    def test_peak_must_fit_in_span(self):
        with pytest.raises(UndefinedEstimateError, match="g2 at 69800 ps: .*70000 ps"):
            g2({}, delay_ps=69_800)

    def test_uncorrelated_streams_give_unity(self):
        rng = np.random.default_rng(5)
        offsets = [n * 12_500 for n in range(-5, 6)]
        est = g2(dict(zip(offsets, rng.poisson(1_300.0, len(offsets)).tolist())))
        assert abs(est.value - 1.0) < 4.0 * est.sigma

    def test_offset_peak(self):
        # Inside +-70 ns: n = -5 .. -1 and 1 .. 3; n = 4 would end at 76.7 ns.
        counts = {26_230: 300, **{26_230 + n * 12_500: 30 for n in (-5, -4, -3, -2, -1, 1, 2, 3)}}
        est = g2(counts, delay_ps=26_230)
        assert est.reference_counts == 8 * 30
        assert est.reference_periods == (-5, -4, -3, -2, -1, 1, 2, 3)
        assert est.value == pytest.approx(10.0, abs=1e-12)

    def test_empty_peak_has_one_count_poisson_bound(self):
        est = g2(self.synthetic(peak=0, side=40))
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

    def test_iterates_stay_interior_unit_trace_states(self, monkeypatch):
        # The barrier steps stay inside the Dikin ellipsoid, so every iterate
        # is positive definite with unit trace.  Each state the solver visits
        # passes through _objective once; the first call scores the projected
        # start, which may lie on the boundary.
        seen = []

        def recording_objective(data, rho, idx):
            seen.append(rho.copy())
            return _objective(data, rho, idx)

        monkeypatch.setattr(estimation, "_objective", recording_objective)
        rng = np.random.default_rng(47)
        pairs = informationally_complete_pairs()
        for sigma in (0.002, 0.01, 0.05):
            truths = [random_density(rng) if k % 2 else random_pure(rng) for k in range(70)]
            measured = [resample_rows(synthesize_input(t, pairs, sigma), rng) for t in truths]
            seen.clear()
            fit = fit_batch(synthesize_input(truths[0], pairs, sigma), measured)
            assert fit.converged.all() and fit.iterations.max() > 0
            iterates = np.concatenate(seen[1:])
            assert len(iterates) >= fit.iterations.sum()
            assert np.abs(np.trace(iterates, axis1=1, axis2=2) - 1.0).max() <= 1e-12
            assert np.linalg.eigvalsh(iterates)[:, 0].min() > 0.0
            stepped = fit.rho[fit.iterations > 0]
            assert np.linalg.eigvalsh(stepped)[:, 0].min() > 0.0

    def test_output_table_certifies_within_100_steps(self):
        # The interior-point step count grows with log(1 / gap), not with
        # the curvature's condition number (676 here).
        tin = tomography_from_csv(data_path(DATA_TOMOGRAPHY_OUT))
        rng = np.random.default_rng(0)
        fit = fit_batch(tin, [resample_rows(tin, rng) for _ in range(200)])
        assert fit.converged.all()
        assert fit.iterations.max() <= 100

    def test_uncertifiable_fit_stops_at_the_cap(self, monkeypatch):
        # A negative tolerance certifies nothing: every element runs to the
        # cap and comes back unconverged, as a finite interior state.  The
        # output table's optima are rank-deficient, so without a bound on t
        # the barrier would drive an eigenvalue below eigh's resolution.
        monkeypatch.setattr(estimation, "MLE_TOL", -1.0)
        tin = tomography_from_csv(data_path(DATA_TOMOGRAPHY_OUT))
        rng = np.random.default_rng(5)
        fit = fit_batch(tin, [resample_rows(tin, rng) for _ in range(4)])
        assert not fit.converged.any()
        assert (fit.iterations == estimation.MLE_MAX_ITER).all()
        assert np.isfinite(fit.rho).all() and np.isfinite(fit.residual).all()
        assert np.linalg.eigvalsh(fit.rho)[:, 0].min() > 0.0
        with pytest.raises(EstimationError, match="Newton steps"):
            tomography_mle(tin)

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


def wilson_sigma(c_same, c_diff):
    """Twice the Wilson score half-width at z = 1: the centre
    (p + 1/(2n))/(1 + 1/n) plus or minus sqrt(p(1-p)/n + 1/(4n^2))/(1 + 1/n)."""
    n = c_same + c_diff
    p = c_same / n
    return 2.0 * math.sqrt(p * (1.0 - p) / n + 1.0 / (4.0 * n * n)) / (1.0 + 1.0 / n)


class TestCorrelation:
    def test_balanced_counts(self):
        e, sigma = correlation_coefficient(500, 500)
        assert e == 0.0
        assert sigma == pytest.approx(wilson_sigma(500, 500), rel=1e-12)

    def test_perfect_correlation(self):
        # One pairing empty: E sits at the edge and sigma is 1/(n + 1), not 0.
        e, sigma = correlation_coefficient(400, 0)
        assert e == 1.0
        assert sigma == pytest.approx(1.0 / 401, rel=1e-12)
        assert correlation_coefficient(12, 0) == (1.0, pytest.approx(1.0 / 13, rel=1e-12))
        assert correlation_coefficient(0, 12) == (-1.0, pytest.approx(1.0 / 13, rel=1e-12))

    @pytest.mark.parametrize("c_same, c_diff", [(500, 500), (900, 100), (20, 980), (4321, 1234)])
    def test_large_counts_keep_the_binomial_sigma(self, c_same, c_diff):
        # At n >= 1000, with both pairings counted (n p (1 - p) >= 12), the
        # Wilson sigma is the binomial 2 sqrt(p (1 - p) / n) within 1 %.
        n = c_same + c_diff
        p = c_same / n
        _, sigma = correlation_coefficient(c_same, c_diff)
        assert sigma == pytest.approx(2.0 * math.sqrt(p * (1.0 - p) / n), rel=0.01)

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

    def test_given_minus_slot_is_kept(self):
        # A slot fixed in advance is used even where another candidate is larger.
        est = chsh_s((0.6, 0.6, 0.6, -0.6), (0.01,) * 4, minus_slot=0)
        assert est.value == pytest.approx(0.0, abs=1e-12)
        assert est.minus_slot == 0

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
        # its sample to within 1e-12.  Concurrence and EoF of the single fit
        # agree with the batched ones within 1e-10, and so does the
        # input-output fidelity within 1e-9: the rank-deficient optima's
        # round-off eigenvalues no longer reach sqrt(lambda).
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
            alone = []
            for tin, stack in zip(tins, fitted):
                fit = tomography_mle(with_probabilities(tin, resample_rows(tin, rng)))
                alone.append(fit.rho.matrix)
                assert np.abs(fit.rho.matrix - stack[trial]).max() <= 1e-12
                for metric in (concurrence, entanglement_of_formation):
                    assert abs(metric(fit.rho.matrix) - metric(stack[trial])) <= 1e-10
            states = [stack[trial] for stack in fitted]
            assert abs(fidelity(*alone) - fidelity(*states)) <= 1e-9
            reference = [METRIC_FUNCTIONS[name](rho) for rho in states for name in names]
            reference.append(fidelity(*states))
            assert all(np.ndim(v) == 0 for v in reference)
            assert np.abs(samples[trial] - reference).max() <= 1e-12

    def test_fits_stopped_at_the_cap_are_counted(self, monkeypatch):
        # 15 of these 100 trials leave the states and need Newton steps;
        # capped at 3, they come back unconverged and the mask drops them.
        monkeypatch.setattr(estimation, "MLE_MAX_ITER", 3)
        tin = synthesize_input(werner(0.75), informationally_complete_pairs(), 0.03)
        rng = np.random.default_rng(3)
        fit = fit_batch(tin, [resample_rows(tin, rng) for _ in range(100)])
        unconverged = int((~fit.converged).sum())
        assert 0 < unconverged <= 20 and fit.iterations.max() == 3
        samples, failures = monte_carlo_samples(
            [tin], 100, np.random.default_rng(3), lambda states: purity(states[0])[:, None]
        )
        assert failures == unconverged
        assert samples.shape == (100 - unconverged, 1)

    def test_shipped_tables_lose_no_trial(self):
        report = analyze_paper_data(
            data_path(DATA_TOMOGRAPHY_IN),
            tomography_out=data_path(DATA_TOMOGRAPHY_OUT),
            trials=200,
            seed=0,
        )
        assert report.mc_failures == 0

    def test_minimum_trials(self):
        with pytest.raises(ValueError):
            analyze_paper_data(data_path(DATA_TOMOGRAPHY_IN), trials=50)


class TestChi2SurvivalFunction:
    def test_matches_scipy(self):
        from scipy.stats import chi2

        for dof in range(1, 21):
            for x in (0.0, 1e-6, 0.3, 1.0, dof - 0.5, dof + 3.0, 4.0 * dof + 10.0, 120.0):
                assert chi2_sf(x, dof) == pytest.approx(chi2.sf(x, dof), rel=1e-12, abs=1e-300)


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
        counts = np.zeros(2 * 70_000 // 80, dtype=np.int64)
        for delay, height in ((-6_020, 400), (10_110, 150), (26_230, 900), (58_490, 80)):
            counts[(delay + 70_000) // 80] = height
        h = CoincidenceHistogram(bin_width_ps=80, window_ps=70_000, counts=counts, n_starts=10)
        peaks = find_histogram_peaks(h, min_height_fraction=0.05, min_separation_ps=2_000)
        found = sorted(p.delay_ps for p in peaks)
        assert len(found) == 4
        for expect, got in zip(sorted((-6_020, 10_110, 26_230, 58_490)), found):
            assert abs(got - expect) <= 80

    def test_height_threshold(self):
        counts = np.zeros(2 * 10_000 // 80, dtype=np.int64)
        counts[(0 + 10_000) // 80] = 1000
        counts[(5_000 + 10_000) // 80] = 20
        h = CoincidenceHistogram(bin_width_ps=80, window_ps=10_000, counts=counts, n_starts=10)
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
