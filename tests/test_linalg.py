"""Tests for the dense two-qubit linear algebra layer.

Expected numbers are frozen from independent derivations: the pair basis
order written out by hand, projectors written out from the basis convention
|+y> = (|e> + i|l>)/sqrt(2), and eigensystems cross-checked against
numpy.linalg.eigh (the in-package solver must agree with numpy, not wrap it).
"""

import numpy as np
import pytest
from conftest import make_config

from afclink import events, harness
from afclink.linalg import (
    DensityMatrix,
    Ket,
    ProjectorSetting,
    bell_phi_plus,
    hermitian_eigensystem,
    matrix_sqrt_psd,
    phase_projector,
    projector,
)
from afclink.source import SourceConfig


def werner(p: float) -> np.ndarray:
    """p * |phi+><phi+| + (1-p) * I/4, expanded by hand."""
    phi = np.zeros((4, 4), dtype=complex)
    phi[0, 0] = phi[0, 3] = phi[3, 0] = phi[3, 3] = 0.5
    return p * phi + (1.0 - p) * np.eye(4) / 4.0


class TestKet:
    def test_unit_norm_enforced(self):
        with pytest.raises(ValueError):
            Ket(np.array([1.0, 1.0]))

    def test_dimension_must_be_qubit_or_pair(self):
        with pytest.raises(ValueError):
            Ket(np.array([1.0, 0.0, 0.0]))

    def test_density_of_pure_state(self):
        k = Ket(np.array([1.0, 1.0]) / np.sqrt(2.0))
        rho = k.density()
        assert np.allclose(rho.matrix, 0.5 * np.ones((2, 2)), atol=1e-12)


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(ValueError):
            DensityMatrix(m)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError):
            DensityMatrix(m)

    def test_accepts_tiny_negative_eigenvalue(self):
        # Eigenvalues in [-1e-9, 0) are numerical noise, not a failure.
        m = np.diag([1.0 + 5e-10, -5e-10]).astype(complex)
        dm = DensityMatrix(m)
        assert dm.matrix.shape == (2, 2)

    def test_werner_state_accepted(self):
        dm = DensityMatrix(werner(0.75))
        assert dm.matrix.shape == (4, 4)


class TestEigensystem:
    def test_two_by_two_closed_form(self):
        m = np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, 3.0]])
        w, v = hermitian_eigensystem(m)
        # Closed form: (5 +/- sqrt(1 + 4*2))/2 = (5 +/- 3)/2.
        assert w == pytest.approx([4.0, 1.0], abs=1e-12)
        assert np.allclose(v @ np.diag(w) @ v.conj().T, m, atol=1e-12)

    def test_werner_eigenvalues(self):
        w, v = hermitian_eigensystem(werner(0.75))
        assert np.allclose(w, [0.8125, 0.0625, 0.0625, 0.0625], atol=1e-12)
        # The top eigenvector is the Bell state itself.
        top = v[:, 0]
        overlap = abs(np.vdot(bell_phi_plus().amplitudes, top)) ** 2
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_descending_order_and_reconstruction_property(self):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            n = 4 if rng.random() < 0.5 else 2
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            m = (g + g.conj().T) / 2.0
            w, v = hermitian_eigensystem(m)
            assert np.all(np.diff(w) <= 1e-12)
            assert np.allclose(v @ np.diag(w) @ v.conj().T, m, atol=1e-9)
            assert np.allclose(v.conj().T @ v, np.eye(n), atol=1e-9)

    def test_agrees_with_numpy(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = (g + g.conj().T) / 2.0
            w, _ = hermitian_eigensystem(m)
            ref = np.sort(np.linalg.eigvalsh(m))[::-1]
            assert np.allclose(w, ref, atol=1e-10)

    def test_degenerate_spectrum(self):
        w, v = hermitian_eigensystem(np.eye(4, dtype=complex) * 0.25)
        assert np.allclose(w, [0.25] * 4, atol=1e-14)
        assert np.allclose(v @ v.conj().T, np.eye(4), atol=1e-12)

    def test_stack_equals_matrix_by_matrix(self):
        rng = np.random.default_rng(13)
        g = rng.normal(size=(3, 5, 4, 4)) + 1j * rng.normal(size=(3, 5, 4, 4))
        stack = (g + g.conj().swapaxes(-1, -2)) / 2.0
        w, v = hermitian_eigensystem(stack)
        assert w.shape == (3, 5, 4) and v.shape == (3, 5, 4, 4)
        for i in range(3):
            for j in range(5):
                w1, v1 = hermitian_eigensystem(stack[i, j])
                assert np.abs(w[i, j] - w1).max() <= 1e-13
                assert np.abs(v[i, j] - v1).max() <= 1e-13

    def test_one_non_hermitian_member_rejects_the_stack(self):
        stack = np.stack([np.eye(4, dtype=complex)] * 3)
        stack[1, 0, 1] = 1e-6
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eigensystem(stack)
        with pytest.raises(ValueError, match="square"):
            hermitian_eigensystem(np.zeros((3, 4, 2)))


class TestMatrixSqrt:
    def test_diagonal(self):
        r = matrix_sqrt_psd(np.diag([4.0, 9.0]).astype(complex))
        assert np.allclose(r, np.diag([2.0, 3.0]), atol=1e-12)

    def test_square_recovers_input_property(self):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            n = 4 if rng.random() < 0.5 else 2
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            m = g @ g.conj().T
            r = matrix_sqrt_psd(m)
            assert np.allclose(r @ r, m, atol=1e-8 * max(1.0, np.linalg.norm(m)))
            assert np.allclose(r, r.conj().T, atol=1e-10)

    def test_clamps_small_negative(self):
        m = np.diag([1.0, -5e-10]).astype(complex)
        r = matrix_sqrt_psd(m)
        assert np.allclose(r, np.diag([1.0, 0.0]), atol=1e-9)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            matrix_sqrt_psd(np.diag([1.0, -0.5]).astype(complex))

    def test_stack_equals_matrix_by_matrix(self):
        # Each member is checked against its own scale: -5e-10 is clamped,
        # and -1e-8 fails next to a member of scale 400 that would allow it.
        members = [np.diag([400.0, 9.0]), np.diag([1.0, -5e-10]), werner(0.75)[:2, :2] * 2]
        stack = np.stack(members).astype(complex)
        roots = matrix_sqrt_psd(stack)
        for root, m in zip(roots, stack):
            assert np.abs(root - matrix_sqrt_psd(m)).max() <= 1e-13
        stack[1, 1, 1] = -1e-8
        with pytest.raises(ValueError, match="not positive semidefinite"):
            matrix_sqrt_psd(stack)


class TestProjectors:
    def test_z_axes(self):
        assert np.allclose(projector(ProjectorSetting.z()), np.diag([1.0, 0.0]), atol=1e-15)
        assert np.allclose(projector(ProjectorSetting.z(-1)), np.diag([0.0, 1.0]), atol=1e-15)

    def test_x_axes(self):
        assert np.allclose(projector(ProjectorSetting.x()), 0.5 * np.array([[1, 1], [1, 1]]), atol=1e-15)
        assert np.allclose(projector(ProjectorSetting.x(-1)), 0.5 * np.array([[1, -1], [-1, 1]]), atol=1e-15)

    def test_y_axes(self):
        # |+y> = (|e> + i|l>)/sqrt(2) -> P = [[1, -i], [i, 1]]/2.
        expected = 0.5 * np.array([[1.0, -1.0j], [1.0j, 1.0]])
        assert np.allclose(projector(ProjectorSetting.y()), expected, atol=1e-15)
        assert np.allclose(projector(ProjectorSetting.y(-1)), expected.conj(), atol=1e-15)

    def test_x_and_y_are_phase_settings(self):
        assert np.allclose(
            projector(ProjectorSetting.x()), phase_projector(0.0, +1), atol=1e-15
        )
        assert np.allclose(
            projector(ProjectorSetting.y()), phase_projector(np.pi / 2, +1), atol=1e-15
        )

    def test_phase_projector_explicit(self):
        theta = np.pi / 4
        p = phase_projector(theta, -1)
        e = np.exp(1j * theta)
        expected = 0.5 * np.array([[1.0, -np.conj(e)], [-e, 1.0]])
        assert np.allclose(p, expected, atol=1e-15)

    def test_ports_resolve_identity_and_idempotence(self):
        rng = np.random.default_rng(5)
        settings = [ProjectorSetting.z, ProjectorSetting.x, ProjectorSetting.y]
        for _ in range(2500):
            theta = rng.uniform(0.0, 2.0 * np.pi)
            pairs = [(projector(s(+1)), projector(s(-1))) for s in settings]
            pairs.append((phase_projector(theta, +1), phase_projector(theta, -1)))
            for p, q in pairs:
                assert np.allclose(p, p.conj().T, atol=1e-12)
                assert np.allclose(q, q.conj().T, atol=1e-12)
                assert np.allclose(p + q, np.eye(2), atol=1e-12)
                assert np.allclose(p @ p, p, atol=1e-12)
                assert np.allclose(q @ q, q, atol=1e-12)

    def test_token_round_trip(self):
        tokens = ["Z", "Z-", "X", "X-", "Y", "Y-", "XpY", "XmY", "XpY-", "XmY-"]
        for tok in tokens:
            s = ProjectorSetting.from_token(tok)
            assert s.token() == tok

    def test_diagonal_basis_tokens(self):
        # XpY is the +45-degree phase port, XmY the -45-degree one.
        assert np.allclose(
            projector(ProjectorSetting.from_token("XpY")),
            phase_projector(np.pi / 4, +1),
            atol=1e-15,
        )
        assert np.allclose(
            projector(ProjectorSetting.from_token("XmY-")),
            phase_projector(-np.pi / 4, -1),
            atol=1e-15,
        )

    def test_bad_token_rejected(self):
        with pytest.raises(ValueError):
            ProjectorSetting.from_token("Q")

    def test_free_phase_is_not_a_projector_kind(self):
        # A free analyzer phase goes through phase_projector, never a setting.
        with pytest.raises(ValueError, match="unknown projector kind"):
            ProjectorSetting("PHASE")


class TestPairBasis:
    def test_pair_basis_order(self, monkeypatch):
        # |l>_794 (x) |e>_1535 sits at index 2 of (|ee>,|el>,|le>,|ll>).  Under
        # arrival-time analyzers the engine's joint table puts it in the
        # (late, early) cell, rows for the 794 nm arm, and the lone-photon
        # tables give the signal (early, late) = (0, 1), the idler (1, 0).
        monkeypatch.setattr(SourceConfig, "joint_state", lambda self: Ket([0, 0, 1, 0]))
        tables = harness._build_tables(make_config())
        joint = np.diff(tables.joint_cum, prepend=0.0)
        assert np.array_equal(joint, [0.0, 0.0, 1.0, 0.0])
        for ch, expected in ((events.SIGNAL_794, [0.0, 1.0]), (events.IDLER_1535, [1.0, 0.0])):
            single = np.diff(tables.channels[ch].single_cum, prepend=0.0)
            assert np.array_equal(single, expected), ch


class TestBellState:
    def test_amplitudes(self):
        k = bell_phi_plus()
        assert np.allclose(k.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15)

    def test_relative_phase(self):
        k = bell_phi_plus(0.6)
        assert k.amplitudes[3] == pytest.approx(np.exp(0.6j) / np.sqrt(2), abs=1e-15)
