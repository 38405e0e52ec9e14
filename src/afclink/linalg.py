"""Dense linear algebra for time-bin qubits and photon pairs.

Conventions used everywhere in this package:

* Single qubit basis: index 0 is the early bin |e>, index 1 the late bin |l>.
* Pair basis: the 794 nm qubit comes first, |xy> = |x>_794 (x) |y>_1535, so
  the four-dimensional order is (|ee>, |el>, |le>, |ll>) and a joint index
  is 2*i + j for single-qubit indices (i, j).
* |+y> = (|e> + i|l>)/sqrt(2).
* A superposition-basis analyzer set to phase theta projects, on its
  transmitted (+1) port, onto (|e> + e^{i theta}|l>)/sqrt(2); the -1 port is
  the orthogonal state.

States are 2x2 or 4x4 DensityMatrix values; a pure state, such as
bell_phi_plus, is its rank-one density matrix.  An analyzer setting
(ProjectorSetting) is spelled as its CSV token: Z, X, Y, XpY or XmY, with a
'-' suffix for the -1 port.  hermitian_eigensystem wraps numpy.linalg.eigh
(LAPACK heevd) with a Hermiticity check and descending order; positivity
checks, matrix square roots and the state metrics all go through it.  It and
matrix_sqrt_psd take one square matrix or a (..., n, n) stack, so the metrics
score every Monte-Carlo trial in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-9


@dataclass(frozen=True)
class DensityMatrix:
    """A validated density matrix (Hermitian, unit trace, positive).

    Eigenvalues down to -1e-9 are tolerated as numerical noise; anything more
    negative is rejected.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (2, 4):
            raise ValueError(f"density matrix must be 2x2 or 4x4, got shape {m.shape}")
        if np.abs(m - m.conj().T).max() > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian within 1e-10")
        tr = np.trace(m).real
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr!r} deviates from 1 by more than {TRACE_TOL}")
        w, _ = hermitian_eigensystem(m)
        if w.min() < EIGENVALUE_FLOOR:
            raise ValueError(f"density matrix has eigenvalue {w.min()!r} below {EIGENVALUE_FLOOR}")
        object.__setattr__(self, "matrix", m)


# Analyzer settings named by their CSV token: the single-qubit axis they
# project onto, with the interferometer phase that realizes it.  The diagonal
# tokens XpY/XmY are the +-45 degree phase settings used by the correlation
# measurements; Z is time of arrival and has no phase.
_KIND_PHASES = {
    "X": 0.0,
    "Y": np.pi / 2.0,
    "XpY": np.pi / 4.0,
    "XmY": -np.pi / 4.0,
}
_KINDS = ("Z", *_KIND_PHASES)


@dataclass(frozen=True)
class ProjectorSetting:
    """One analyzer outcome: an axis plus an output port (+1 or -1).

    kind is one of the CSV tokens Z, X, Y, XpY and XmY.
    """

    kind: str
    port: int = +1

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown projector kind {self.kind!r}")
        if self.port not in (+1, -1):
            raise ValueError(f"projector port must be +1 or -1, got {self.port!r}")

    @classmethod
    def from_token(cls, token: str) -> "ProjectorSetting":
        """Parse a CSV token: Z, X, Y, XpY, XmY, each optionally '-'-suffixed."""
        token = token.strip()
        base = token.removesuffix("-")
        if base not in _KINDS:
            raise ValueError(f"unknown analyzer token {token!r}")
        return cls(base, -1 if token.endswith("-") else +1)

    def token(self) -> str:
        return self.kind + ("-" if self.port == -1 else "")

    def analyzer_phase(self) -> float:
        """The interferometer phase realizing this setting (Z has none)."""
        if self.kind == "Z":
            raise ValueError("Z settings are time-of-arrival, not interferometric")
        return _KIND_PHASES[self.kind]


def projector(setting: ProjectorSetting) -> np.ndarray:
    """The 2x2 projector for one analyzer outcome.

    Z projects on |e> (port +1) or |l> (port -1); every other kind projects on
    (|e> + port * e^{i theta} |l>)/sqrt(2) with theta the analyzer phase.
    """
    if setting.kind == "Z":
        return np.diag([1.0, 0.0] if setting.port == +1 else [0.0, 1.0]).astype(complex)
    return phase_projector(setting.analyzer_phase(), setting.port)


def phase_projector(theta: float, port: int) -> np.ndarray:
    """The projector on (|e> + port * e^{i theta} |l>)/sqrt(2)."""
    amp = port * np.exp(1j * theta)
    return 0.5 * np.array([[1.0, np.conj(amp)], [amp, 1.0]], dtype=complex)


def bell_phi_plus(relative_phase: float = 0.0) -> DensityMatrix:
    """The pure state (|ee> + e^{i phase}|ll>)/sqrt(2) as its density matrix."""
    amps = np.zeros(4, dtype=complex)
    amps[0] = 1.0
    amps[3] = np.exp(1j * relative_phase)
    amps /= np.sqrt(2.0)
    return DensityMatrix(np.outer(amps, amps.conj()))


def hermitian_eigensystem(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching orthonormal eigenvector columns
    of a square matrix or of each matrix of a (..., n, n) stack.

    Raises ValueError if any input is not Hermitian within 1e-10 of its scale.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    a_h = a.conj().swapaxes(-1, -2)
    scale = np.maximum(np.abs(a).max(axis=(-2, -1)), 1.0)
    if np.any(np.abs(a - a_h).max(axis=(-2, -1)) > HERMITICITY_TOL * scale):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(0.5 * (a + a_h))
    return w[..., ::-1], v[..., ::-1]


def matrix_sqrt_psd(m) -> np.ndarray:
    """Hermitian square root of a positive-semidefinite matrix, or of each
    matrix of a (..., n, n) stack.

    Eigenvalues in [-1e-9, 0) of the matrix's scale are clamped to zero; more
    negative ones raise.
    """
    w, v = hermitian_eigensystem(m)
    scale = np.maximum(np.abs(w).max(axis=-1), 1.0)
    if np.any(w.min(axis=-1) < EIGENVALUE_FLOOR * scale):
        raise ValueError(f"matrix has eigenvalue {w.min()!r}; not positive semidefinite")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
