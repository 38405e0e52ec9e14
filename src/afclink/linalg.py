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

All matrices here are 2x2 or 4x4.  hermitian_eigensystem wraps
numpy.linalg.eigh (LAPACK heevd) with a Hermiticity check and descending
order; positivity checks, matrix square roots and the state metrics all go
through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
NORM_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-9

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class Ket:
    """A pure state over the single-qubit or pair basis.

    Amplitudes must have unit norm (within 1e-10) and dimension 2 or 4.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape[0] not in (2, 4):
            raise ValueError(f"ket dimension must be 2 or 4, got {amps.shape[0]}")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"ket norm {norm!r} deviates from 1 by more than {NORM_TOL}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def density(self) -> "DensityMatrix":
        """Rank-one density matrix |psi><psi|."""
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


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

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


# Analyzer settings named by the single-qubit axis they project onto.  The
# diagonal tokens XpY/XmY are the +-45 degree phase settings used by the
# correlation measurements.
_KIND_PHASES = {
    "X": 0.0,
    "Y": np.pi / 2.0,
    "XPY": np.pi / 4.0,
    "XMY": -np.pi / 4.0,
}
_KIND_TOKENS = {"Z": "Z", "X": "X", "Y": "Y", "XPY": "XpY", "XMY": "XmY"}
_TOKEN_KINDS = {v: k for k, v in _KIND_TOKENS.items()}


@dataclass(frozen=True)
class ProjectorSetting:
    """One analyzer outcome: an axis plus an output port (+1 or -1).

    kind is one of Z, X, Y, XPY, XMY or PHASE; a PHASE setting carries an
    explicit analyzer phase in radians.
    """

    kind: str
    port: int = +1
    theta: float = field(default=0.0)

    def __post_init__(self):
        if self.kind not in ("Z", "X", "Y", "XPY", "XMY", "PHASE"):
            raise ValueError(f"unknown projector kind {self.kind!r}")
        if self.port not in (+1, -1):
            raise ValueError(f"projector port must be +1 or -1, got {self.port!r}")

    @classmethod
    def z(cls, port: int = +1) -> "ProjectorSetting":
        return cls("Z", port)

    @classmethod
    def x(cls, port: int = +1) -> "ProjectorSetting":
        return cls("X", port)

    @classmethod
    def y(cls, port: int = +1) -> "ProjectorSetting":
        return cls("Y", port)

    @classmethod
    def phase(cls, theta: float, port: int = +1) -> "ProjectorSetting":
        return cls("PHASE", port, float(theta))

    @classmethod
    def from_token(cls, token: str) -> "ProjectorSetting":
        """Parse a CSV token: Z, X, Y, XpY, XmY, each optionally '-'-suffixed."""
        token = token.strip()
        port = +1
        base = token
        if token.endswith("-"):
            port = -1
            base = token[:-1]
        if base not in _TOKEN_KINDS:
            raise ValueError(f"unknown analyzer token {token!r}")
        return cls(_TOKEN_KINDS[base], port)

    def token(self) -> str:
        if self.kind == "PHASE":
            raise ValueError("free-phase settings have no CSV token")
        base = _KIND_TOKENS[self.kind]
        return base + ("-" if self.port == -1 else "")

    def analyzer_phase(self) -> float:
        """The interferometer phase realizing this setting (Z has none)."""
        if self.kind == "Z":
            raise ValueError("Z settings are time-of-arrival, not interferometric")
        if self.kind == "PHASE":
            return self.theta
        return _KIND_PHASES[self.kind]


def projector(setting: ProjectorSetting) -> np.ndarray:
    """The 2x2 projector for one analyzer outcome.

    Z projects on |e> (port +1) or |l> (port -1); every other kind projects on
    (|e> + port * e^{i theta} |l>)/sqrt(2) with theta the analyzer phase.
    """
    if setting.kind == "Z":
        if setting.port == +1:
            return np.diag([1.0, 0.0]).astype(complex)
        return np.diag([0.0, 1.0]).astype(complex)
    theta = setting.analyzer_phase()
    amp = setting.port * np.exp(1j * theta)
    return 0.5 * np.array([[1.0, np.conj(amp)], [amp, 1.0]], dtype=complex)


def tensor_product(a, b):
    """Kronecker product with the 794 nm factor first.

    Two qubit Kets give a pair Ket; two 2x2 matrices give a 4x4 matrix.
    """
    if isinstance(a, Ket) and isinstance(b, Ket):
        if a.dim != 2 or b.dim != 2:
            raise ValueError("pair states are built from two single-qubit kets")
        return Ket(np.kron(a.amplitudes, b.amplitudes))
    am = np.asarray(a, dtype=complex)
    bm = np.asarray(b, dtype=complex)
    if am.shape != (2, 2) or bm.shape != (2, 2):
        raise ValueError(f"expected two 2x2 matrices, got shapes {am.shape} and {bm.shape}")
    return np.kron(am, bm)


def bell_phi_plus(relative_phase: float = 0.0) -> Ket:
    """(|ee> + e^{i phase}|ll>)/sqrt(2)."""
    amps = np.zeros(4, dtype=complex)
    amps[0] = 1.0
    amps[3] = np.exp(1j * relative_phase)
    return Ket(amps / np.sqrt(2.0))


def hermitian_eigensystem(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching orthonormal eigenvector columns.

    Raises ValueError if the input is not Hermitian within 1e-10 of its scale.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(np.abs(a).max(), 1.0)
    if np.abs(a - a.conj().T).max() > HERMITICITY_TOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(0.5 * (a + a.conj().T))
    return w[::-1], v[:, ::-1]


def matrix_sqrt_psd(m) -> np.ndarray:
    """Hermitian square root of a positive-semidefinite matrix.

    Eigenvalues in [-1e-9, 0) are clamped to zero; more negative ones raise.
    """
    w, v = hermitian_eigensystem(m)
    scale = max(abs(w).max(), 1.0)
    if w.min() < EIGENVALUE_FLOOR * scale:
        raise ValueError(f"matrix has eigenvalue {w.min()!r}; not positive semidefinite")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def density_from_params(t) -> np.ndarray:
    """Map 16 real parameters to a valid 4x4 density matrix.

    The parameters fill a lower-triangular T (4 real diagonal entries, then
    real/imaginary pairs for the 6 sub-diagonal entries, row by row); the
    result is T^dagger T normalized to unit trace, which is Hermitian and
    positive by construction for any nonzero t.
    """
    t = np.asarray(t, dtype=float).reshape(-1)
    if t.shape[0] != 16:
        raise ValueError(f"expected 16 parameters, got {t.shape[0]}")
    ssq = float(np.dot(t, t))
    if ssq < 1e-300:
        raise ValueError("parameter vector is numerically zero")
    tm = np.zeros((4, 4), dtype=complex)
    tm[0, 0], tm[1, 1], tm[2, 2], tm[3, 3] = t[0], t[1], t[2], t[3]
    tm[1, 0] = t[4] + 1j * t[5]
    tm[2, 0] = t[6] + 1j * t[7]
    tm[2, 1] = t[8] + 1j * t[9]
    tm[3, 0] = t[10] + 1j * t[11]
    tm[3, 1] = t[12] + 1j * t[13]
    tm[3, 2] = t[14] + 1j * t[15]
    a = tm.conj().T @ tm
    # trace(T^dagger T) is exactly the parameter norm
    return a / ssq


def partial_trace(rho, keep: int) -> np.ndarray:
    """Reduce a 4x4 pair state to one qubit (keep=0: 794 nm, keep=1: 1535 nm)."""
    r = np.asarray(rho, dtype=complex)
    if r.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {r.shape}")
    if keep not in (0, 1):
        raise ValueError("keep must be 0 (first qubit) or 1 (second qubit)")
    r4 = r.reshape(2, 2, 2, 2)
    if keep == 0:
        return np.einsum("abcb->ac", r4)
    return np.einsum("abad->bd", r4)
