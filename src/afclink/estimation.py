"""Statistical estimators: cross-correlation, state reconstruction, metrics.

The reconstruction minimizes, over the density matrices rho, a
sigma-weighted squared residual on measured joint probabilities.  It is
convex in rho, so one local method finds the optimum: from the projected
linear inversion (Smolin, Gambetta & Smith, PRL 108, 070502), a log-barrier
interior-point method on the 15 traceless coordinates c of rho (Vandenberghe
& Boyd, SIAM Rev. 38, 49), until the duality gap of the gradient

    G = sum_k (d f / d p_k) E_k,   p_k = tr(E_k rho),

certifies the fit.  fit_batch fits one input's rows against a (B, n) stack
of measured vectors on (B, 4, 4) stacks of states.

The Monte-Carlo works on arrays throughout: resample_rows draws probability
vectors, one fit_batch call fits every trial of an input, and the state
metrics take a (4, 4) matrix or a (B, 4, 4) stack, so they score every trial
at once.  A trial whose fit did not converge or whose metrics are not all
finite is dropped by mask.

Everything here needs numpy alone.  The histogram peak finder (find_peaks,
with the semantics of scipy.signal.find_peaks) and the truncated-normal
resampler (resample_rows, exact rejection sampling) are written out, so that
no CLI command other than the comb fit pays for importing scipy.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .csvio import csv_rows, write_csv
from .detection import CoincidenceHistogram
from .errors import EstimationError, UndefinedEstimateError
from .linalg import (
    DensityMatrix,
    ProjectorSetting,
    bell_phi_plus,
    hermitian_eigensystem,
    matrix_sqrt_psd,
    projector,
)

MC_MIN_TRIALS = 100
MC_MAX_FAILURE_FRACTION = 0.2

_PHI_PLUS = bell_phi_plus().density().matrix

TOMOGRAPHY_CSV_HEADER = ("setting_a", "setting_b", "probability", "sigma")


def __getattr__(name):
    # `optimize` is scipy.optimize, imported on first access and used by
    # nothing here: bench/tracing.py still wraps optimize.minimize.  It goes
    # with the benchmark change of ROADMAP item 1, which points that span at
    # fit_batch.
    if name == "optimize":
        import scipy.optimize

        return scipy.optimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# Cross-correlation


@dataclass(frozen=True)
class G2Estimate:
    value: float
    sigma: float
    peak_counts: int
    reference_counts: int
    reference_periods: tuple[int, ...]


def g2_windows(delay_ps: int, rep_period_ps: int, peak_halfwidth_ps: int, window_ps: int) -> dict:
    """{n: offset} of the windows a g2 at delay_ps counts: the peak (n = 0) and
    the references n = +-1 .. +-5 periods away, those inside +-window_ps."""
    offsets = ((n, delay_ps + n * rep_period_ps) for n in range(-5, 6))
    return {n: o for n, o in offsets if abs(o) + peak_halfwidth_ps <= window_ps}


def g2_cross(
    counts: Mapping, delay_ps: int, rep_period_ps: int, peak_halfwidth_ps: int, window_ps: int
) -> G2Estimate:
    """Cross-correlation at `delay_ps`: the peak over the mean reference, from
    `counts` of each g2_windows window by offset.  The windows are closed,
    [offset - halfwidth, offset + halfwidth], so all span 2 halfwidth + 1 ps
    and uncorrelated channels give 1.  sigma is Poisson on the peak and the
    pooled references, an empty peak taking the one-count bound.  Raises
    UndefinedEstimateError unless the peak and two references fit and some
    reference has counts."""
    hw = peak_halfwidth_ps
    windows = g2_windows(delay_ps, rep_period_ps, hw, window_ps)
    n_values = [n for n in windows if n]
    if 0 not in windows or len(n_values) < 2:
        raise UndefinedEstimateError(
            f"g2 at {delay_ps} ps: the peak and 2 reference windows of +-{hw} ps must "
            f"lie inside the +-{window_ps} ps TDC window; {len(n_values)} references do"
        )
    peak = counts[delay_ps]
    total_ref = int(sum(counts[windows[n]] for n in n_values))
    if total_ref == 0:
        raise UndefinedEstimateError("all reference peaks are empty")
    mean_ref = total_ref / len(n_values)
    value = peak / mean_ref
    n_peak = max(peak, 1)
    sigma = (n_peak / mean_ref) * math.sqrt(1.0 / n_peak + 1.0 / total_ref)
    return G2Estimate(value, sigma, peak, total_ref, tuple(n_values))


# ---------------------------------------------------------------------------
# Tomography input


@dataclass(frozen=True)
class TomographyRow:
    """One measured joint probability with its uncertainty."""

    setting_a: ProjectorSetting
    setting_b: ProjectorSetting
    probability: float
    sigma: float

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability {self.probability!r} outside [0, 1]")
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError("sigma must be finite and nonnegative")


@dataclass(frozen=True)
class TomographyInput:
    """Measurement rows whose probabilities are conditional.

    Each probability is P(joint outcome | measurement basis), so the four
    outcomes of one full basis sum to about one and the model prediction is
    trace(rho * Pa (x) Pb) with no extra scaling.
    """

    rows: tuple[TomographyRow, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))

    def probabilities(self) -> np.ndarray:
        return np.array([r.probability for r in self.rows])

    def sigmas(self) -> np.ndarray:
        return np.array([r.sigma for r in self.rows])


def informationally_complete_pairs() -> list[tuple[ProjectorSetting, ProjectorSetting]]:
    """Both ports of three analyzer axes per arm: 36 pairs of rank 16."""
    one_arm = [
        ProjectorSetting.z(+1),
        ProjectorSetting.z(-1),
        ProjectorSetting.x(+1),
        ProjectorSetting.x(-1),
        ProjectorSetting.y(+1),
        ProjectorSetting.y(-1),
    ]
    return [(a, b) for a in one_arm for b in one_arm]


def synthesize_input(
    rho: DensityMatrix,
    pairs: Sequence[tuple[ProjectorSetting, ProjectorSetting]],
    sigma: float,
) -> TomographyInput:
    """Exact model probabilities for the given settings, tagged with `sigma`."""
    rows = []
    for a, b in pairs:
        p = float(np.real(np.trace(rho.matrix @ np.kron(projector(a), projector(b)))))
        rows.append(TomographyRow(a, b, min(max(p, 0.0), 1.0), sigma))
    return TomographyInput(tuple(rows))


def tomography_to_csv(tin: TomographyInput, path) -> None:
    rows = (
        (r.setting_a.token(), r.setting_b.token(), f"{r.probability:.10g}", f"{r.sigma:.10g}")
        for r in tin.rows
    )
    write_csv(path, TOMOGRAPHY_CSV_HEADER, rows)


def tomography_from_csv(path) -> TomographyInput:
    rows = []
    for line_no, raw in csv_rows(path, TOMOGRAPHY_CSV_HEADER, "tomography"):
        token_a, token_b, prob, sig = raw
        try:
            rows.append(
                TomographyRow(
                    ProjectorSetting.from_token(token_a),
                    ProjectorSetting.from_token(token_b),
                    float(prob),
                    float(sig),
                )
            )
        except (ValueError, TypeError) as exc:
            raise ValueError(f"{path}: line {line_no}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: no measurement rows")
    return TomographyInput(tuple(rows))


# ---------------------------------------------------------------------------
# Maximum-likelihood reconstruction

# Relative duality gap at which a fit counts as converged (see _certified).
MLE_TOL = 1e-10
# Newton steps after which a fit that has not certified is given up; the
# shipped tables and the test inputs certify within 50.
MLE_MAX_ITER = 200


@dataclass(frozen=True)
class _MleData:
    """The rows of one input with B measured vectors stacked on top."""

    effects: np.ndarray  # (n, 4, 4) joint projectors
    measured: np.ndarray  # (B, n)
    # The objective is sum_k w_k (p_k - m_k)^2 with w_k = 1 / (2 sigma_k^2).
    weights: np.ndarray  # (B, n)


def _build_mle_data(tin: TomographyInput, measured) -> _MleData:
    if not tin.rows:
        raise ValueError("tomography input has no rows")
    measured = np.asarray(measured, dtype=float)
    if measured.ndim != 2 or measured.shape[1] != len(tin.rows):
        raise ValueError(f"measured must be (B, {len(tin.rows)}), got {measured.shape}")
    effects = np.stack(
        [np.kron(projector(r.setting_a), projector(r.setting_b)) for r in tin.rows]
    )
    sigmas = tin.sigmas()
    positive = sigmas[sigmas > 0.0]
    # Zero-sigma rows are exact in resampling; give them the tightest
    # available finite weight instead of an infinite one.
    fallback = positive.min() if positive.size else 1.0
    eff_sigma = np.where(sigmas > 0.0, sigmas, fallback)
    weights = np.broadcast_to(1.0 / (2.0 * eff_sigma**2), measured.shape)
    return _MleData(effects, measured, weights)


def _check_rank(effects: np.ndarray) -> None:
    flat = effects.reshape(effects.shape[0], -1)
    rank = np.linalg.matrix_rank(flat)
    if rank < 16:
        raise ValueError(
            f"measurement settings span rank {rank} < 16; state not identifiable"
        )


_PAULI_ONE = (
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)
# The 15 traceless Pauli pairs; with the identity they span the Hermitian
# 4x4 matrices, orthogonal under tr(A B) with tr(P_i P_j) = 4 delta_ij.
_TRACELESS_PAIRS = np.stack([np.kron(a, b) for a in _PAULI_ONE for b in _PAULI_ONE][1:])
_HALF_PAIRS = _TRACELESS_PAIRS.reshape(15, 16) / 2.0  # P_p / 2, flattened


def _objective(data: _MleData, rho: np.ndarray, idx: np.ndarray):
    """Objective values at the states `rho` of batch elements `idx`, and
    d f / d p_k with p_k = tr(E_k rho) per row."""
    n = data.effects.shape[0]
    probs = (rho.reshape(-1, 16) @ data.effects.conj().reshape(n, 16).T).real
    weights = data.weights[idx]
    resid = probs - data.measured[idx]
    return np.sum(weights * resid**2, axis=1), 2.0 * weights * resid


def _gradient(effects: np.ndarray, dfdp: np.ndarray) -> np.ndarray:
    """The Hermitian gradient sum_k (d f / d p_k) E_k of each batch element."""
    n = effects.shape[0]
    return (dfdp @ effects.reshape(n, 16)).reshape(-1, 4, 4)


def _project_to_states(h: np.ndarray) -> np.ndarray:
    """Nearest density matrices in Frobenius norm to a stack of Hermitian
    matrices: keep the eigenvectors, project the eigenvalues onto the simplex."""
    w, v = np.linalg.eigh(h)
    desc = w[:, ::-1]
    excess = (np.cumsum(desc, axis=1) - 1.0) / np.arange(1, 5)
    # The number of kept eigenvalues is the last k with desc_k > excess_k.
    kept = np.count_nonzero(desc > excess, axis=1)
    shift = excess[np.arange(w.shape[0]), kept - 1]
    w = np.clip(w - shift[:, None], 0.0, None)
    return (v * w[:, None, :]) @ v.conj().transpose(0, 2, 1)


def _frobenius_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re tr(a^H b) for each pair of the two stacks."""
    return np.einsum("bij,bij->b", a.conj(), b).real


def _start(data: _MleData) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """In the orthonormal basis P_p / 2 of the traceless Hermitian matrices
    the objective is sum_k w_k (a_k . c + tr(E_k) / 4 - m_k)^2: the rows'
    coordinates A, its curvature A^T W A (one (15, 15) matrix, the weights
    being equal across the batch) and each element's start, the weighted
    linear inversion projected onto the states."""
    design = np.einsum("kij,pji->kp", data.effects, _TRACELESS_PAIRS).real / 2.0
    offset = np.trace(data.effects, axis1=1, axis2=2).real / 4.0
    curvature = np.einsum("kp,bk,kq->bpq", design, data.weights[:1], design)[0]
    rhs = (data.weights * (data.measured - offset)) @ design
    coef = np.linalg.solve(curvature, rhs.T).T
    rho = np.eye(4) / 4.0 + np.einsum("bp,pij->bij", coef, _TRACELESS_PAIRS / 2.0)
    return design, curvature, _project_to_states(rho)


def _duality_gap(rho: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """tr(G rho) - lambda_min(G), an upper bound on f(rho) - min f over the states."""
    return _frobenius_inner(grad, rho) - np.linalg.eigvalsh(grad)[:, 0]


def _certified(rho: np.ndarray, grad: np.ndarray, tol: float) -> np.ndarray:
    """Whether the duality gap is at most tol * max(1, |G|)."""
    return _duality_gap(rho, grad) <= tol * np.maximum(1.0, np.sqrt(_frobenius_inner(grad, grad)))


def _barrier(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """-tr(Z_p) and tr(Z_p Z_q), the gradient and Hessian of -log det rho in
    the coordinates, with Z_p = W^H (P_p / 2) W and W W^H = rho^-1; and lambda_min."""
    lam, vec = np.linalg.eigh(rho)
    w = vec / np.sqrt(lam)[:, None, :]
    scaled = _HALF_PAIRS @ (w.conj()[:, :, None, :, None] * w[:, None, :, None]).reshape(-1, 16, 16)
    hessian = (scaled @ scaled.conj().transpose(0, 2, 1)).real
    return -scaled[:, :, ::5].sum(axis=2).real, hessian, lam[:, 0]


@dataclass(frozen=True)
class BatchFit:
    """Fitted states of a batch of inputs, in input order."""

    rho: np.ndarray  # (B, 4, 4)
    residual: np.ndarray  # (B,) objective value at the fitted state
    iterations: np.ndarray  # (B,)
    converged: np.ndarray  # (B,) bool


def fit_batch(tin: TomographyInput, measured) -> BatchFit:
    """Maximum-likelihood states of the settings and sigmas of `tin` against
    each row of the (B, n) stack `measured`.

    An element whose start certifies (see _certified) keeps it; the others take
    log-barrier interior-point Newton steps on t f(c) - log det rho(c) until certified,
    each 0.9 of the way to the Dikin ellipsoid's edge (inside the states), t rising tenfold
    from 4 / gap whenever the Newton decrement is below 1; `iterations` counts Newton steps.
    """
    data = _build_mle_data(tin, measured)
    _check_rank(data.effects)
    design, curvature, x = _start(data)
    residual, dfdp = _objective(data, x, np.arange(len(x)))
    converged = _certified(x, _gradient(data.effects, dfdp), MLE_TOL)
    iterations = np.zeros(len(x), dtype=int)
    active = np.flatnonzero(~converged)
    coef = 0.99 * (x[active].reshape(-1, 16) @ _HALF_PAIRS.conj().T).real  # 1% toward I/4
    rho = np.eye(4) / 4.0 + (coef @ _HALF_PAIRS).reshape(-1, 4, 4)
    _, dfdp = _objective(data, rho, active)
    t = 4.0 / _duality_gap(rho, _gradient(data.effects, dfdp))
    for it in range(1, MLE_MAX_ITER + 1):
        if active.size == 0:
            break
        barrier_grad, barrier_hess, lam_min = _barrier(rho)
        grad = t[:, None] * (dfdp @ design) + barrier_grad
        hess = 2.0 * t[:, None, None] * curvature + barrier_hess
        step = -np.linalg.solve(hess, grad[..., None])[..., 0]
        reach = np.sqrt(np.einsum("bp,bpq,bq->b", step, barrier_hess, step))
        coef = coef + step / np.maximum(1.0, reach / 0.9)[:, None]
        # Below lam_min ~ 1e-13 eigh cannot resolve the barrier: t stops growing.
        t = np.where((np.einsum("bp,bp->b", grad, step) > -1.0) & (lam_min > 1e-13), 10.0 * t, t)
        rho = np.eye(4) / 4.0 + (coef @ _HALF_PAIRS).reshape(-1, 4, 4)
        f, dfdp = _objective(data, rho, active)
        done = _certified(rho, _gradient(data.effects, dfdp), MLE_TOL)
        x[active], residual[active], iterations[active], converged[active] = rho, f, it, done
        active, coef, rho, dfdp, t = (v[~done] for v in (active, coef, rho, dfdp, t))
    return BatchFit(x, residual, iterations, converged)


@dataclass(frozen=True)
class TomographyResult:
    rho: DensityMatrix
    residual: float
    n_converged: int
    iterations: int
    dof: int  # rows - 15

    def p_value(self) -> float:
        """P(chi2 >= 2 residual): the residual is chi2 / 2 of the stated sigmas."""
        return chi2_sf(2.0 * self.residual, self.dof)


def tomography_mle(
    tin: TomographyInput, *, n_starts: int | None = None, seed: int | None = None
) -> TomographyResult:
    """Maximum-likelihood density matrix: fit_batch on a batch of one.

    The objective is convex in the state, so there is one start and no seed;
    `n_starts` and `seed` are accepted and ignored because bench/reference.py
    still passes them.
    """
    fit = fit_batch(tin, tin.probabilities()[None])
    if not fit.converged[0]:
        raise EstimationError(
            f"fit did not converge in {MLE_MAX_ITER} Newton steps; "
            f"residual {fit.residual[0]!r}"
        )
    return TomographyResult(
        rho=DensityMatrix(fit.rho[0]),
        residual=float(fit.residual[0]),
        n_converged=1,
        iterations=int(fit.iterations[0]),
        dof=len(tin.rows) - 15,
    )


def chi2_sf(chi2: float, dof: int) -> float:
    """P(X >= chi2) for X chi-squared with an integer dof >= 1, in closed form:
    e^(-x) sum_j x^j / j! for even dof, and erfc(sqrt(x)) plus
    e^(-x) sum_j x^(j + 1/2) / Gamma(j + 3/2) for odd dof, with x = chi2 / 2."""
    half = chi2 / 2.0
    odd = dof % 2
    total = math.erfc(math.sqrt(half)) if odd else 0.0
    term = math.exp(-half) * (2.0 * math.sqrt(half / math.pi) if odd else 1.0)
    order = 1.5 if odd else 1.0
    for _ in range(dof // 2):
        total += term
        term *= half / order
        order += 1.0
    return min(total, 1.0)


# ---------------------------------------------------------------------------
# Entanglement and distance metrics

_SIGMA_Y_PAIR = np.kron(_PAULI_ONE[2], _PAULI_ONE[2])


def _as_pair_density(rho) -> np.ndarray:
    m = np.asarray(rho, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-2:] != (4, 4):
        raise ValueError(f"a two-qubit state or a (B, 4, 4) stack is required, got {m.shape}")
    return m


def _scalar_or_stack(values: np.ndarray):
    """A float for one state, the (B,) array for a stack."""
    return values[()] if values.ndim == 0 else values


def _pure_component(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each state is pure to within round-off (purity 1 - 1e-12), and
    its dominant eigenvector (meaningful only where it is)."""
    _, v = hermitian_eigensystem(m)
    return purity(m) >= 1.0 - 1e-12, v[..., 0]


def _sandwich_root_eigenvalues(root, m):
    """Square roots of the eigenvalues of root @ m @ root, descending.  An
    eigenvalue below 1e-12 of the largest is round-off (or a fit's interior
    residue), which sqrt would inflate to ~1e-6 of lambda_1: it counts as 0."""
    inner = root @ m @ root
    w, _ = hermitian_eigensystem((inner + inner.conj().swapaxes(-1, -2)) / 2.0)
    return np.sqrt(np.where(w > 1e-12 * w[..., :1], w, 0.0))


def concurrence(rho):
    """Wootters concurrence of a two-qubit state or of each state of a stack."""
    m = _as_pair_density(rho)
    pure, psi = _pure_component(m)
    # Exact rank-one formula |psi^T (sigma_y sigma_y) psi|; the matrix-root
    # chain loses digits there.
    c_pure = np.abs(np.einsum("...i,ij,...j->...", psi, _SIGMA_Y_PAIR, psi))
    flipped = _SIGMA_Y_PAIR @ m.conj() @ _SIGMA_Y_PAIR
    lams = _sandwich_root_eigenvalues(matrix_sqrt_psd(m), flipped)
    c_mixed = np.maximum(0.0, lams[..., 0] - lams[..., 1] - lams[..., 2] - lams[..., 3])
    return _scalar_or_stack(np.where(pure, c_pure, c_mixed))


def eof_from_concurrence(c):
    """Entanglement of formation of a concurrence or of an array of them."""
    c = np.asarray(c, dtype=float)
    if not np.all((c >= -1e-12) & (c <= 1.0 + 1e-12)):
        raise ValueError("concurrence must lie in [0, 1]")
    c = np.clip(c, 0.0, 1.0)
    x = 0.5 + 0.5 * np.sqrt(1.0 - c * c)
    separable = x >= 1.0 - 1e-15
    x = np.where(separable, 0.5, x)
    entropy = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
    return _scalar_or_stack(np.where(separable, 0.0, entropy))


def entanglement_of_formation(rho):
    return eof_from_concurrence(concurrence(rho))


def fidelity(rho, sigma):
    """(trace sqrt(sqrt(rho) sigma sqrt(rho)))^2, symmetric in its arguments;
    either argument may be a stack, and stacks pair up state by state."""
    a, b = (np.asarray(x, dtype=complex) for x in (rho, sigma))
    if a.shape[-2:] != b.shape[-2:]:
        raise ValueError("states must share a dimension")
    value = _sandwich_root_eigenvalues(matrix_sqrt_psd(a), b).sum(axis=-1) ** 2
    # Rank-one arguments admit the exact overlap form <psi|other|psi>.
    for pure_one, other in ((b, a), (a, b)):
        pure, psi = _pure_component(pure_one)
        overlap = np.einsum("...i,...ij,...j->...", psi.conj(), other, psi).real
        value = np.where(pure, overlap, value)
    return _scalar_or_stack(np.clip(value, 0.0, 1.0))


def purity(rho):
    """tr(rho^2) of a state or of each state of a stack."""
    m = np.asarray(rho, dtype=complex)
    return _scalar_or_stack(np.trace(m @ m, axis1=-2, axis2=-1).real)


# ---------------------------------------------------------------------------
# Correlators and the Bell sum


def correlation_coefficient(c_same: int, c_diff: int) -> tuple[float, float]:
    """(C_same - C_diff)/(C_same + C_diff); sigma is twice the Wilson score
    half-width at z = 1 (Brown, Cai and DasGupta, Stat. Sci. 16, 101, 2001)."""
    if c_same < 0 or c_diff < 0:
        raise ValueError("counts must be nonnegative")
    n = c_same + c_diff
    if n == 0:
        raise UndefinedEstimateError("no coincidences in either port pairing")
    p_hat = c_same / n
    sigma = 2.0 * math.sqrt(p_hat * (1.0 - p_hat) / n + 0.25 / n**2) / (1.0 + 1.0 / n)
    return (c_same - c_diff) / n, sigma


def _observable(setting: ProjectorSetting) -> np.ndarray:
    return projector(replace(setting, port=+1)) - projector(replace(setting, port=-1))


def born_correlation(
    rho: DensityMatrix, setting_a: ProjectorSetting, setting_b: ProjectorSetting
) -> float:
    """Expectation of the +-1 observable pair on `rho`."""
    obs = np.kron(_observable(setting_a), _observable(setting_b))
    return float(np.trace(_as_pair_density(rho.matrix) @ obs).real)


# The CHSH setting pairs in correlator order ab, ab', a'b, a'b', with
# a = X, a' = Y on the signal arm and b = X+Y, b' = X-Y on the idler arm.
CHSH_PAIRS = tuple(
    (a, b)
    for a in (ProjectorSetting.x(), ProjectorSetting.y())
    for b in (ProjectorSetting("XPY"), ProjectorSetting("XMY"))
)


@dataclass(frozen=True)
class ChshEstimate:
    value: float
    sigma: float
    minus_slot: int


def chsh_s(
    e_values: Sequence[float], sigmas: Sequence[float], minus_slot: int | None = None
) -> ChshEstimate:
    """Bell sum |E1 + E2 + E3 + E4 - 2*E_minus| with quadrature uncertainty.

    One correlator enters with a minus sign, in minus_slot.  Fixed before the
    counts are seen, every candidate is bounded by 2 for local models.  None
    takes the slot that maximizes |S| on these correlators, which matches the
    published sign convention of the measured quadruples.
    """
    e = [float(v) for v in e_values]
    s = [float(v) for v in sigmas]
    if len(e) != 4 or len(s) != 4:
        raise ValueError("need exactly four correlators and four uncertainties")
    total = sum(e)
    candidates = [abs(total - 2.0 * e_i) for e_i in e]
    slot = int(np.argmax(candidates)) if minus_slot is None else minus_slot
    sigma = math.sqrt(sum(v * v for v in s))
    return ChshEstimate(candidates[slot], sigma, slot)


# ---------------------------------------------------------------------------
# Monte-Carlo uncertainty propagation

METRIC_FUNCTIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "fidelity_phi_plus": lambda rho: fidelity(rho, _PHI_PLUS),
    "purity": purity,
    "concurrence": concurrence,
    "entanglement_of_formation": entanglement_of_formation,
}


def resample_rows(tin: TomographyInput, rng: np.random.Generator) -> np.ndarray:
    """The probabilities of `tin`, each redrawn from its Gaussian truncated to [0, 1].

    Exact rejection sampling: every row with sigma > 0 draws N(p, sigma), then
    only the draws outside [0, 1] are redrawn, until none is left.  A row
    accepts with probability P(0 <= N(p, sigma) <= 1), which is positive
    because TomographyRow keeps p in [0, 1] and sigma finite, so the loop
    ends.  Rows with sigma = 0 keep their probability.
    """
    probs, sigmas = tin.probabilities(), tin.sigmas()
    drawn = probs.copy()
    todo = np.flatnonzero(sigmas > 0.0)
    while todo.size:
        drawn[todo] = rng.normal(probs[todo], sigmas[todo])
        todo = todo[(drawn[todo] < 0.0) | (drawn[todo] > 1.0)]
    return drawn


def monte_carlo_samples(
    tins: Sequence[TomographyInput],
    trials: int,
    rng: np.random.Generator,
    evaluate: Callable[[tuple[np.ndarray, ...]], np.ndarray],
) -> tuple[np.ndarray, int]:
    """Metric samples under joint resampling of the inputs `tins`.

    Every trial redraws each input within its uncertainties (resample_rows,
    inputs in order within a trial, trials in order), so the random stream
    does not depend on fit outcomes.  All trials of one input are then fitted
    in one fit_batch call, and `evaluate` maps the fitted states, one
    (trials, 4, 4) stack per input, to a (trials, metrics) array.  A trial
    whose fit does not converge or that has a non-finite metric is dropped and
    counted; more than 20% dropped trials raise EstimationError.  Returns the
    (kept trials, metrics) samples and the number of dropped trials.
    """
    draws = [[resample_rows(tin, rng) for tin in tins] for _ in range(trials)]
    fits = [fit_batch(tin, [trial[i] for trial in draws]) for i, tin in enumerate(tins)]
    values = np.asarray(evaluate(tuple(fit.rho for fit in fits)), dtype=float)
    kept = np.isfinite(values).all(axis=1) & np.all([fit.converged for fit in fits], axis=0)
    failures = trials - int(kept.sum())
    if failures > MC_MAX_FAILURE_FRACTION * trials:
        raise EstimationError(f"{failures}/{trials} Monte-Carlo trials failed; results unreliable")
    return values[kept], failures


# ---------------------------------------------------------------------------
# Efficiency bookkeeping and histogram peaks


class Efficiencies(NamedTuple):
    system: float
    coupling: float
    device: float


def efficiencies(r_in: float, r_out: float, p_in: float, p_out: float) -> Efficiencies:
    """System (rate ratio), coupling (power ratio) and device efficiencies."""
    if r_in <= 0.0:
        raise ValueError("input rate must be positive")
    if p_in <= 0.0:
        raise ValueError("input power must be positive")
    system = r_out / r_in
    coupling = p_out / p_in
    if coupling <= 0.0:
        raise ValueError("coupling efficiency is zero; device efficiency undefined")
    return Efficiencies(system, coupling, system / coupling)


@dataclass(frozen=True)
class HistogramPeak:
    delay_ps: int
    count: int


def find_peaks(x, height: float | None = None, distance: float | None = None) -> np.ndarray:
    """Indices of the local maxima of a 1-d array, ascending.

    The semantics are those of scipy.signal.find_peaks(x, height=, distance=):
    a flat top counts once, at its midpoint (left + right) // 2, and flat tops
    at either end are not peaks; peaks with x < height are dropped; then,
    from the tallest down (np.argsort order of the heights), each peak still
    kept drops its neighbours closer than ceil(distance) >= 1 samples.
    """
    x = np.asarray(x, dtype=float)
    if x.size < 3:
        return np.empty(0, dtype=np.intp)
    # Runs of equal values: run k covers starts[k] .. ends[k].
    starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
    ends = np.r_[starts[1:], x.size] - 1
    level = x[starts]
    inner = np.flatnonzero((level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])) + 1
    peaks = (starts[inner] + ends[inner]) // 2
    if height is not None:
        peaks = peaks[x[peaks] >= height]
    if distance is not None:
        reach = math.ceil(distance)
        lo = np.searchsorted(peaks, peaks - reach + 1).tolist()
        hi = np.searchsorted(peaks, peaks + reach).tolist()
        keep = np.ones(peaks.size, dtype=bool)
        for j in np.argsort(x[peaks])[::-1].tolist():
            if keep[j]:
                keep[lo[j] : j] = False
                keep[j + 1 : hi[j]] = False
        peaks = peaks[keep]
    return peaks


def find_histogram_peaks(
    hist: CoincidenceHistogram,
    min_height_fraction: float = 0.1,
    min_separation_ps: int = 2_000,
) -> list[HistogramPeak]:
    """Locate local maxima above a fraction of the tallest bin."""
    counts = hist.counts.astype(float)
    if counts.max() <= 0:
        return []
    distance = max(1, int(min_separation_ps // hist.bin_width_ps))
    idx = find_peaks(counts, height=min_height_fraction * counts.max(), distance=distance)
    centers = hist.bin_starts() + hist.bin_width_ps // 2
    return [HistogramPeak(int(centers[i]), int(hist.counts[i])) for i in idx]
