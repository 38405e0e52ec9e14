"""Statistical estimators: cross-correlation, state reconstruction, metrics.

The reconstruction minimizes, over the density matrices rho, a
sigma-weighted squared residual on measured joint probabilities.  It is
convex in rho, so one local method finds the optimum: accelerated projected
gradient (FISTA with adaptive restart) with the gradient

    G = sum_k (d f / d p_k) E_k,   p_k = tr(E_k rho),

followed by the Frobenius projection onto the states, which projects the
eigenvalues onto the probability simplex (Shang, Zhang & Ng, PRA 95, 062336;
Smolin, Gambetta & Smith, PRL 108, 070502).  Fits of inputs that share their
settings run batched on (B, 4, 4) stacks, which is how the Monte-Carlo
uncertainties fit every resampled trial of one input at once.

Everything here needs numpy alone.  The histogram peak finder (find_peaks,
with the semantics of scipy.signal.find_peaks) and the truncated-normal
resampler (resample_rows, exact rejection sampling) are written out, so that
no CLI command other than the comb fit pays for importing scipy.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .csvio import csv_rows, write_csv
from .detection import CoincidenceHistogram, coincidence_rate
from .errors import EstimationError, UndefinedEstimateError
from .linalg import (
    DensityMatrix,
    ProjectorSetting,
    bell_phi_plus,
    hermitian_eigensystem,
    matrix_sqrt_psd,
    projector,
)

DEFAULT_SIDE_PEAKS = tuple(range(-5, 0)) + tuple(range(1, 6))
MC_MIN_TRIALS = 100
MC_MAX_FAILURE_FRACTION = 0.2

_PHI_PLUS = bell_phi_plus().density()

TOMOGRAPHY_CSV_HEADER = ("setting_a", "setting_b", "probability", "sigma")


def __getattr__(name):
    # `optimize` is scipy.optimize, imported on first access and used by
    # nothing here: bench/tracing.py still wraps optimize.minimize.  It goes
    # with the benchmark change of ROADMAP item 2, which points that span at
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


def g2_cross(
    hist: CoincidenceHistogram,
    delay_ps: int = 0,
    n_values: Sequence[int] | None = None,
    rep_period_ps: int = 12_500,
    peak_halfwidth_ps: int = 500,
) -> G2Estimate:
    """Normalized cross-correlation at `delay_ps`.

    The peak rate is divided by the mean rate of the accidental peaks offset
    by n repetition periods; uncorrelated channels therefore give 1.  The
    uncertainty follows from Poisson counting on both numerator and the
    pooled reference counts; an empty peak is given the one-count Poisson
    bound, so it reports 0 with a nonzero sigma.
    """
    if n_values is None:
        n_values = DEFAULT_SIDE_PEAKS
    n_values = tuple(int(n) for n in n_values)
    if not n_values:
        raise ValueError("need at least one reference peak")
    if 0 in n_values:
        raise ValueError("reference peaks must exclude n = 0")
    peak = coincidence_rate(hist, delay_ps, peak_halfwidth_ps)
    references = [
        coincidence_rate(hist, delay_ps + n * rep_period_ps, peak_halfwidth_ps)
        for n in n_values
    ]
    total_ref = int(sum(references))
    if total_ref == 0:
        raise UndefinedEstimateError("all reference peaks are empty")
    mean_ref = total_ref / len(references)
    value = peak / mean_ref
    n_peak = max(peak, 1)
    sigma = (n_peak / mean_ref) * math.sqrt(1.0 / n_peak + 1.0 / total_ref)
    return G2Estimate(value, sigma, peak, total_ref)


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
MLE_MAX_ITER = 10_000


@dataclass(frozen=True)
class _MleData:
    """The rows of one input with B measured vectors stacked on top."""

    effects: np.ndarray  # (n, 4, 4) joint projectors
    measured: np.ndarray  # (B, n)
    # The objective is sum_k w_k (p_k - m_k)^2 with w_k = 1 / (2 sigma_k^2).
    weights: np.ndarray  # (B, n)


def _build_mle_data(tins: Sequence[TomographyInput]) -> _MleData:
    first = tins[0]
    if not first.rows:
        raise ValueError("tomography input has no rows")
    def layout(tin):
        return [(r.setting_a, r.setting_b, r.sigma) for r in tin.rows]

    if any(layout(tin) != layout(first) for tin in tins[1:]):
        raise ValueError("batched inputs must share settings and sigmas")
    effects = np.stack(
        [np.kron(projector(r.setting_a), projector(r.setting_b)) for r in first.rows]
    )
    measured = np.array([[r.probability for r in t.rows] for t in tins])
    sigmas = np.array([r.sigma for r in first.rows])
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
    matrices: keep the eigenvectors, project the eigenvalues onto the simplex
    (Smolin, Gambetta & Smith, PRL 108, 070502)."""
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


def _start(data: _MleData) -> tuple[np.ndarray, np.ndarray]:
    """Starting state and step length of each batch element.

    In the orthonormal basis P_j / 2 of the traceless Hermitian matrices the
    objective is sum_k w_k (a_k . c + tr(E_k) / 4 - m_k)^2, with a_k the
    coordinates of E_k.  The start is its minimizer, the weighted linear
    inversion, projected onto the states; the step is 1/L with
    L = 2 lambda_max(A^T W A), the Lipschitz constant of its gradient.
    """
    design = np.einsum("kij,pji->kp", data.effects, _TRACELESS_PAIRS).real / 2.0
    offset = np.trace(data.effects, axis1=1, axis2=2).real / 4.0
    curvature = np.einsum("kp,bk,kq->bpq", design, data.weights, design)
    rhs = (data.weights * (data.measured - offset)) @ design
    coef = np.linalg.solve(curvature, rhs[..., None])[..., 0]
    rho = np.eye(4) / 4.0 + np.einsum("bp,pij->bij", coef, _TRACELESS_PAIRS / 2.0)
    return _project_to_states(rho), 1.0 / (2.0 * np.linalg.eigvalsh(curvature)[:, -1])


def _certified(rho: np.ndarray, grad: np.ndarray, tol: float) -> np.ndarray:
    """Whether the duality gap tr(G rho) - lambda_min(G), an upper bound on
    f(rho) - min f over the states, is at most tol * max(1, |G|)."""
    gap = _frobenius_inner(grad, rho) - np.linalg.eigvalsh(grad)[:, 0]
    return gap <= tol * np.maximum(1.0, np.sqrt(_frobenius_inner(grad, grad)))


@dataclass(frozen=True)
class BatchFit:
    """Fitted states of a batch of inputs, in input order."""

    rho: np.ndarray  # (B, 4, 4)
    residual: np.ndarray  # (B,) objective value at the fitted state
    iterations: np.ndarray  # (B,)
    converged: np.ndarray  # (B,) bool


def fit_batch(tins: Sequence[TomographyInput]) -> BatchFit:
    """Maximum-likelihood states of inputs that share settings and sigmas.

    Accelerated projected gradient (FISTA with adaptive restart) on the
    (B, 4, 4) stack: a gradient step, then the projection onto the states.
    Each element starts from its projected linear inversion and always steps
    1/L, with L the Lipschitz constant of its gradient (see _start).  The
    objective is quadratic and L is exact, so the sufficient decrease test
    of Beck & Teboulle (SIAM J. Imaging Sci. 2, 183) holds for that step
    and no line search is needed.  An element stops once its duality gap
    certifies it (see _certified), so its result does not depend, beyond
    rounding, on the rest of the batch.
    """
    data = _build_mle_data(tins)
    _check_rank(data.effects)
    size = data.measured.shape[0]
    x, step = _start(data)
    residual, dfdp = _objective(data, x, np.arange(size))
    converged = _certified(x, _gradient(data.effects, dfdp), MLE_TOL)
    iterations = np.zeros(size, dtype=int)
    y = x.copy()
    theta = np.ones(size)
    active = np.flatnonzero(~converged)
    for it in range(1, MLE_MAX_ITER + 1):
        if active.size == 0:
            break
        y_act = y[active]
        _, dfdp = _objective(data, y_act, active)
        grad = _gradient(data.effects, dfdp)
        x_new = _project_to_states(y_act - step[active, None, None] * grad)
        f_new, dfdp_new = _objective(data, x_new, active)
        x_old = x[active]
        x[active] = x_new
        residual[active] = f_new
        iterations[active] = it
        done = _certified(x_new, _gradient(data.effects, dfdp_new), MLE_TOL)
        converged[active[done]] = True
        # Restart the momentum when it points against the last step
        # (O'Donoghue & Candes, Found. Comput. Math. 15, 715).
        restart = _frobenius_inner(y_act - x_new, x_new - x_old) > 0.0
        theta_old = np.where(restart, 1.0, theta[active])
        theta[active] = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta_old**2))
        beta = (theta_old - 1.0) / theta[active]
        y[active] = x_new + beta[:, None, None] * (x_new - x_old)
        active = active[~done]
    return BatchFit(x, residual, iterations, converged)


@dataclass(frozen=True)
class TomographyResult:
    rho: DensityMatrix
    residual: float
    n_converged: int
    iterations: int


def tomography_mle(
    tin: TomographyInput, *, n_starts: int | None = None, seed: int | None = None
) -> TomographyResult:
    """Maximum-likelihood density matrix: fit_batch on a batch of one.

    The objective is convex in the state, so there is one start and no seed;
    `n_starts` and `seed` are accepted and ignored because bench/reference.py
    still passes them.
    """
    fit = fit_batch([tin])
    if not fit.converged[0]:
        raise EstimationError(
            f"fit did not converge in {MLE_MAX_ITER} iterations; "
            f"residual {fit.residual[0]!r}"
        )
    return TomographyResult(
        rho=DensityMatrix(fit.rho[0]),
        residual=float(fit.residual[0]),
        n_converged=1,
        iterations=int(fit.iterations[0]),
    )


# ---------------------------------------------------------------------------
# Entanglement and distance metrics

_SIGMA_Y_PAIR = np.kron(
    np.array([[0.0, -1.0j], [1.0j, 0.0]]), np.array([[0.0, -1.0j], [1.0j, 0.0]])
)


def _as_pair_density(rho: DensityMatrix) -> np.ndarray:
    if rho.dim != 4:
        raise ValueError("a two-qubit density matrix is required")
    return rho.matrix


_PURE_PURITY_TOL = 1e-12


def _pure_component(m: np.ndarray) -> np.ndarray | None:
    """Dominant eigenvector if the state is pure to within round-off."""
    if np.trace(m @ m).real < 1.0 - _PURE_PURITY_TOL:
        return None
    _, v = hermitian_eigensystem(m)
    return v[:, 0]


def concurrence(rho: DensityMatrix) -> float:
    """Wootters concurrence of a two-qubit state."""
    m = _as_pair_density(rho)
    psi = _pure_component(m)
    if psi is not None:
        # Exact rank-one formula; the matrix-root chain loses digits here.
        return float(np.abs(psi @ (_SIGMA_Y_PAIR @ psi)))
    flipped = _SIGMA_Y_PAIR @ m.conj() @ _SIGMA_Y_PAIR
    root = matrix_sqrt_psd(m)
    inner = root @ flipped @ root
    w, _ = hermitian_eigensystem((inner + inner.conj().T) / 2.0)
    lams = np.sqrt(np.clip(w, 0.0, None))
    return max(0.0, float(lams[0] - lams[1] - lams[2] - lams[3]))


def eof_from_concurrence(c: float) -> float:
    if not -1e-12 <= c <= 1.0 + 1e-12:
        raise ValueError("concurrence must lie in [0, 1]")
    c = min(max(c, 0.0), 1.0)
    x = 0.5 + 0.5 * math.sqrt(1.0 - c * c)
    if x >= 1.0 - 1e-15:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def entanglement_of_formation(rho: DensityMatrix) -> float:
    return eof_from_concurrence(concurrence(rho))


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(trace sqrt(sqrt(rho) sigma sqrt(rho)))^2, symmetric in its arguments."""
    if rho.dim != sigma.dim:
        raise ValueError("states must share a dimension")
    # Rank-one arguments admit the exact overlap form <psi|other|psi>.
    for pure, other in ((rho, sigma), (sigma, rho)):
        psi = _pure_component(pure.matrix)
        if psi is not None:
            value = float((psi.conj() @ (other.matrix @ psi)).real)
            return min(max(value, 0.0), 1.0)
    root = matrix_sqrt_psd(rho.matrix)
    inner = root @ sigma.matrix @ root
    overlap_root = matrix_sqrt_psd((inner + inner.conj().T) / 2.0)
    value = float(np.trace(overlap_root).real) ** 2
    return min(max(value, 0.0), 1.0)


def purity(rho: DensityMatrix) -> float:
    return float(np.trace(rho.matrix @ rho.matrix).real)


# ---------------------------------------------------------------------------
# Correlators and the Bell sum


def correlation_coefficient(c_same: int, c_diff: int) -> tuple[float, float]:
    """(C_same - C_diff)/(C_same + C_diff) with binomial uncertainty."""
    if c_same < 0 or c_diff < 0:
        raise ValueError("counts must be nonnegative")
    total = c_same + c_diff
    if total == 0:
        raise UndefinedEstimateError("no coincidences in either port pairing")
    e = (c_same - c_diff) / total
    p_hat = c_same / total
    sigma = 2.0 * math.sqrt(p_hat * (1.0 - p_hat) / total)
    return e, sigma


def _observable(setting: ProjectorSetting) -> np.ndarray:
    return projector(replace(setting, port=+1)) - projector(replace(setting, port=-1))


def born_correlation(
    rho: DensityMatrix, setting_a: ProjectorSetting, setting_b: ProjectorSetting
) -> float:
    """Expectation of the +-1 observable pair on `rho`."""
    obs = np.kron(_observable(setting_a), _observable(setting_b))
    return float(np.trace(_as_pair_density(rho) @ obs).real)


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


def chsh_s(e_values: Sequence[float], sigmas: Sequence[float]) -> ChshEstimate:
    """Bell sum |E1 + E2 + E3 + E4 - 2*E_minus| with quadrature uncertainty.

    One correlator enters with a minus sign; the slot is chosen to maximize
    |S|, which keeps every candidate bounded by 2 for local models while
    matching the published sign convention of the measured quadruples.
    """
    e = [float(v) for v in e_values]
    s = [float(v) for v in sigmas]
    if len(e) != 4 or len(s) != 4:
        raise ValueError("need exactly four correlators and four uncertainties")
    total = sum(e)
    candidates = [abs(total - 2.0 * e_i) for e_i in e]
    slot = int(np.argmax(candidates))
    sigma = math.sqrt(sum(v * v for v in s))
    return ChshEstimate(candidates[slot], sigma, slot)


# ---------------------------------------------------------------------------
# Monte-Carlo uncertainty propagation

METRIC_FUNCTIONS: dict[str, Callable[[DensityMatrix], float]] = {
    "fidelity_phi_plus": lambda rho: fidelity(rho, _PHI_PLUS),
    "purity": purity,
    "concurrence": concurrence,
    "entanglement_of_formation": entanglement_of_formation,
}


def resample_rows(tin: TomographyInput, rng: np.random.Generator) -> TomographyInput:
    """Redraw each probability from its Gaussian truncated to [0, 1].

    Exact rejection sampling: every row with sigma > 0 draws N(p, sigma), then
    only the draws outside [0, 1] are redrawn, until none is left.  A row
    accepts with probability P(0 <= N(p, sigma) <= 1), which is positive
    because TomographyRow keeps p in [0, 1] and sigma finite, so the loop
    ends.  Rows with sigma = 0 keep their probability.
    """
    probs = np.array([r.probability for r in tin.rows])
    sigmas = np.array([r.sigma for r in tin.rows])
    drawn = probs.copy()
    todo = np.flatnonzero(sigmas > 0.0)
    while todo.size:
        drawn[todo] = rng.normal(probs[todo], sigmas[todo])
        todo = todo[(drawn[todo] < 0.0) | (drawn[todo] > 1.0)]
    rows = [
        replace(row, probability=float(p)) for row, p in zip(tin.rows, drawn)
    ]
    return TomographyInput(tuple(rows))


def monte_carlo_samples(
    tins: Sequence[TomographyInput],
    trials: int,
    rng: np.random.Generator,
    evaluate: Callable[[tuple[DensityMatrix, ...]], Sequence[float]],
) -> tuple[np.ndarray, int]:
    """Metric samples under joint resampling of the inputs `tins`.

    Every trial redraws each input within its uncertainties (resample_rows,
    inputs in order within a trial, trials in order), so the random stream
    does not depend on fit outcomes.  All trials of one input are then fitted
    in one batched call, and `evaluate` maps the states of one trial (one per
    input) to its metric values.  A trial whose fit does not converge or whose
    evaluation raises is dropped and counted; more than 20% dropped trials
    raise EstimationError.  Returns the (kept trials, metrics) samples and the
    number of dropped trials.
    """
    draws = [[resample_rows(tin, rng) for tin in tins] for _ in range(trials)]
    fits = [fit_batch([trial[i] for trial in draws]) for i in range(len(tins))]
    samples = []
    failures = 0
    for trial in range(trials):
        if not all(fit.converged[trial] for fit in fits):
            failures += 1
            continue
        try:
            states = tuple(DensityMatrix(fit.rho[trial]) for fit in fits)
            samples.append([float(v) for v in evaluate(states)])
        except Exception:  # a trial whose metric fails is dropped and counted
            failures += 1
    if failures > MC_MAX_FAILURE_FRACTION * trials:
        raise EstimationError(
            f"{failures}/{trials} Monte-Carlo trials failed; results unreliable"
        )
    return np.array(samples), failures


# ---------------------------------------------------------------------------
# Fringe visibility


@dataclass(frozen=True)
class VisibilityFitResult:
    visibility: float
    phase_offset: float
    mean_level: float
    visibility_sigma: float
    phase_sigma: float
    mean_sigma: float
    phase_identifiable: bool


def visibility_fit(sweep: Sequence[tuple[float, float]]) -> VisibilityFitResult:
    """Fit N(theta) = N0 (1 + V cos(theta - theta0)) to a phase sweep.

    The model is linear in (N0, N0 V cos(theta0), N0 V sin(theta0)), so the
    fit is a plain least-squares solve; uncertainties come from the residual
    variance.  When the fitted fringe amplitude is consistent with zero the
    phase offset is flagged as unidentifiable.
    """
    pts = [(float(t), float(c)) for t, c in sweep]
    if len(pts) < 6:
        raise ValueError("need at least 6 phase points")
    thetas = np.array([p[0] for p in pts])
    counts = np.array([p[1] for p in pts])
    if thetas.max() - thetas.min() <= math.pi:
        raise ValueError("phase sweep must span more than pi")
    design = np.column_stack([np.ones_like(thetas), np.cos(thetas), np.sin(thetas)])
    coef, _, rank, _ = np.linalg.lstsq(design, counts, rcond=None)
    if rank < 3:
        from .errors import FitError

        raise FitError("phase sweep design is rank deficient")
    n0, a, b = coef
    if n0 <= 0.0:
        from .errors import FitError

        raise FitError("fitted mean level is not positive")
    resid = counts - design @ coef
    dof = len(pts) - 3
    noise_var = float(resid @ resid) / dof
    cov = noise_var * np.linalg.inv(design.T @ design)
    amp = math.hypot(a, b)
    visibility = min(max(amp / n0, 0.0), 1.0)
    if amp > 0.0:
        g_amp = np.array([0.0, a / amp, b / amp])
        g_vis = np.array([-amp / n0**2, a / (amp * n0), b / (amp * n0)])
        g_phase = np.array([0.0, -b / amp**2, a / amp**2])
        amp_sigma = math.sqrt(max(g_amp @ cov @ g_amp, 0.0))
        vis_sigma = math.sqrt(max(g_vis @ cov @ g_vis, 0.0))
        phase_sigma = math.sqrt(max(g_phase @ cov @ g_phase, 0.0))
    else:
        amp_sigma = math.sqrt(max(cov[1, 1], cov[2, 2], 0.0))
        vis_sigma = amp_sigma / n0
        phase_sigma = math.pi
    identifiable = amp > 3.0 * amp_sigma and visibility > 1e-9
    return VisibilityFitResult(
        visibility=visibility,
        phase_offset=math.atan2(b, a),
        mean_level=float(n0),
        visibility_sigma=vis_sigma,
        phase_sigma=phase_sigma,
        mean_sigma=math.sqrt(max(cov[0, 0], 0.0)),
        phase_identifiable=identifiable,
    )


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
