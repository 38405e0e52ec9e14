"""Atomic-frequency-comb memories: comb profiles, recall efficiency, echoes.

A comb is a periodic train of Gaussian absorption teeth (spacing Delta,
FWHM Delta/F) of depth d1 on a background depth d0.  Light absorbed by the
comb re-emerges after the rephasing time 1/Delta; imperfect periodicity
(e.g. alternating tooth heights, a period-2*Delta structure) adds partial
rephasing at half and at twice that delay.  Frequencies are in MHz
throughout, so storage times come out in ns via 1000/Delta.

CombSpectrum is the sampled profile alone: build_comb makes one from comb
parameters and comb_from_csv reads one from a file.  The echo spectrum is
read off the profile directly; only fit_comb, which recovers the parameters
from a profile, needs scipy.

MemoryConfig holds the phenomenological recall model, and its outcome_table()
is the one place that states the outcomes; the simulation engine in harness
draws each photon's outcome from it, and events.csv names them TRANSMITTED
and RECALLED_k:

* transmitted (not absorbed): exp(-mean OD), then the coupling efficiency;
* recalled in echo k: device efficiency times the echo's relative weight
  (squared spectral magnitude, primary peak normalized to 1), times the
  coupling efficiency;
* lost: everything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .csvio import csv_rows, float_fields
from .errors import FitError
from .estimation import find_peaks

FOUR_LN2 = 4.0 * math.log(2.0)
# echo_response skips the direct-transmission lobe below this delay and
# spectral-leakage sidelobes closer than this to a taller peak, and finds no
# echo when the tallest peak is below this fraction of the zero-delay term: a
# comb's primary echo carries 0.25-0.4 of it, the noise of a flat profile < 1e-3.
ECHO_MIN_DELAY_NS = 2.0
ECHO_MIN_SEPARATION_NS = 2.0
ECHO_MIN_RELATIVE_MAGNITUDE = 1e-2


def _bad_grid_steps(detuning: np.ndarray) -> np.ndarray:
    """Per step: whether the grid up to it is not strictly increasing and uniform
    (steps within 1e-6 of the largest, no NaN); once True, it stays True."""
    steps = np.diff(detuning)
    lo, hi = np.minimum.accumulate(steps), np.maximum.accumulate(steps)
    return ~(lo > 0) | (hi - lo > 1e-6 * hi)


@dataclass(frozen=True)
class CombSpectrum:
    """A sampled comb profile: optical depth on a strictly increasing,
    uniform detuning grid.  The comb parameters that shaped it live with
    their source (CombSpec, the `comb build` arguments, FittedComb)."""

    detuning_mhz: np.ndarray
    od: np.ndarray

    def __post_init__(self):
        det = np.asarray(self.detuning_mhz, dtype=float)
        od = np.asarray(self.od, dtype=float)
        if det.ndim != 1 or det.shape != od.shape or det.shape[0] < 8:
            raise ValueError("detuning and OD must be matching 1-d arrays (>= 8 points)")
        if _bad_grid_steps(det).any():
            raise ValueError("detuning grid must be strictly increasing and uniform")
        object.__setattr__(self, "detuning_mhz", det)
        object.__setattr__(self, "od", od)

    @property
    def grid_step_mhz(self) -> float:
        return float(self.detuning_mhz[1] - self.detuning_mhz[0])

    @property
    def mean_od(self) -> float:
        return float(np.mean(self.od))


def storage_time_ns(delta_mhz: float) -> float:
    """Rephasing delay 1/Delta, in ns for Delta in MHz."""
    return 1000.0 / delta_mhz


def build_comb(
    delta_mhz: float,
    finesse: float,
    background_od: float,
    tooth_od: float,
    bandwidth_ghz: float,
    grid_step_mhz: float,
    modulation_depth: float = 0.0,
) -> CombSpectrum:
    """Sample an ideal comb: Gaussian teeth of FWHM Delta/F every Delta.

    The grid spans [-bandwidth/2, +bandwidth/2] and must resolve the teeth:
    grid_step <= Delta/(4F).  modulation_depth m in [0, 1) alternates tooth
    heights between d1*(1+m) and d1*(1-m), a period-2*Delta structure that
    produces the half- and double-delay spurious echoes.
    """
    if not delta_mhz > 0.0:
        raise ValueError("delta_mhz must be positive")
    if not finesse > 1.0:
        raise ValueError("finesse must exceed 1")
    if background_od < 0.0 or tooth_od < 0.0:
        raise ValueError("optical depths must be non-negative")
    bandwidth_mhz = bandwidth_ghz * 1000.0
    if bandwidth_mhz < 2.0 * delta_mhz:
        raise ValueError("bandwidth must cover at least two comb periods")
    if not 0.0 <= modulation_depth < 1.0:
        raise ValueError("modulation_depth must lie in [0, 1)")
    if grid_step_mhz <= 0.0 or grid_step_mhz > delta_mhz / (4.0 * finesse):
        raise ValueError(
            f"grid_step_mhz must be in (0, delta/(4*finesse)] = "
            f"(0, {delta_mhz / (4.0 * finesse):.4g}] MHz to resolve the teeth"
        )

    n_points = int(round(bandwidth_mhz / grid_step_mhz)) + 1
    detuning = (np.arange(n_points) - (n_points - 1) / 2.0) * grid_step_mhz
    n_teeth = int(math.floor(bandwidth_mhz / delta_mhz))
    centers = (np.arange(n_teeth) - (n_teeth - 1) / 2.0) * delta_mhz
    heights = tooth_od * (1.0 + modulation_depth * (-1.0) ** np.arange(n_teeth))
    width = delta_mhz / finesse  # FWHM
    # (points, teeth) distance table; fine at these sizes.
    gauss = np.exp(-FOUR_LN2 * ((detuning[:, None] - centers[None, :]) / width) ** 2)
    return CombSpectrum(detuning_mhz=detuning, od=background_od + gauss @ heights)


def device_efficiency(background_od: float, tooth_od: float, finesse: float) -> float:
    """Recall efficiency of the comb itself (no coupling losses).

    (d1/F)^2 * exp(-d1/F) * exp(-7/F^2) * exp(-d0): absorption/re-emission by
    the effective depth d1/F, tooth-shape dephasing, background absorption.
    """
    if background_od < 0.0 or tooth_od < 0.0:
        raise ValueError("optical depths must be non-negative")
    if not finesse > 1.0:
        raise ValueError("finesse must exceed 1")
    d_eff = tooth_od / finesse
    return d_eff**2 * math.exp(-d_eff) * math.exp(-7.0 / finesse**2) * math.exp(-background_od)


def echo_response(
    comb: CombSpectrum, rel_threshold: float = 0.05
) -> list[tuple[float, float]]:
    """Echo delays visible in the spectral transmission e^(-OD).

    Returns (delay_ns, relative magnitude) pairs, magnitudes normalized to the
    strongest non-DC peak, sorted by delay.  Peaks below rel_threshold of the
    maximum are dropped; ECHO_MIN_DELAY_NS excludes the direct-transmission
    lobe at zero delay, ECHO_MIN_SEPARATION_NS suppresses spectral-leakage
    sidelobes next to a real peak, and ECHO_MIN_RELATIVE_MAGNITUDE leaves a
    flat or noisy profile with no echoes.
    """
    if not 0.0 <= rel_threshold <= 1.0:
        raise ValueError(f"rel_threshold must lie in [0, 1], got {rel_threshold!r}")
    transmission = np.exp(-comb.od)
    mag = np.abs(np.fft.rfft(transmission))
    delays_ns = np.fft.rfftfreq(transmission.shape[0], d=comb.grid_step_mhz) * 1000.0
    bin_ns = delays_ns[1] - delays_ns[0]
    distance = max(1, int(round(ECHO_MIN_SEPARATION_NS / bin_ns)))
    idx = find_peaks(mag, distance=distance)
    idx = idx[delays_ns[idx] >= ECHO_MIN_DELAY_NS]
    if idx.size == 0:
        return []
    top = float(mag[idx].max())
    if top <= ECHO_MIN_RELATIVE_MAGNITUDE * mag[0]:
        return []
    keep = idx[mag[idx] >= rel_threshold * top]
    return [(float(delays_ns[i]), float(mag[i] / top)) for i in np.sort(keep)]


@dataclass(frozen=True)
class FittedComb:
    """Least-squares comb parameters recovered from a sampled profile."""

    delta_mhz: float
    finesse: float
    background_od: float
    tooth_od: float
    offset_mhz: float
    residual_rms: float


def _comb_model(detuning: np.ndarray, d0, d1, finesse, delta, offset) -> np.ndarray:
    width = delta / finesse
    lo = detuning[0] - 3.0 * width
    hi = detuning[-1] + 3.0 * width
    k_lo = int(math.floor((lo - offset) / delta))
    k_hi = int(math.ceil((hi - offset) / delta))
    centers = offset + delta * np.arange(k_lo, k_hi + 1)
    gauss = np.exp(-FOUR_LN2 * ((detuning[:, None] - centers[None, :]) / width) ** 2)
    return d0 + d1 * gauss.sum(axis=1)


def fit_comb(comb: CombSpectrum) -> FittedComb:
    """Fit (d0, d1, F, Delta) to a sampled profile; raises FitError when the
    profile carries no resolvable periodic structure or scipy is missing."""
    # Imported here, not at module level: scipy is the optional `comb` extra,
    # and only the comb fit loads it.
    try:
        from scipy.optimize import least_squares
    except ImportError as exc:
        raise FitError("the comb fit needs scipy: pip install afclink[comb]") from exc

    det, y = comb.detuning_mhz, comb.od
    if det.shape[0] < 16:
        raise ValueError("the comb fit needs at least 16 points")
    step = comb.grid_step_mhz
    contrast = float(np.ptp(y))
    if contrast <= 1e-9:
        raise FitError("profile is flat; no comb structure to fit")

    # Period seed from the dominant spectral component.
    spec = np.abs(np.fft.rfft(y - y.mean()))
    freqs = np.fft.rfftfreq(y.shape[0], d=step)
    k = int(np.argmax(spec[1:])) + 1
    if spec[k] < 1e-3 * y.shape[0] * contrast / 2.0:
        raise FitError("no dominant periodicity found in the profile")
    delta0 = 1.0 / freqs[k]
    offset0 = float(det[int(np.argmax(y))])
    offset0 = (offset0 + delta0 / 2.0) % delta0 - delta0 / 2.0

    x0 = np.array([max(float(y.min()), 0.0), contrast, 2.0, delta0, offset0])
    lower = [0.0, 1e-6, 1.0 + 1e-6, 0.5 * delta0, offset0 - delta0]
    upper = [np.inf, np.inf, np.inf, 1.5 * delta0, offset0 + delta0]
    x0 = np.clip(x0, lower, upper)

    def residuals(x):
        return _comb_model(det, *x) - y

    result = least_squares(residuals, x0, bounds=(lower, upper), method="trf")
    if not result.success:
        raise FitError(f"comb fit did not converge: {result.message}")
    d0, d1, finesse, delta, offset = result.x
    if d1 < 1e-4 * contrast:
        raise FitError("fitted tooth depth is negligible; no comb structure")
    rms = float(np.sqrt(np.mean(result.fun**2)))
    return FittedComb(
        delta_mhz=float(delta),
        finesse=float(finesse),
        background_od=float(d0),
        tooth_od=float(d1),
        offset_mhz=float(offset),
        residual_rms=rms,
    )


COMB_CSV_HEADER = ("detuning_MHz", "optical_depth")


def comb_to_csv(comb: CombSpectrum, path) -> None:
    data = np.column_stack([comb.detuning_mhz, comb.od])
    header = ",".join(COMB_CSV_HEADER)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        np.savetxt(fh, data, delimiter=",", header=header, comments="", fmt="%.9g")


def comb_from_csv(path) -> CombSpectrum:
    """Read a (detuning, OD) profile; the header line is required, and the
    detuning grid must be strictly increasing and uniform."""
    rows = [
        [line_no, *float_fields(path, line_no, raw)]
        for line_no, raw in csv_rows(path, COMB_CSV_HEADER, "comb")
    ]
    if not rows:
        raise ValueError(f"{path}: no comb rows")
    lines, detuning, od = np.array(rows).T
    bad = _bad_grid_steps(detuning)
    if bad.any():
        line_no = int(lines[np.argmax(bad) + 1])
        raise ValueError(
            f"{path}: line {line_no}: detuning grid is not strictly increasing and uniform"
        )
    try:
        return CombSpectrum(detuning_mhz=detuning, od=od)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class MemoryConfig:
    """Per-memory recall model: outcome probabilities and echo delays.

    echo_delays holds (delay_ns, weight) pairs with the primary echo at
    weight 1; outcome_table() holds the probability of every outcome.
    """

    coupling_efficiency: float
    device_efficiency: float
    mean_od: float
    echo_delays: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not 0.0 <= self.coupling_efficiency <= 1.0:
            raise ValueError("coupling efficiency must lie in [0, 1]")
        if not 0.0 <= self.device_efficiency <= 1.0:
            raise ValueError("device efficiency must lie in [0, 1]")
        if not 0.0 <= self.mean_od < math.inf:
            raise ValueError("mean optical depth must be finite and non-negative")
        echoes = tuple((float(d), float(w)) for d, w in self.echo_delays)
        if not echoes:
            raise ValueError("at least one echo delay is required")
        weights = np.array([w for _, w in echoes])
        delays = np.array([d for d, _ in echoes])
        if not np.all((delays > 0.0) & (delays < math.inf)):
            raise ValueError("echo delays must be finite and positive")
        if not np.all((weights > 0.0) & (weights <= 1.0 + 1e-12)):
            raise ValueError("echo weights must be finite and lie in (0, 1]")
        if abs(weights.max() - 1.0) > 1e-9:
            raise ValueError("the primary echo weight must be 1")
        object.__setattr__(self, "echo_delays", echoes)
        transmitted, *recall, _ = self.outcome_table().tolist()
        total = transmitted + sum(recall)
        if total > 1.0 + 1e-9:
            raise ValueError(f"outcome probabilities sum to {total!r} > 1")

    @classmethod
    def from_comb(
        cls, comb: CombSpectrum, coupling_efficiency: float, device_efficiency: float
    ) -> "MemoryConfig":
        """Derive the recall model from a comb profile: device_efficiency (the
        efficiency formula on the comb's parameters) sets the primary recall
        probability; spectral echo magnitudes (squared) set the relative
        weights of the other delays."""
        echoes = echo_response(comb)
        if not echoes:
            raise ValueError("comb shows no echo peaks; cannot build a memory model")
        weighted = tuple((delay, mag**2) for delay, mag in echoes)
        return cls(
            coupling_efficiency=float(coupling_efficiency),
            device_efficiency=float(device_efficiency),
            mean_od=comb.mean_od,
            echo_delays=weighted,
        )

    @property
    def primary_echo_index(self) -> int:
        weights = [w for _, w in self.echo_delays]
        return int(np.argmax(weights))

    def outcome_table(self) -> np.ndarray:
        """Probabilities of transmitted, recalled in echo 0, 1, ..., and lost
        (sums to 1 by construction)."""
        transmitted = math.exp(-self.mean_od) * self.coupling_efficiency
        recall = [self.device_efficiency * w * self.coupling_efficiency for _, w in self.echo_delays]
        return np.array([transmitted, *recall, 1.0 - transmitted - sum(recall)])

    def echo_delay_ps(self, echo_index: int) -> int:
        return int(round(self.echo_delays[echo_index][0] * 1000.0))
