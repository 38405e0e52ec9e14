"""End-to-end acceptance checks, one test per release criterion.

Each test exercises a complete workflow at its stated tolerance and time
budget; `pytest -v` therefore prints one pass/fail line per criterion.
Numeric details are printed so failures carry the measured values.

The invariant/property suites that back criterion 7 live with their modules
(test_linalg.py, test_estimation.py, test_memory.py, ...); the test here
covers the efficiency-ratio arithmetic that must hold exactly.
"""

import math
import time

import pytest
from conftest import IDEAL_DETECTORS

from afclink.config import config_from_dict
from afclink.estimation import efficiencies, find_histogram_peaks, g2_cross
from afclink.harness import (
    DATA_CHSH,
    DATA_TOMOGRAPHY_IN,
    DATA_TOMOGRAPHY_OUT,
    analyze_paper_data,
    chsh_simulation,
    data_path,
    simulate,
)
from afclink.memory import build_comb, device_efficiency, echo_response

def test_criterion_1_bell_sums_from_shipped_correlators():
    """Bell sums recomputed from the shipped correlator table, in under 1 s."""
    t0 = time.perf_counter()
    report = analyze_paper_data(
        data_path(DATA_TOMOGRAPHY_IN), chsh=data_path(DATA_CHSH), trials=0
    )
    elapsed = time.perf_counter() - t0
    s_in = report.chsh["in"].value
    s_out = report.chsh["out"].value
    print(
        f"criterion 1: S_in={s_in:.4f} S_out={s_out:.4f} ({elapsed:.2f} s)"
    )
    assert s_in == pytest.approx(2.5194, abs=0.005)
    assert s_out == pytest.approx(2.5911, abs=0.005)
    assert elapsed < 1.0


def test_criterion_2_state_metrics_from_shipped_tomography():
    """MLE metrics from the shipped tomography tables with 200 error trials."""
    t0 = time.perf_counter()
    report = analyze_paper_data(
        data_path(DATA_TOMOGRAPHY_IN),
        tomography_out=data_path(DATA_TOMOGRAPHY_OUT),
        chsh=data_path(DATA_CHSH),
        trials=200,
        seed=0,
    )
    elapsed = time.perf_counter() - t0
    fid_in = 100.0 * report.metrics["input", "fidelity_phi_plus"][0]
    purity_in = 100.0 * report.metrics["input", "purity"][0]
    eof_in = 100.0 * report.metrics["input", "entanglement_of_formation"][0]
    fid_out = 100.0 * report.metrics["output", "fidelity_phi_plus"][0]
    fid_io = 100.0 * report.metrics["link", "input_output_fidelity"][0]
    print(
        f"criterion 2: F_in={fid_in:.2f} P_in={purity_in:.2f} EoF_in={eof_in:.2f} "
        f"F_out={fid_out:.2f} F_io={fid_io:.2f} ({elapsed:.1f} s)"
    )
    assert fid_in == pytest.approx(91.68, abs=2.0)
    assert purity_in == pytest.approx(84.57, abs=3.0)
    assert eof_in == pytest.approx(81.10, abs=5.0)
    assert fid_out == pytest.approx(87.68, abs=5.0)
    assert fid_io == pytest.approx(93.77, abs=4.0)
    # Error bars come from the Monte-Carlo resampling and must be present.
    assert report.metrics["input", "fidelity_phi_plus"][1] > 0.0
    assert report.metrics["link", "input_output_fidelity"][1] > 0.0
    assert elapsed < 60.0


def test_criterion_3_heralded_g2_matches_poisson_oracle():
    """Single-bin pumping at mu=0.016 through a lossless chain: g2 = 1 + 1/mu."""
    t0 = time.perf_counter()
    cfg = config_from_dict(
        {
            "run": {"seed": 33, "cycles": 10_000_000},
            "source": {"mean_pairs_per_pulse": 0.016, "pump_mode": "EARLY_ONLY"},
            "detectors": IDEAL_DETECTORS,
        }
    )
    est = g2_cross(
        simulate(cfg).histogram(), 0, rep_period_ps=12_500, peak_halfwidth_ps=500
    )
    elapsed = time.perf_counter() - t0
    oracle = 1.0 + 1.0 / 0.016
    pull = (est.value - oracle) / est.sigma
    print(
        f"criterion 3: g2={est.value:.2f} sigma={est.sigma:.2f} "
        f"oracle={oracle:.1f} pull={pull:+.2f} ({elapsed:.1f} s)"
    )
    assert abs(est.value - oracle) <= 3.0 * est.sigma
    assert elapsed < 120.0


def test_criterion_4_stored_pairs_keep_bell_violation():
    """Stored-and-retrieved pairs violate the local bound; depolarized ones do not.

    Memory efficiencies are scaled two orders of magnitude above realistic
    values purely for counting statistics; each of the four analyzer settings
    runs 2.5e6 cycles, 1e7 in total.
    """
    base = {
        "run": {"seed": 44, "cycles": 2_500_000},
        "source": {"mean_pairs_per_pulse": 0.016},
        "memories": {
            "signal_794": {
                "coupling_efficiency": 0.2,
                "device_efficiency": 0.5,
                "mean_od": 2.3,
                "echo_delays": [[32.258, 1.0]],
            },
            "idler_1535": {
                "coupling_efficiency": 0.4,
                "device_efficiency": 1.0,
                "mean_od": 2.3,
                "echo_delays": [[6.024, 1.0]],
            },
        },
        "detectors": IDEAL_DETECTORS,
    }
    clean = chsh_simulation(config_from_dict(base)).estimate
    margin = (clean.value - 2.0) / clean.sigma
    noisy_cfg = dict(base)
    noisy_cfg["source"] = {"mean_pairs_per_pulse": 0.016, "depolarizing_noise": 0.4}
    noisy = chsh_simulation(config_from_dict(noisy_cfg)).estimate
    print(
        f"criterion 4: S={clean.value:.3f}+/-{clean.sigma:.3f} "
        f"margin={margin:.1f} sigma; depolarized S={noisy.value:.3f}"
    )
    assert clean.value > 2.0
    assert margin >= 3.0
    assert noisy.value < 2.0


def test_criterion_5_recall_efficiency_formula_and_echo_delays():
    """Recall efficiency against hand-evaluated points; echo delays of a
    depth-modulated comb at half, full and double the base storage time."""
    t0 = time.perf_counter()
    # (background_od, tooth_od, finesse) -> value computed by hand from
    # (d1/F)^2 * exp(-d1/F) * exp(-7/F^2) * exp(-d0).
    grid = [
        (0.0, 2.0, 2.0, 0.06392786120670757),
        (0.3, 2.0, 2.5, 0.0695098296479731),
        (1.0, 4.0, 3.0, 0.07920253554575944),
        (0.1, 1.0, 2.0, 0.023842290553887403),
        (0.5, 3.0, 5.0, 0.09056827910151234),
    ]
    for d0, d1, finesse, expected in grid:
        value = device_efficiency(d0, d1, finesse)
        assert value == pytest.approx(expected, abs=1e-12)
        independent = (
            (d1 / finesse) ** 2
            * math.exp(-d1 / finesse)
            * math.exp(-7.0 / finesse**2)
            * math.exp(-d0)
        )
        assert value == pytest.approx(independent, abs=1e-12)

    # Alternating tooth depths double the spectral period, so echoes appear
    # at 1/(2*Delta) and 2/Delta besides the base 1/Delta recall.
    comb = build_comb(31.0, 2.0, 0.3, 2.0, 4.0, 0.25, modulation_depth=0.5)
    echoes = echo_response(comb)
    bin_ns = 1000.0 / (comb.detuning_mhz.size * 0.25)
    delays = [delay for delay, _ in echoes]
    for target in (1000.0 / 62.0, 1000.0 / 31.0, 2000.0 / 31.0):
        nearest = min(delays, key=lambda d: abs(d - target))
        assert abs(nearest - target) <= bin_ns
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 5: 5 grid points exact; echoes at "
        f"{', '.join(f'{d:.2f}' for d in delays)} ns ({elapsed:.1f} s)"
    )
    assert elapsed < 5.0


def test_criterion_6_coincidence_peak_taxonomy():
    """Dual-memory run shows the identified coincidence peaks, the repetition
    grid of accidentals, and a non-classical g2 on the both-stored peak."""
    cfg = config_from_dict(
        {
            "run": {"seed": 66, "cycles": 20_000_000},
            "source": {"mean_pairs_per_pulse": 0.05},
            "memories": {
                "signal_794": {
                    "coupling_efficiency": 0.2,
                    "efficiency_scale": 10.0,
                    "comb": {
                        "delta_mhz": 31.0,
                        "finesse": 2.0,
                        "background_od": 0.3,
                        "tooth_od": 2.0,
                        "bandwidth_ghz": 4.0,
                        "grid_step_mhz": 0.25,
                        "modulation_depth": 0.5,
                    },
                },
                "idler_1535": {
                    "coupling_efficiency": 0.2,
                    "efficiency_scale": 10.0,
                    "comb": {
                        "delta_mhz": 166.0,
                        "finesse": 2.0,
                        "background_od": 0.3,
                        "tooth_od": 2.0,
                        "bandwidth_ghz": 4.0,
                        "grid_step_mhz": 1.0,
                    },
                },
            },
        }
    )
    sig = cfg.memory_config("SIGNAL_794")
    idl = cfg.memory_config("IDLER_1535")
    sig_ps = [sig.echo_delay_ps(k) for k in range(len(sig.echo_delays))]
    idl_ps = idl.echo_delay_ps(idl.primary_echo_index)
    # Configured comb geometry pins the recall delays the peaks derive from.
    assert sig_ps == [16249, 32248, 48497, 64496]
    assert idl_ps == 5999
    # Idler-stored only, then signal recalled at half / full / double the
    # base storage time against the recalled idler: -6, 10, 26, 58 ns.
    targets = (-idl_ps, sig_ps[0] - idl_ps, sig_ps[1] - idl_ps, sig_ps[3] - idl_ps)

    hist = simulate(cfg).histogram()
    peaks = find_histogram_peaks(hist, min_height_fraction=0.01, min_separation_ps=1000)
    found = [p.delay_ps for p in peaks]

    def has_peak(delay_ps):
        return any(abs(f - delay_ps) <= 500 for f in found)

    for target in targets:
        assert has_peak(target), f"no peak near {target} ps in {found}"
    # Accidentals repeat the strongest peak on the 12.5 ns pump grid.
    for k in (-2, -1, 1, 2):
        assert has_peak(targets[2] + k * 12_500), f"grid copy {k} missing"

    # g2_cross takes only the reference windows inside the histogram:
    # n = -5 .. -1 and 1 .. 3 periods around 26 ns in a +-70 ns window.
    est = g2_cross(hist, targets[2], rep_period_ps=12_500, peak_halfwidth_ps=500)
    margin = (est.value - 2.0) / est.sigma
    print(
        f"criterion 6: peaks at {sorted(found)} ps; "
        f"g2({targets[2]} ps)={est.value:.1f}+/-{est.sigma:.1f} margin={margin:.0f} sigma"
    )
    assert est.value > 2.0
    assert margin >= 3.0


def test_criterion_7_efficiency_ratio_decomposition():
    """System efficiency factors exactly into coupling times device parts."""
    eff = efficiencies(1000.0, 1.0, 1.0, 0.2)
    assert eff.system == pytest.approx(0.001, rel=1e-12)
    assert eff.coupling == pytest.approx(0.2, rel=1e-12)
    assert eff.device == pytest.approx(0.005, rel=1e-12)

    eff = efficiencies(1000.0, 4.0, 1.0, 0.2)
    assert eff.system == pytest.approx(0.004, rel=1e-12)
    assert eff.device == pytest.approx(0.02, rel=1e-12)
    print("criterion 7: 20% coupling decomposes 0.1%/0.4% system into 0.5%/2.0% device")
