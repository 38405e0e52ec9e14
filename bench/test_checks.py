"""Self-test of the benchmark's output checks: each accepts a result that
obeys the physics and rejects one corrupted result.

    python3 -m pytest bench/test_checks.py
"""

import copy
import json
import math

import numpy as np
import pytest

import checks
import common

# --- realistic-link ----------------------------------------------------------

REALISTIC = json.loads((common.CONFIGS / "realistic.json").read_text())


def _realistic_result():
    """Summary and histogram that follow the hand calculation exactly."""
    cfg = copy.deepcopy(REALISTIC)
    cycles, mu = cfg["run"]["cycles"], cfg["source"]["mean_pairs_per_pulse"]
    pairs = round(mu * cycles)
    dark = round(100.0 * cycles * 12_500e-12)
    detections = {
        ch: {"total": round(pairs * checks.click_probability(cfg, ch)) + dark, "dark": dark}
        for ch in ("signal_794", "idler_1535")
    }
    starts = np.arange(-70_000, 70_000, 80)
    centers = starts + 40
    counts = np.zeros(starts.size, dtype=int)
    for delay, height in ((0, 200), (-6024, 48), (32258, 10)):
        counts += np.rint(height * np.exp(-0.5 * ((centers - delay) / 150.0) ** 2)).astype(int)
    summary = {
        "pairs_emitted": pairs,
        "detections": detections,
        "peaks": [{"delay_ps": 40}, {"delay_ps": -6040}, {"delay_ps": -12440}],
        "g2_zero_delay": {"value": 1.0 + 2.0 / mu, "sigma": 2.6},
    }
    events_rows = sum(d["total"] for d in detections.values())
    return cfg, summary, (starts, counts), events_rows


def test_realistic_accepts_hand_calculation():
    assert checks.realistic_link(*_realistic_result()) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda s, h: s.update(pairs_emitted=int(s["pairs_emitted"] * 1.01)),
        lambda s, h: s["detections"]["signal_794"].update(dark=500),
        lambda s, h: s["g2_zero_delay"].update(value=s["g2_zero_delay"]["value"] + 26.0),
        lambda s, h: s["peaks"].append({"delay_ps": 3_500}),
        lambda s, h: h[1].__setitem__(np.abs(h[0] - 32258) < 1000, 0),
    ],
    ids=["pairs", "darks", "g2-10-sigma", "stray-peak", "missing-32ns-peak"],
)
def test_realistic_rejects(corrupt):
    cfg, summary, histogram, rows = _realistic_result()
    corrupt(summary, histogram)
    assert checks.realistic_link(cfg, summary, histogram, rows)


# --- g2-sweep -----------------------------------------------------------------

MUS = (0.008, 0.128)
CYCLES = 10_000_000


def _sweep_rows(offsets=(0.0, 0.0)):
    """Rows at 1 + 1/mu, moved by the given multiples of the check's sigma."""
    return [
        [mu, 1.0 + 1.0 / mu + k * checks.lossless_g2_sigma(mu, CYCLES), 0.5]
        for mu, k in zip(MUS, offsets)
    ]


def test_lossless_g2_sigma_matches_poisson_pulses():
    """The delta-method sigma against the spread of g2 over independently
    drawn Poisson pulse trains, counted as g2_cross counts them."""
    mu, cycles, rng = 0.064, 50_000, np.random.default_rng(7)
    values = []
    for _ in range(300):
        n = rng.poisson(mu, cycles).astype(float)
        peak = (n * n).sum()
        ref = sum((n * np.roll(n, m)).sum() for m in (*range(-5, 0), *range(1, 6)))
        values.append(10.0 * peak / ref)
    assert np.std(values) == pytest.approx(checks.lossless_g2_sigma(mu, cycles), rel=0.15)


def test_sweep_accepts_oracle():
    assert checks.g2_sweep(MUS, CYCLES, _sweep_rows((4.5, -4.5))) == []


def test_sweep_rejects_g2_off_by_10_sigma():
    assert checks.g2_sweep(MUS, CYCLES, _sweep_rows((0.0, 10.0)))


# --- bell-stored --------------------------------------------------------------

CLEAN = {"value": 2.75, "sigma": 0.036}
NOISY = {"value": 1.65, "sigma": 0.046}


def test_bell_accepts_werner_scaling():
    assert checks.bell_stored(CLEAN, NOISY, 0.4) == []


def test_bell_rejects_s_above_tsirelson():
    clean = {"value": 2.0 * math.sqrt(2.0) + 10 * 0.036, "sigma": 0.036}
    noisy = {"value": 0.6 * clean["value"], "sigma": 0.046}
    assert checks.bell_stored(clean, noisy, 0.4)


def test_bell_rejects_depolarised_violation():
    assert checks.bell_stored(CLEAN, {"value": 2.05, "sigma": 0.046}, 0.4)


# --- paper-analysis -----------------------------------------------------------

TABLES = checks.shipped_tables(common.DATA)


def _analysis_result():
    """A report built on the projected linear-inversion states."""
    states = {s: checks.projected_linear_inversion(TABLES[s]) for s in ("input", "output")}
    chsh = {}
    for stage in ("in", "out"):
        value, sigma = checks.bell_sum([r[1:] for r in TABLES["chsh"] if r[0] == stage])
        chsh[stage] = {"value": value, "sigma": sigma}
    best = max(TABLES["wavelength"], key=lambda r: float(r[4]))
    payload = {
        "state_analysis": {
            "states": {
                s: {
                    "metrics": {
                        k: {"value": v, "sigma": 0.01}
                        for k, v in checks.state_metrics(states[s]).items()
                    }
                }
                for s in states
            },
            "input_output_fidelity": {
                "value": checks.uhlmann_fidelity(states["input"], states["output"]),
                "sigma": 0.02,
            },
            "chsh": chsh,
        },
        "wavelength_link": {
            "best": {"signal_nm": float(best[0]), "link_efficiency": float(best[4])}
        },
    }
    return payload, states


def test_analysis_accepts_consistent_report():
    payload, states = _analysis_result()
    assert checks.paper_analysis(payload, states, TABLES) == []


def test_analysis_rejects_non_psd_state():
    payload, states = _analysis_result()
    states["input"] = np.diag([0.6, 0.3, 0.2, -0.1]).astype(complex)
    assert any("eigenvalue" in p for p in checks.paper_analysis(payload, states, TABLES))


def test_analysis_rejects_metric_mismatch():
    payload, states = _analysis_result()
    payload["state_analysis"]["states"]["output"]["metrics"]["concurrence"]["value"] += 1e-4
    assert checks.paper_analysis(payload, states, TABLES)


def test_analysis_rejects_worse_fit_than_linear_inversion():
    payload, states = _analysis_result()
    mixed = 0.9 * states["input"] + 0.1 * np.eye(4) / 4.0
    states["input"] = mixed
    for k, v in checks.state_metrics(mixed).items():
        payload["state_analysis"]["states"]["input"]["metrics"][k]["value"] = v
    assert any("residual" in p for p in checks.paper_analysis(payload, states, TABLES))


def test_analysis_rejects_wrong_bell_sum():
    payload, states = _analysis_result()
    payload["state_analysis"]["chsh"]["out"]["value"] += 0.01
    assert checks.paper_analysis(payload, states, TABLES)
