"""Command-line behavior: exit codes, stdout payloads, files, error JSON."""

import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import noisy_flat_profile

from afclink.cli import main
from afclink.harness import DATA_SYNTHETIC_COMB, data_path
from afclink.memory import comb_to_csv


def write_config(tmp_path, seed=5, cycles=20_000, mu=0.05):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "run": {"seed": seed, "cycles": cycles},
                "source": {"mean_pairs_per_pulse": mu},
            }
        )
    )
    return path


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdout_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def stderr_error(capsys, argv, expected_code=1):
    code, out, err = run_cli(capsys, argv)
    assert code == expected_code
    obj = json.loads(err)
    assert set(obj) == {"error", "type"}
    return obj


class TestSimulate:
    def test_writes_files_and_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "out"
        payload = stdout_json(
            capsys, ["simulate", "--config", str(cfg), "--out-dir", str(out_dir)]
        )
        assert payload["pairs_emitted"] > 0
        assert payload["cycles"] == 20_000
        for name in ("events.csv", "histogram.csv", "summary.json"):
            assert (out_dir / name).exists()
        assert json.loads((out_dir / "summary.json").read_text())["seed"] == 5

    def test_deterministic_bytes(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        dirs = (tmp_path / "a", tmp_path / "b")
        for d in dirs:
            assert main(["simulate", "--config", str(cfg), "--out-dir", str(d)]) == 0
        capsys.readouterr()
        for name in ("events.csv", "histogram.csv", "summary.json"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_seed_override_changes_events(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(a)]) == 0
        assert (
            main(
                ["simulate", "--config", str(cfg), "--out-dir", str(b), "--seed", "9"]
            )
            == 0
        )
        capsys.readouterr()
        assert (a / "events.csv").read_bytes() != (b / "events.csv").read_bytes()
        assert json.loads((b / "summary.json").read_text())["seed"] == 9

    def test_rerun_from_written_config_reproduces_files(self, tmp_path, capsys):
        # The written config.json is the resolved config (seed override
        # included), so simulating it again gives the same files byte for byte.
        first, second = tmp_path / "first", tmp_path / "second"
        demo = Path(__file__).resolve().parents[1] / "configs" / "demo.json"
        argv = ["simulate", "--config", str(demo), "--seed", "7", "--out-dir", str(first)]
        assert main(argv) == 0
        rerun = ["simulate", "--config", str(first / "config.json"), "--out-dir", str(second)]
        assert main(rerun) == 0
        capsys.readouterr()
        assert json.loads((first / "config.json").read_text())["run"]["seed"] == 7
        for name in ("events.csv", "histogram.csv", "config.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_csv_format_key_value_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code, out, _ = run_cli(
            capsys,
            [
                "simulate",
                "--config",
                str(cfg),
                "--out-dir",
                str(tmp_path / "o"),
                "--format",
                "csv",
            ],
        )
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["key", "value"]
        as_dict = {k: v for k, v in rows[1:]}
        assert as_dict["cycles"] == "20000"

    def test_bad_config_json_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "config.json"
        bad.write_text("{not json")
        obj = stderr_error(
            capsys,
            ["simulate", "--config", str(bad), "--out-dir", str(tmp_path / "o")],
        )
        assert obj["type"] == "ConfigError"

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--out-dir", str(tmp_path / "o")])
        assert excinfo.value.code == 2
        obj = json.loads(capsys.readouterr().err)
        assert obj["type"] == "UsageError"


class TestAnalyze:
    def test_shipped_defaults_point_estimates(self, capsys):
        payload = stdout_json(capsys, ["analyze", "--trials", "0"])
        assert payload["chsh"]["in"]["value"] == pytest.approx(2.5194, abs=1e-9)
        assert payload["chsh"]["out"]["value"] == pytest.approx(2.5911, abs=1e-9)
        metrics = payload["states"]["input"]["metrics"]
        assert metrics["fidelity_phi_plus"]["value"] == pytest.approx(0.9168, abs=5e-3)
        assert metrics["fidelity_phi_plus"]["sigma"] == 0.0
        assert payload["input_output_fidelity"]["value"] == pytest.approx(
            0.9377, abs=6e-3
        )

    def test_out_dir_files(self, tmp_path, capsys):
        out_dir = tmp_path / "analysis"
        stdout_json(
            capsys, ["analyze", "--trials", "0", "--out-dir", str(out_dir)]
        )
        assert (out_dir / "report.json").exists()
        with open(out_dir / "state_metrics.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["stage", "metric", "value", "sigma"]
        stages = {row[0] for row in rows[1:]}
        assert {"input", "output", "link"} <= stages

    def test_input_only_csv_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["analyze", "--trials", "0", "--no-output", "--no-chsh", "--format", "csv"],
        )
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["stage", "metric", "value", "sigma"]
        assert all(row[0] == "input" for row in rows[1:])

    def test_malformed_tomography_line_number(self, tmp_path, capsys):
        bad = tmp_path / "tomo.csv"
        bad.write_text("setting_a,setting_b,probability,sigma\nZ,Z,0.5\n")
        obj = stderr_error(
            capsys, ["analyze", "--trials", "0", "--tomography-in", str(bad)]
        )
        assert obj["type"] == "ValueError"
        assert "line 2" in obj["error"]

    def test_empty_tomography_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "tomo.csv"
        bad.write_text("setting_a,setting_b,probability,sigma\n")
        obj = stderr_error(
            capsys, ["analyze", "--trials", "0", "--tomography-in", str(bad)]
        )
        assert "empty" in obj["error"]

    def test_low_trial_count_rejected(self, capsys):
        obj = stderr_error(capsys, ["analyze", "--trials", "50"])
        assert "trials" in obj["error"]


class TestComb:
    def test_efficiency_reference_point(self, capsys):
        payload = stdout_json(
            capsys,
            ["comb", "efficiency", "--tooth-od", "2", "--finesse", "2"],
        )
        assert payload["device_efficiency"] == pytest.approx(
            0.06392786120670757, abs=1e-12
        )

    def test_build_then_fit_recovers_parameters(self, tmp_path, capsys):
        comb_path = tmp_path / "comb.csv"
        stdout_json(
            capsys,
            [
                "comb", "build",
                "--delta-mhz", "31",
                "--finesse", "2",
                "--background-od", "0.3",
                "--tooth-od", "2",
                "--bandwidth-ghz", "2",
                "--grid-step-mhz", "0.5",
                "--out", str(comb_path),
            ],
        )
        assert comb_path.exists()
        payload = stdout_json(capsys, ["comb", "fit", "--input", str(comb_path)])
        assert payload["delta_mhz"] == pytest.approx(31.0, abs=0.1)
        assert payload["finesse"] == pytest.approx(2.0, abs=0.1)
        assert payload["storage_time_ns"] == pytest.approx(1000.0 / 31.0, rel=0.01)

    def test_modulated_comb_echo_delays(self, tmp_path, capsys):
        comb_path = tmp_path / "comb.csv"
        echo_path = tmp_path / "echoes.csv"
        stdout_json(
            capsys,
            [
                "comb", "build",
                "--delta-mhz", "31",
                "--finesse", "2",
                "--background-od", "0.3",
                "--tooth-od", "2",
                "--bandwidth-ghz", "4",
                "--grid-step-mhz", "0.25",
                "--modulation-depth", "0.5",
                "--out", str(comb_path),
            ],
        )
        payload = stdout_json(
            capsys,
            ["comb", "echoes", "--input", str(comb_path), "--out", str(echo_path)],
        )
        delays = [e["delay_ns"] for e in payload["echoes"]]
        for expected in (1000.0 / 62.0, 1000.0 / 31.0, 2000.0 / 31.0):
            assert any(abs(d - expected) <= 0.5 for d in delays)
        with open(echo_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["delay_ns", "relative_amplitude"]
        assert len(rows) == 1 + len(delays)

    def test_fit_malformed_file_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "comb.csv"
        bad.write_text("detuning_MHz,optical_depth\n0.0,not_a_number\n")
        obj = stderr_error(capsys, ["comb", "fit", "--input", str(bad)])
        assert obj["type"] in ("ValueError", "FitError")

    @pytest.mark.parametrize("command", ["fit", "echoes"])
    @pytest.mark.parametrize("grid, line", [("reversed", 3), ("uneven", 12)])
    def test_bad_detuning_grid_names_file_and_line(self, tmp_path, capsys, command, grid, line):
        header, *rows = data_path(DATA_SYNTHETIC_COMB).read_text().splitlines()
        if grid == "reversed":
            rows.reverse()
        else:
            # Row 10 (line 12) moves by a third of a step: the step into it
            # is the first bad one.
            detuning, od = rows[10].split(",")
            rows[10] = f"{float(detuning) + 0.5 / 3},{od}"
        path = tmp_path / "comb.csv"
        path.write_text("\n".join([header, *rows]) + "\n")
        obj = stderr_error(capsys, ["comb", command, "--input", str(path)])
        assert obj["type"] == "ValueError"
        assert obj["error"] == (
            f"{path}: line {line}: detuning grid is not strictly increasing and uniform"
        )

    def test_flat_profile_has_no_echoes(self, tmp_path, capsys):
        # The echo spectrum is read off the profile itself: a structureless
        # profile lists no echoes, while the fit still finds no comb in it.
        path = tmp_path / "flat.csv"
        rows = "".join(f"{-2000 + 2 * k},0.7\n" for k in range(2001))
        path.write_text("detuning_MHz,optical_depth\n" + rows)
        code, out, _ = run_cli(capsys, ["comb", "echoes", "--input", str(path)])
        assert code == 0
        assert json.loads(out) == {"echoes": []}
        obj = stderr_error(capsys, ["comb", "fit", "--input", str(path)])
        assert obj == {"error": "profile is flat; no comb structure to fit", "type": "FitError"}

    def test_noisy_flat_profile_has_no_echoes(self, tmp_path, capsys):
        path = tmp_path / "noisy.csv"
        comb_to_csv(noisy_flat_profile(0), path)
        code, out, _ = run_cli(capsys, ["comb", "echoes", "--input", str(path)])
        assert code == 0
        assert json.loads(out) == {"echoes": []}

    @pytest.mark.parametrize("threshold", ["nan", "-0.1"])
    def test_echoes_threshold_outside_unit_interval_exits_1(self, capsys, threshold):
        comb = str(data_path(DATA_SYNTHETIC_COMB))
        obj = stderr_error(
            capsys, ["comb", "echoes", "--input", comb, "--rel-threshold", threshold]
        )
        assert obj["error"] == f"rel_threshold must lie in [0, 1], got {float(threshold)!r}"

    def test_too_coarse_grid_exits_1(self, tmp_path, capsys):
        obj = stderr_error(
            capsys,
            [
                "comb", "build",
                "--delta-mhz", "31",
                "--finesse", "2",
                "--tooth-od", "2",
                "--bandwidth-ghz", "2",
                "--grid-step-mhz", "20",
                "--out", str(tmp_path / "c.csv"),
            ],
        )
        assert "grid_step_mhz" in obj["error"]


class TestSweep:
    def test_writes_csv_and_payload(self, tmp_path, capsys):
        cfg = write_config(tmp_path, seed=7, cycles=20_000)
        out = tmp_path / "sweep.csv"
        payload = stdout_json(
            capsys,
            [
                "sweep",
                "--config", str(cfg),
                "--parameter", "mu",
                "--values", "0.02,0.05",
                "--out", str(out),
            ],
        )
        assert payload["parameter"] == "mu"
        assert payload["columns"] == ["mu", "g2_zero", "g2_sigma"]
        assert len(payload["rows"]) == 2
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["mu", "g2_zero", "g2_sigma"]
        assert len(rows) == 3

    def test_invalid_parameter_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "sweep",
                    "--config", str(cfg),
                    "--parameter", "detuning",
                    "--values", "1",
                ]
            )
        assert excinfo.value.code == 2
        assert json.loads(capsys.readouterr().err)["type"] == "UsageError"

    def test_undefined_point_is_named(self, tmp_path, capsys):
        path = tmp_path / "blind.json"
        blind = {"efficiency": 0.0, "dark_rate_hz": 0.0}
        path.write_text(
            json.dumps(
                {
                    "run": {"seed": 5, "cycles": 5_000},
                    "detectors": {"signal_794": blind, "idler_1535": blind},
                }
            )
        )
        obj = stderr_error(
            capsys,
            ["sweep", "--config", str(path), "--parameter", "mu", "--values", "0.05,0.1"],
        )
        assert obj == {
            "error": "mu=0.05: all reference peaks are empty",
            "type": "UndefinedEstimateError",
        }

    @pytest.mark.parametrize(
        "parameter, values, message",
        [
            ("mu", "nan", "mu=nan: mean pair number must be finite and non-negative"),
            ("analyzer_phase", "0,inf", "analyzer_phase=inf: analyzer phase must be finite"),
        ],
    )
    def test_non_finite_value_is_named(self, tmp_path, capsys, parameter, values, message):
        cfg = write_config(tmp_path, cycles=1_000)
        obj = stderr_error(
            capsys,
            ["sweep", "--config", str(cfg), "--parameter", parameter, "--values", values],
        )
        assert obj == {"error": message, "type": "ValueError"}

    def test_bad_values_string_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        obj = stderr_error(
            capsys,
            [
                "sweep",
                "--config", str(cfg),
                "--parameter", "mu",
                "--values", "0.1,oops",
            ],
        )
        assert "--values" in obj["error"]


class TestReport:
    def test_bundle_files_and_payload(self, tmp_path, capsys):
        out_dir = tmp_path / "report"
        payload = stdout_json(
            capsys, ["report", "--trials", "0", "--out-dir", str(out_dir)]
        )
        assert (out_dir / "report.json").exists()
        assert (out_dir / "state_metrics.csv").exists()
        best = payload["wavelength_link"]["best"]
        assert best["signal_nm"] == pytest.approx(794.68, abs=1e-6)
        assert best["link_efficiency"] == pytest.approx(1e-4, abs=1e-9)
        assert payload["state_analysis"]["chsh"]["in"]["value"] == pytest.approx(
            2.5194, abs=1e-9
        )

    @pytest.mark.parametrize("command", ["report", "analyze"])
    def test_csv_stdout_equals_metrics_file(self, tmp_path, capsys, command):
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            capsys,
            [command, "--trials", "0", "--out-dir", str(out_dir), "--format", "csv"],
        )
        assert code == 0, err
        with open(out_dir / "state_metrics.csv", newline="") as fh:
            file_rows = list(csv.reader(fh))
        assert list(csv.reader(out.splitlines())) == file_rows
        assert ["link", "input_output_fidelity"] == file_rows[-3][:2]
        assert [row[:2] for row in file_rows[-2:]] == [
            ["input", "chsh_s"],
            ["output", "chsh_s"],
        ]


def test_module_runs_as_script():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "afclink.cli",
            "comb",
            "efficiency",
            "--tooth-od", "2",
            "--finesse", "2",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["device_efficiency"] == pytest.approx(0.06392786120670757)
