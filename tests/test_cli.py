"""Command-line behavior: exit codes, stdout payloads, files, error JSON."""

import csv
import ctypes
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import SYNTHETIC_COMB, noisy_flat_profile

from afclink.cli import main
from afclink.harness import provenance
from afclink.memory import comb_to_csv

REPO = Path(__file__).resolve().parents[1]
SOURCE_ONLY = REPO / "configs" / "source_only.json"


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
        assert list(payload) == [
            "delta_mhz", "finesse", "background_od", "tooth_od", "offset_mhz",
            "residual_rms", "storage_time_ns", "device_efficiency",
        ]
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
        header, *rows = SYNTHETIC_COMB.read_text().splitlines()
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
        comb = str(SYNTHETIC_COMB)
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

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("efficiency", "--tooth-od", "nan"),
            ("efficiency", "--background-od", "inf"),
            ("efficiency", "--finesse", "-inf"),
            ("build", "--tooth-od", "inf"),
            ("build", "--background-od", "nan"),
            ("build", "--bandwidth-ghz", "inf"),
            ("build", "--grid-step-mhz", "nan"),
            ("build", "--modulation-depth", "nan"),
        ],
    )
    def test_non_finite_parameter_exits_1(self, tmp_path, capsys, command, flag, value):
        args = {"--tooth-od": "2", "--finesse": "2", "--background-od": "0.3"}
        if command == "build":
            out = tmp_path / "comb.csv"
            args.update({"--delta-mhz": "31", "--bandwidth-ghz": "2",
                         "--grid-step-mhz": "0.5", "--out": str(out)})
        args[flag] = value
        argv = ["comb", command, *(f"{key}={val}" for key, val in args.items())]
        code, stdout, err = run_cli(capsys, argv)
        assert code == 1
        assert stdout == "" and err.count("\n") == 1
        name = flag[2:].replace("-", "_")
        assert json.loads(err) == {
            "error": f"{name} must be finite, got {float(value)!r}", "type": "ValueError"
        }
        assert list(tmp_path.iterdir()) == []


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

    def test_cycles_sets_the_run_of_every_point(self, tmp_path, capsys):
        # --cycles N prints what the same config with run.cycles = N prints,
        # and not what the config's own cycles give.
        outs = []
        runs = (("a", 20_000, ["--cycles", "30000"]), ("b", 30_000, []), ("c", 20_000, []))
        for name, cycles, flag in runs:
            (tmp_path / name).mkdir()
            cfg = write_config(tmp_path / name, seed=7, cycles=cycles)
            argv = ["sweep", "--config", str(cfg), "--parameter", "mu", "--values", "0.02,0.05"]
            code, out, err = run_cli(capsys, [*argv, *flag])
            assert code == 0, err
            outs.append(out)
        assert outs[0] == outs[1] != outs[2]

    def test_zero_cycles_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        obj = stderr_error(
            capsys,
            ["sweep", "--config", str(cfg), "--parameter", "mu", "--values", "0.05", "--cycles", "0"],
        )
        assert obj == {"error": "cycles must be a positive integer", "type": "ValueError"}

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


def test_seeded_json_outputs_name_their_seed_and_versions(tmp_path, capsys):
    # What a seeded output depends on: its seed, its run length and the
    # versions of afclink, numpy and Python it was made with.
    versions = provenance()
    assert set(versions) == {"afclink", "numpy", "python"}
    cfg = str(write_config(tmp_path, seed=5, cycles=20_000))
    summary = stdout_json(capsys, ["simulate", "--config", cfg, "--out-dir", str(tmp_path / "run")])
    assert (summary["seed"], summary["cycles"], summary["provenance"]) == (5, 20_000, versions)
    swept = stdout_json(
        capsys,
        ["sweep", "--config", cfg, "--parameter", "mu", "--values", "0.05", "--seed", "11"],
    )
    assert (swept["seed"], swept["cycles"], swept["provenance"]) == (11, 20_000, versions)
    analysis = stdout_json(capsys, ["analyze", "--trials", "0", "--seed", "3"])
    assert (analysis["trials"], analysis["seed"], analysis["provenance"]) == (0, 3, versions)
    out = tmp_path / "report"
    report = stdout_json(capsys, ["report", "--trials", "0", "--seed", "4", "--out-dir", str(out)])
    assert json.loads((out / "report.json").read_text()) == report
    state = report["state_analysis"]
    assert (state["trials"], state["seed"], state["provenance"]) == (0, 4, versions)


class TestNegativeSeed:
    """A negative seed fails before any output is made, naming where it
    came from: the --seed flag or the config's run.seed."""

    @pytest.mark.parametrize("command", ["simulate", "sweep", "analyze", "report"])
    def test_flag_is_usage_error(self, tmp_path, capsys, command):
        cfg = str(write_config(tmp_path))
        out = tmp_path / "out"
        argv = {
            "simulate": ["simulate", "--config", cfg, "--out-dir", str(out)],
            "sweep": ["sweep", "--config", cfg, "--parameter", "mu", "--values", "0.05",
                      "--out", str(out)],
            "analyze": ["analyze", "--trials", "0", "--out-dir", str(out)],
            "report": ["report", "--trials", "0", "--out-dir", str(out)],
        }[command]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--seed", "-1"])
        assert excinfo.value.code == 2
        obj = json.loads(capsys.readouterr().err)
        assert obj == {
            "error": "argument --seed: expected a non-negative integer, got '-1'",
            "type": "UsageError",
        }
        assert not out.exists()

    def test_config_seed_names_key(self, tmp_path, capsys):
        out = tmp_path / "out"
        obj = stderr_error(
            capsys,
            ["simulate", "--config", str(write_config(tmp_path, seed=-1)),
             "--out-dir", str(out)],
        )
        assert obj == {"error": "run: seed must be a non-negative integer", "type": "ConfigError"}
        assert not out.exists()


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


def _src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return env


@pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda pid: {0})(0)) < 2,
    reason="a one-CPU mask: simulate runs one block",
)
def test_simulate_on_every_cpu_writes_the_one_cpu_files(tmp_path):
    # Fresh interpreters, so the blocks run under main()'s mallopt and a
    # real fork; the first is cut to one CPU before it starts.
    cfg = json.loads((REPO / "configs" / "realistic.json").read_text(encoding="utf-8"))
    cfg["run"]["cycles"] = 3_000_000
    config = tmp_path / "realistic.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    one_cpu = min(os.sched_getaffinity(0))
    files = []
    for name, preexec in (("one", lambda: os.sched_setaffinity(0, {one_cpu})), ("every", None)):
        proc = subprocess.run(
            [sys.executable, "-m", "afclink.cli", "simulate", "--config", str(config),
             "--out-dir", str(tmp_path / name)],
            capture_output=True,
            env=_src_env(),
            preexec_fn=preexec,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        files.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
    assert sorted(files[0]) == ["config.json", "events.csv", "histogram.csv", "summary.json"]
    assert files[1] == files[0]


class TestFreedHeap:
    """main() keeps freed heap mapped, so later shards reuse the pages of
    earlier ones; without mallopt it runs exactly as before."""

    @staticmethod
    def minor_faults(argv) -> int:
        """ru_minflt of `afclink argv` in a fresh interpreter."""
        script = "import sys, afclink.cli; sys.exit(afclink.cli.main(sys.argv[1:]))"
        proc = subprocess.Popen(
            [sys.executable, "-c", script, *argv],
            stdout=subprocess.DEVNULL,
            env=_src_env(),
        )
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        assert proc.returncode == 0
        return usage.ru_minflt

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_faults_do_not_grow_with_the_shard_count(self):
        # Two and four 1e6-cycle shards.  With the heap top trimmed after
        # each shard, the second run faults ~5000 more pages than the first.
        faults = [
            self.minor_faults(
                ["sweep", "--config", str(SOURCE_ONLY), "--parameter", "mu",
                 "--values", "0.128", "--cycles", str(cycles)]
            )
            for cycles in (2_000_000, 4_000_000)
        ]
        assert abs(faults[1] - faults[0]) < 1000, faults

    @pytest.mark.parametrize("kind", ["cdll-raises", "no-mallopt"])
    def test_output_unchanged_without_mallopt(self, monkeypatch, capsys, kind):
        argv = ["sweep", "--config", str(SOURCE_ONLY), "--parameter", "mu",
                "--values", "0.05,0.1", "--cycles", "20000"]
        runs = [run_cli(capsys, argv) for _ in range(2)]
        assert runs[0] == runs[1]
        calls = []

        def cdll(name, *args, **kwargs):
            calls.append(name)
            if kind == "cdll-raises":
                raise OSError("no C library")
            return object()

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert run_cli(capsys, argv) == runs[0]
        assert calls == [None]


_ENCODING_SCRIPT = r"""
import sys
from afclink.cli import main

work, config = sys.argv[1], sys.argv[2]
codes = [
    main(["simulate", "--config", config, "--out-dir", work + "/sim"]),
    main(["sweep", "--config", config, "--parameter", "mu", "--values", "0.05,0.1",
          "--cycles", "20000", "--out", work + "/sweep.csv"]),
    main(["report", "--out-dir", work + "/report", "--trials", "0"]),
    main(["analyze", "--out-dir", work + "/analyze", "--trials", "0"]),
    main(["comb", "build", "--delta-mhz", "31", "--finesse", "2", "--tooth-od", "2",
          "--bandwidth-ghz", "1", "--grid-step-mhz", "2", "--out", work + "/comb.csv"]),
    main(["comb", "echoes", "--input", work + "/comb.csv", "--out", work + "/echoes.csv"]),
]
sys.exit(max(codes))
"""


def test_outputs_name_their_encoding(tmp_path):
    # Every file read or written names its encoding, so no platform default
    # (cp1252, say) can change a byte.
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-c", _ENCODING_SCRIPT, str(tmp_path), str(SOURCE_ONLY)],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert (tmp_path / "sweep.csv").exists() and (tmp_path / "echoes.csv").exists()
