"""The benchmark launcher runs against the package as it stands.

bench/launch.py and bench/tracing.py hook package functions by name
(harness._simulate_shard, tomography_mle, every span in
tracing.install_layers).  A rename in src/ that breaks one of those hooks
fails here, not only in a benchmark run.  The four workloads of
bench/run.py also run here once each, untraced, through their own output
checks: the three engine workloads, and paper-analysis, whose check reads
the report.json that `afclink report` writes.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def launch(record_path, *args, cwd, stdout=subprocess.PIPE):
    """Run bench/launch.py RECORD ARGS... and return the process and record."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "launch.py"), str(record_path), *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(Path(record_path).read_text())
    assert record["returncode"] == 0
    assert record["setup_end"] is not None
    return proc, record


def span_names(record):
    return {span[0] for span in record["spans"]}


def test_traced_simulate_records_setup_and_spans(tmp_path):
    # Memories on both arms, so the memory draw is reached.
    config = json.loads((ROOT / "configs" / "realistic.json").read_text())
    config["run"]["cycles"] = 20_000
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    _, record = launch(
        tmp_path / "rec.json",
        "--trace",
        "cli",
        "simulate",
        "--config",
        str(config_path),
        "--out-dir",
        str(tmp_path / "out"),
        cwd=tmp_path,
    )
    # The histogram, g2 and events.csv spans too: a pass that stopped calling
    # one of their functions would zero its layer metrics without an error.
    assert {
        "config.load",
        "engine.tables",
        "engine.shard",
        "engine.memory_draw",
        "engine.analyzer_draw",
        "detection.histogram",
        "estimation.g2",
        "io.events_csv",
    } <= span_names(record)


def test_traced_bell_records_central_match(tmp_path):
    config_path = tmp_path / "bell.json"
    config_path.write_text(
        json.dumps({"run": {"seed": 1, "cycles": 20_000}, "source": {"mean_pairs_per_pulse": 0.05}})
    )
    _, record = launch(
        tmp_path / "rec.json",
        "--trace",
        "bell",
        str(tmp_path / "out.json"),
        str(config_path),
        cwd=tmp_path,
    )
    assert record["ops_failed"] == 0
    assert {"bell.chsh", "engine.shard", "bell.central_match"} <= span_names(record)


@pytest.mark.parametrize("name", ["realistic-link", "g2-sweep", "bell-stored", "paper-analysis"])
def test_engine_workload_passes_its_check(tmp_path, monkeypatch, name):
    # bench/run.py imports its siblings (checks, common) by bare name.
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    workload = run.WORKLOADS[name]
    ctx = workload.prepare(tmp_path, 1)
    out = tmp_path / "p0"
    out.mkdir()
    with open(out / "stdout.txt", "w") as stdout:
        _, record = launch(
            out / "record.json", *workload.program(ctx, out), cwd=ROOT, stdout=stdout
        )
    problems, _ = workload.check(ctx, out, record)
    assert problems == []
    assert record.get("ops_failed", 0) == 0
