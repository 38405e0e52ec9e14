"""The benchmark launcher runs against the package as it stands.

bench/launch.py and bench/tracing.py hook package functions by name
(harness._simulate_shard, tomography_mle, every span in
tracing.install_layers).  A rename in src/ that breaks one of those hooks
fails here, not only in a benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_simulate_records_setup_and_spans(tmp_path):
    config = json.loads((ROOT / "configs" / "source_only.json").read_text())
    config["run"]["cycles"] = 20_000
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    record_path = tmp_path / "rec.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")]
    ))
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "bench" / "launch.py"),
            str(record_path),
            "--trace",
            "cli",
            "simulate",
            "--config",
            str(config_path),
            "--out-dir",
            str(tmp_path / "out"),
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(record_path.read_text())
    assert record["returncode"] == 0
    assert record["setup_end"] is not None
    names = {span[0] for span in record["spans"]}
    assert {"config.load", "engine.tables", "engine.shard"} <= names
