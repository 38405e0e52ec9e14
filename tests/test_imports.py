"""scipy stays off every product path except the comb fit.

The CLI, a simulation, a CHSH simulation, a sweep and a report run in a fresh
interpreter, which then lists the scipy modules it has loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_SCRIPT = r"""
import json
import sys
from pathlib import Path

import afclink.cli
from afclink import cli, config, harness

work, configs = Path(sys.argv[1]), Path(sys.argv[2])


def shrunk(name):
    cfg = json.loads((configs / name).read_text())
    cfg["run"]["cycles"] = 20_000
    cfg["source"] = {"mean_pairs_per_pulse": 0.05}
    path = work / name
    path.write_text(json.dumps(cfg))
    return path


small = shrunk("demo.json")
# Lossless detectors and both time bins pumped, so every setting pair counts.
bell = shrunk("source_only.json")

codes = [
    cli.main(["simulate", "--config", str(small), "--out-dir", str(work / "sim")]),
    cli.main(
        ["sweep", "--config", str(small), "--parameter", "mu",
         "--values", "0.05,0.1", "--cycles", "20000"]
    ),
    cli.main(["report", "--out-dir", str(work / "report"), "--trials", "100"]),
]
harness.chsh_simulation(config.load_config(bell))
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

from afclink import estimation

minimize = estimation.optimize.minimize
print(json.dumps({"codes": codes, "scipy": loaded, "minimize": minimize.__name__}))
"""


def test_product_paths_never_import_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(tmp_path), str(REPO / "configs")],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    assert result["scipy"] == []
    # bench/tracing.py wraps estimation.optimize.minimize.
    assert result["minimize"] == "minimize"
