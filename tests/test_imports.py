"""Two premises of the product paths, each checked in a fresh interpreter.

No product path can load scipy: a finder in front of sys.meta_path refuses
every scipy module.  There the CLI's simulate, sweep, report, comb echoes and
comb fit, and a CHSH simulation, must all succeed.  Only then is the block
lifted, to check that the `estimation.optimize` hook bench/tracing.py wraps
still resolves.

No product path calls harness.simulate, which joins a whole run's shards
for the tests: with it replaced by a stub that raises before the CLI is
imported, the CLI's simulate, both sweeps and report, and a CHSH
simulation, must all succeed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import SYNTHETIC_COMB

REPO = Path(__file__).resolve().parents[1]

# Small copies of two shipped configs in the work directory (argv 1), read
# from the configs directory (argv 2).  Imports nothing from afclink.
_SMALL_CONFIGS = r"""
import json
import sys
from pathlib import Path

work, configs = Path(sys.argv[1]), Path(sys.argv[2])


def shrunk(name):
    cfg = json.loads((configs / name).read_text())
    cfg["run"]["cycles"] = 20_000
    cfg["source"] = {"mean_pairs_per_pulse": 0.05}
    path = work / name
    path.write_text(json.dumps(cfg))
    return path


small = shrunk("demo.json")
# Lossless detectors and both time bins pumped, so every setting pair counts,
# and 200-1200 accidental coincidences keep each sweep point's g2 defined.
bell = shrunk("source_only.json")
"""

_SCRIPT = _SMALL_CONFIGS + r"""

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


blocker = BlockScipy()
sys.meta_path.insert(0, blocker)

from afclink import cli, config, harness

comb = sys.argv[3]
codes = [
    cli.main(["simulate", "--config", str(small), "--out-dir", str(work / "sim")]),
    cli.main(
        ["sweep", "--config", str(bell), "--parameter", "mu",
         "--values", "0.05,0.1", "--cycles", "20000"]
    ),
    cli.main(["report", "--out-dir", str(work / "report"), "--trials", "100"]),
    cli.main(["comb", "echoes", "--input", comb]),
    cli.main(["comb", "fit", "--input", comb]),
]
harness.chsh_simulation(config.load_config(bell))
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
try:
    import scipy  # noqa: F401

    blocked = False
except ImportError:
    blocked = True

sys.meta_path.remove(blocker)
from afclink import estimation

minimize = estimation.optimize.minimize
print(json.dumps(
    {"codes": codes, "scipy": loaded, "blocked": blocked, "minimize": minimize.__name__}
))
"""


_NO_SIMULATE = _SMALL_CONFIGS + r"""
from afclink import harness


def joined(cfg):
    raise AssertionError("simulate() joins a whole run's click arrays")


harness.simulate = joined
from afclink import cli, config

codes = [
    cli.main(["simulate", "--config", str(small), "--out-dir", str(work / "sim")]),
    cli.main(
        ["sweep", "--config", str(bell), "--parameter", "mu",
         "--values", "0.05,0.1", "--cycles", "20000"]
    ),
    cli.main(
        ["sweep", "--config", str(bell), "--parameter", "analyzer_phase",
         "--values", "0,1", "--cycles", "20000"]
    ),
    cli.main(["report", "--out-dir", str(work / "report"), "--trials", "100"]),
]
harness.chsh_simulation(config.load_config(bell))
print(json.dumps({"codes": codes, "stubbed": harness.simulate is joined}))
"""


def run_fresh(script, *args):
    """Run script in a fresh interpreter on src/; its last stdout line, as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_product_paths_never_import_scipy(tmp_path):
    result = run_fresh(_SCRIPT, tmp_path, REPO / "configs", SYNTHETIC_COMB)
    assert result["codes"] == [0, 0, 0, 0, 0]
    assert result["scipy"] == []
    assert result["blocked"]
    # bench/tracing.py wraps estimation.optimize.minimize.
    assert result["minimize"] == "minimize"


def test_product_paths_never_call_simulate(tmp_path):
    result = run_fresh(_NO_SIMULATE, tmp_path, REPO / "configs")
    assert result["codes"] == [0, 0, 0, 0]
    assert result["stubbed"]
