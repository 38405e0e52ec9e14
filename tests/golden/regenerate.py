"""Seeded product outputs at small cycle counts, and their SHA-256 digests.

    PYTHONPATH=src python tests/golden/regenerate.py

rewrites tests/golden/digests.json from the package as it stands, with the
Python and numpy versions it ran under; tests/test_golden.py recomputes the
digests and compares.  Before it rewrites the file it prints the name of
each digest that differs from it.  numpy does not promise a Generator's
stream across versions (NEP 19), so the digests hold only for the recorded
versions.  A change that alters a seeded output on purpose regenerates the
file and lists each changed output, and why, in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from afclink import cli
from afclink.config import config_from_dict, load_config
from afclink.harness import chsh_simulation

CONFIGS = Path(__file__).resolve().parents[2] / "configs"
DIGESTS = Path(__file__).with_name("digests.json")
REGENERATE = "PYTHONPATH=src python tests/golden/regenerate.py"

# Acceptance criterion 4's memories with ideal detectors, as the bell-stored
# benchmark workload runs them.
BELL_STORED = {
    "run": {"seed": 1, "cycles": 2_500_000},
    "source": {"mean_pairs_per_pulse": 0.016},
    "memories": {
        "signal_794": {
            "coupling_efficiency": 0.2, "device_efficiency": 0.5,
            "mean_od": 2.3, "echo_delays": [[32.258, 1.0]],
        },
        "idler_1535": {
            "coupling_efficiency": 0.4, "device_efficiency": 1.0,
            "mean_od": 2.3, "echo_delays": [[6.024, 1.0]],
        },
    },
    "detectors": {
        ch: {"efficiency": 1.0, "jitter_fwhm_ps": 0.0, "dark_rate_hz": 0.0}
        for ch in ("signal_794", "idler_1535")
    },
}


def _cli(*args) -> bytes:
    """What `afclink ARGS...` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in args])
    if code != 0:
        raise RuntimeError(f"afclink {' '.join(map(str, args))} exited {code}")
    return out.getvalue().encode()


def _shipped(work: Path, name: str, cycles: int) -> Path:
    """A copy of a shipped config with run.cycles set."""
    data = json.loads((CONFIGS / f"{name}.json").read_text())
    data["run"]["cycles"] = cycles
    path = work / f"{name}.json"
    path.write_text(json.dumps(data))
    return path


def outputs(work: Path) -> dict[str, bytes]:
    """Every seeded output, by name."""
    out = {}
    for tag, name, cycles, seed in (
        ("demo", "demo", 400_000, ()),
        ("realistic-seed7", "realistic", 2_000_000, ("--seed", 7)),
    ):
        run = work / tag
        _cli("simulate", "--config", _shipped(work, name, cycles), *seed, "--out-dir", run)
        for file in ("events.csv", "histogram.csv", "summary.json", "config.json"):
            out[f"simulate-{tag}/{file}"] = (run / file).read_bytes()
    out["sweep-mu.json"] = _cli(
        "sweep", "--config", CONFIGS / "source_only.json", "--parameter", "mu",
        "--values", "0.016,0.128,0.3", "--cycles", 1_000_000,
    )
    out["sweep-analyzer_phase.json"] = _cli(
        "sweep", "--config", CONFIGS / "demo.json", "--parameter", "analyzer_phase",
        "--values", "0,0.8,1.6,3.1", "--cycles", 300_000,
    )
    _cli("report", "--out-dir", work / "report")
    for file in ("report.json", "state_metrics.csv"):
        out[f"report/{file}"] = (work / "report" / file).read_bytes()
    out["analyze.csv"] = _cli("analyze", "--format", "csv")

    demo = load_config(CONFIGS / "demo.json")
    demo = replace(demo, run=replace(demo.run, cycles=200_000))
    out["chsh-demo.repr"] = repr(chsh_simulation(demo)).encode()
    for tag, noise in (("clean", 0.0), ("depolarized", 0.4)):
        data = {**BELL_STORED, "source": {**BELL_STORED["source"], "depolarizing_noise": noise}}
        out[f"chsh-bell-stored-{tag}.repr"] = repr(chsh_simulation(config_from_dict(data))).encode()
    return out


def digests(work: Path) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in outputs(work).items()}


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def changed(expected: dict[str, str], got: dict[str, str]) -> list[str]:
    """The names whose digest differs between two digest maps, or that only
    one of them has."""
    names = expected.keys() | got.keys()
    return sorted(name for name in names if got.get(name) != expected.get(name))


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        payload = {**versions(), "digests": digests(Path(work))}
    recorded = json.loads(DIGESTS.read_text())["digests"] if DIGESTS.exists() else {}
    for name in changed(recorded, payload["digests"]):
        print(f"changed: {name}")
    DIGESTS.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"{DIGESTS}: {len(payload['digests'])} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
