"""Seeded product outputs stay byte for byte what tests/golden/digests.json
records: every file `afclink simulate` writes on two configs, both sweeps,
the report bundle, `analyze --format csv` and the CHSH simulation's repr,
at small cycle counts."""

import importlib.util
import json
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "golden_regenerate", Path(__file__).parent / "golden" / "regenerate.py"
)
golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden)


def test_seeded_outputs_match_the_golden_digests(tmp_path):
    recorded = json.loads(golden.DIGESTS.read_text())
    expected = recorded.pop("digests")
    assert recorded == golden.versions(), (
        f"the digests were made under {recorded}, this is {golden.versions()}: "
        f"regenerate them with `{golden.REGENERATE}` on the parent commit, "
        "then on this one"
    )
    got = golden.digests(tmp_path)
    changed = golden.changed(expected, got)
    assert not changed, (
        f"seeded outputs changed: {changed}; if on purpose, run `{golden.REGENERATE}` "
        "and list each changed output, and why, in CHANGES.md"
    )
