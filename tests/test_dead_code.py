"""Dead-code guard: every function, class and method in afclink is used.

A top-level function or class, or a method, counts as used when its name
appears in the package source (as a name or an attribute) anywhere outside
its own definition.  Names are matched by spelling, not resolved, so two
methods that share a name cover each other.  Dunder methods are called by
Python itself and are skipped.  A name that no code in the package uses
stays only with a reason in KEEP.
"""

import ast
from pathlib import Path

import afclink

PACKAGE = Path(afclink.__file__).parent

PUBLIC_API = "public API"
ROUND_TRIP = "round-trip reader or writer of a file format the package writes or reads"

KEEP = {
    "cli._Parser.error": "argparse calls it to report a usage error",
    "config.save_config": "planned: summary.json provenance writes the resolved config (ROADMAP)",
    "detection.AnalyzerSetting.from_projector": "planned: simulated tomography (ROADMAP)",
    "detection.CoincidenceHistogram.merge": "planned: streaming per-shard histograms (ROADMAP)",
    "detection.histogram_from_csv": ROUND_TRIP,
    "estimation.__getattr__": (
        "module hook for the lazy scipy.optimize that bench/tracing.py wraps; "
        "goes with the next benchmark change (ROADMAP)"
    ),
    "estimation.born_correlation": PUBLIC_API,
    "estimation.efficiencies": PUBLIC_API,
    "estimation.informationally_complete_pairs": "planned: simulated tomography (ROADMAP)",
    "estimation.monte_carlo_uncertainty": PUBLIC_API,
    "estimation.synthesize_input": "planned: simulated tomography (ROADMAP)",
    "estimation.tomography_to_csv": ROUND_TRIP,
    "estimation.trace_distance": PUBLIC_API,
    "estimation.visibility_fit": PUBLIC_API,
    "harness.chsh_simulation": PUBLIC_API,
    "harness.events_from_csv": ROUND_TRIP,
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def scan():
    """(definitions, references) over the package: definitions as
    (module.qualname, module, node), references as (name, module, line)."""
    defs, refs = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if not isinstance(node, _DEFS):
                continue
            defs.append((f"{module}.{node.name}", module, node))
            if isinstance(node, ast.ClassDef):
                defs += [
                    (f"{module}.{node.name}.{sub.name}", module, sub)
                    for sub in node.body
                    if isinstance(sub, _DEFS) and not _is_dunder(sub.name)
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((node.id, module, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, module, node.lineno))
    return defs, refs


def unreferenced():
    defs, refs = scan()
    out = []
    for qualname, module, node in defs:
        name = node.name
        outside = (
            ref_module != module or not node.lineno <= line <= node.end_lineno
            for ref_name, ref_module, line in refs
            if ref_name == name
        )
        if not any(outside):
            out.append(qualname)
    return out


def test_every_definition_is_used_or_kept_with_a_reason():
    dead = [name for name in unreferenced() if name not in KEEP]
    assert not dead, f"referenced nowhere else in src/afclink: {dead}"


def test_keep_lists_only_existing_unused_names():
    defined = {qualname for qualname, _, _ in scan()[0]}
    assert set(KEEP) <= defined, sorted(set(KEEP) - defined)
    used = set(KEEP) - set(unreferenced())
    assert not used, f"used in src/afclink now, drop from KEEP: {sorted(used)}"
