"""Dead-code guards: every function, class, method, module constant and
import in afclink is used, and every defaulted parameter is passed by some
call.

A top-level function, class or UPPER_CASE constant counts as used when its
name appears in the package source (as a name or an attribute) anywhere
outside its own definition or assignment; a method or property only when it
appears as an attribute (`x.name`), since a bare name can only be a local or
a global.  Names are matched by spelling, not resolved, so two methods that
share a name cover each other.  Dunder methods are called by Python itself
and are skipped.  A name that no code in the package uses
stays only with a reason in KEEP.

A defaulted parameter of a function or method counts as passed when a call
in the package, to a callee of the same spelling, passes it by keyword, by
position (self and cls skipped) or through * or ** unpacking.  A parameter
that no call passes is a constant in disguise; it stays only with a reason
in KEEP_PARAMS.

A name a module imports (from __future__ aside) counts as used when it
occurs as a name in that module; the package has no linter to catch the
imports a deletion leaves behind.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

import afclink

PACKAGE = Path(afclink.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

PUBLIC_API = "public API"
ROUND_TRIP = "round-trip reader or writer of a file format the package writes or reads"

KEEP = {
    "cli._Parser.error": "argparse calls it to report a usage error",
    "detection.AnalyzerSetting.from_projector": "planned: simulated tomography (ROADMAP)",
    "estimation.__getattr__": (
        "module hook for the lazy scipy.optimize that bench/tracing.py wraps as "
        "`estimation.optimize`; goes with the next benchmark change (ROADMAP)"
    ),
    "estimation.efficiencies": PUBLIC_API,
    "estimation.informationally_complete_pairs": "planned: simulated tomography (ROADMAP)",
    "estimation.synthesize_input": "planned: simulated tomography (ROADMAP)",
    "estimation.tomography_to_csv": ROUND_TRIP,
    "harness.chsh_simulation": PUBLIC_API,
    "harness.ChannelRecord.dark_count": (
        "bench/tracing.py reads `record.dark_count` from simulate(); goes with the "
        "next benchmark change (ROADMAP)"
    ),
    "harness.SimulationData.n_pairs": (
        "bench/tracing.py reads `result.n_pairs` from simulate(); goes with the "
        "next benchmark change (ROADMAP)"
    ),
    "harness.simulate": (
        "tests read whole-run click arrays from it, bench/tracing.py binds "
        "`harness.simulate` and bench/reference.py does `import simulate`; goes "
        "with the next benchmark change (ROADMAP)"
    ),
}

# ROADMAP's cap on the lines of src/afclink/*.py: a change that crosses it
# fails here, not at the next re-anchor.
SRC_LINE_CAP = 3550

KEEP_PARAMS = {
    "cli.main(argv)": "the console entry point calls main() and reads sys.argv",
    "estimation.tomography_mle(n_starts)": (
        "bench/reference.py passes `n_starts=`; goes with the next benchmark change "
        "(ROADMAP)"
    ),
    "estimation.tomography_mle(seed)": (
        "bench/reference.py passes `seed=0`; goes with the next benchmark change "
        "(ROADMAP)"
    ),
    "estimation.find_histogram_peaks(min_separation_ps)": (
        "acceptance criterion 6 sets the peak separation"
    ),
}

# A reason that cites a bench/ file quotes, in backticks, the text by which
# that file uses the name.
_BENCH_FILE = re.compile(r"bench/\w+\.py")
_QUOTED = re.compile(r"`([^`]+)`")
_BENCH_CITED = {
    name: reason
    for name, reason in {**KEEP, **KEEP_PARAMS}.items()
    if _BENCH_FILE.search(reason)
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def scan():
    """(definitions, references) over the package: definitions as
    (module.qualname, module, node, is_method), references as (name, module,
    line, is_attribute)."""
    defs, refs = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defs += [
                    (f"{module}.{name.id}", module, node, False)
                    for target in targets
                    for name in ast.walk(target)
                    if isinstance(name, ast.Name) and _CONSTANT.fullmatch(name.id)
                ]
            if not isinstance(node, _DEFS):
                continue
            defs.append((f"{module}.{node.name}", module, node, False))
            if isinstance(node, ast.ClassDef):
                defs += [
                    (f"{module}.{node.name}.{sub.name}", module, sub, True)
                    for sub in node.body
                    if isinstance(sub, _DEFS) and not _is_dunder(sub.name)
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((node.id, module, node.lineno, False))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, module, node.lineno, True))
    return defs, refs


def unreferenced():
    defs, refs = scan()
    out = []
    for qualname, module, node, is_method in defs:
        name = qualname.rsplit(".", 1)[1]
        outside = (
            ref_module != module or not node.lineno <= line <= node.end_lineno
            for ref_name, ref_module, line, is_attribute in refs
            if ref_name == name and (is_attribute or not is_method)
        )
        if not any(outside):
            out.append(qualname)
    return out


def test_every_definition_is_used_or_kept_with_a_reason():
    dead = [name for name in unreferenced() if name not in KEEP]
    assert not dead, f"referenced nowhere else in src/afclink: {dead}"


def test_keep_lists_only_existing_unused_names():
    defined = {qualname for qualname, *_ in scan()[0]}
    assert set(KEEP) <= defined, sorted(set(KEEP) - defined)
    used = set(KEEP) - set(unreferenced())
    assert not used, f"used in src/afclink now, drop from KEEP: {sorted(used)}"


def _defaulted(func: ast.FunctionDef, is_method: bool):
    """(positional parameters after self/cls, defaulted parameter names)."""
    args = func.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    if is_method and positional[:1] in (["self"], ["cls"]):
        positional = positional[1:]
    defaulted = positional[len(positional) - len(args.defaults) :] if args.defaults else []
    defaulted += [
        a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    ]
    return positional, defaulted


def _passed_by(call: ast.Call, positional: list[str]) -> set[str] | None:
    """The parameters a call passes, or None when unpacking may pass any."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return None
    if any(k.arg is None for k in call.keywords):
        return None
    return set(positional[: len(call.args)]) | {k.arg for k in call.keywords}


def unset_parameters():
    """module.qualname(parameter) of every defaulted parameter that no call
    in the package passes."""
    functions, calls = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, _FUNCS):
                functions.append((f"{module}.{node.name}", node, False))
            elif isinstance(node, ast.ClassDef):
                functions += [
                    (f"{module}.{node.name}.{sub.name}", sub, True)
                    for sub in node.body
                    if isinstance(sub, _FUNCS)
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.append((name, node))
    out = []
    for qualname, func, is_method in functions:
        positional, defaulted = _defaulted(func, is_method)
        passed: set[str] = set()
        for name, call in calls:
            if name == func.name:
                found = _passed_by(call, positional)
                passed |= set(defaulted) if found is None else found
        out += [f"{qualname}({p})" for p in defaulted if p not in passed]
    return out


def test_every_defaulted_parameter_is_passed_or_kept():
    unset = [name for name in unset_parameters() if name not in KEEP_PARAMS]
    assert not unset, f"defaulted but never passed in src/afclink: {unset}"


def test_keep_params_lists_only_existing_unset_parameters():
    unset = set(unset_parameters())
    stale = sorted(set(KEEP_PARAMS) - unset)
    assert not stale, f"passed in src/afclink now, or gone; drop from KEEP_PARAMS: {stale}"


@pytest.mark.parametrize("name", sorted(_BENCH_CITED))
def test_bench_citing_reason_quotes_text_the_bench_still_holds(name):
    # When the benchmark stops using a name, this fails for its entry, and
    # the entry (often the name itself) can go.
    reason = _BENCH_CITED[name]
    files = _BENCH_FILE.findall(reason)
    quotes = _QUOTED.findall(reason)
    assert quotes, f"{name}: the reason cites {files} but quotes none of their text"
    texts = [(ROOT / path).read_text() for path in files]
    gone = [quote for quote in quotes if not any(quote in text for text in texts)]
    assert not gone, f"{name}: {gone} no longer occur in {files}"


def unused_imports():
    """module.name of every name a module imports, from __future__ aside,
    that occurs nowhere in that module as a name."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            bound = (alias.asname or alias.name.partition(".")[0] for alias in node.names)
            out += [f"{path.stem}.{name}" for name in bound if name not in used]
    return out


def test_every_import_is_used():
    unused = unused_imports()
    assert not unused, f"imported but never used in src/afclink: {unused}"


def test_an_unused_import_is_reported(tmp_path, monkeypatch):
    # An import left behind by the code that called it, as a deleted branch
    # would leave its helper.
    (tmp_path / "kernel.py").write_text(
        "from __future__ import annotations\nimport numpy as np\nimport os.path\n"
        "from .linalg import phase_projector, projector\n"
        "def effect(theta):\n    return np.real(phase_projector(theta, +1))\n"
    )
    monkeypatch.setattr(sys.modules[__name__], "PACKAGE", tmp_path)
    assert unused_imports() == ["kernel.os", "kernel.projector"]


def test_package_stays_under_the_line_cap():
    lines = sum(len(path.read_text().splitlines()) for path in PACKAGE.glob("*.py"))
    assert lines <= SRC_LINE_CAP, f"src/afclink/*.py holds {lines} lines, cap {SRC_LINE_CAP}"


def test_an_unread_constant_is_reported(tmp_path, monkeypatch):
    # A constant left behind by the code that read it, as a deleted chunk
    # loop would leave its chunk size.
    (tmp_path / "kernel.py").write_text(
        "CHUNK_PAIRS = 2**18\nWINDOW_PS, _BINS = 800, 20\n"
        "def histogram():\n    return WINDOW_PS // _BINS\n"
    )
    (tmp_path / "cli.py").write_text("from .kernel import histogram\nhistogram()\n")
    monkeypatch.setattr(sys.modules[__name__], "PACKAGE", tmp_path)
    assert unreferenced() == ["kernel.CHUNK_PAIRS"]
