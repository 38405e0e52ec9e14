"""Dead-code guards: every function, class and method in afclink is used,
and every defaulted parameter is passed by some call.

A top-level function or class counts as used when its name appears in the
package source (as a name or an attribute) anywhere outside its own
definition; a method or property only when it appears as an attribute
(`x.name`), since a bare name can only be a local or a global.  Names are
matched by spelling, not resolved, so two methods that share a name cover
each other.  Dunder methods are called by
Python itself and are skipped.  A name that no code in the package uses
stays only with a reason in KEEP.

A defaulted parameter of a function or method counts as passed when a call
in the package, to a callee of the same spelling, passes it by keyword, by
position (self and cls skipped) or through * or ** unpacking.  A parameter
that no call passes is a constant in disguise; it stays only with a reason
in KEEP_PARAMS.
"""

import ast
from pathlib import Path

import afclink

PACKAGE = Path(afclink.__file__).parent

PUBLIC_API = "public API"
ROUND_TRIP = "round-trip reader or writer of a file format the package writes or reads"

KEEP = {
    "cli._Parser.error": "argparse calls it to report a usage error",
    "detection.AnalyzerSetting.from_projector": "planned: simulated tomography (ROADMAP)",
    "detection.histogram_from_csv": ROUND_TRIP,
    "estimation.__getattr__": (
        "module hook for the lazy scipy.optimize that bench/tracing.py wraps; "
        "goes with the next benchmark change (ROADMAP)"
    ),
    "estimation.born_correlation": PUBLIC_API,
    "estimation.efficiencies": PUBLIC_API,
    "estimation.informationally_complete_pairs": "planned: simulated tomography (ROADMAP)",
    "estimation.synthesize_input": "planned: simulated tomography (ROADMAP)",
    "estimation.tomography_to_csv": ROUND_TRIP,
    "estimation.visibility_fit": PUBLIC_API,
    "harness.chsh_simulation": PUBLIC_API,
    "harness.events_from_csv": ROUND_TRIP,
}

KEEP_PARAMS = {
    "cli.main(argv)": "the console entry point calls main() and reads sys.argv",
    "estimation.tomography_mle(n_starts)": (
        "bench/reference.py passes it; goes with the next benchmark change (ROADMAP)"
    ),
    "estimation.tomography_mle(seed)": (
        "bench/reference.py passes it; goes with the next benchmark change (ROADMAP)"
    ),
    "estimation.find_histogram_peaks(min_separation_ps)": (
        "acceptance criterion 6 sets the peak separation"
    ),
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


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
        name = node.name
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
