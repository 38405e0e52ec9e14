"""Command-line front end.

Subcommands: simulate, analyze, comb (build/fit/efficiency/echoes), sweep,
report.  Every command prints a payload to stdout, JSON by default or
flattened CSV rows with --format csv; file outputs go to --out/--out-dir.
Usage errors exit with 2, runtime errors with 1, both as one-line JSON
objects on stderr so callers never have to parse prose.

On glibc, main() first keeps up to 64 MiB of freed heap mapped and leaves
arrays under 32 MiB on the heap (mallopt), so each engine shard reuses the
pages the last one freed instead of faulting them in again: a five-point mu
sweep at 1e7 cycles a point falls from ~42 k to ~7.7 k minor page faults on
one CPU, and from ~50 k to ~15 k summed over the process and its forked
child on two.  Elsewhere this step does nothing; it changes no draw and no
output byte.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import io
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .config import load_config
from .csvio import write_csv
from .errors import ConfigError, EstimationError, FitError
from .harness import (
    DATA_CHSH,
    DATA_TOMOGRAPHY_IN,
    DATA_TOMOGRAPHY_OUT,
    METRICS_CSV_HEADER,
    SWEEP_PARAMETERS,
    data_path,
    analyze_paper_data,
    generate_report,
    provenance,
    run_simulation,
    sweep,
    write_report_files,
)
from .memory import (
    build_comb,
    comb_from_csv,
    comb_to_csv,
    device_efficiency,
    echo_response,
    fit_comb,
    storage_time_ns,
)

_ERROR_EXIT = 1
_USAGE_EXIT = 2

# glibc mallopt(3) parameters and the values main() gives them.
_M_TRIM_THRESHOLD, _TRIM_BYTES = -1, 64 << 20
_M_MMAP_THRESHOLD, _MMAP_BYTES = -3, 32 << 20

ECHOES_CSV_HEADER = ("delay_ns", "relative_amplitude")


def _emit_error(message: str, kind: str) -> None:
    sys.stderr.write(json.dumps({"error": message, "type": kind}) + "\n")


class _Parser(argparse.ArgumentParser):
    """argparse with machine-readable usage errors."""

    def error(self, message):
        _emit_error(message, "UsageError")
        raise SystemExit(_USAGE_EXIT)


def _keep_freed_heap() -> None:
    """Stop glibc from trimming the heap top and from mmapping mid-sized
    arrays, so freed shard arrays are reused rather than unmapped and faulted
    in again.  A no-op without a C library that has mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES)
    except (OSError, AttributeError, TypeError):
        pass


def _seed(text: str) -> int:
    """The argparse type of every --seed: numpy seeds are non-negative."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


def _flatten(value, prefix: str = ""):
    """Depth-first (key, scalar) rows for nested dicts and lists."""
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from _flatten(sub, f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(value, (list, tuple)):
        for i, sub in enumerate(value):
            yield from _flatten(sub, f"{prefix}.{i}" if prefix else str(i))
    else:
        yield (prefix, value)


def _key_value_rows(payload: dict) -> list[tuple]:
    return [("key", "value"), *_flatten(payload)]


def _print_rows(rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


def _load_config(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, run=replace(cfg.run, seed=args.seed))
    if getattr(args, "cycles", None) is not None:
        cfg = replace(cfg, run=replace(cfg.run, cycles=args.cycles))
    return cfg


# --- command handlers: each returns (json payload, csv rows) ----------------


def _cmd_simulate(args):
    cfg = _load_config(args)
    result = run_simulation(cfg, args.out_dir)
    payload = dict(result.summary)
    payload["out_dir"] = str(Path(args.out_dir))
    return payload, _key_value_rows(payload)


def _cmd_analyze(args):
    report = analyze_paper_data(
        args.tomography_in,
        tomography_out=args.tomography_out,
        chsh=args.chsh,
        trials=args.trials,
        seed=args.seed,
    )
    payload = report.to_json_dict()
    if args.out_dir is not None:
        write_report_files(args.out_dir, payload, report)
    return payload, [METRICS_CSV_HEADER, *report.rows()]


def _cmd_comb_build(args):
    comb = build_comb(
        delta_mhz=args.delta_mhz,
        finesse=args.finesse,
        background_od=args.background_od,
        tooth_od=args.tooth_od,
        bandwidth_ghz=args.bandwidth_ghz,
        grid_step_mhz=args.grid_step_mhz,
        modulation_depth=args.modulation_depth,
    )
    comb_to_csv(comb, args.out)
    payload = {
        "path": str(Path(args.out)),
        "points": int(comb.detuning_mhz.size),
        "delta_mhz": args.delta_mhz,
        "finesse": args.finesse,
        "storage_time_ns": storage_time_ns(args.delta_mhz),
        "mean_od": comb.mean_od,
    }
    return payload, _key_value_rows(payload)


def _cmd_comb_fit(args):
    fit = fit_comb(comb_from_csv(args.input))
    payload = {
        **asdict(fit),
        "storage_time_ns": storage_time_ns(fit.delta_mhz),
        "device_efficiency": device_efficiency(fit.background_od, fit.tooth_od, fit.finesse),
    }
    return payload, _key_value_rows(payload)


def _cmd_comb_efficiency(args):
    payload = {
        "background_od": args.background_od,
        "tooth_od": args.tooth_od,
        "finesse": args.finesse,
        "device_efficiency": device_efficiency(
            args.background_od, args.tooth_od, args.finesse
        ),
    }
    return payload, _key_value_rows(payload)


def _cmd_comb_echoes(args):
    echoes = echo_response(comb_from_csv(args.input), rel_threshold=args.rel_threshold)
    if args.out is not None:
        write_csv(args.out, ECHOES_CSV_HEADER, echoes)
    payload = {
        "echoes": [
            {"delay_ns": delay, "relative_amplitude": amp} for delay, amp in echoes
        ]
    }
    rows = [ECHOES_CSV_HEADER, *echoes]
    return payload, rows


def _cmd_sweep(args):
    cfg = _load_config(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"--values must be comma-separated numbers, got {args.values!r}")
    result = sweep(cfg, args.parameter, values)
    if args.out is not None:
        result.to_csv(args.out)
    payload = {
        "parameter": result.parameter,
        "columns": list(result.columns),
        "rows": [list(row) for row in result.rows],
        "seed": cfg.run.seed,
        "cycles": cfg.run.cycles,
        "provenance": provenance(),
    }
    rows = [result.columns, *result.rows]
    return payload, rows


def _cmd_report(args):
    payload, report = generate_report(args.out_dir, trials=args.trials, seed=args.seed)
    return payload, [METRICS_CSV_HEADER, *report.rows()]


def build_parser() -> _Parser:
    parser = _Parser(prog="afclink", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format", choices=("json", "csv"), default="json",
        help="stdout payload format (files are always canonical)",
    )

    p = sub.add_parser("simulate", parents=[fmt], help="run the photon-pair chain and write event files")
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--seed", type=_seed, default=None, help="override run.seed")
    p.add_argument("--out-dir", default="afclink-out", help="directory for events/histogram/summary")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analyze", parents=[fmt], help="tomography, state metrics and Bell sums from CSV tables")
    p.add_argument("--tomography-in", default=data_path(DATA_TOMOGRAPHY_IN), help="input-state tomography CSV")
    p.add_argument("--tomography-out", default=data_path(DATA_TOMOGRAPHY_OUT), help="output-state tomography CSV (omit metrics comparisons with --no-output)")
    p.add_argument("--no-output", dest="tomography_out", action="store_const", const=None, help="analyze the input state only")
    p.add_argument("--chsh", default=data_path(DATA_CHSH), help="correlator CSV")
    p.add_argument("--no-chsh", dest="chsh", action="store_const", const=None, help="skip Bell sums")
    p.add_argument("--trials", type=int, default=200, help="Monte-Carlo resampling trials (0 disables)")
    p.add_argument("--seed", type=_seed, default=0, help="Monte-Carlo seed")
    p.add_argument("--out-dir", default=None, help="also write report.json and state_metrics.csv here")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("comb", help="atomic-frequency-comb tools")
    comb_sub = p.add_subparsers(dest="comb_command", required=True, parser_class=_Parser)

    q = comb_sub.add_parser("build", parents=[fmt], help="sample an ideal comb profile to CSV")
    q.add_argument("--delta-mhz", type=float, required=True)
    q.add_argument("--finesse", type=float, required=True)
    q.add_argument("--background-od", type=float, default=0.0)
    q.add_argument("--tooth-od", type=float, required=True)
    q.add_argument("--bandwidth-ghz", type=float, required=True)
    q.add_argument("--grid-step-mhz", type=float, required=True)
    q.add_argument("--modulation-depth", type=float, default=0.0)
    q.add_argument("--out", required=True, help="comb CSV path")
    q.set_defaults(func=_cmd_comb_build)

    q = comb_sub.add_parser("fit", parents=[fmt], help="recover comb parameters from a sampled profile")
    q.add_argument("--input", required=True, help="comb CSV path")
    q.set_defaults(func=_cmd_comb_fit)

    q = comb_sub.add_parser("efficiency", parents=[fmt], help="recall efficiency from comb parameters")
    q.add_argument("--tooth-od", type=float, required=True)
    q.add_argument("--finesse", type=float, required=True)
    q.add_argument("--background-od", type=float, default=0.0)
    q.set_defaults(func=_cmd_comb_efficiency)

    q = comb_sub.add_parser("echoes", parents=[fmt], help="echo delays from a sampled comb profile")
    q.add_argument("--input", required=True, help="comb CSV path")
    q.add_argument("--rel-threshold", type=float, default=0.05)
    q.add_argument("--out", default=None, help="write (delay_ns, amplitude) CSV here")
    q.set_defaults(func=_cmd_comb_echoes)

    p = sub.add_parser("sweep", parents=[fmt], help="repeat the simulation over one parameter")
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--parameter", required=True, choices=SWEEP_PARAMETERS)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--cycles", type=int, default=None, help="cycles per point (default: config)")
    p.add_argument("--seed", type=_seed, default=None, help="override run.seed")
    p.add_argument("--out", default=None, help="write the sweep CSV here")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", parents=[fmt], help="analyze the shipped data tables into a report bundle")
    p.add_argument("--out-dir", default="afclink-report", help="directory for report.json and state_metrics.csv")
    p.add_argument("--trials", type=int, default=200, help="Monte-Carlo resampling trials (0 disables)")
    p.add_argument("--seed", type=_seed, default=0, help="Monte-Carlo seed")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, rows = args.func(args)
    except (ConfigError, FitError, EstimationError, ValueError, OSError) as exc:
        _emit_error(str(exc), type(exc).__name__)
        return _ERROR_EXIT
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        _print_rows(rows)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
