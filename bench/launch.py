"""One workload process: imports afclink, runs one program, writes a record.

    python3 bench/launch.py RECORD [--trace] cli ARGS...
    python3 bench/launch.py RECORD [--trace] bell OUT CONFIG...

`cli` runs `afclink ARGS...` in this interpreter.  `bell` runs
harness.chsh_simulation once per CONFIG and writes the estimates to OUT.
run.py spawns this with PYTHONPATH pointing at src/.

RECORD receives monotonic timestamps: the end of set-up is the first entry
into the engine's shard loop or into the tomography fit, whichever comes
first.  The analysis report returned by analyze_paper_data is kept so that
run.py can check the fitted states.  With --trace every layer function is
wrapped in a span (tracing.install_layers) and the spans go into RECORD.
"""

import json
import sys
import time

import tracing


def _matrix(m):
    return [[[z.real, z.imag] for z in row] for row in m.tolist()]


def _run_bell(out_path, config_paths, record):
    from afclink import config, harness

    results = []
    for path in config_paths:
        try:
            sim = harness.chsh_simulation(config.load_config(path))
        except Exception as exc:  # one failed operation must not hide the next
            results.append({"config": path, "error": f"{type(exc).__name__}: {exc}"})
            continue
        results.append(
            {
                "config": path,
                "value": sim.estimate.value,
                "sigma": sim.estimate.sigma,
                "minus_slot": sim.estimate.minus_slot,
                "e_values": list(sim.e_values),
                "sigmas": list(sim.sigmas),
                "counts": [list(c) for c in sim.counts],
            }
        )
    with open(out_path, "w") as fh:
        json.dump(results, fh)
    record["ops_failed"] = sum("error" in r for r in results)
    return 0


def main(argv):
    record_path, argv = argv[0], argv[1:]
    trace = argv[:1] == ["--trace"]
    if trace:
        argv = argv[1:]
    mode, args = argv[0], argv[1:]
    record = {"start": time.monotonic(), "mode": mode, "setup_end": None}
    tracer = tracing.Tracer() if trace else None
    reports = []
    returncode = 1
    try:
        t0 = time.monotonic()
        import afclink.cli
        from afclink import harness

        record["import_s"] = time.monotonic() - t0
        if tracer is not None:
            tracing.install_layers(tracer)
        tracing.mark_first_call(
            harness, ("_simulate_shard", "tomography_mle"), record, "setup_end"
        )
        tracing.keep_results(harness, "analyze_paper_data", reports)
        if mode == "cli":
            try:
                returncode = afclink.cli.main(args)
            except SystemExit as exc:
                returncode = exc.code if isinstance(exc.code, int) else 1
        elif mode == "bell":
            returncode = _run_bell(args[0], args[1:], record)
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    finally:
        record["end"] = time.monotonic()
        record["returncode"] = returncode
        if reports:
            report = reports[-1]
            record["states"] = {
                "input": _matrix(report.input_state.rho.matrix),
                "output": (
                    None
                    if report.output_state is None
                    else _matrix(report.output_state.rho.matrix)
                ),
            }
        if tracer is not None:
            record["spans"] = tracer.spans
            record["counts"] = dict(tracer.counts)
        with open(record_path, "w") as fh:
            json.dump(record, fh)
    return returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
