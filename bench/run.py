"""afclink benchmark: four workloads, each operation checked apart from afclink.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload in turn

A run repeats whole rounds until S seconds have passed.  A round spawns one
fresh interpreter (bench/launch.py) that imports afclink from src/ and runs
the workload's program once, as a user's CLI call would; with --trace 1 a
round is one untraced process followed by one traced process.  Processes run
one at a time (a closed loop with one client).

With --trace 0 the last stdout line reports, as medians over the run's
processes, wall_s (spawn to exit), setup_s (spawn to the first shard or
tomography fit), run_s (wall_s - setup_s) and peak_rss_mb.  With --trace 1
it reports the per-layer metrics of the traced processes and
trace.overhead_s.  Every run also writes bench/out/<workload>-seed<N>-trace<T>.json
with the samples, the check results and the machine's provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import checks
import common

LAUNCH = common.BENCH_DIR / "launch.py"
PROCESS_TIMEOUT_S = 120.0

# Workload names, metric names and units come from BENCHMARK.json alone.
SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]


def _write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return path


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Workloads.  prepare() writes the inputs made from the seed; program() is the
# launcher command of one process; check() returns (problems, digest), where
# the digest must be equal for every process of a run (same seed, same output).


class RealisticLink:
    name = "realistic-link"
    cycles = 100_000_000
    ops = 1

    def prepare(self, work: Path, seed: int) -> dict:
        cfg = json.loads((common.CONFIGS / "realistic.json").read_text())
        cfg["run"].update(seed=seed, cycles=self.cycles)
        return {"config": cfg, "path": _write_json(work / "realistic.json", cfg)}

    def program(self, ctx, out: Path) -> list[str]:
        return ["cli", "simulate", "--config", str(ctx["path"]), "--out-dir", str(out / "run")]

    def check(self, ctx, out: Path, record) -> tuple[list[str], str]:
        run = out / "run"
        summary = json.loads((run / "summary.json").read_text())
        histogram = np.array(checks.read_rows(run / "histogram.csv"), dtype=np.int64).T
        events_rows = (run / "events.csv").read_bytes().count(b"\n") - 1
        problems = checks.realistic_link(ctx["config"], summary, histogram, events_rows)
        digest = " ".join(
            _sha256(run / name) for name in ("summary.json", "histogram.csv", "events.csv")
        )
        return problems, digest


class G2Sweep:
    name = "g2-sweep"
    mus = (0.008, 0.016, 0.032, 0.064, 0.128)
    cycles = 10_000_000
    ops = len(mus)

    def prepare(self, work: Path, seed: int) -> dict:
        cfg = json.loads((common.CONFIGS / "source_only.json").read_text())
        cfg["run"]["seed"] = seed
        return {"path": _write_json(work / "source_only.json", cfg)}

    def program(self, ctx, out: Path) -> list[str]:
        values = ",".join(repr(mu) for mu in self.mus)
        return [
            "cli", "sweep", "--config", str(ctx["path"]), "--parameter", "mu",
            "--values", values, "--cycles", str(self.cycles),
        ]

    def check(self, ctx, out: Path, record) -> tuple[list[str], str]:
        rows = json.loads((out / "stdout.txt").read_text())["rows"]
        return checks.g2_sweep(self.mus, self.cycles, rows), json.dumps(rows)


class BellStored:
    name = "bell-stored"
    cycles_per_setting = 10_000_000
    noise = 0.4
    ops = 2

    def prepare(self, work: Path, seed: int) -> dict:
        # Acceptance criterion 4: memory efficiencies scaled ~100x above the
        # hardware values, ideal detectors.
        cfg = {
            "run": {"seed": seed, "cycles": self.cycles_per_setting},
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
        clean = _write_json(work / "bell_clean.json", cfg)
        cfg["source"]["depolarizing_noise"] = self.noise
        noisy = _write_json(work / "bell_depolarized.json", cfg)
        return {"paths": (clean, noisy)}

    def program(self, ctx, out: Path) -> list[str]:
        return ["bell", str(out / "bell.json"), *map(str, ctx["paths"])]

    def check(self, ctx, out: Path, record) -> tuple[list[str], str]:
        results = json.loads((out / "bell.json").read_text())
        problems = [f"{r['config']}: {r['error']}" for r in results if "error" in r]
        if not problems:
            problems = checks.bell_stored(results[0], results[1], self.noise)
        return problems, json.dumps(results)


class PaperAnalysis:
    name = "paper-analysis"
    trials = 100  # the smallest count the CLI accepts; criterion 2 uses 200
    ops = 1

    def prepare(self, work: Path, seed: int) -> dict:
        return {"seed": seed, "tables": checks.shipped_tables(common.DATA)}

    def program(self, ctx, out: Path) -> list[str]:
        return [
            "cli", "report", "--out-dir", str(out / "report"),
            "--trials", str(self.trials), "--seed", str(ctx["seed"]),
        ]

    def check(self, ctx, out: Path, record) -> tuple[list[str], str]:
        text = (out / "report" / "report.json").read_text()
        states = {
            stage: np.array(m)[..., 0] + 1j * np.array(m)[..., 1]
            for stage, m in record["states"].items()
        }
        return checks.paper_analysis(json.loads(text), states, ctx["tables"]), text


_PROGRAMS = {w.name: w for w in (RealisticLink(), G2Sweep(), BellStored(), PaperAnalysis())}
WORKLOADS = {w["name"]: _PROGRAMS[w["name"]] for w in SPEC["workloads"]}


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced process


def layer_metrics(record: dict, out: Path) -> dict[str, float]:
    spans = record["spans"]
    counts = Counter(record["counts"])
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    covered: dict[int, float] = defaultdict(float)
    for name, start, end, parent in spans:
        total[name] += end - start
        calls[name] += 1
        if parent is not None:
            covered[parent] += end - start

    def under(index, ancestor):
        while index is not None:
            if spans[index][0] == ancestor:
                return True
            index = spans[index][3]
        return False

    merge = sum(
        end - start - covered[i]
        for i, (name, start, end, _) in enumerate(spans)
        if name == "engine.simulate"
    )
    mle_lbfgs = sum(
        1 for name, *_, p in spans if name == "estimation.lbfgs" and under(p, "estimation.mle")
    )
    pairs, clicks = counts["engine.pairs"], counts["engine.clicks"]
    eig_calls = calls["linalg.eig"]
    events = out / "run" / "events.csv"
    events_bytes = events.read_bytes() if events.exists() else b""
    return {
        "cli.import_s": record["import_s"],
        "config.load_s": total["config.load"],
        "engine.tables_s": total["engine.tables"],
        "engine.shard_s": total["engine.shard"],
        "engine.shards": calls["engine.shard"],
        "engine.memory_draw_s": total["engine.memory_draw"],
        "engine.memory_draws": counts["engine.memory_draws"],
        "engine.analyzer_draw_s": total["engine.analyzer_draw"],
        "engine.analyzer_draws": counts["engine.analyzer_draws"],
        # Residual: pair draw, detector thinning and jitter, darks, assembly.
        "engine.shard_other_s": total["engine.shard"]
        - total["engine.memory_draw"]
        - total["engine.analyzer_draw"],
        # Residual: simulate's own time, i.e. the concatenation of shards.
        "engine.merge_s": merge,
        "engine.pairs": pairs,
        "engine.clicks": clicks,
        "engine.survival": clicks / (2 * pairs) if pairs else 0.0,
        "detection.histogram_s": total["detection.histogram"],
        "detection.histogram_pairs": counts["detection.histogram_pairs"],
        "detection.histogram_bytes": counts["detection.histogram_bytes"],
        "bell.subruns": sum(
            1 for name, *_, p in spans if name == "engine.simulate" and under(p, "bell.chsh")
        ),
        "bell.central_match_s": total["bell.central_match"],
        "estimation.g2_s": total["estimation.g2"],
        "estimation.peaks_s": total["estimation.peaks"],
        "estimation.mle_calls": calls["estimation.mle"],
        "estimation.mle_s": total["estimation.mle"],
        "estimation.lbfgs_runs": calls["estimation.lbfgs"],
        "estimation.objective_evals": counts["estimation.objective_evals"],
        "estimation.start_converged_ratio": (
            counts["estimation.starts_converged"] / mle_lbfgs if mle_lbfgs else 0.0
        ),
        "estimation.resample_s": total["estimation.resample"],
        "estimation.metric_s": total["estimation.metric"],
        "linalg.eig_calls": eig_calls,
        "linalg.eig_s": total["linalg.eig"],
        "linalg.eig_call_us": 1e6 * total["linalg.eig"] / eig_calls if eig_calls else 0.0,
        "io.events_rows": max(events_bytes.count(b"\n") - 1, 0),
        "io.events_bytes": len(events_bytes),
        "io.events_csv_s": total["io.events_csv"],
        "io.histogram_csv_s": total["io.histogram_csv"],
        "io.summary_s": total["io.summary"],
    }


# ---------------------------------------------------------------------------
# Running


class Abort(Exception):
    """The benchmark cannot run here; no result is printed."""


def _tail(path: Path, lines: int = 20) -> str:
    try:
        return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


def warm_up(work: Path) -> None:
    """Import afclink once, untimed, so that bytecode and page caches are
    filled as they are for a user's second call."""
    log = work / "warm_up.txt"
    with open(log, "w") as fh:
        result = common.spawn_and_wait(
            [sys.executable, "-c", "import afclink.cli"], fh, fh, PROCESS_TIMEOUT_S
        )
    if result.returncode != 0:
        raise Abort(f"cannot import afclink from {common.SRC}:\n{_tail(log)}")


def run_process(workload, ctx, out: Path, traced: bool) -> dict:
    out.mkdir(parents=True)
    record_path = out / "record.json"
    argv = [sys.executable, str(LAUNCH), str(record_path)]
    argv += ["--trace"] if traced else []
    argv += workload.program(ctx, out)
    with open(out / "stdout.txt", "w") as so, open(out / "stderr.txt", "w") as se:
        result = common.spawn_and_wait(argv, so, se, PROCESS_TIMEOUT_S)
    sample = {"traced": traced, "returncode": result.returncode, "failed": workload.ops}
    try:
        record = json.loads(record_path.read_text())
    except (OSError, ValueError):
        record = None
    if result.returncode != 0 or record is None or record["setup_end"] is None:
        sys.stderr.write(f"{workload.name}: process failed ({result.returncode}):\n")
        sys.stderr.write(_tail(out / "stderr.txt") + "\n")
        return sample
    sample["failed"] = record.get("ops_failed", 0)
    sample.update(
        wall_s=result.wall_s,
        setup_s=record["setup_end"] - result.spawn,
        run_s=result.exit - record["setup_end"],
        peak_rss_mb=result.peak_rss_mb,
    )
    try:
        sample["problems"], sample["digest"] = workload.check(ctx, out, record)
    except (OSError, LookupError, ValueError, TypeError) as exc:
        sample["problems"], sample["digest"] = [f"unreadable output: {exc!r}"], ""
    if traced:
        sample["layers"] = layer_metrics(record, out)
        shutil.copy(record_path, common.OUT / f"{workload.name}-spans.json")
    shutil.rmtree(out)
    return sample


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    work = common.OUT / f"{workload.name}-seed{seed}-trace{int(trace)}.work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = workload.prepare(work, seed)
    warm_up(work)
    samples = []
    begin = time.monotonic()
    while not samples or time.monotonic() - begin < seconds:
        for traced in (False, True) if trace else (False,):
            samples.append(run_process(workload, ctx, work / f"p{len(samples)}", traced))
    elapsed = time.monotonic() - begin

    done = [s for s in samples if "wall_s" in s]
    if not done:
        raise Abort(f"{workload.name}: every process failed; see {work}")
    problems = sorted({p for s in done for p in s["problems"]})
    if len({s["digest"] for s in done}) > 1:
        problems.append("the same seed gave different outputs in one run")
    plain = [s for s in done if not s["traced"]]
    if trace:
        layered = [s for s in done if s["traced"]]
        metrics = {
            name: {"value": statistics.median(s["layers"][name] for s in layered), "unit": unit}
            for name, unit in PER_LAYER
            if name != "trace.overhead_s"
        }
        overhead = statistics.median(s["wall_s"] for s in layered) - statistics.median(
            s["wall_s"] for s in plain
        )
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            name: {"value": statistics.median(s[name] for s in plain), "unit": unit}
            for name, unit in END_TO_END
        }
    result = {
        "correct": not problems,
        "attempted": workload.ops * len(samples),
        "failed": sum(s["failed"] for s in samples),
        "metrics": metrics,
    }
    _write_json(
        common.OUT / f"{workload.name}-seed{seed}-trace{int(trace)}.json",
        {
            "workload": workload.name,
            "seed": seed,
            "seconds": seconds,
            "measured_s": elapsed,
            "result": result,
            "problems": problems,
            "samples": [{k: v for k, v in s.items() if k != "digest"} for s in samples],
            "provenance": common.provenance(),
        },
    )
    if problems:
        sys.stderr.write(f"{workload.name}: output checks failed:\n  " + "\n  ".join(problems) + "\n")
    else:
        shutil.rmtree(work)
    return result


def _print_table(name: str, result: dict) -> None:
    print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:34s} {entry['value']:14.6g} {entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        required = (common.PACKAGE / "cli.py", common.CONFIGS / "realistic.json")
        missing = [p for p in required if not p.exists()]
        if missing:
            raise Abort(f"afclink sources not found: {', '.join(map(str, missing))}")
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            _print_table(name, results[name])
    except Abort as exc:
        sys.stderr.write(f"benchmark aborted: {exc}\n")
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": entry
                for name, r in results.items()
                for metric, entry in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
