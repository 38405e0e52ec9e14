"""Reference figures: the baseline rows of ROADMAP.md, measured on this machine.

    python3 bench/reference.py            # ~2 min; writes bench/out/reference.json

Each row runs in its own interpreter (PYTHONPATH=src, BLAS threads capped at
the core count), so its peak RSS is its own.  Times are perf_counter spans
around the call named in the row, medians where a row repeats.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import common

ROWS = {
    # row: (what, repeats inside the child)
    "import": ("import afclink.cli", 5),
    "cli-comb-efficiency": ("afclink comb efficiency, spawn to exit", 3),
    "simulate-5e7": ("harness.simulate, configs/realistic.json, 5e7 cycles", 1),
    "simulate-2e8": ("harness.simulate, configs/realistic.json, 2e8 cycles", 1),
    "mle-20-starts": ("tomography_mle, shipped input table, 20 starts", 3),
    "mle-2-starts": ("tomography_mle, shipped input table, 2 starts", 5),
    "analysis-200-trials": ("analyze_paper_data, in+out+chsh, 200 trials", 1),
    "jacobi-4x4": ("hermitian_eigensystem on a 4x4 state, per call", 1),
    "eigh-4x4": ("numpy.linalg.eigh on a 4x4 state, per call", 1),
}


def _timed(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _simulate(cycles):
    from dataclasses import replace

    from afclink.config import load_config
    from afclink.harness import simulate

    cfg = load_config(common.CONFIGS / "realistic.json")
    cfg = replace(cfg, run=replace(cfg.run, cycles=cycles))
    return lambda: simulate(cfg)


def _mle(n_starts):
    from afclink.estimation import tomography_from_csv, tomography_mle

    tin = tomography_from_csv(common.DATA / "tomography_before_storage.csv")
    return lambda: tomography_mle(tin, n_starts=n_starts, seed=0)


def _eig(solver_name, calls=2000):
    import numpy as np

    from afclink.linalg import hermitian_eigensystem

    solver = hermitian_eigensystem if solver_name == "jacobi" else np.linalg.eigh
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real

    def run():
        for _ in range(calls):
            solver(rho)

    return run, calls


def child(row: str) -> float:
    """Seconds for one row (per call for the eigensolver rows)."""
    repeats = ROWS[row][1]
    if row == "import":
        t0 = time.perf_counter()
        import afclink.cli  # noqa: F401

        return time.perf_counter() - t0
    if row.startswith("simulate-"):
        return _timed(_simulate(int(float(row.split("-")[1]))), repeats)
    if row.startswith("mle-"):
        return _timed(_mle(int(row.split("-")[1])), repeats)
    if row == "analysis-200-trials":
        from afclink.harness import analyze_paper_data

        return _timed(
            lambda: analyze_paper_data(
                common.DATA / "tomography_before_storage.csv",
                tomography_out=common.DATA / "tomography_after_storage.csv",
                chsh=common.DATA / "chsh_correlations.csv",
                trials=200,
            ),
            repeats,
        )
    fn, calls = _eig(row.split("-")[0])
    return _timed(fn, repeats) / calls


def measure(row: str) -> dict:
    what, repeats = ROWS[row]
    log = common.OUT / f"reference-{row}.txt"
    if row == "cli-comb-efficiency":
        argv = [sys.executable, "-m", "afclink.cli", "comb", "efficiency",
                "--tooth-od", "2", "--finesse", "2"]
        walls, rss = [], []
        for _ in range(repeats):
            with open(log, "w") as fh:
                result = common.spawn_and_wait(argv, fh, fh, 120.0)
            walls.append(result.wall_s)
            rss.append(result.peak_rss_mb)
        log.unlink()
        return {"what": what, "seconds": statistics.median(walls), "peak_rss_mb": max(rss)}
    samples, rss = [], []
    for _ in range(repeats if row == "import" else 1):
        with open(log, "w") as fh:
            result = common.spawn_and_wait(
                [sys.executable, __file__, "--child", row], fh, None, 300.0
            )
        if result.returncode != 0:
            raise SystemExit(f"{row}: child failed, see {log}")
        samples.append(float(log.read_text().split()[-1]))
        rss.append(result.peak_rss_mb)
    log.unlink()
    return {"what": what, "seconds": statistics.median(samples), "peak_rss_mb": max(rss)}


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        print(child(sys.argv[2]))
        return 0
    common.OUT.mkdir(parents=True, exist_ok=True)
    rows = {}
    for row in ROWS:
        rows[row] = measure(row)
        r = rows[row]
        print(f"{row:22s} {r['seconds']:12.6g} s  {r['peak_rss_mb']:7.1f} MB  {r['what']}")
    path = common.OUT / "reference.json"
    path.write_text(json.dumps({"rows": rows, "provenance": common.provenance()}, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
