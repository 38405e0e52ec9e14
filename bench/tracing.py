"""Spans and counters recorded around afclink's module-level functions.

Nothing here edits the package: functions are replaced, in every afclink
module namespace that holds them, by wrappers that record a span (name,
start, end, parent span) and feed counters from their arguments or result.
Spans stay in memory until the launcher writes its record at exit.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# Bytes allocated per start-stop pair by the range expansion in
# detection.tdc_histogram_from_times: ten int64 temporaries of the pair count
# (offsets, arange, its difference, repeated lo, pos, gathered stops, repeated
# starts, dts, shifted dts, bin index).  Per start: six int64 arrays (sorted
# copy, lo, hi, m, cumsum, cumsum - m); per stop: the sorted copy.
_BYTES_PER_PAIR = 10 * 8
_BYTES_PER_START = 6 * 8
_BYTES_PER_STOP = 8


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, name, fn, after=None):
        """fn with a span per call; after(counts, args, result) runs on return."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append([name, time.monotonic(), None, parent])
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][2] = time.monotonic()
            if after is not None:
                after(self.counts, args, result)
            return result

        return traced


class _Proxy:
    """A module stand-in that overrides some attributes and forwards the rest."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def replace_everywhere(original, replacement) -> int:
    """Rebind every afclink module attribute that is `original`."""
    hits = 0
    for name, module in list(sys.modules.items()):
        if name != "afclink" and not name.startswith("afclink."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                hits += 1
    return hits


def _count_n(key):
    def after(counts, args, result):
        counts[key] += int(args[1])

    return after


def _after_simulate(counts, args, result):
    counts["engine.pairs"] += int(result.n_pairs)
    for record in result.channels.values():
        counts["engine.clicks"] += int(record.times.size) - record.dark_count


def _after_histogram(counts, args, result):
    pairs = int(result.counts.sum())
    counts["detection.histogram_pairs"] += pairs
    counts["detection.histogram_bytes"] += (
        _BYTES_PER_PAIR * pairs
        + _BYTES_PER_START * len(args[0])
        + _BYTES_PER_STOP * len(args[1])
    )


def _after_mle(counts, args, result):
    counts["estimation.starts_converged"] += int(result.n_converged)


def _after_minimize(counts, args, result):
    counts["estimation.objective_evals"] += int(result.nfev)


def install_layers(tracer: Tracer) -> None:
    """Wrap the functions each layer metric is measured at."""
    import pathlib

    from afclink import config, detection, estimation, harness, linalg

    def span(name, fn, after=None):
        if replace_everywhere(fn, tracer.wrap(name, fn, after)) == 0:
            raise RuntimeError(f"{fn.__module__}.{fn.__qualname__} is bound nowhere")

    span("config.load", config.load_config)
    span("engine.tables", harness._build_tables)
    span("engine.simulate", harness.simulate, _after_simulate)
    span("engine.shard", harness._simulate_shard)
    span("engine.memory_draw", harness._draw_memory, _count_n("engine.memory_draws"))
    span("engine.analyzer_draw", harness._draw_outcomes, _count_n("engine.analyzer_draws"))
    span("detection.histogram", detection.tdc_histogram_from_times, _after_histogram)
    span("bell.chsh", harness.chsh_simulation)
    span("bell.central_match", harness._central_port_counts)
    span("estimation.g2", estimation.g2_cross)
    span("estimation.peaks", estimation.find_histogram_peaks)
    span("estimation.mle", estimation.tomography_mle, _after_mle)
    span("estimation.resample", estimation.resample_rows)
    span("linalg.eig", linalg.hermitian_eigensystem)
    span("io.events_csv", harness._write_events_csv)

    for key, fn in list(estimation.METRIC_FUNCTIONS.items()):
        estimation.METRIC_FUNCTIONS[key] = tracer.wrap("estimation.metric", fn)
    estimation.optimize = _Proxy(
        estimation.optimize,
        minimize=tracer.wrap(
            "estimation.lbfgs", estimation.optimize.minimize, _after_minimize
        ),
    )
    hist_cls = detection.CoincidenceHistogram
    hist_cls.to_csv = tracer.wrap("io.histogram_csv", hist_cls.to_csv)
    # summary.json and report.json: serialised by harness, written by Path.
    harness.json = _Proxy(harness.json, dumps=tracer.wrap("io.summary", harness.json.dumps))
    pathlib.Path.write_text = tracer.wrap("io.summary", pathlib.Path.write_text)


def mark_first_call(module, names, record: dict, key: str) -> None:
    """Store time.monotonic() in record[key] when any of module.<names> is
    first entered, then put the original functions back."""
    originals = {name: getattr(module, name) for name in names}

    def restore():
        for name, fn in originals.items():
            setattr(module, name, fn)

    def marker(name):
        def first(*args, **kwargs):
            record[key] = time.monotonic()
            restore()
            return originals[name](*args, **kwargs)

        return first

    for name in names:
        setattr(module, name, marker(name))


def keep_results(module, name, sink: list) -> None:
    """Append every return value of module.<name> to sink."""
    fn = getattr(module, name)

    @functools.wraps(fn)
    def kept(*args, **kwargs):
        result = fn(*args, **kwargs)
        sink.append(result)
        return result

    setattr(module, name, kept)
