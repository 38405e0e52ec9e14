"""Experiment configuration: a strict JSON schema over all pipeline stages.

A config file is one JSON object whose sections are the fields of
ExperimentConfig: run, source, memories, analyzers, detectors, tdc and
duty_cycle.  Only `run` (with its seed) is mandatory; everything else
defaults to the nominal operating point.

Each section's dataclass is the only statement of its schema: the JSON keys
are its field names, a key is required exactly when its field has no default
(plus `run` and `run.seed`), and the field's type picks the reader (integer,
finite number, string, nested section, per-channel map, or echo-delay list).
Any other key, any value of the wrong type and any NaN or infinity is an
error carrying the full key path, so typos cannot silently turn into
defaults.  `config_to_dict` walks the same fields back out.

memories, analyzers and detectors map each channel of events.CHANNELS to its
arm's section; in JSON the channel's key is its name in lower case
(`memories.signal_794`).  A memory is given either by explicit recall
parameters (device_efficiency, mean_od, echo_delays) or by a `comb` object,
from whose spectrum the recall model is derived.  Each MemorySpec builds its
model once, when constructed, so a bad memory fails at load time with its key
path.  `efficiency_scale` multiplies the device efficiency, for
statistics-boosted runs that keep the configured echo structure.  Analyzer
modes are the tokens `time_of_arrival` and `interferometer` (the values of
detection.MODE_*); `phase` is for the interferometer only.
"""

from __future__ import annotations

import json
import sys
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from functools import cache
from pathlib import Path

from .detection import (
    DEFAULT_PEAK_HALFWIDTH_PS,
    MODE_TIME_OF_ARRIVAL,
    AnalyzerSetting,
    DetectorConfig,
)
from .errors import ConfigError
from .events import CHANNELS
from .memory import CombSpectrum, MemoryConfig, build_comb, device_efficiency
from .source import SourceConfig

_REQUIRED = {"run", "run.seed"}  # required although their fields have defaults


@dataclass(frozen=True)
class RunConfig:
    """How much to simulate and from which master seed (no wall-clock default)."""

    cycles: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.cycles, int) or isinstance(self.cycles, bool) or self.cycles < 1:
            raise ValueError("cycles must be a positive integer")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError("seed must be an integer")


@dataclass(frozen=True)
class DutyCycleConfig:
    """Memory preparation timing; affects duty-normalized rates only."""

    burn_ms: float = 500.0
    wait_ms: float = 200.0
    storage_ms: float = 700.0

    def __post_init__(self):
        for name in ("burn_ms", "wait_ms", "storage_ms"):
            if not 0.0 <= getattr(self, name) < float("inf"):
                raise ValueError(f"{name} must be finite and nonnegative")
        if self.storage_ms <= 0.0:
            raise ValueError("storage_ms must be positive")

    @property
    def duty_factor(self) -> float:
        """Fraction of wall-clock time spent storing photons."""
        return self.storage_ms / (self.burn_ms + self.wait_ms + self.storage_ms)


@dataclass(frozen=True)
class TdcConfig:
    """Start-stop histogram binning and the peak-integration halfwidth."""

    bin_width_ps: int = 80
    window_ps: int = 70_000
    peak_halfwidth_ps: int = DEFAULT_PEAK_HALFWIDTH_PS

    def __post_init__(self):
        for name in ("bin_width_ps", "window_ps", "peak_halfwidth_ps"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer number of ps, got {value!r}")
        if self.bin_width_ps <= 0:
            raise ValueError("bin_width_ps must be positive")
        if self.window_ps <= 0 or self.window_ps % self.bin_width_ps != 0:
            raise ValueError("window_ps must be a positive multiple of bin_width_ps")
        if not 0 < self.peak_halfwidth_ps <= self.window_ps:
            raise ValueError("peak_halfwidth_ps must lie in (0, window_ps]")


@dataclass(frozen=True)
class CombSpec:
    """Comb-construction parameters for a memory configured from its spectrum."""

    delta_mhz: float
    finesse: float
    background_od: float
    tooth_od: float
    bandwidth_ghz: float
    grid_step_mhz: float
    modulation_depth: float = 0.0

    def build(self) -> CombSpectrum:
        return build_comb(**asdict(self))


@dataclass(frozen=True)
class MemorySpec:
    """One memory, given either directly or through comb parameters.

    Construction builds the recall model once, as the attribute `model`; it
    is not a field, so the schema and config_to_dict never see it."""

    coupling_efficiency: float
    comb: CombSpec | None = None
    device_efficiency: float | None = None
    mean_od: float | None = None
    echo_delays: tuple[tuple[float, float], ...] | None = None
    efficiency_scale: float = 1.0

    def __post_init__(self):
        direct = [self.device_efficiency, self.mean_od, self.echo_delays]
        has_direct = any(v is not None for v in direct)
        if self.comb is not None and has_direct:
            raise ValueError("give either comb parameters or direct recall parameters, not both")
        if self.efficiency_scale <= 0.0:
            raise ValueError("efficiency_scale must be positive")
        if self.comb is None:
            if not all(v is not None for v in direct):
                raise ValueError(
                    "a memory needs either a comb or all of device_efficiency, "
                    "mean_od and echo_delays"
                )
            object.__setattr__(
                self, "echo_delays", tuple((float(d), float(w)) for d, w in self.echo_delays)
            )
            model = MemoryConfig(
                coupling_efficiency=self.coupling_efficiency,
                device_efficiency=self.device_efficiency * self.efficiency_scale,
                mean_od=self.mean_od,
                echo_delays=self.echo_delays,
            )
        else:
            comb = self.comb
            eta = device_efficiency(comb.background_od, comb.tooth_od, comb.finesse)
            model = MemoryConfig.from_comb(
                comb.build(), self.coupling_efficiency, eta * self.efficiency_scale
            )
        object.__setattr__(self, "model", model)


@dataclass(frozen=True)
class ExperimentConfig:
    """Every knob of one simulated run, validated at construction.

    The fields are the JSON sections.  Each per-channel map is stored as a
    copy in CHANNELS order; analyzers and detectors take the default section
    for a channel not given, and a channel without a memory passes photons
    straight through."""

    run: RunConfig = field(default_factory=RunConfig)
    source: SourceConfig = field(default_factory=SourceConfig)
    memories: dict[str, MemorySpec] = field(default_factory=dict)
    analyzers: dict[str, AnalyzerSetting] = field(default_factory=dict)
    detectors: dict[str, DetectorConfig] = field(default_factory=dict)
    tdc: TdcConfig = field(default_factory=TdcConfig)
    duty_cycle: DutyCycleConfig = field(default_factory=DutyCycleConfig)

    def __post_init__(self):
        defaults = {"memories": None, "analyzers": AnalyzerSetting(), "detectors": DetectorConfig()}
        for name, default in defaults.items():
            given = getattr(self, name)
            for channel in given:
                if channel not in CHANNELS:
                    raise ValueError(f"{name}: unknown channel {channel!r}")
            filled = {ch: given.get(ch) or default for ch in CHANNELS}
            object.__setattr__(self, name, {ch: v for ch, v in filled.items() if v is not None})

    def memory_config(self, channel: str) -> MemoryConfig | None:
        spec = self.memories.get(channel)
        return None if spec is None else spec.model


# ---------------------------------------------------------------------------
# Strict schema parsing


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    return value


def _check_keys(mapping: dict, allowed, path: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown key: {path}.{key}" if path else f"unknown key: {key}")


def _build(path: str, factory, **kwargs):
    """Construct a component, rewrapping invariant violations with the path."""
    try:
        return factory(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


@cache
def _field_types(cls) -> dict:
    """Field name -> reader type, with `X | None` narrowed to X."""
    out = {}
    for name, hint in typing.get_type_hints(cls).items():
        args = typing.get_args(hint)
        out[name] = args[0] if type(None) in args else hint
    return out


def _read_number(value, path: str) -> float:
    # abs(v) <= max is False for NaN and infinities, and exact for huge ints.
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        abs(value) <= sys.float_info.max
    ):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return float(value)


def _read_echo_delays(value, path: str) -> tuple:
    if not isinstance(value, list) or not all(
        isinstance(row, list) and len(row) == 2 for row in value
    ):
        raise ConfigError(f"{path}: expected a list of [delay_ns, weight] pairs")
    return tuple(
        tuple(_read_number(x, f"{path}[{i}][{j}]") for j, x in enumerate(row))
        for i, row in enumerate(value)
    )


def _read_value(kind, value, path: str):
    if is_dataclass(kind):
        return _read_section(kind, value, path)
    if typing.get_origin(kind) is dict:  # a per-channel map
        value = _require_mapping(value, path)
        keys = {ch.lower(): ch for ch in CHANNELS}
        _check_keys(value, keys, path)
        kind = typing.get_args(kind)[1]
        return {keys[k]: _read_section(kind, v, f"{path}.{k}") for k, v in value.items()}
    if kind is float:
        return _read_number(value, path)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return value
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        return value
    return _read_echo_delays(value, path)  # the one tuple field


def _read_section(cls, data, path: str):
    """Read one section into `cls`, walking its dataclass fields."""
    data = _require_mapping(data, path)
    types = _field_types(cls)
    _check_keys(data, types, path)
    kwargs = {}
    for f in fields(cls):
        key = f"{path}.{f.name}" if path else f.name
        if f.name in data:
            kwargs[f.name] = _read_value(types[f.name], data[f.name], key)
        elif key in _REQUIRED or f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{key} is required")
    section = _build(path, cls, **kwargs)
    if cls is AnalyzerSetting and "phase" in kwargs and section.mode == MODE_TIME_OF_ARRIVAL:
        raise ConfigError(f"{path}.phase: only valid for interferometer mode")
    return section


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a validated config from a parsed JSON object (strict schema)."""
    return _read_section(ExperimentConfig, _require_mapping(data, "config"), "")


def load_config(path) -> ExperimentConfig:
    """Read and validate a config file; errors name the offending key path."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# Serialization


def _section_to_dict(section) -> dict:
    out = {}
    for f in fields(section):
        value = getattr(section, f.name)
        if is_dataclass(value):
            out[f.name] = _section_to_dict(value)
        elif isinstance(value, dict):  # a per-channel map; an empty one is left out
            if value:
                out[f.name] = {ch.lower(): _section_to_dict(v) for ch, v in value.items()}
        elif isinstance(value, tuple):
            out[f.name] = [list(row) for row in value]
        elif value is not None:
            out[f.name] = value
    if isinstance(section, MemorySpec) and section.efficiency_scale == 1.0:
        del out["efficiency_scale"]
    if isinstance(section, AnalyzerSetting) and section.mode == MODE_TIME_OF_ARRIVAL:
        del out["phase"]
    return out


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """The full explicit form: every default spelled out."""
    return _section_to_dict(cfg)


def save_config(cfg: ExperimentConfig, path) -> None:
    Path(path).write_text(
        json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
