"""Experiment configuration: a strict JSON schema over all pipeline stages.

A config file is one JSON object with sections run, source, memories,
analyzers, detectors, tdc and duty_cycle.  Only `run` (with its seed) is
mandatory; everything else defaults to the nominal operating point.

Each section's dataclass is the only statement of its schema: the JSON keys
are its field names, a key is required exactly when its field has no default
(plus `run.seed`), and the field's type picks the reader (integer, finite
number, string, nested comb, or echo-delay list).  Any other key, any value
of the wrong type and any NaN or infinity is an error carrying the full key
path, so typos cannot silently turn into defaults.  `config_to_dict` walks
the same fields back out.

Memories are configured per channel under `memories.signal_794` and
`memories.idler_1535`, each either from explicit recall parameters
(device_efficiency, mean_od, echo_delays) or from comb parameters (a `comb`
object), in which case the recall model is derived from the comb's spectrum.
Each MemorySpec builds its recall model once, when it is constructed, so a
bad memory fails at load time with its key path, and
ExperimentConfig.memory_config hands back the same model on every call.
`efficiency_scale` multiplies the device efficiency, for statistics-boosted
runs that keep the configured echo structure.  Analyzers take `mode`
(`time_of_arrival` or `interferometer`) and, for the interferometer, `phase`.
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
    MODE_INTERFEROMETER,
    MODE_TIME_OF_ARRIVAL,
    AnalyzerSetting,
    DetectorConfig,
)
from .errors import ConfigError
from .events import IDLER_1535, SIGNAL_794
from .memory import CombSpectrum, MemoryConfig, build_comb, device_efficiency
from .source import SourceConfig

# Sections read into the ExperimentConfig field of the same name.
_SECTIONS = ("run", "source", "tdc", "duty_cycle")
# Per-channel sections -> ExperimentConfig field prefix; JSON channel key ->
# field suffix, so memories.signal_794 is read into memory_794.
_PER_CHANNEL = {"memories": "memory", "analyzers": "analyzer", "detectors": "detector"}
_SUFFIX = {"signal_794": "794", "idler_1535": "1535"}
_REQUIRED = {"run.seed"}  # required although RunConfig gives it a default

_MODE_TOKENS = {
    "time_of_arrival": MODE_TIME_OF_ARRIVAL,
    "interferometer": MODE_INTERFEROMETER,
}
_TOKEN_OF_MODE = {v: k for k, v in _MODE_TOKENS.items()}


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
    """Every knob of one simulated run, validated at construction."""

    run: RunConfig = field(default_factory=RunConfig)
    source: SourceConfig = field(default_factory=SourceConfig)
    memory_794: MemorySpec | None = None
    memory_1535: MemorySpec | None = None
    analyzer_794: AnalyzerSetting = field(default_factory=AnalyzerSetting)
    analyzer_1535: AnalyzerSetting = field(default_factory=AnalyzerSetting)
    detector_794: DetectorConfig = field(default_factory=DetectorConfig)
    detector_1535: DetectorConfig = field(default_factory=DetectorConfig)
    tdc: TdcConfig = field(default_factory=TdcConfig)
    duty_cycle: DutyCycleConfig = field(default_factory=DutyCycleConfig)

    def _per_channel(self, prefix: str, channel: str):
        if channel == SIGNAL_794:
            return getattr(self, f"{prefix}_794")
        if channel == IDLER_1535:
            return getattr(self, f"{prefix}_1535")
        raise ValueError(f"unknown channel {channel!r}")

    def analyzer_setting(self, channel: str) -> AnalyzerSetting:
        return self._per_channel("analyzer", channel)

    def detector_config(self, channel: str) -> DetectorConfig:
        return self._per_channel("detector", channel)

    def memory_config(self, channel: str) -> MemoryConfig | None:
        spec = self._per_channel("memory", channel)
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
        key = f"{path}.{f.name}"
        if f.name in data:
            kwargs[f.name] = _read_value(types[f.name], data[f.name], key)
        elif key in _REQUIRED or f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{key} is required")
    if cls is AnalyzerSetting:
        token = kwargs.get("mode", "time_of_arrival")
        if token not in _MODE_TOKENS:
            raise ConfigError(
                f"{path}.mode: expected one of {sorted(_MODE_TOKENS)}, got {token!r}"
            )
        kwargs["mode"] = _MODE_TOKENS[token]
        if kwargs["mode"] == MODE_TIME_OF_ARRIVAL and "phase" in kwargs:
            raise ConfigError(f"{path}.phase: only valid for interferometer mode")
    return _build(path, cls, **kwargs)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a validated config from a parsed JSON object (strict schema)."""
    data = _require_mapping(data, "config")
    _check_keys(data, {*_SECTIONS, *_PER_CHANNEL}, "")
    if "run" not in data:
        raise ConfigError("run section is required (run.seed has no default)")
    types = _field_types(ExperimentConfig)
    kwargs = {name: _read_section(types[name], data.get(name, {}), name) for name in _SECTIONS}
    for section, prefix in _PER_CHANNEL.items():
        channels = _require_mapping(data.get(section, {}), section)
        _check_keys(channels, _SUFFIX, section)
        for key, suffix in _SUFFIX.items():
            if key in channels:
                name = f"{prefix}_{suffix}"
                kwargs[name] = _read_section(types[name], channels[key], f"{section}.{key}")
    return ExperimentConfig(**kwargs)


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
        elif isinstance(value, tuple):
            out[f.name] = [list(row) for row in value]
        elif value is not None:
            out[f.name] = value
    if isinstance(section, MemorySpec) and section.efficiency_scale == 1.0:
        del out["efficiency_scale"]
    if isinstance(section, AnalyzerSetting):
        out["mode"] = _TOKEN_OF_MODE[section.mode]
        if section.mode == MODE_TIME_OF_ARRIVAL:
            del out["phase"]
    return out


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """The full explicit form: every default spelled out."""
    out = {name: _section_to_dict(getattr(cfg, name)) for name in _SECTIONS}
    for section, prefix in _PER_CHANNEL.items():
        channels = {
            key: _section_to_dict(spec)
            for key, suffix in _SUFFIX.items()
            if (spec := getattr(cfg, f"{prefix}_{suffix}")) is not None
        }
        if channels:
            out[section] = channels
    return out


def save_config(cfg: ExperimentConfig, path) -> None:
    Path(path).write_text(
        json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
