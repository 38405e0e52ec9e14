"""Experiment configuration: a strict JSON schema over all pipeline stages.

A config file is one JSON object with sections run, source, memories,
analyzers, detectors, tdc and duty_cycle.  Only `run` (with its seed) is
mandatory; everything else defaults to the nominal operating point.  The
schema is strict: any key outside the documented set is an error carrying
the full key path, so typos cannot silently turn into defaults.

Memories are configured per channel under `memories.signal_794` and
`memories.idler_1535`, each either from explicit recall parameters
(device_efficiency, mean_od, echo_delays) or from comb parameters (a `comb`
object), in which case the recall model is derived from the comb's spectrum.
`efficiency_scale` multiplies the device efficiency, for statistics-boosted
runs that keep the configured echo structure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .detection import (
    ANALYZER_MODES,
    DEFAULT_JITTER_FWHM_PS,
    DEFAULT_PEAK_HALFWIDTH_PS,
    FWHM_TO_SIGMA,
    MODE_INTERFEROMETER,
    MODE_TIME_OF_ARRIVAL,
    AnalyzerSetting,
    DetectorConfig,
)
from .errors import ConfigError
from .events import IDLER_1535, SIGNAL_794
from .memory import CombSpectrum, MemoryConfig, build_comb
from .source import SourceConfig

# JSON section keys for the two photon channels.
CHANNEL_KEYS = {"signal_794": SIGNAL_794, "idler_1535": IDLER_1535}

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
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")
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
class AnalyzerSpec:
    """Per-arm analyzer choice as written in the config file."""

    mode: str = MODE_TIME_OF_ARRIVAL
    phase: float = 0.0

    def __post_init__(self):
        if self.mode not in ANALYZER_MODES:
            raise ValueError(f"unknown analyzer mode {self.mode!r}")

    def to_setting(self) -> AnalyzerSetting:
        if self.mode == MODE_TIME_OF_ARRIVAL:
            return AnalyzerSetting.time_of_arrival()
        return AnalyzerSetting.interferometer(self.phase)


@dataclass(frozen=True)
class DetectorSpec:
    """Detector parameters with the jitter quoted as FWHM, as in datasheets."""

    efficiency: float = 0.70
    jitter_fwhm_ps: float = DEFAULT_JITTER_FWHM_PS
    dark_rate_hz: float = 100.0

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in [0, 1]")
        if self.jitter_fwhm_ps < 0.0:
            raise ValueError("jitter_fwhm_ps must be nonnegative")
        if self.dark_rate_hz < 0.0:
            raise ValueError("dark_rate_hz must be nonnegative")

    def to_config(self) -> DetectorConfig:
        return DetectorConfig(
            efficiency=self.efficiency,
            jitter_sigma_ps=self.jitter_fwhm_ps / FWHM_TO_SIGMA,
            dark_rate_hz=self.dark_rate_hz,
        )


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
        return build_comb(
            self.delta_mhz,
            self.finesse,
            self.background_od,
            self.tooth_od,
            self.bandwidth_ghz,
            self.grid_step_mhz,
            self.modulation_depth,
        )


@dataclass(frozen=True)
class MemorySpec:
    """One memory, given either directly or through comb parameters."""

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
        if self.comb is None:
            if not all(v is not None for v in direct):
                raise ValueError(
                    "a memory needs either a comb or all of device_efficiency, "
                    "mean_od and echo_delays"
                )
            object.__setattr__(
                self, "echo_delays", tuple((float(d), float(w)) for d, w in self.echo_delays)
            )
        if self.efficiency_scale <= 0.0:
            raise ValueError("efficiency_scale must be positive")

    def build(self) -> MemoryConfig:
        if self.comb is not None:
            base = MemoryConfig.from_comb(self.comb.build(), self.coupling_efficiency)
            if self.efficiency_scale == 1.0:
                return base
            return MemoryConfig(
                coupling_efficiency=base.coupling_efficiency,
                device_efficiency=base.device_efficiency * self.efficiency_scale,
                mean_od=base.mean_od,
                echo_delays=base.echo_delays,
                comb=base.comb,
            )
        return MemoryConfig(
            coupling_efficiency=self.coupling_efficiency,
            device_efficiency=self.device_efficiency * self.efficiency_scale,
            mean_od=self.mean_od,
            echo_delays=self.echo_delays,
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """Every knob of one simulated run, validated at construction."""

    run: RunConfig = field(default_factory=RunConfig)
    source: SourceConfig = field(default_factory=SourceConfig)
    memory_794: MemorySpec | None = None
    memory_1535: MemorySpec | None = None
    analyzer_794: AnalyzerSpec = field(default_factory=AnalyzerSpec)
    analyzer_1535: AnalyzerSpec = field(default_factory=AnalyzerSpec)
    detector_794: DetectorSpec = field(default_factory=DetectorSpec)
    detector_1535: DetectorSpec = field(default_factory=DetectorSpec)
    tdc: TdcConfig = field(default_factory=TdcConfig)
    duty_cycle: DutyCycleConfig = field(default_factory=DutyCycleConfig)

    def _per_channel(self, prefix: str, channel: str):
        if channel == SIGNAL_794:
            return getattr(self, f"{prefix}_794")
        if channel == IDLER_1535:
            return getattr(self, f"{prefix}_1535")
        raise ValueError(f"unknown channel {channel!r}")

    def analyzer_setting(self, channel: str) -> AnalyzerSetting:
        return self._per_channel("analyzer", channel).to_setting()

    def detector_config(self, channel: str) -> DetectorConfig:
        return self._per_channel("detector", channel).to_config()

    def memory_config(self, channel: str) -> MemoryConfig | None:
        spec = self._per_channel("memory", channel)
        return None if spec is None else spec.build()


# ---------------------------------------------------------------------------
# Strict schema parsing


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    return value


def _check_keys(mapping: dict, allowed: set[str], path: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown key: {path}.{key}" if path else f"unknown key: {key}")


def _get_int(mapping: dict, key: str, path: str, default=None):
    if key not in mapping:
        if default is None:
            raise ConfigError(f"{path}.{key} is required")
        return default
    value = mapping[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{path}.{key}: expected an integer, got {value!r}")
    return value


def _get_float(mapping: dict, key: str, path: str, default=None):
    if key not in mapping:
        return default
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {value!r}")
    return float(value)


def _get_str(mapping: dict, key: str, path: str, default=None):
    if key not in mapping:
        return default
    value = mapping[key]
    if not isinstance(value, str):
        raise ConfigError(f"{path}.{key}: expected a string, got {value!r}")
    return value


def _build(path: str, factory, **kwargs):
    """Construct a component, rewrapping invariant violations with the path."""
    try:
        return factory(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_run(section: dict) -> RunConfig:
    _check_keys(section, {"cycles", "seed"}, "run")
    seed = _get_int(section, "seed", "run")
    cycles = _get_int(section, "cycles", "run", default=RunConfig.cycles)
    return _build("run", RunConfig, cycles=cycles, seed=seed)


def _parse_source(section: dict) -> SourceConfig:
    path = "source"
    allowed = {
        "mean_pairs_per_pulse",
        "rep_period_ps",
        "bin_separation_ps",
        "pump_mode",
        "pump_phase",
        "depolarizing_noise",
    }
    _check_keys(section, allowed, path)
    defaults = SourceConfig()
    return _build(
        path,
        SourceConfig,
        mean_pairs_per_pulse=_get_float(
            section, "mean_pairs_per_pulse", path, defaults.mean_pairs_per_pulse
        ),
        rep_period_ps=_get_int(section, "rep_period_ps", path, defaults.rep_period_ps),
        bin_separation_ps=_get_int(
            section, "bin_separation_ps", path, defaults.bin_separation_ps
        ),
        pump_mode=_get_str(section, "pump_mode", path, defaults.pump_mode),
        pump_phase=_get_float(section, "pump_phase", path, defaults.pump_phase),
        depolarizing_noise=_get_float(
            section, "depolarizing_noise", path, defaults.depolarizing_noise
        ),
    )


def _parse_comb(section: dict, path: str) -> CombSpec:
    allowed = {
        "delta_mhz",
        "finesse",
        "background_od",
        "tooth_od",
        "bandwidth_ghz",
        "grid_step_mhz",
        "modulation_depth",
    }
    _check_keys(section, allowed, path)
    for key in allowed - {"modulation_depth"}:
        if key not in section:
            raise ConfigError(f"{path}.{key} is required")
    return _build(
        path,
        CombSpec,
        delta_mhz=_get_float(section, "delta_mhz", path),
        finesse=_get_float(section, "finesse", path),
        background_od=_get_float(section, "background_od", path),
        tooth_od=_get_float(section, "tooth_od", path),
        bandwidth_ghz=_get_float(section, "bandwidth_ghz", path),
        grid_step_mhz=_get_float(section, "grid_step_mhz", path),
        modulation_depth=_get_float(section, "modulation_depth", path, 0.0),
    )


def _parse_memory(section: dict, path: str) -> MemorySpec:
    allowed = {
        "coupling_efficiency",
        "comb",
        "device_efficiency",
        "mean_od",
        "echo_delays",
        "efficiency_scale",
    }
    _check_keys(section, allowed, path)
    if "coupling_efficiency" not in section:
        raise ConfigError(f"{path}.coupling_efficiency is required")
    comb = None
    if "comb" in section:
        comb = _parse_comb(_require_mapping(section["comb"], f"{path}.comb"), f"{path}.comb")
    echo_delays = None
    if "echo_delays" in section:
        raw = section["echo_delays"]
        if not isinstance(raw, list) or not all(
            isinstance(row, list) and len(row) == 2 for row in raw
        ):
            raise ConfigError(f"{path}.echo_delays: expected a list of [delay_ns, weight] pairs")
        echo_delays = tuple((float(d), float(w)) for d, w in raw)
    spec = _build(
        path,
        MemorySpec,
        coupling_efficiency=_get_float(section, "coupling_efficiency", path),
        comb=comb,
        device_efficiency=_get_float(section, "device_efficiency", path),
        mean_od=_get_float(section, "mean_od", path),
        echo_delays=echo_delays,
        efficiency_scale=_get_float(section, "efficiency_scale", path, 1.0),
    )
    # Surface recall-model invariant violations (probabilities, weights) now,
    # with the config path, not later inside the harness.
    _build(path, spec.build)
    return spec


def _parse_analyzer(section: dict, path: str) -> AnalyzerSpec:
    _check_keys(section, {"mode", "phase"}, path)
    token = _get_str(section, "mode", path, "time_of_arrival")
    if token not in _MODE_TOKENS:
        raise ConfigError(
            f"{path}.mode: expected one of {sorted(_MODE_TOKENS)}, got {token!r}"
        )
    mode = _MODE_TOKENS[token]
    if mode == MODE_TIME_OF_ARRIVAL and "phase" in section:
        raise ConfigError(f"{path}.phase: only valid for interferometer mode")
    return _build(
        path, AnalyzerSpec, mode=mode, phase=_get_float(section, "phase", path, 0.0)
    )


def _parse_detector(section: dict, path: str) -> DetectorSpec:
    _check_keys(section, {"efficiency", "jitter_fwhm_ps", "dark_rate_hz"}, path)
    defaults = DetectorSpec()
    return _build(
        path,
        DetectorSpec,
        efficiency=_get_float(section, "efficiency", path, defaults.efficiency),
        jitter_fwhm_ps=_get_float(section, "jitter_fwhm_ps", path, defaults.jitter_fwhm_ps),
        dark_rate_hz=_get_float(section, "dark_rate_hz", path, defaults.dark_rate_hz),
    )


def _parse_tdc(section: dict) -> TdcConfig:
    path = "tdc"
    _check_keys(section, {"bin_width_ps", "window_ps", "peak_halfwidth_ps"}, path)
    defaults = TdcConfig()
    return _build(
        path,
        TdcConfig,
        bin_width_ps=_get_int(section, "bin_width_ps", path, defaults.bin_width_ps),
        window_ps=_get_int(section, "window_ps", path, defaults.window_ps),
        peak_halfwidth_ps=_get_int(
            section, "peak_halfwidth_ps", path, defaults.peak_halfwidth_ps
        ),
    )


def _parse_duty(section: dict) -> DutyCycleConfig:
    path = "duty_cycle"
    _check_keys(section, {"burn_ms", "wait_ms", "storage_ms"}, path)
    defaults = DutyCycleConfig()
    return _build(
        path,
        DutyCycleConfig,
        burn_ms=_get_float(section, "burn_ms", path, defaults.burn_ms),
        wait_ms=_get_float(section, "wait_ms", path, defaults.wait_ms),
        storage_ms=_get_float(section, "storage_ms", path, defaults.storage_ms),
    )


def _parse_per_channel(section: dict, path: str, parser):
    _check_keys(section, set(CHANNEL_KEYS), path)
    out = {}
    for key in CHANNEL_KEYS:
        if key in section:
            out[key] = parser(
                _require_mapping(section[key], f"{path}.{key}"), f"{path}.{key}"
            )
    return out


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a validated config from a parsed JSON object (strict schema)."""
    data = _require_mapping(data, "config")
    top = {"run", "source", "memories", "analyzers", "detectors", "tdc", "duty_cycle"}
    _check_keys(data, top, "")
    if "run" not in data:
        raise ConfigError("run section is required (run.seed has no default)")

    run = _parse_run(_require_mapping(data["run"], "run"))
    source = _parse_source(_require_mapping(data.get("source", {}), "source"))
    memories = _parse_per_channel(
        _require_mapping(data.get("memories", {}), "memories"), "memories", _parse_memory
    )
    analyzers = _parse_per_channel(
        _require_mapping(data.get("analyzers", {}), "analyzers"), "analyzers", _parse_analyzer
    )
    detectors = _parse_per_channel(
        _require_mapping(data.get("detectors", {}), "detectors"), "detectors", _parse_detector
    )
    tdc = _parse_tdc(_require_mapping(data.get("tdc", {}), "tdc"))
    duty = _parse_duty(_require_mapping(data.get("duty_cycle", {}), "duty_cycle"))

    return ExperimentConfig(
        run=run,
        source=source,
        memory_794=memories.get("signal_794"),
        memory_1535=memories.get("idler_1535"),
        analyzer_794=analyzers.get("signal_794", AnalyzerSpec()),
        analyzer_1535=analyzers.get("idler_1535", AnalyzerSpec()),
        detector_794=detectors.get("signal_794", DetectorSpec()),
        detector_1535=detectors.get("idler_1535", DetectorSpec()),
        tdc=tdc,
        duty_cycle=duty,
    )


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


def _memory_to_dict(spec: MemorySpec) -> dict:
    out: dict = {"coupling_efficiency": spec.coupling_efficiency}
    if spec.comb is not None:
        out["comb"] = {
            "delta_mhz": spec.comb.delta_mhz,
            "finesse": spec.comb.finesse,
            "background_od": spec.comb.background_od,
            "tooth_od": spec.comb.tooth_od,
            "bandwidth_ghz": spec.comb.bandwidth_ghz,
            "grid_step_mhz": spec.comb.grid_step_mhz,
            "modulation_depth": spec.comb.modulation_depth,
        }
    else:
        out["device_efficiency"] = spec.device_efficiency
        out["mean_od"] = spec.mean_od
        out["echo_delays"] = [[d, w] for d, w in spec.echo_delays]
    if spec.efficiency_scale != 1.0:
        out["efficiency_scale"] = spec.efficiency_scale
    return out


def _analyzer_to_dict(spec: AnalyzerSpec) -> dict:
    out = {"mode": _TOKEN_OF_MODE[spec.mode]}
    if spec.mode == MODE_INTERFEROMETER:
        out["phase"] = spec.phase
    return out


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """The full explicit form: every default spelled out."""
    out: dict = {
        "run": {"cycles": cfg.run.cycles, "seed": cfg.run.seed},
        "source": {
            "mean_pairs_per_pulse": cfg.source.mean_pairs_per_pulse,
            "rep_period_ps": cfg.source.rep_period_ps,
            "bin_separation_ps": cfg.source.bin_separation_ps,
            "pump_mode": cfg.source.pump_mode,
            "pump_phase": cfg.source.pump_phase,
            "depolarizing_noise": cfg.source.depolarizing_noise,
        },
        "analyzers": {
            "signal_794": _analyzer_to_dict(cfg.analyzer_794),
            "idler_1535": _analyzer_to_dict(cfg.analyzer_1535),
        },
        "detectors": {
            "signal_794": {
                "efficiency": cfg.detector_794.efficiency,
                "jitter_fwhm_ps": cfg.detector_794.jitter_fwhm_ps,
                "dark_rate_hz": cfg.detector_794.dark_rate_hz,
            },
            "idler_1535": {
                "efficiency": cfg.detector_1535.efficiency,
                "jitter_fwhm_ps": cfg.detector_1535.jitter_fwhm_ps,
                "dark_rate_hz": cfg.detector_1535.dark_rate_hz,
            },
        },
        "tdc": {
            "bin_width_ps": cfg.tdc.bin_width_ps,
            "window_ps": cfg.tdc.window_ps,
            "peak_halfwidth_ps": cfg.tdc.peak_halfwidth_ps,
        },
        "duty_cycle": {
            "burn_ms": cfg.duty_cycle.burn_ms,
            "wait_ms": cfg.duty_cycle.wait_ms,
            "storage_ms": cfg.duty_cycle.storage_ms,
        },
    }
    memories = {}
    if cfg.memory_794 is not None:
        memories["signal_794"] = _memory_to_dict(cfg.memory_794)
    if cfg.memory_1535 is not None:
        memories["idler_1535"] = _memory_to_dict(cfg.memory_1535)
    if memories:
        out["memories"] = memories
    return out


def save_config(cfg: ExperimentConfig, path) -> None:
    Path(path).write_text(
        json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
