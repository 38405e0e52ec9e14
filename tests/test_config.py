"""Tests for experiment configuration loading, validation and round trips.

The schema is strict: unknown keys are rejected with their full key path so
a typo in a physics parameter cannot silently fall back to a default.
"""

import json
import math
import re
import typing
from dataclasses import MISSING, fields, is_dataclass, replace
from pathlib import Path

import pytest

from afclink import config
from afclink.config import (
    CombSpec,
    DutyCycleConfig,
    ExperimentConfig,
    MemorySpec,
    RunConfig,
    TdcConfig,
    load_config,
    save_config,
)
from afclink.detection import (
    MODE_INTERFEROMETER,
    MODE_TIME_OF_ARRIVAL,
    AnalyzerSetting,
    DetectorConfig,
)
from afclink.errors import ConfigError
from afclink.events import CHANNELS, IDLER_1535, SIGNAL_794
from afclink.harness import chsh_simulation, simulate
from afclink.memory import MemoryConfig, build_comb, device_efficiency
from afclink.source import PUMP_EARLY_ONLY, SourceConfig

ROOT = Path(__file__).resolve().parents[1]


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


MINIMAL = {"run": {"seed": 7}, "source": {"mean_pairs_per_pulse": 0.016}}


class TestLoadDefaults:
    def test_minimal_config_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        assert cfg.run.seed == 7
        assert cfg.run.cycles == 100_000
        assert cfg.source.mean_pairs_per_pulse == pytest.approx(0.016)
        assert cfg.source.rep_period_ps == 12_500
        assert cfg.tdc.bin_width_ps == 80
        assert cfg.tdc.window_ps == 70_000
        assert cfg.tdc.peak_halfwidth_ps == 500
        assert cfg.detectors[SIGNAL_794].jitter_fwhm_ps == pytest.approx(250.0)
        assert cfg.detectors[IDLER_1535].jitter_fwhm_ps == pytest.approx(250.0)
        assert cfg.analyzers[SIGNAL_794].mode == MODE_TIME_OF_ARRIVAL
        assert cfg.memories == {}
        assert cfg.memory_config(SIGNAL_794) is None
        assert cfg.memory_config(IDLER_1535) is None

    def test_jitter_conversion_to_sigma(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        assert cfg.detectors[SIGNAL_794].jitter_sigma_ps == pytest.approx(
            250.0 / 2.355
        )

    def test_duty_cycle_default_factor(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        # 700 ms of storage per 500 + 200 + 700 ms cycle.
        assert cfg.duty_cycle.duty_factor == pytest.approx(700.0 / 1400.0)

    def test_seed_is_mandatory(self, tmp_path):
        with pytest.raises(ConfigError, match="run.seed"):
            load_config(write_config(tmp_path, {"run": {"cycles": 10}}))

    def test_run_section_is_mandatory(self, tmp_path):
        with pytest.raises(ConfigError, match="run"):
            load_config(write_config(tmp_path, {"source": {}}))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="nope.json"):
            load_config(tmp_path / "nope.json")

    def test_unparseable_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)


class TestStrictSchema:
    def test_unknown_top_level_key(self, tmp_path):
        payload = dict(MINIMAL, extra_section={})
        with pytest.raises(ConfigError, match="extra_section"):
            load_config(write_config(tmp_path, payload))

    def test_unknown_nested_key_names_path(self, tmp_path):
        payload = {"run": {"seed": 1}, "source": {"meen_pairs_per_pulse": 0.01}}
        with pytest.raises(ConfigError, match=r"source\.meen_pairs_per_pulse"):
            load_config(write_config(tmp_path, payload))

    def test_unknown_detector_key_names_full_path(self, tmp_path):
        payload = {
            "run": {"seed": 1},
            "detectors": {"signal_794": {"effciency": 0.5}},
        }
        with pytest.raises(ConfigError, match=r"detectors\.signal_794\.effciency"):
            load_config(write_config(tmp_path, payload))

    def test_wrong_type_names_key(self, tmp_path):
        payload = {"run": {"seed": "tuesday"}}
        with pytest.raises(ConfigError, match="run.seed"):
            load_config(write_config(tmp_path, payload))

    def test_negative_seed_names_key(self, tmp_path):
        # numpy seeds are non-negative: the loader says so, not numpy.
        payload = {"run": {"seed": -1}}
        with pytest.raises(ConfigError, match="^run: seed must be a non-negative integer$"):
            load_config(write_config(tmp_path, payload))

    def test_invariant_violation_names_section(self, tmp_path):
        payload = {
            "run": {"seed": 1},
            "source": {"rep_period_ps": 2_500, "bin_separation_ps": 1_400},
        }
        with pytest.raises(ConfigError, match="source"):
            load_config(write_config(tmp_path, payload))

    def test_section_must_be_mapping(self, tmp_path):
        payload = {"run": [1, 2]}
        with pytest.raises(ConfigError, match="run"):
            load_config(write_config(tmp_path, payload))


class TestMemorySpecs:
    def comb_payload(self):
        return {
            "run": {"seed": 3},
            "memories": {
                "signal_794": {
                    "coupling_efficiency": 0.2,
                    "comb": {
                        "delta_mhz": 31.0,
                        "finesse": 2.0,
                        "background_od": 0.0,
                        "tooth_od": 2.0,
                        "bandwidth_ghz": 10.0,
                        "grid_step_mhz": 1.0,
                    },
                }
            },
        }

    def test_comb_variant_builds_memory(self, tmp_path):
        cfg = load_config(write_config(tmp_path, self.comb_payload()))
        mem = cfg.memory_config("SIGNAL_794")
        assert mem is not None
        assert mem.coupling_efficiency == pytest.approx(0.2)
        assert mem.device_efficiency == pytest.approx(device_efficiency(0.0, 2.0, 2.0), rel=1e-9)
        primary = mem.echo_delays[mem.primary_echo_index]
        assert primary[0] == pytest.approx(1000.0 / 31.0, abs=0.2)
        assert cfg.memory_config("IDLER_1535") is None

    def test_direct_variant(self, tmp_path):
        payload = {
            "run": {"seed": 3},
            "memories": {
                "idler_1535": {
                    "coupling_efficiency": 1.0,
                    "device_efficiency": 0.001,
                    "mean_od": 0.5,
                    "echo_delays": [[6.02, 1.0]],
                }
            },
        }
        cfg = load_config(write_config(tmp_path, payload))
        mem = cfg.memory_config("IDLER_1535")
        assert mem.device_efficiency == pytest.approx(0.001)
        assert mem.echo_delays == ((6.02, 1.0),)

    def test_efficiency_scale(self, tmp_path):
        payload = {
            "run": {"seed": 3},
            "memories": {
                "idler_1535": {
                    "coupling_efficiency": 1.0,
                    "device_efficiency": 0.001,
                    "mean_od": 2.3,
                    "echo_delays": [[6.02, 1.0]],
                    "efficiency_scale": 100.0,
                }
            },
        }
        cfg = load_config(write_config(tmp_path, payload))
        assert cfg.memory_config("IDLER_1535").device_efficiency == pytest.approx(0.1)

    def test_comb_and_direct_together_rejected(self, tmp_path):
        payload = self.comb_payload()
        payload["memories"]["signal_794"]["device_efficiency"] = 0.1
        with pytest.raises(ConfigError, match="signal_794"):
            load_config(write_config(tmp_path, payload))

    def test_neither_variant_rejected(self, tmp_path):
        payload = {
            "run": {"seed": 3},
            "memories": {"signal_794": {"coupling_efficiency": 0.2}},
        }
        with pytest.raises(ConfigError, match="signal_794"):
            load_config(write_config(tmp_path, payload))

    def test_bad_memory_invariant_names_path(self, tmp_path):
        payload = {
            "run": {"seed": 3},
            "memories": {
                "signal_794": {
                    "coupling_efficiency": 1.5,
                    "device_efficiency": 0.001,
                    "mean_od": 0.0,
                    "echo_delays": [[6.02, 1.0]],
                }
            },
        }
        with pytest.raises(ConfigError, match=r"memories\.signal_794"):
            load_config(write_config(tmp_path, payload))

    def test_bad_comb_model_names_path(self, tmp_path):
        # The comb builds fine, but scaling its efficiency past 1 breaks the
        # recall model built from it.
        payload = self.comb_payload()
        payload["memories"]["signal_794"]["efficiency_scale"] = 1000.0
        with pytest.raises(
            ConfigError, match=r"^memories\.signal_794: device efficiency must lie in \[0, 1\]"
        ):
            load_config(write_config(tmp_path, payload))

    def test_each_memory_built_once(self, monkeypatch):
        # Loading demo.json builds its two comb memories; a simulation and a
        # CHSH simulation (eight runs) reuse them.
        calls = []

        def counting_build_comb(**kwargs):
            calls.append(kwargs["delta_mhz"])
            return build_comb(**kwargs)

        monkeypatch.setattr(config, "build_comb", counting_build_comb)
        cfg = load_config(ROOT / "configs" / "demo.json")
        assert calls == [31.0, 166.0]
        for ch in ("SIGNAL_794", "IDLER_1535"):
            assert cfg.memory_config(ch) is cfg.memory_config(ch)
        small = replace(cfg, run=replace(cfg.run, cycles=300_000))
        simulate(small)
        chsh_simulation(small)
        assert calls == [31.0, 166.0]


class TestAnalyzers:
    def test_interferometer_phase(self, tmp_path):
        payload = {
            "run": {"seed": 3},
            "analyzers": {
                "signal_794": {"mode": "interferometer", "phase": 0.25},
                "idler_1535": {"mode": "interferometer", "phase": -0.5},
            },
        }
        cfg = load_config(write_config(tmp_path, payload))
        setting = cfg.analyzers[SIGNAL_794]
        assert setting.mode == MODE_INTERFEROMETER
        assert setting.phase == pytest.approx(0.25)
        assert cfg.analyzers[IDLER_1535].phase == pytest.approx(-0.5)

    def test_phase_rejected_for_time_of_arrival(self, tmp_path):
        payload = {
            "run": {"seed": 3},
            "analyzers": {"signal_794": {"mode": "time_of_arrival", "phase": 0.2}},
        }
        with pytest.raises(ConfigError, match=r"analyzers\.signal_794\.phase"):
            load_config(write_config(tmp_path, payload))

    def test_unknown_mode(self, tmp_path):
        payload = {
            "run": {"seed": 3},
            "analyzers": {"signal_794": {"mode": "polarizing"}},
        }
        with pytest.raises(ConfigError, match=r"^analyzers\.signal_794: mode") as err:
            load_config(write_config(tmp_path, payload))
        for token in ("time_of_arrival", "interferometer", "polarizing"):
            assert token in str(err.value)

    def test_mode_constants_are_the_tokens(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {
            "run": {"seed": 3},
            "analyzers": {"idler_1535": {"mode": MODE_INTERFEROMETER, "phase": 0.1}},
        }))
        assert cfg.analyzers[IDLER_1535] == AnalyzerSetting.interferometer(0.1)
        assert cfg.analyzers[SIGNAL_794] == AnalyzerSetting.time_of_arrival()


class TestTdcValidation:
    def test_bin_must_divide_span(self, tmp_path):
        payload = {"run": {"seed": 1}, "tdc": {"bin_width_ps": 77, "window_ps": 1000}}
        with pytest.raises(ConfigError, match="tdc"):
            load_config(write_config(tmp_path, payload))

    def test_halfwidth_within_window(self, tmp_path):
        payload = {
            "run": {"seed": 1},
            "tdc": {"bin_width_ps": 80, "window_ps": 800, "peak_halfwidth_ps": 900},
        }
        with pytest.raises(ConfigError, match="tdc"):
            load_config(write_config(tmp_path, payload))


class TestRoundTrip:
    def full_payload(self):
        return {
            "run": {"seed": 11, "cycles": 500},
            "source": {
                "mean_pairs_per_pulse": 0.02,
                "pump_mode": "BOTH_ARMS",
                "pump_phase": 0.1,
                "depolarizing_noise": 0.05,
            },
            "memories": {
                "signal_794": {
                    "coupling_efficiency": 0.5,
                    "device_efficiency": 0.02,
                    "mean_od": 1.0,
                    "echo_delays": [[32.26, 1.0], [16.13, 0.25]],
                },
                "idler_1535": {
                    "coupling_efficiency": 0.4,
                    "device_efficiency": 0.01,
                    "mean_od": 0.8,
                    "echo_delays": [[6.02, 1.0]],
                },
            },
            "analyzers": {
                "signal_794": {"mode": "interferometer", "phase": 0.0},
                "idler_1535": {"mode": "interferometer", "phase": 0.785},
            },
            "detectors": {
                "signal_794": {"efficiency": 0.6, "jitter_fwhm_ps": 200.0, "dark_rate_hz": 50.0},
                "idler_1535": {"efficiency": 0.7, "jitter_fwhm_ps": 250.0, "dark_rate_hz": 100.0},
            },
            "tdc": {"bin_width_ps": 80, "window_ps": 70_000, "peak_halfwidth_ps": 500},
            "duty_cycle": {"burn_ms": 20.0, "wait_ms": 5.0, "storage_ms": 700.0},
        }

    def test_save_load_identical(self, tmp_path):
        cfg = load_config(write_config(tmp_path, self.full_payload()))
        out = tmp_path / "saved.json"
        save_config(cfg, out)
        again = load_config(out)
        assert again == cfg

    def test_saved_bytes_stable(self, tmp_path):
        cfg = load_config(write_config(tmp_path, self.full_payload()))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_config(cfg, a)
        save_config(cfg, b)
        assert a.read_bytes() == b.read_bytes()

    def test_saved_form_reloads_defaults_explicitly(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        out = tmp_path / "saved.json"
        save_config(cfg, out)
        data = json.loads(out.read_text())
        assert data["tdc"]["bin_width_ps"] == 80
        assert data["run"]["seed"] == 7
        assert load_config(out) == cfg


    def test_every_field_round_trips(self, tmp_path):
        """Every field of every section away from its default, both memory
        forms, and the interferometer phases survive save and load."""
        comb = CombSpec(
            delta_mhz=31.0,
            finesse=2.5,
            background_od=0.3,
            tooth_od=2.0,
            bandwidth_ghz=4.0,
            grid_step_mhz=0.25,
            modulation_depth=0.5,
        )
        cfg = ExperimentConfig(
            run=RunConfig(cycles=500, seed=11),
            source=SourceConfig(
                mean_pairs_per_pulse=0.02,
                rep_period_ps=12_000,
                bin_separation_ps=1_500,
                pump_mode=PUMP_EARLY_ONLY,
                pump_phase=0.1,
                depolarizing_noise=0.05,
            ),
            memories={
                SIGNAL_794: MemorySpec(coupling_efficiency=0.3, comb=comb, efficiency_scale=3.0),
                IDLER_1535: MemorySpec(
                    coupling_efficiency=0.4,
                    device_efficiency=0.01,
                    mean_od=0.8,
                    echo_delays=((6.02, 1.0), (12.04, 0.25)),
                    efficiency_scale=2.0,
                ),
            },
            analyzers={
                SIGNAL_794: AnalyzerSetting.interferometer(0.3),
                IDLER_1535: AnalyzerSetting.interferometer(-0.785),
            },
            detectors={
                SIGNAL_794: DetectorConfig(efficiency=0.6, jitter_fwhm_ps=200.0, dark_rate_hz=50.0),
                IDLER_1535: DetectorConfig(efficiency=0.5, jitter_fwhm_ps=300.0, dark_rate_hz=20.0),
            },
            tdc=TdcConfig(bin_width_ps=40, window_ps=40_000, peak_halfwidth_ps=400),
            duty_cycle=DutyCycleConfig(burn_ms=20.0, wait_ms=5.0, storage_ms=600.0),
        )
        # Each (section class, field) with a default is set away from it in
        # at least one section; a memory's form decides which fields it sets.
        # The per-channel maps are walked channel by channel, so each
        # channel's sections count.
        with_default, changed = set(), set()

        def walk(section):
            for f in fields(section):
                value = getattr(section, f.name)
                if f.default is not MISSING or f.default_factory is not MISSING:
                    default = f.default if f.default is not MISSING else f.default_factory()
                    with_default.add((type(section).__name__, f.name))
                    if value != default:
                        changed.add((type(section).__name__, f.name))
                for sub in value.values() if isinstance(value, dict) else [value]:
                    if is_dataclass(sub):
                        walk(sub)

        walk(cfg)
        assert with_default - changed == set()
        assert len(cfg.memories) == len(cfg.analyzers) == len(cfg.detectors) == 2
        out = tmp_path / "saved.json"
        save_config(cfg, out)
        assert load_config(out) == cfg


COMB = {
    "delta_mhz": 31.0,
    "finesse": 2.0,
    "background_od": 0.0,
    "tooth_od": 2.0,
    "bandwidth_ghz": 4.0,
    "grid_step_mhz": 1.0,
    "modulation_depth": 0.0,
}
# A valid config with every section present: the direct memory form on the
# signal, the comb form on the idler, and interferometers on both arms.
EVERY_SECTION = {
    "run": {"seed": 1},
    "memories": {
        "signal_794": {
            "coupling_efficiency": 0.5,
            "device_efficiency": 0.02,
            "mean_od": 1.0,
            "echo_delays": [[32.26, 1.0]],
        },
        "idler_1535": {"coupling_efficiency": 0.2, "comb": COMB},
    },
    "analyzers": {
        ch: {"mode": "interferometer", "phase": 0.0} for ch in ("signal_794", "idler_1535")
    },
}
SECTION_CLASSES = {
    "run": RunConfig,
    "source": SourceConfig,
    "memories.signal_794": MemorySpec,
    "memories.idler_1535": MemorySpec,
    "analyzers.signal_794": AnalyzerSetting,
    "analyzers.idler_1535": AnalyzerSetting,
    "detectors.signal_794": DetectorConfig,
    "detectors.idler_1535": DetectorConfig,
    "tdc": TdcConfig,
    "duty_cycle": DutyCycleConfig,
}


def numeric_key_paths():
    """Key paths (as tuples) of every int or float field of every section,
    of the comb where EVERY_SECTION has one, and of the direct memory's
    echo-delay entries."""
    out = []

    def walk(cls, keys, node):
        for name, hint in typing.get_type_hints(cls).items():
            kind = next(a for a in (*typing.get_args(hint), hint) if a is not type(None))
            if is_dataclass(kind) and name in node:
                walk(kind, (*keys, name), node[name])
            elif kind in (int, float):
                out.append((*keys, name))

    for section, cls in SECTION_CLASSES.items():
        keys = tuple(section.split("."))
        node = EVERY_SECTION
        for key in keys:
            node = node.get(key, {})
        walk(cls, keys, node)
    out += [("memories", "signal_794", "echo_delays", 0, j) for j in (0, 1)]
    return out


def dotted(keys) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)[1:]


@pytest.mark.parametrize("bad", [math.nan, math.inf, True, "1"], ids=repr)
@pytest.mark.parametrize("keys", numeric_key_paths(), ids=dotted)
def test_numeric_key_rejects_non_finite_and_non_numbers(tmp_path, keys, bad):
    payload = json.loads(json.dumps(EVERY_SECTION))
    node = payload
    for key in keys[:-1]:
        node = node.setdefault(key, {}) if isinstance(key, str) else node[key]
    node[keys[-1]] = bad
    with pytest.raises(ConfigError, match="^" + re.escape(dotted(keys)) + ": "):
        load_config(write_config(tmp_path, payload))


@pytest.mark.parametrize(
    "row, bad_index",
    [(["32.2", "1.0"], 0), ([32.2, True], 1), (["abc", 1.0], 0), ([None, 1.0], 0)],
)
def test_echo_delay_entries_are_numbers(tmp_path, row, bad_index):
    payload = {
        "run": {"seed": 1},
        "memories": {
            "signal_794": {
                "coupling_efficiency": 0.5,
                "device_efficiency": 0.02,
                "mean_od": 1.0,
                "echo_delays": [[16.13, 0.5], row],
            }
        },
    }
    path = rf"^memories\.signal_794\.echo_delays\[1\]\[{bad_index}\]: "
    with pytest.raises(ConfigError, match=path):
        load_config(write_config(tmp_path, payload))


class TestDirectConstruction:
    def test_programmatic_config(self):
        cfg = ExperimentConfig(
            run=RunConfig(cycles=100, seed=5),
            memories={
                SIGNAL_794: MemorySpec(
                    coupling_efficiency=1.0,
                    device_efficiency=0.1,
                    mean_od=2.3,
                    echo_delays=((32.26, 1.0),),
                )
            },
        )
        assert cfg.run.seed == 5
        assert cfg.analyzers[IDLER_1535].mode == MODE_TIME_OF_ARRIVAL
        assert cfg.memory_config(SIGNAL_794).device_efficiency == pytest.approx(0.1)

    def test_unknown_channel_rejected(self):
        for section in ("memories", "analyzers", "detectors"):
            with pytest.raises(ValueError, match=f"^{section}: unknown channel 'signal_794'"):
                ExperimentConfig(**{section: {"signal_794": None}})

    def test_partial_channel_maps_filled_with_defaults(self):
        det = DetectorConfig(efficiency=0.3)
        cfg = ExperimentConfig(
            analyzers={IDLER_1535: AnalyzerSetting.interferometer(0.5)},
            detectors={SIGNAL_794: det},
        )
        assert list(cfg.analyzers) == list(cfg.detectors) == list(CHANNELS)
        assert cfg.analyzers[SIGNAL_794] == AnalyzerSetting()
        assert cfg.analyzers[IDLER_1535] == AnalyzerSetting.interferometer(0.5)
        assert cfg.detectors[SIGNAL_794] is det
        assert cfg.detectors[IDLER_1535] == DetectorConfig()
        assert cfg.memories == {}

    def test_channel_maps_are_copied(self):
        spec = MemorySpec(
            coupling_efficiency=1.0, device_efficiency=0.1, mean_od=2.3,
            echo_delays=((32.26, 1.0),),
        )
        memories = {IDLER_1535: spec}
        analyzers = {SIGNAL_794: AnalyzerSetting.interferometer(0.2)}
        cfg = ExperimentConfig(memories=memories, analyzers=analyzers)
        memories[SIGNAL_794] = spec
        analyzers[SIGNAL_794] = AnalyzerSetting()
        assert cfg.memory_config(SIGNAL_794) is None
        assert cfg.memory_config(IDLER_1535) is spec.model
        assert cfg.analyzers[SIGNAL_794].phase == 0.2

    @pytest.mark.parametrize("bad", [12500.5, 80.0, True], ids=repr)
    @pytest.mark.parametrize(
        "cls, name",
        [(SourceConfig, "rep_period_ps"), (SourceConfig, "bin_separation_ps"),
         (TdcConfig, "bin_width_ps"), (TdcConfig, "window_ps"), (TdcConfig, "peak_halfwidth_ps")],
        ids=lambda x: x if isinstance(x, str) else x.__name__,
    )
    def test_integer_ps_fields_reject_non_integers(self, cls, name, bad):
        # Click times are integer picoseconds; a float period would turn them
        # into float64 and a float bin width fails inside numpy.
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            cls(**{name: bad})

    def test_run_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(cycles=0, seed=1)
        with pytest.raises(ValueError):
            RunConfig(cycles=10, seed=True)

    def test_duty_cycle_validation(self):
        with pytest.raises(ValueError):
            DutyCycleConfig(burn_ms=-1.0, wait_ms=1.0, storage_ms=1.0)
        d = DutyCycleConfig(burn_ms=500.0, wait_ms=200.0, storage_ms=700.0)
        assert d.duty_factor == pytest.approx(0.5)

    def test_tdc_validation(self):
        with pytest.raises(ValueError):
            TdcConfig(bin_width_ps=0, window_ps=100, peak_halfwidth_ps=10)

    def test_memory_spec_requires_one_variant(self):
        with pytest.raises(ValueError):
            MemorySpec(coupling_efficiency=0.5)

    def test_detector_spec_validation(self):
        with pytest.raises(ValueError):
            DetectorConfig(efficiency=1.5)
        with pytest.raises(ValueError):
            DetectorConfig(jitter_fwhm_ps=-1.0)
        assert DetectorConfig(jitter_fwhm_ps=200.0).jitter_sigma_ps == 200.0 / 2.355

    @pytest.mark.parametrize(
        "build",
        [
            lambda: SourceConfig(mean_pairs_per_pulse=math.nan),
            lambda: SourceConfig(mean_pairs_per_pulse=math.inf),
            lambda: SourceConfig(pump_phase=math.nan),
            lambda: MemorySpec(
                coupling_efficiency=0.5, device_efficiency=0.1, mean_od=1.0,
                echo_delays=((math.nan, 1.0),),
            ),
            lambda: MemoryConfig(0.5, 0.1, 1.0, ((math.inf, 1.0),)),
            lambda: MemoryConfig(0.5, 0.1, 1.0, ((32.258, 1.0), (6.0, math.nan))),
            lambda: MemoryConfig(0.5, 0.1, math.nan, ((32.258, 1.0),)),
            lambda: DutyCycleConfig(storage_ms=math.inf),
            lambda: DutyCycleConfig(burn_ms=math.nan),
            lambda: DetectorConfig(dark_rate_hz=math.nan),
            lambda: DetectorConfig(jitter_fwhm_ps=math.inf),
        ],
        ids=[
            "mu-nan", "mu-inf", "pump-phase-nan", "spec-echo-delay-nan",
            "echo-delay-inf", "echo-weight-nan", "mean-od-nan", "storage-inf",
            "burn-nan", "dark-rate-nan", "jitter-inf",
        ],
    )
    def test_non_finite_rejected_when_built_directly(self, build):
        # sweep and chsh_simulation build configs with dataclasses.replace,
        # which never passes through the JSON reader's finiteness check.
        with pytest.raises(ValueError, match="finite"):
            build()

    def test_analyzer_spec_validation(self):
        with pytest.raises(ValueError):
            AnalyzerSetting(mode="nope")
        with pytest.raises(ValueError):
            AnalyzerSetting(mode=MODE_INTERFEROMETER, phase=math.nan)
        assert AnalyzerSetting().mode == MODE_TIME_OF_ARRIVAL
        setting = AnalyzerSetting(mode=MODE_INTERFEROMETER, phase=math.pi / 4)
        assert setting.phase == pytest.approx(math.pi / 4)
