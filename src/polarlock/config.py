"""Flat ``key = value`` configuration files with dotted sections.

Every key is optional; an empty (or absent) file yields the reference
defaults.  Lines starting with ``#`` and blank lines are ignored.  The full
key set is in ``KEYS`` and the README.
"""

from __future__ import annotations

import math
import os

from .anneal import AnnealConfig, StepSchedule
from .device import DeviceParams, TpsParams
from .disturbance import DisturbanceModel
from .harness import ExperimentConfig, parse_variant


class ConfigError(ValueError):
    """Bad configuration file, key, or value."""


def _float(s: str) -> float:
    v = float(s)
    if not math.isfinite(v):
        raise ValueError("value must be finite")
    return v


def _float_or_none(s: str):
    return None if s.strip().lower() in ("none", "off") else _float(s)


def _int(s: str) -> int:
    return int(s, 10)


def _str(s: str) -> str:
    return s.strip()


def _schedule(s: str) -> StepSchedule:
    """Either a single step ('0.16') or 'threshold:step' pairs separated by
    commas ('1:0.16,0.1:0.08,...')."""
    tokens = [t.strip() for t in s.split(",") if t.strip()]
    if not tokens:
        raise ValueError("empty schedule")
    if ":" not in s:
        if len(tokens) != 1:
            raise ValueError("fixed schedule takes a single step value")
        return StepSchedule.fixed(_float(tokens[0]))
    entries = []
    for t in tokens:
        thr, _, st = t.partition(":")
        entries.append((_float(thr), _float(st)))
    return StepSchedule(tuple(entries))


def _variants(s: str):
    return tuple(parse_variant(t) for t in s.split(",") if t.strip())


# key -> (section, field, parser)
KEYS = {
    "tps.resistance": ("tps", "resistance", _float),
    "tps.c_slope": ("tps", "c_slope", _float),
    "tps.theta_bias": ("tps", "theta_bias", _float),
    "tps.v_max": ("tps", "v_max", _float),
    "tps.phase_max": ("tps", "phase_max", _float),
    "tps.tau_rise": ("tps", "tau_rise", _float),
    "tps.tau_fall": ("tps", "tau_fall", _float),
    "device.static_er_db": ("device", "static_er_db", _float_or_none),
    "device.noise_sigma": ("device", "noise_sigma", _float),
    "device.coupling_loss_db": ("device", "coupling_loss_db", _float),
    "device.on_chip_loss_db": ("device", "on_chip_loss_db", _float),
    "device.detector_saturation": ("device", "detector_saturation",
                                   _float_or_none),
    "anneal.t0": ("anneal", "t0", _float),
    "anneal.m0": ("anneal", "m0", _int),
    "anneal.n0": ("anneal", "n0", _int),
    "anneal.cooling_p": ("anneal", "cooling_p", _float),
    "anneal.init_phase": ("anneal", "init_phase", _float_or_none),
    "anneal.schedule": ("anneal", "schedule", _schedule),
    "anneal.mode": ("anneal", "mode", _str),
    "disturbance.kind": ("disturbance", "kind", _str),
    "disturbance.drift_rate": ("disturbance", "drift_rate", _float),
    "disturbance.jump_at": ("disturbance", "jump_at", _int),
    "disturbance.jump_magnitude": ("disturbance", "jump_magnitude", _float),
    "experiment.variants": ("experiment", "variants", _variants),
    "experiment.trials": ("experiment", "trials", _int),
    "experiment.base_seed": ("experiment", "base_seed", _int),
    "experiment.output": ("experiment", "output_path", _str),
}


def resolve_key(key: str) -> str:
    """Accept either a full dotted key or an unambiguous field name."""
    if key in KEYS:
        return key
    matches = [k for k in KEYS if k.endswith("." + key)]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise ConfigError(f"unknown config key '{key}'")
    raise ConfigError(f"ambiguous config key '{key}' (matches {matches})")


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"{source}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown config key '{key}'")
        raw[key] = value.strip()
    return raw


def load_experiment_config(path: str | None = None,
                           overrides: dict[str, str] | None = None
                           ) -> ExperimentConfig:
    """Build an ExperimentConfig from an optional file plus overrides.

    ``overrides`` maps dotted (or unambiguous bare) keys to value strings
    and wins over the file.  Raises ConfigError naming the offending key or
    path on any problem.
    """
    raw: dict[str, str] = {}
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path) as f:
            raw = parse_config_text(f.read(), source=path)
    for key, value in (overrides or {}).items():
        raw[resolve_key(key)] = value

    sections: dict[str, dict] = {"tps": {}, "device": {}, "anneal": {},
                                 "disturbance": {}, "experiment": {}}
    for key, value in raw.items():
        section, field, parser = KEYS[key]
        try:
            sections[section][field] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for '{key}': {value!r} ({exc})") from None

    try:
        tps = TpsParams(**sections["tps"])
        device = DeviceParams(tps=tps, **sections["device"])
        anneal = AnnealConfig(**sections["anneal"])
        disturbance = DisturbanceModel(**sections["disturbance"])
        return ExperimentConfig(device=device, anneal=anneal,
                                disturbance=disturbance,
                                **sections["experiment"])
    except ValueError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from None
