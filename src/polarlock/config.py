"""Flat ``key = value`` configuration files with dotted sections.

Every key is optional; an empty (or absent) file yields the reference
defaults.  Lines starting with ``#`` and blank lines are ignored.  The full
key set is in ``KEYS`` and the README.
"""

from __future__ import annotations

import math

from .anneal import AnnealConfig, StepSchedule
from .device import DeviceParams
from .disturbance import DisturbanceModel
from .harness import ExperimentConfig


class ConfigError(ValueError):
    """Bad configuration file, key, or value."""


def _float(s: str) -> float:
    v = float(s)
    if not math.isfinite(v):
        raise ValueError("value must be finite")
    return v


def _float_or_none(s: str):
    return None if s.strip() == "none" else _float(s)


def _int(s: str) -> int:
    return int(s, 10)


def _str(s: str) -> str:
    return s.strip()


def _variants(s: str):
    return tuple(StepSchedule.parse(t) for t in s.split(",") if t.strip())


# key -> (section, field, parser)
KEYS = {
    "device.static_er_db": ("device", "static_er_db", _float_or_none),
    "device.noise_sigma": ("device", "noise_sigma", _float),
    "anneal.t0": ("anneal", "t0", _float),
    "anneal.m0": ("anneal", "m0", _int),
    "anneal.n0": ("anneal", "n0", _int),
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
    """Accept either a full dotted key or its field name, which is unique."""
    if key in KEYS:
        return key
    for k in KEYS:
        if k.endswith("." + key):
            return k
    raise ConfigError(f"unknown config key '{key}'")


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    raw: dict[str, str] = {}
    line_of: dict[str, int] = {}
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
        if key in raw:
            raise ConfigError(f"{source}: config key '{key}' is set twice, "
                              f"on lines {line_of[key]} and {lineno}")
        raw[key] = value.strip()
        line_of[key] = lineno
    return raw


def load_experiment_config(path: str | None = None,
                           overrides: dict[str, str] | None = None
                           ) -> ExperimentConfig:
    """Build an ExperimentConfig from an optional file plus overrides.

    ``overrides`` maps dotted keys (or their bare field names) to value
    strings and wins over the file.  Raises ConfigError naming the offending
    key or path on any problem.
    """
    raw: dict[str, str] = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as f:
                raw = parse_config_text(f.read(), source=path)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    for key, value in (overrides or {}).items():
        raw[resolve_key(key)] = value

    sections: dict[str, dict] = {"device": {}, "anneal": {},
                                 "disturbance": {}, "experiment": {}}
    for key, value in raw.items():
        section, field, parser = KEYS[key]
        try:
            sections[section][field] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for '{key}': {value!r} ({exc})") from None

    try:
        device = DeviceParams(**sections["device"])
        anneal = AnnealConfig(**sections["anneal"])
        disturbance = DisturbanceModel(**sections["disturbance"])
        return ExperimentConfig(device=device, anneal=anneal,
                                disturbance=disturbance,
                                **sections["experiment"])
    except ValueError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from None
