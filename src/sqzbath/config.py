"""Declarative run configuration: INI sections with strict key validation.

Every key has a default, and the defaults reproduce the reference simulation
setup (two unit-mass oscillators with K=1.25, drive amplitude 2.5 at
frequency 0.45, a 200-mode Ohmic bath with kondo coupling 0.007 and cutoff
3.0, dt=0.01 over 25000 steps, 10000 trajectories at temperature 1.0).
Unknown sections or keys are rejected by name.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Optional

from .baths import build_ohmic_bath, nhc_matched_to_ohmic
from .driver import ModelKind, RunConfig
from .integrate import IntegratorConfig
from .sampling import SamplingMode
from .system import SystemParams


class ConfigError(ValueError):
    """Malformed, unknown, or physically invalid configuration input."""


DEFAULTS = {
    "system": {
        "mass": 1.0,
        "spring_k": 1.25,
        "coupling_amp": 2.5,
        "drive_freq": 0.45,
        "carrier_freq_hz": 3.93e13,
        "frozen_coupling": False,
    },
    "bath": {
        "model": "ohmic",
        "n_modes": 200,
        "kondo": 0.007,
        "cutoff": 3.0,
    },
    "thermostat": {
        "mass_eta1": 1.0,
        "mass_eta2": 1.0,
        "thermo_dof": 1,
        "osc_freq": "auto",
        "coupling": "auto",
    },
    "integrator": {
        "dt": 0.01,
        "n_steps": 25000,
        "yoshida": 3,
        "mts": 3,
        "stride": 25,
    },
    "ensemble": {
        "n_traj": 10000,
        "temperature": 1.0,
        "seed": 12345,
        "sampling": "quantum",
        "workers": 1,
        "chunk_size": 500,
    },
    "output": {
        "dir": "results",
        "prefix": "run",
    },
}

_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False,
                "yes": True, "no": False}


def _convert(section: str, key: str, raw: str):
    default = DEFAULTS[section][key]
    try:
        if isinstance(default, bool):
            value = _BOOL_VALUES.get(raw.strip().lower())
            if value is None:
                raise ValueError(f"not a boolean: {raw!r}")
            return value
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float) or (default == "auto"
                                          and raw.strip().lower() != "auto"):
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError(f"not a finite number: {raw!r}")
            return value
        return raw.strip()
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from None


def read_config_file(path: Optional[str]) -> dict:
    """Parse an INI file into a fully resolved {section: {key: value}} dict.

    ``path=None`` yields pure defaults. Misspelled sections or keys fail
    fast with the offending name.
    """
    resolved = {sec: dict(keys) for sec, keys in DEFAULTS.items()}
    if path is None:
        return resolved
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = parser.read(path, encoding="utf-8")
        sections = {section: parser.items(section) for section in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path!r}: "
                          f"{' '.join(str(exc).split())}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    for section, items in sections.items():
        if section not in DEFAULTS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in items:
            if key not in DEFAULTS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            resolved[section][key] = _convert(section, key, raw)
    return resolved


@dataclass
class OutputOptions:
    directory: str
    prefix: str


def build_run_config(resolved: dict, overrides: Optional[dict] = None):
    """Turn a resolved config dict into (RunConfig, OutputOptions).

    ``overrides`` maps (section, key) to values (used for CLI flags) and is
    applied before validation.
    """
    resolved = {sec: dict(keys) for sec, keys in resolved.items()}
    for (section, key), value in (overrides or {}).items():
        if section not in resolved or key not in resolved[section]:
            raise ConfigError(f"unknown override [{section}] {key}")
        resolved[section][key] = value

    sec_sys = resolved["system"]
    sec_bath = resolved["bath"]
    sec_th = resolved["thermostat"]
    sec_int = resolved["integrator"]
    sec_ens = resolved["ensemble"]
    try:
        system = SystemParams(mass=sec_sys["mass"], spring_k=sec_sys["spring_k"],
                              coupling_amp=sec_sys["coupling_amp"],
                              drive_freq=sec_sys["drive_freq"],
                              carrier_freq=sec_sys["carrier_freq_hz"],
                              frozen_coupling=sec_sys["frozen_coupling"])
        model = ModelKind.parse(sec_bath["model"])
        integrator = IntegratorConfig(dt=sec_int["dt"], n_steps=sec_int["n_steps"],
                                      n_yoshida=sec_int["yoshida"],
                                      n_mts=sec_int["mts"], stride=sec_int["stride"])
        sampling = SamplingMode.parse(sec_ens["sampling"])
        temperature = sec_ens["temperature"]

        bath = None
        if model is not ModelKind.ISOLATED:
            bath = build_ohmic_bath(sec_bath["n_modes"], sec_bath["kondo"],
                                    sec_bath["cutoff"])
        if model is ModelKind.NHC:
            # the auto thermostat oscillator matches the static dressing of
            # the Ohmic reference defined by the [bath] section
            osc = {} if sec_th["osc_freq"] == "auto" else {"osc_freq": sec_th["osc_freq"]}
            bath = nhc_matched_to_ohmic(bath, temperature, **osc)
            chain = {key: sec_th[key] for key in ("mass_eta1", "mass_eta2", "thermo_dof")}
            if sec_th["coupling"] != "auto":
                chain["coupling"] = sec_th["coupling"]
            bath = dataclasses.replace(bath, **chain)

        run = RunConfig(system=system, temperature=temperature,
                        n_traj=sec_ens["n_traj"], seed=sec_ens["seed"],
                        integrator=integrator, sampling=sampling, bath=bath,
                        workers=sec_ens["workers"],
                        chunk_size=sec_ens["chunk_size"])
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    output = OutputOptions(directory=resolved["output"]["dir"],
                           prefix=resolved["output"]["prefix"])
    return run, output, resolved


def config_hash(resolved: dict) -> str:
    """Stable digest of the fully resolved configuration."""
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
