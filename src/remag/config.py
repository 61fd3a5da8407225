"""INI scenario configs: schema, validation, hashing.

Configs use flat sections with frequencies in ordinary MHz and times in
microseconds; conversion to angular rad/s and seconds happens here, at
the boundary, and nowhere else.  Unknown sections or keys are rejected
with file:line context.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass

from .units import mhz_to_rad, us_to_s

# section -> key -> (type, default). Bools are "true"/"false".
SCHEMA = {
    "sequence": {
        "kind": (str, "rotary_echo"),        # rotary_echo | rabi | ramsey
        "theta_pi": (float, 1.0),            # half-echo angle, units of pi
        "omega_mhz": (float, 17.0),          # Rabi frequency
        "n_cycles": (int, 50),               # rotary echo cycles
        "duration_us": (float, 3.0),         # rabi/ramsey length
    },
    "field": {
        "detuning_mhz": (float, 0.17),
        "hyperfine_mhz": (float, 0.0),       # 0 = no nitrogen triplet
    },
    "noise": {
        "enabled": (bool, False),
        "axis": (str, "z"),                  # z | x
        "kind": (str, "ou"),                 # static | ou
        "sigma_mhz": (float, 0.0),           # absolute strength (z or x)
        "sigma_rel": (float, 0.0),           # x-axis strength as fraction of Omega
        "tau_c_us": (float, 0.2),
    },
    "readout": {
        "n0": (float, 0.0022),
        "n1": (float, 0.0015),
        "n_r": (int, 1),
        "t_r_us": (float, 0.0),
        "t_d_us": (float, 0.0),
    },
    "grid": {
        "dt_ns": (float, 10.0),              # sample step for traces
        "t_max_us": (float, 5.0),
        "points": (int, 256),                # sweep resolution
    },
    "spectrum": {
        "oversample": (int, 4),
        "level": (float, 0.01),
        "max_peaks": (int, 10),
        "filter_harmonics": (bool, False),
    },
    "calcium": {
        "ions": (float, 1e5),
        "distance_nm": (float, 200.0),
        "duration_us": (float, 10.0),
        "standoff_nm": (float, 10.0),
        "repetitions": (float, 1.0),
        "eta_target_ut": (float, 10.0),
    },
    "run": {
        "trials": (int, 1),
        "seed": (int, 12345),
        "threads": (int, 1),
    },
}


#: largest seed: noise streams are keyed by 64-bit words, so a larger seed
#: would silently alias a smaller one
MAX_SEED = 2**64 - 1


class ConfigError(ValueError):
    """Invalid scenario config; message carries file:line context."""


@dataclass
class ScenarioConfig:
    """Validated scenario with values in SI/angular units."""

    values: dict                      # section -> key -> parsed value
    source: str = "<config>"
    validity_warning: bool = False    # OU-z window violated

    def __getitem__(self, section):
        return self.values[section]

    # convenience accessors in internal units (rad/s, s)
    @property
    def theta(self) -> float:
        return self.values["sequence"]["theta_pi"] * math.pi

    @property
    def omega(self) -> float:
        return mhz_to_rad(self.values["sequence"]["omega_mhz"])

    @property
    def detuning(self) -> float:
        return mhz_to_rad(self.values["field"]["detuning_mhz"])

    @property
    def hyperfine(self) -> float:
        return mhz_to_rad(self.values["field"]["hyperfine_mhz"])

    @property
    def tau_c(self) -> float:
        return us_to_s(self.values["noise"]["tau_c_us"])

    @property
    def noise_sigma(self) -> float:
        return mhz_to_rad(self.values["noise"]["sigma_mhz"])


def _key_lines(text: str) -> dict:
    """Map (section, key) -> 1-based line number, for error context."""
    lines = {}
    section = None
    for i, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip().lower()
            lines[(section, None)] = i
        elif "=" in stripped and not stripped.startswith(("#", ";")) and section:
            key = stripped.split("=", 1)[0].strip().lower()
            lines[(section, key)] = i
    return lines


def _coerce(raw: str, typ, where: str):
    try:
        if typ is bool:
            low = raw.strip().lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        return typ(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected {typ.__name__}, got {raw!r}") from None


def parse_config(text: str, source: str = "<config>") -> ScenarioConfig:
    """Parse and validate INI text; defaults fill everything omitted."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"{source}: {exc}") from None

    lines = _key_lines(text)
    values = {sec: {k: default for k, (_, default) in keys.items()}
              for sec, keys in SCHEMA.items()}

    for section in parser.sections():
        sec = section.lower()
        if sec not in SCHEMA:
            ln = lines.get((sec, None), "?")
            raise ConfigError(f"{source}:{ln}: unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in SCHEMA[sec]:
                ln = lines.get((sec, key), "?")
                raise ConfigError(f"{source}:{ln}: unknown key "
                                  f"{key!r} in [{section}]")
            typ = SCHEMA[sec][key][0]
            ln = lines.get((sec, key), "?")
            values[sec][key] = _coerce(raw, typ, f"{source}:{ln}: {key}")

    cfg = ScenarioConfig(values=values, source=source)
    _validate(cfg)
    return cfg


def _validate(cfg: ScenarioConfig) -> None:
    v = cfg.values
    src = cfg.source
    seq = v["sequence"]
    if seq["kind"] not in ("rotary_echo", "rabi", "ramsey"):
        raise ConfigError(f"{src}: sequence.kind must be rotary_echo, "
                          f"rabi or ramsey, got {seq['kind']!r}")
    if seq["kind"] != "ramsey" and seq["omega_mhz"] <= 0:
        raise ConfigError(f"{src}: sequence.omega_mhz must be positive")
    if seq["kind"] == "rotary_echo":
        if seq["theta_pi"] <= 0:
            raise ConfigError(f"{src}: sequence.theta_pi must be positive")
        if seq["n_cycles"] < 1:
            raise ConfigError(f"{src}: sequence.n_cycles must be >= 1")
    elif seq["duration_us"] <= 0:
        raise ConfigError(f"{src}: sequence.duration_us must be positive")

    noise = v["noise"]
    if noise["enabled"]:
        if noise["axis"] not in ("z", "x"):
            raise ConfigError(f"{src}: noise.axis must be z or x")
        if noise["kind"] not in ("static", "ou"):
            raise ConfigError(f"{src}: noise.kind must be static or ou")
        if noise["kind"] == "ou" and noise["tau_c_us"] <= 0:
            raise ConfigError(f"{src}: noise.tau_c_us must be positive")
        if noise["sigma_mhz"] < 0 or noise["sigma_rel"] < 0:
            raise ConfigError(f"{src}: noise strength must be nonnegative")
        if noise["axis"] == "z" and noise["sigma_rel"]:
            raise ConfigError(f"{src}: sigma_rel applies to x-axis noise only")

    ro = v["readout"]
    if not ro["n0"] > ro["n1"] >= 0:
        raise ConfigError(f"{src}: readout needs n0 > n1 >= 0")
    if ro["n_r"] < 1 or ro["t_r_us"] < 0 or ro["t_d_us"] < 0:
        raise ConfigError(f"{src}: readout timing must be nonnegative, n_r >= 1")

    grid = v["grid"]
    if grid["dt_ns"] <= 0 or grid["t_max_us"] <= 0 or grid["points"] < 2:
        raise ConfigError(f"{src}: grid values must be positive")

    run = v["run"]
    if run["trials"] < 1 or run["threads"] < 1 or run["seed"] < 0:
        raise ConfigError(f"{src}: run.trials/threads >= 1, seed >= 0")
    if run["seed"] > MAX_SEED:
        raise ConfigError(f"{src}: run.seed must lie below 2**64")

    # OU-z first-order envelope validity: tau_c sigma <~ theta/2 and
    # tau_c >~ theta/(2 Omega); violations still run but are flagged
    if (noise["enabled"] and noise["axis"] == "z" and noise["kind"] == "ou"
            and seq["kind"] == "rotary_echo"):
        theta = cfg.theta
        tau_c = cfg.tau_c
        sigma = cfg.noise_sigma
        if tau_c * sigma > theta / 2.0 or tau_c < theta / (2.0 * cfg.omega):
            cfg.validity_warning = True


def config_hash(cfg: ScenarioConfig) -> str:
    """SHA-256 over the canonical (sorted) key=value listing."""
    parts = []
    for sec in sorted(cfg.values):
        for key in sorted(cfg.values[sec]):
            parts.append(f"{sec}.{key}={cfg.values[sec][key]!r}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()
