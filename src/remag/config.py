"""INI scenario configs: schema, validation, hashing.

Configs use flat sections with frequencies in ordinary MHz and times in
microseconds; conversion to angular rad/s and seconds happens here, at
the boundary, and nowhere else.  The text is read in one pass
(:func:`_read_ini`): ``[section]`` headers and ``key = value`` or
``key: value`` lines, names in any case, full-line ``#``/``;`` comments,
blank lines and any indentation; any other line, a repeated section or
key, an unknown section (``[DEFAULT]`` included) or key and non-finite
numbers are rejected with file:line context.  Parsing builds
the domain objects a run needs (pulse sequence, noise source, readout,
calcium scenario), and their constructors own every range check; a
rejection becomes a :class:`ConfigError` naming the section.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field

from .calcium import CaDomainSpec
from .dynamics import PulseSequence
from .noise import MAX_SEED, NoiseSpec
from .sensing import ReadoutModel
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
    },
}


class ConfigError(ValueError):
    """Invalid scenario config; message carries file:line context."""


@dataclass
class ScenarioConfig:
    """Validated scenario: the parsed values and the domain objects built
    from them (in SI/angular units)."""

    values: dict                      # section -> key -> parsed value
    source: str = "<config>"
    sequence: PulseSequence | None = None
    noise: NoiseSpec | None = None    # None when noise is disabled
    readout: ReadoutModel | None = None
    calcium: CaDomainSpec | None = None
    #: section -> line of its header in the source (absent: defaults)
    lines: dict = field(default_factory=dict, init=False, repr=False)

    def __getitem__(self, section):
        return self.values[section]

    def error(self, section: str, message) -> ConfigError:
        """A :class:`ConfigError` with ``section``'s file:line context."""
        return ConfigError(f"{self.source}:{self.lines.get(section, '?')}: "
                           f"[{section}] {message}")

    # the [field] values in rad/s: no built object holds them
    @property
    def detuning(self) -> float:
        return mhz_to_rad(self.values["field"]["detuning_mhz"])

    @property
    def hyperfine(self) -> float:
        return mhz_to_rad(self.values["field"]["hyperfine_mhz"])


#: ``key = value`` or ``key: value``, split at the first delimiter
_KEY_VALUE = re.compile(r"(.*?)\s*[=:]\s*(.*)")


def _read_ini(text: str, source: str) -> tuple[dict, dict]:
    """``(entries, headers)`` of INI text, in one pass over its lines.

    entries maps section -> key -> (raw value, line) and headers section
    -> line of its header, section and key names in lower case.  A line
    is blank, a comment (first non-blank character ``#`` or ``;``), a
    ``[section]`` header, or ``key = value`` / ``key: value`` inside a
    section; indentation is ignored.  Any other line, a repeated section
    or key, and a section or key not in :data:`SCHEMA` are a file:line
    :class:`ConfigError`.
    """
    entries, headers = {}, {}
    keys = None
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line[0] in "#;":
            continue
        if line[0] == "[" and line[-1] == "]":
            name = line[1:-1]
            section = name.lower()
            if section in headers:
                raise ConfigError(f"{source}:{ln}: section [{name}] repeats "
                                  f"line {headers[section]}")
            if section not in SCHEMA:
                raise ConfigError(f"{source}:{ln}: unknown section [{name}]")
            headers[section] = ln
            keys = entries[section] = {}
            continue
        match = _KEY_VALUE.fullmatch(line)
        if match is None or not match[1] or keys is None:
            raise ConfigError(f"{source}:{ln}: expected a [section] header, "
                              f"a key = value line in a section or a "
                              f"comment, got {line!r}")
        key = match[1].lower()
        if key in keys:
            raise ConfigError(f"{source}:{ln}: key {key!r} repeats line "
                              f"{keys[key][1]} in [{section}]")
        if key not in SCHEMA[section]:
            raise ConfigError(f"{source}:{ln}: unknown key {key!r} in "
                              f"[{section}]")
        keys[key] = (match[2], ln)
    return entries, headers


def _coerce(raw: str, typ, where: str):
    try:
        if typ is bool:
            low = raw.strip().lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        value = typ(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected {typ.__name__}, got {raw!r}") from None
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite float, got {raw!r}")
    return value


def parse_config(text: str, source: str = "<config>") -> ScenarioConfig:
    """Parse and validate INI text; defaults fill everything omitted."""
    entries, headers = _read_ini(text, source)
    values = {sec: {k: default for k, (_, default) in keys.items()}
              for sec, keys in SCHEMA.items()}
    for sec, keys in entries.items():
        for key, (raw, ln) in keys.items():
            values[sec][key] = _coerce(raw, SCHEMA[sec][key][0],
                                       f"{source}:{ln}: {key}")

    cfg = ScenarioConfig(values=values, source=source)
    cfg.lines = headers
    _validate(cfg)
    for section, build in _BUILDERS.items():
        try:
            setattr(cfg, section, build(cfg))
        except ValueError as exc:
            raise cfg.error(section, exc) from None
    return cfg


def _validate(cfg: ScenarioConfig) -> None:
    """Checks no domain object covers; the builders below do the rest."""
    grid = cfg["grid"]
    if grid["dt_ns"] <= 0 or grid["t_max_us"] <= 0 or grid["points"] < 2:
        raise cfg.error("grid", "needs dt_ns > 0, t_max_us > 0, points >= 2")

    sp = cfg["spectrum"]
    if sp["oversample"] < 1 or sp["max_peaks"] < 1 or not 0 < sp["level"] < 1:
        raise cfg.error("spectrum", "oversample and max_peaks must be >= 1, "
                        "and level must lie in (0, 1)")

    run = cfg["run"]
    if run["trials"] < 1 or not 0 <= run["seed"] <= MAX_SEED:
        raise cfg.error("run", "trials must be >= 1 and seed in [0, 2**64)")


def _sequence(cfg: ScenarioConfig) -> PulseSequence:
    seq = cfg["sequence"]
    kind, omega = seq["kind"], mhz_to_rad(seq["omega_mhz"])
    if kind == "rotary_echo":
        return PulseSequence.rotary_echo(seq["theta_pi"] * math.pi, omega,
                                         seq["n_cycles"])
    # rabi, ramsey (no drive) or an unknown kind, which the constructor rejects
    return PulseSequence(kind, omega=0.0 if kind == "ramsey" else omega,
                         duration=us_to_s(seq["duration_us"]))


def _noise(cfg: ScenarioConfig) -> NoiseSpec | None:
    n = cfg["noise"]
    if not n["enabled"]:
        return None
    if n["sigma_mhz"] and n["sigma_rel"]:
        raise ValueError("set sigma_mhz or sigma_rel, not both")
    sigma = mhz_to_rad(n["sigma_mhz"])
    if n["sigma_rel"]:
        if n["axis"] != "x":
            raise ValueError("sigma_rel is only meaningful for x-axis noise")
        if n["sigma_rel"] < 0.0:
            raise ValueError("sigma_rel must be nonnegative")
        # a fraction of no drive would be a silent sigma of 0, although
        # x-axis noise does act on an undriven sequence: give sigma_mhz
        if cfg.sequence.omega == 0.0:
            raise ValueError(f"sigma_rel needs a driven sequence; "
                             f"{cfg.sequence.kind} has no drive, so set "
                             f"sigma_mhz")
        sigma = n["sigma_rel"] * cfg.sequence.omega
    return NoiseSpec(axis=n["axis"], kind=n["kind"], sigma=sigma,
                     tau_c=us_to_s(n["tau_c_us"]), seed=cfg["run"]["seed"])


def _readout(cfg: ScenarioConfig) -> ReadoutModel:
    r = cfg["readout"]
    return ReadoutModel(n0=r["n0"], n1=r["n1"], n_r=r["n_r"],
                        t_r=us_to_s(r["t_r_us"]), t_d=us_to_s(r["t_d_us"]))


def _calcium(cfg: ScenarioConfig) -> CaDomainSpec:
    c = cfg["calcium"]
    if c["eta_target_ut"] <= 0:  # not a CaDomainSpec field
        raise ValueError("eta_target_ut must be positive")
    return CaDomainSpec(ion_count=c["ions"],
                        travel_distance=c["distance_nm"] * 1e-9,
                        flux_duration=us_to_s(c["duration_us"]),
                        standoff=c["standoff_nm"] * 1e-9,
                        repetitions=c["repetitions"])


#: ScenarioConfig attribute = config section -> its builder
_BUILDERS = {"sequence": _sequence, "noise": _noise, "readout": _readout,
             "calcium": _calcium}


def config_hash(cfg: ScenarioConfig) -> str:
    """SHA-256 over the canonical (sorted) key=value listing."""
    parts = []
    for sec in sorted(cfg.values):
        for key in sorted(cfg.values[sec]):
            parts.append(f"{sec}.{key}={cfg.values[sec][key]!r}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()
