"""Scenario config parsing, validation, and hashing."""

import configparser
import math
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PARSED_CONFIGS
from remag.config import (_BUILDERS, ConfigError, SCHEMA, ScenarioConfig,
                          _coerce, _validate, config_hash, parse_config)
from remag.units import mhz_to_rad


class TestDefaults:

    def test_empty_config_uses_schema_defaults(self):
        cfg = parse_config("")
        for sec, keys in SCHEMA.items():
            for key, (_, default) in keys.items():
                assert cfg[sec][key] == default

    def test_partial_section_keeps_other_defaults(self):
        cfg = parse_config("[sequence]\ntheta_pi = 5.0\n")
        assert cfg["sequence"]["theta_pi"] == 5.0
        assert cfg["sequence"]["omega_mhz"] == 17.0
        assert cfg["field"]["detuning_mhz"] == 0.17


class TestUnits:

    def test_theta_in_units_of_pi(self):
        cfg = parse_config("[sequence]\ntheta_pi = 0.75\n")
        assert cfg.sequence.theta == pytest.approx(0.75 * math.pi)

    def test_frequencies_convert_to_angular(self):
        cfg = parse_config("[sequence]\nomega_mhz = 17\n"
                           "[field]\ndetuning_mhz = 0.17\n")
        assert cfg.sequence.omega == pytest.approx(2.0 * math.pi * 17e6)
        assert cfg.detuning == pytest.approx(2.0 * math.pi * 0.17e6)

    def test_times_convert_to_seconds(self):
        cfg = parse_config("[noise]\nenabled = true\nsigma_mhz = 0.1\n"
                           "tau_c_us = 0.2\n")
        assert cfg.noise.tau_c == pytest.approx(200e-9)


class TestErrors:

    @pytest.mark.parametrize("text", ["[sequence]\nbogus_key = 1\n",
                                      "[run]\nthreads = 2\n"])
    def test_unknown_key_reports_file_and_line(self, text):
        with pytest.raises(ConfigError, match=r"bad\.ini:2: unknown key"):
            parse_config(text, source="bad.ini")

    def test_unknown_section_reports_line(self):
        text = "[sequence]\ntheta_pi = 1\n\n[nonsense]\nx = 1\n"
        with pytest.raises(ConfigError, match=r"bad\.ini:4: unknown section"):
            parse_config(text, source="bad.ini")

    def test_type_mismatch_reports_location(self):
        text = "[sequence]\ntheta_pi = fast\n"
        with pytest.raises(ConfigError, match=r"bad\.ini:2: .*expected float"):
            parse_config(text, source="bad.ini")

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match="expected bool"):
            parse_config("[noise]\nenabled = maybe\n")

    @pytest.mark.parametrize("text", [
        "[sequence]\ntheta_pi = -1\n",
        "[sequence]\nomega_mhz = 0\n",
        "[sequence]\nkind = spin_lock\n",
        "[sequence]\nkind = rabi\nduration_us = 0\n",
        "[noise]\nenabled = true\naxis = y\n",
        "[noise]\nenabled = true\nkind = ou\ntau_c_us = 0\n",
        "[noise]\nenabled = true\naxis = z\nsigma_rel = 0.05\n",
        "[sequence]\nkind = ramsey\n[noise]\nenabled = true\naxis = x\n"
        "sigma_rel = -0.05\n",
        # a fraction of no drive: Ramsey x-axis noise takes sigma_mhz
        "[sequence]\nkind = ramsey\n[noise]\nenabled = true\naxis = x\n"
        "sigma_rel = 0.05\n",
        "[readout]\nn0 = 0.001\nn1 = 0.002\n",
        "[readout]\nn_r = 0\n",
        "[grid]\ndt_ns = 0\n",
        "[run]\ntrials = 0\n",
    ])
    def test_invariant_violations_raise(self, text):
        with pytest.raises(ConfigError):
            parse_config(text)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_float_reports_location(self, raw):
        text = f"[sequence]\ntheta_pi = 1\nomega_mhz = {raw}\n"
        with pytest.raises(ConfigError, match=r"bad\.ini:3: omega_mhz: .*finite"):
            parse_config(text, source="bad.ini")

    @pytest.mark.parametrize("text, where", [
        ("[grid]\ndt_ns = 0\n", "bad.ini:1: [grid]"),
        ("[sequence]\n\n[run]\ntrials = 0\n", "bad.ini:3: [run]"),
        (f"[run]\nseed = {2**64}\n", "bad.ini:1: [run]")])
    def test_grid_and_run_rejections_report_section(self, text, where):
        with pytest.raises(ConfigError) as info:
            parse_config(text, source="bad.ini")
        assert str(info.value).startswith(where)

    def test_domain_rejection_reports_section(self):
        text = "[run]\nseed = 1\n\n[calcium]\ndistance_nm = 0\n"
        with pytest.raises(ConfigError,
                           match=r"bad\.ini:4: \[calcium\] travel_distance"):
            parse_config(text, source="bad.ini")

    def test_sigma_mhz_and_sigma_rel_exclusive(self):
        text = ("[noise]\nenabled = true\naxis = x\nsigma_mhz = 1.0\n"
                "sigma_rel = 0.05\n")
        with pytest.raises(ConfigError, match=r"\[noise\].*sigma_mhz.*sigma_rel"):
            parse_config(text)
        # either one alone is a valid strength, in rad/s once parsed
        cfg = parse_config(text.replace("sigma_mhz = 1.0\n", ""))
        assert cfg.noise.sigma == 0.05 * cfg.sequence.omega
        assert parse_config(text.replace("sigma_rel = 0.05\n", "")
                            ).noise.sigma == mhz_to_rad(1.0)

    @pytest.mark.parametrize("line", [
        "oversample = 0", "max_peaks = 0", "level = -1", "level = 0",
        "level = 1", "level = 2"])
    def test_spectrum_settings_rejected_with_location(self, line):
        text = f"[run]\nseed = 1\n[spectrum]\n{line}\n"
        with pytest.raises(ConfigError, match=r"bad\.ini:3: \[spectrum\]"):
            parse_config(text, source="bad.ini")


def test_readme_ini_examples_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```ini\n(.*?)^```",
                        readme.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for block in blocks:
        parse_config(block, source="README.md")


class TestHash:

    def test_hash_stable_under_key_order(self):
        a = parse_config("[sequence]\ntheta_pi = 5\nomega_mhz = 17\n")
        b = parse_config("[sequence]\nomega_mhz = 17\ntheta_pi = 5\n")
        assert config_hash(a) == config_hash(b)

    def test_hash_changes_with_value(self):
        a = parse_config("[sequence]\ntheta_pi = 1\n")
        b = parse_config("[sequence]\ntheta_pi = 5\n")
        assert config_hash(a) != config_hash(b)

    def test_defaults_hash_matches_explicit_defaults(self):
        a = parse_config("")
        b = parse_config("[sequence]\ntheta_pi = 1.0\n")
        assert config_hash(a) == config_hash(b)


class TestGrammar:
    """The one-pass reader: what it accepts and the line it blames."""

    @pytest.mark.parametrize("text, where", [
        # configparser kept [DEFAULT] apart and injected its keys into
        # every section: alone it was dropped, beside [sequence] it set it
        ("[DEFAULT]\ntheta_pi = 7\n", "c.ini:1: unknown section [DEFAULT]"),
        ("[DEFAULT]\ntheta_pi = 3\n[sequence]\n",
         "c.ini:1: unknown section [DEFAULT]"),
        # section names differing in case were two sections: the last won
        ("[run]\nseed = 1\n[RUN]\nseed = 2\n",
         "c.ini:3: section [RUN] repeats line 1"),
        ("[run]\nseed = 1\nSeed: 2\n", "c.ini:3: key 'seed' repeats line 2"),
        # a key given with ':' used to report line '?'
        ("[sequence]\ntheta_pi: abc\n", "c.ini:2: theta_pi: expected float"),
        ("theta_pi = 1\n", "c.ini:1: expected a [section] header"),
        ("[run]\nseed\n", "c.ini:2: expected a [section] header"),
        ("[run]\n= 3\n", "c.ini:2: expected a [section] header"),
        # a deeper-indented line is no continuation of the value above it
        ("[run]\nseed =\n    3\n", "c.ini:3: expected a [section] header"),
        ("[run] ; comment\nseed = 3\n",
         "c.ini:1: expected a [section] header"),
        ("[run]\nseed = 1\n[ run ]\n", "c.ini:3: unknown section [ run ]"),
    ])
    def test_rejections_name_their_line(self, text, where):
        with pytest.raises(ConfigError) as info:
            parse_config(text, source="c.ini")
        assert str(info.value).startswith(where)

    def test_case_indentation_comments_and_colons(self):
        text = ("# leading comment\n\n  [Sequence]\n  THETA_PI: 5\n"
                "  ; theta_pi = 7\n  omega_mhz=19\n\n[RUN]\n\tseed : 3\n")
        cfg = parse_config(text, source="c.ini")
        assert cfg["sequence"]["theta_pi"] == 5.0
        assert cfg["sequence"]["omega_mhz"] == 19.0
        assert cfg["run"]["seed"] == 3
        assert cfg.lines == {"sequence": 3, "run": 8}
        # a line splits at its first delimiter
        with pytest.raises(ConfigError, match=r"c\.ini:2: unknown key 'k'"):
            parse_config("[noise]\nk: kind = ou\n", source="c.ini")


# ---------------------------------------------------------------------------
# reference: the configparser parse the one-pass reader replaced

def _key_lines(text):
    """(section, key) -> 1-based line, as the config module scanned them."""
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


def _configparser_parse(text):
    """``(cfg, refused)``: the configparser parse of ``text``, and whether
    it read what the one-pass reader refuses: a [DEFAULT] section, two
    sections differing only in case, a value continued on a deeper line,
    or text after a section header's bracket.  ConfigError where the
    parse failed."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source="c.ini")
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None
    lines = _key_lines(text)
    values = {sec: {k: default for k, (_, default) in keys.items()}
              for sec, keys in SCHEMA.items()}
    for section in parser.sections():
        sec = section.lower()
        if sec not in SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in SCHEMA[sec]:
                raise ConfigError(f"unknown key {key!r}")
            values[sec][key] = _coerce(raw, SCHEMA[sec][key][0], key)
    cfg = ScenarioConfig(values=values, source="c.ini")
    cfg.lines = {sec: ln for (sec, key), ln in lines.items() if key is None}
    _validate(cfg)
    for section, build in _BUILDERS.items():
        try:
            setattr(cfg, section, build(cfg))
        except ValueError as exc:
            raise cfg.error(section, exc) from None
    names = parser.sections()
    stripped = [line.strip() for line in text.splitlines()]
    refused = ("[DEFAULT]" in stripped
               or len({s.lower() for s in names}) < len(names)
               or any("\n" in raw for s in names for _, raw in parser.items(s))
               or any(line.startswith("[") and not line.endswith("]")
                      for line in stripped))
    return cfg, refused


def _assert_same_parse(text):
    """parse_config agrees with the configparser reference on ``text``:
    the same values, lines and hash where that parse is a valid run of
    nothing the reader refuses, and an error where it is not."""
    try:
        want, refused = _configparser_parse(text)
    except ConfigError:
        with pytest.raises(ConfigError):
            parse_config(text, source="c.ini")
        return
    if refused:
        with pytest.raises(ConfigError):
            parse_config(text, source="c.ini")
        return
    got = parse_config(text, source="c.ini")
    assert got.values == want.values
    assert got.lines == want.lines
    assert config_hash(got) == config_hash(want)


#: section -> key -> values that give a valid run in any combination
VALID_VALUES = {
    "sequence": {"kind": ["rotary_echo", "rabi", "ramsey"],
                 "theta_pi": ["1.0", "0.75", "5", "3e0"],
                 "omega_mhz": ["17.0", "19.5"], "n_cycles": ["50", "3"],
                 "duration_us": ["3.0", "1.5"]},
    "field": {"detuning_mhz": ["0.17", "-0.5"],
              "hyperfine_mhz": ["0.0", "2.14"]},
    "noise": {"enabled": ["false", "True", "yes", "0", "ON"],
              "axis": ["z", "x"], "kind": ["static", "ou"],
              "sigma_mhz": ["0.0", "1.0"], "sigma_rel": ["0.0", "0"],
              "tau_c_us": ["0.2", "1"]},
    "readout": {"n0": ["0.0022", "0.003"], "n1": ["0.0015", "0.001"],
                "n_r": ["1", "3"], "t_r_us": ["0.0", "1.5"],
                "t_d_us": ["0", "0.5"]},
    "grid": {"dt_ns": ["10.0", "2.5"], "t_max_us": ["5.0", "1"],
             "points": ["256", "64"]},
    "spectrum": {"oversample": ["4", "2"], "level": ["0.01", "0.05"],
                 "max_peaks": ["10", "3"],
                 "filter_harmonics": ["false", "TRUE", "no"]},
    "calcium": {"ions": ["1e5", "2e4"], "distance_nm": ["200.0", "50"],
                "duration_us": ["10.0", "1"], "standoff_nm": ["10", "5"],
                "repetitions": ["1.0", "4"], "eta_target_ut": ["10", "1"]},
    "run": {"trials": ["1", "100"], "seed": ["12345", "0", str(2**64 - 1)]},
}
assert VALID_VALUES.keys() == SCHEMA.keys() and all(
    VALID_VALUES[sec].keys() == SCHEMA[sec].keys() for sec in SCHEMA)


def _random_case(draw, name):
    flips = draw(st.lists(st.booleans(), min_size=len(name),
                          max_size=len(name)))
    return "".join(c.upper() if f else c for c, f in zip(name, flips))


@st.composite
def valid_configs(draw):
    """INI text of random sections and keys of the schema, each with a
    valid value, in random case, with '=' or ':', comments, blank lines
    and indentation uniform within a section.  Indentation does not grow
    from one section to the next: a line indented deeper than the key
    above it continues that key's value in configparser."""
    sections = draw(st.lists(st.sampled_from(list(SCHEMA)), unique=True))
    indents = sorted(draw(st.lists(st.sampled_from(["", " ", "  ", "\t"]),
                                   min_size=len(sections),
                                   max_size=len(sections))),
                     key=len, reverse=True)
    filler = st.sampled_from(["", "# a comment", "; theta_pi = 7",
                              "  # [sequence]", "\t;key: value"])
    out = draw(st.lists(filler, max_size=2))
    for sec, indent in zip(sections, indents):
        out.append(f"{indent}[{_random_case(draw, sec)}]")
        keys = draw(st.lists(st.sampled_from(list(SCHEMA[sec])), unique=True))
        for key in keys:
            value = draw(st.sampled_from(VALID_VALUES[sec][key]))
            delim = draw(st.sampled_from(["=", " = ", " =", ":", ": ", " : "]))
            out.append(f"{indent}{_random_case(draw, key)}{delim}{value}")
            out += draw(st.lists(filler, max_size=1))
    return "\n".join(out) + draw(st.sampled_from(["", "\n", "\n\n"]))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(valid_configs())
def test_reader_matches_configparser(text):
    _assert_same_parse(text)
    # the generator draws valid runs that the reader accepts
    assert not _configparser_parse(text)[1]


def test_every_config_parsed_matches_configparser():
    # every config the tests before this one parsed (in a whole-suite run
    # that is every config a test writes: test_cli runs earlier), the
    # README's ini blocks and the configs of the benchmark's workloads at
    # seed 1
    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    texts = set(PARSED_CONFIGS)
    texts.update(re.findall(r"^```ini\n(.*?)^```", (root / "README.md")
                            .read_text(encoding="utf-8"), re.M | re.S))
    for make in workloads.WORKLOADS.values():
        texts.update(op.config for op in make(random.Random(1)) if op.config)
    assert len(texts) > 100
    for text in sorted(texts):
        _assert_same_parse(text)
