"""Scenario config parsing, validation, and hashing."""

import math
import re
from pathlib import Path

import pytest

from remag.config import (ConfigError, SCHEMA, config_hash, parse_config)
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
