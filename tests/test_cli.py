"""End-to-end CLI runs: artifacts, determinism, exit codes, cleanup."""

import io
import json
import math
import os
import platform
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import remag
from remag.cli import RunWriter, main
from remag.config import parse_config
from remag.dynamics import PulseSequence
from remag.models import (DecayScenario, ValidityWarning, decay_envelope,
                          mean_signal)
from remag.noise import NoiseSpec, exact_mean
from remag.sensing import ReadoutModel, readout_factors, \
    repeated_readout_gain, sensitivity_ideal
from remag.units import mhz_to_rad

SPECTRUM_INI = """\
[sequence]
kind = rotary_echo
theta_pi = 1.0
omega_mhz = 17.0
n_cycles = 85

[field]
detuning_mhz = 0.17
hyperfine_mhz = 2.14

[spectrum]
max_peaks = 6
filter_harmonics = true
"""

NOISE_INI = """\
[sequence]
kind = rotary_echo
theta_pi = 1.0
omega_mhz = 17.0
n_cycles = 10

[noise]
enabled = true
axis = z
kind = ou
sigma_mhz = 1.0
tau_c_us = 0.2
"""


RAMSEY_INI = """\
[sequence]
kind = ramsey
duration_us = 0.512

[field]
detuning_mhz = 2.0
hyperfine_mhz = {hyperfine}

[grid]
dt_ns = 1.0
"""


W19 = mhz_to_rad(19.0)


def run(tmp_path, *argv):
    out = tmp_path / "out"
    rc = main(list(argv) + ["--out", str(out)])
    return rc, out


SCIPY_MODULES_CHILD = """\
import sys
import remag.cli
if sys.argv[1:]:
    assert remag.cli.main(sys.argv[1:]) == 0
print(" ".join(m for m in sys.modules if m.startswith("scipy.")))
"""


def scipy_modules_loaded(*argv):
    """The scipy modules a fresh interpreter holds after importing
    remag.cli and, given ``argv``, running that command."""
    src = str(Path(remag.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", SCIPY_MODULES_CHILD, *argv],
                          env=env, capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


class TestImportGraph:
    """Each scipy submodule loads where it is called, not with the CLI."""

    def test_cli_import_loads_no_heavy_scipy_submodule(self):
        loaded = scipy_modules_loaded()
        for name in ("signal", "stats", "interpolate", "constants",
                     "optimize", "linalg", "special"):
            assert f"scipy.{name}" not in loaded

    def test_calcium_run_loads_no_solver(self, tmp_path):
        loaded = scipy_modules_loaded("calcium", "--out", str(tmp_path))
        assert (tmp_path / "calcium.csv").exists()
        for name in ("optimize", "linalg", "special"):
            assert f"scipy.{name}" not in loaded

    @pytest.mark.parametrize("argv, output", [
        (("figure", "2a"), "fig2a_detunings.json"),
        (("spectrum",), "detunings.json")], ids=["figure-2a", "spectrum"])
    def test_line_refit_loads_no_optimizer(self, tmp_path, argv, output):
        loaded = scipy_modules_loaded(*argv, "--out", str(tmp_path))
        assert (tmp_path / output).exists()
        for name in ("optimize", "sparse", "linalg", "special"):
            assert f"scipy.{name}" not in loaded


    @pytest.mark.parametrize("argv, output", [
        (("noise", "--trials", "8"), "decay.csv"),
        (("figure", "4a", "--trials", "8"), "fig4a_rabi_peaks.csv")],
        ids=["noise-ou-z", "figure-4a"])
    def test_ou_ensemble_loads_only_special(self, tmp_path, argv, output):
        # the exact OU mean's matrix exponentials are numpy's; the draw's
        # inverse normal CDF is the one scipy submodule loaded
        cfg = tmp_path / "noise.ini"
        cfg.write_text(NOISE_INI)
        if argv[0] == "noise":
            argv += ("--config", str(cfg))
        loaded = scipy_modules_loaded(*argv, "--out", str(tmp_path / "out"))
        assert (tmp_path / "out" / output).exists()
        assert "scipy.special" in loaded
        for name in ("linalg", "optimize", "sparse"):
            assert f"scipy.{name}" not in loaded


class TestSimulate:

    def test_default_run_writes_trace_and_manifest(self, tmp_path):
        rc, out = run(tmp_path, "simulate")
        assert rc == 0
        assert (out / "trace.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "remag"
        assert manifest["subcommand"] == "simulate"
        assert manifest["outputs"] == ["trace.csv"]
        assert manifest["seed"] == 12345
        assert len(manifest["config_hash"]) == 64

    def test_manifest_records_environment(self, tmp_path):
        rc, out = run(tmp_path, "simulate")
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["environment"] == {
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "cpus": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else 1}
        # machine facts stay out of the CSVs, whose bytes are reproducible
        meta = (out / "trace.csv").read_text().split("\nt_us,")[0]
        assert all(v not in meta for v in ("cpus", "numpy", "scipy",
                                           "python"))

    def test_csv_metadata_block_has_no_timestamps(self, tmp_path):
        rc, out = run(tmp_path, "simulate", "--seed", "7")
        assert rc == 0
        text = (out / "trace.csv").read_text()
        meta = [ln for ln in text.splitlines() if ln.startswith("#")]
        assert any("config_hash" in ln for ln in meta)
        assert any("seed: 7" in ln for ln in meta)
        assert any("units" in ln for ln in meta)
        assert not any(":" in ln and "20" in ln and "T" in ln.split(":", 1)[1]
                       for ln in meta if "started" in ln or "finished" in ln)
        # timestamps live in the manifest only
        manifest = json.loads((out / "manifest.json").read_text())
        assert "started" in manifest and "finished" in manifest

    def test_seed_flag_overrides_config(self, tmp_path):
        rc, out = run(tmp_path, "simulate", "--seed", "99")
        assert json.loads((out / "manifest.json").read_text())["seed"] == 99

    def test_noise_enabled_config_exits_1_naming_noise(self, tmp_path,
                                                        capsys):
        cfg = tmp_path / "noise.ini"
        cfg.write_text(NOISE_INI)
        rc, out = run(tmp_path, "simulate", "--config", str(cfg))
        assert rc == 1
        err = capsys.readouterr().err
        assert "noise.ini:7: [noise]" in err and "remag noise" in err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("hyperfine", [0.0, 2.14],
                             ids=["single-line", "triplet"])
    def test_ramsey_trace_is_the_noise_free_ensemble(self, hyperfine):
        # the trace is read between Ramsey's ideal pi/2 pulses, as the
        # Monte Carlo ensemble reads it, so at sigma = 0 the two agree;
        # the grid (1 ns over 0.512 us) is the ensemble's record grid
        from remag.cli import _noiseless_trace
        from remag.noise import monte_carlo

        cfg = parse_config(RAMSEY_INI.format(hyperfine=hyperfine))
        trace = _noiseless_trace(cfg)
        b, a = cfg.detuning, cfg.hyperfine
        spec = NoiseSpec(axis="z", kind="ou", sigma=0.0, tau_c=0.2e-6)
        runs = [monte_carlo(cfg.sequence, dw, spec, trials=2)
                for dw in ([b] if a == 0.0 else [b, a - b, a + b])]
        np.testing.assert_allclose(runs[0].times, trace.times, rtol=1e-12)
        mc = np.mean([r.mean for r in runs], axis=0)
        assert np.max(np.abs(trace.values - mc)) < 1e-12
        assert np.ptp(trace.values) > 0.5     # a fringe, not a constant


class TestDeterminism:

    def _decay_bytes(self, tmp_path, tag, seed):
        cfg = tmp_path / "noise.ini"
        cfg.write_text(NOISE_INI)
        out = tmp_path / tag
        rc = main(["noise", "--config", str(cfg), "--trials", "50",
                   "--seed", str(seed), "--out", str(out)])
        assert rc == 0
        return (out / "decay.csv").read_bytes()

    def test_same_seed_byte_identical(self, tmp_path):
        a = self._decay_bytes(tmp_path, "a", 42)
        b = self._decay_bytes(tmp_path, "b", 42)
        assert a == b

    def test_different_seed_differs(self, tmp_path):
        a = self._decay_bytes(tmp_path, "a", 42)
        b = self._decay_bytes(tmp_path, "b", 43)
        assert a != b


class TestCsvWriter:

    @pytest.mark.parametrize("batch_rows", [256, 2])
    @pytest.mark.parametrize("rows", [
        [[0.1, -0.0, 1e-300], [math.nan, math.inf, -math.inf],
         [1.0 / 3.0, 123456789012345.0, -2.5e-7], [0.0, 1e300, -1e-300],
         [7.0, 6.02214076e23, 1.0 + 2 ** -52]],
        [[math.nan, -0.0, 1e-300]]], ids=["table", "single-row"])
    def test_csv_body_is_savetxt_text(self, tmp_path, monkeypatch, rows,
                                      batch_rows):
        import remag.cli as cli

        monkeypatch.setattr(cli, "_CSV_BATCH_ROWS", batch_rows)
        data = np.array(rows)
        w = RunWriter(str(tmp_path), "simulate", parse_config(""), 1)
        path = w.csv("t.csv", {"a": data[:, 0], "b": data[:, 1],
                               "c": data[:, 2]})
        with open(path, encoding="utf-8") as fh:
            body = [ln for ln in fh if not ln.startswith("#")]
        expected = io.StringIO()
        np.savetxt(expected, data, delimiter=",", fmt="%.12g")
        assert body[0] == "a,b,c\n"
        assert "".join(body[1:]) == expected.getvalue()


class TestParser:

    def test_built_once_and_not_changed_by_parsing(self):
        import remag.cli as cli

        parser = cli._build_parser()
        first = parser.parse_args(["simulate", "--seed", "5", "--out", "x"])
        assert cli._build_parser() is parser
        second = parser.parse_args(["figure", "2a"])
        assert (first.seed, first.out) == (5, "x")
        assert (second.seed, second.out, second.panel) == (None, "out", "2a")


    def test_flags_per_subcommand(self):
        import remag.cli as cli

        sub = cli._build_parser()._subparsers._group_actions[0]
        flags = {name: {o for a in p._actions for o in a.option_strings
                        if o not in ("-h", "--help")}
                 for name, p in sub.choices.items()}
        trace = {"--config", "--out", "--seed"}
        assert flags == {"simulate": trace, "spectrum": trace,
                         "sensitivity": trace, "calcium": trace,
                         "noise": trace | {"--trials"},
                         "figure": {"--out", "--seed", "--trials"}}

    @pytest.mark.parametrize("argv", [
        ["simulate", "--trials", "5"], ["spectrum", "--trials", "5"],
        ["sensitivity", "--trials", "5"], ["calcium", "--trials", "5"],
        ["figure", "4a", "--config", "x.ini"]],
        ids=["simulate", "spectrum", "sensitivity", "calcium", "figure"])
    def test_flag_the_subcommand_does_not_read_is_a_usage_error(
            self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, *argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_readme_command_lines_parse(self):
        import remag.cli as cli

        readme = Path(__file__).resolve().parents[1] / "README.md"
        blocks = re.findall(r"^```sh\n(.*?)^```",
                            readme.read_text(encoding="utf-8"), re.M | re.S)
        commands = []
        for block in blocks:
            for line in block.splitlines():
                argv = shlex.split(line, comments=True)
                if argv[:1] == ["remag"]:
                    commands.append(argv[1:])
        assert {argv[0] for argv in commands} == set(cli.COMMANDS)
        for argv in commands:
            cli._build_parser().parse_args(argv)


class TestExitCodes:

    def test_unknown_key_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[sequence]\nbogus_key = 1\n")
        rc, out = run(tmp_path, "simulate", "--config", str(cfg))
        assert rc == 1
        err = capsys.readouterr().err
        assert "bad.ini:2" in err and "bogus_key" in err
        assert not out.exists() or not list(out.iterdir())

    def test_missing_config_file_exits_1(self, tmp_path, capsys):
        rc, _ = run(tmp_path, "simulate", "--config",
                    str(tmp_path / "nope.ini"))
        assert rc == 1

    def test_noise_subcommand_needs_noise_enabled(self, tmp_path, capsys):
        cfg = tmp_path / "off.ini"
        cfg.write_text("[sequence]\nn_cycles = 2\n[noise]\nenabled = false\n")
        rc, out = run(tmp_path, "noise", "--config", str(cfg))
        assert rc == 1
        assert "off.ini:3: [noise] enabled must be true" \
            in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_sigma_rel_on_ramsey_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "ramsey.ini"
        cfg.write_text("[sequence]\nkind = ramsey\n[noise]\nenabled = true\n"
                       "axis = x\nsigma_rel = 0.05\n")
        rc, out = run(tmp_path, "noise", "--config", str(cfg))
        assert rc == 1
        assert "ramsey.ini:3: [noise] sigma_rel" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_trials_flag_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "noise.ini"
        cfg.write_text(NOISE_INI)
        rc, out = run(tmp_path, "noise", "--config", str(cfg), "--trials", "0")
        assert rc == 1
        assert "--trials" in capsys.readouterr().err
        assert not out.exists()

    def test_noise_refuses_the_hyperfine_triplet(self, tmp_path, capsys):
        # noise runs one line; the trace subcommands average the triplet
        cfg = tmp_path / "triplet.ini"
        cfg.write_text(NOISE_INI + "\n[field]\nhyperfine_mhz = 2.14\n")
        rc, out = run(tmp_path, "noise", "--config", str(cfg), "--trials",
                      "2")
        assert rc == 1
        err = capsys.readouterr().err
        assert "triplet.ini:14: [field]" in err
        assert all(name in err for name in ("simulate", "spectrum",
                                            "sensitivity"))
        assert not list(out.iterdir())

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_seed_of_2_64_or_more_exits_1(self, tmp_path, capsys, where):
        seed = str(2**64 + 5)  # masked to 64 bits this would alias seed 5
        argv = ["simulate", "--seed", seed]
        if where == "config":
            cfg = tmp_path / "seed.ini"
            cfg.write_text(f"[run]\nseed = {seed}\n")
            argv = ["simulate", "--config", str(cfg)]
        rc, out = run(tmp_path, *argv)
        assert rc == 1
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_seed_accepted(self, tmp_path):
        rc, out = run(tmp_path, "simulate", "--seed", str(2**64 - 1))
        assert rc == 0

    def test_figure_case_seed_past_64_bits_fails_clean(self, tmp_path, capsys):
        # 4a seeds its second case with seed + 1, which would wrap to 0
        rc, out = run(tmp_path, "figure", "4a", "--seed", str(2**64 - 1),
                      "--trials", "2")
        assert rc == 2
        assert "seed" in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("line", ["theta_pi = nan", "omega_mhz = inf"])
    def test_non_finite_value_exits_1(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[sequence]\n{line}\n")
        rc, out = run(tmp_path, "simulate", "--config", str(cfg))
        assert rc == 1
        assert "bad.ini:2" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_calcium_section_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "ca.ini"
        cfg.write_text("[calcium]\ndistance_nm = 0\n")
        rc, out = run(tmp_path, "calcium", "--config", str(cfg))
        assert rc == 1
        assert "ca.ini:1: [calcium]" in capsys.readouterr().err
        assert not out.exists()

    def test_non_positive_eta_target_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "ca.ini"
        cfg.write_text("[calcium]\neta_target_ut = 0\n")
        rc, out = run(tmp_path, "calcium", "--config", str(cfg))
        assert rc == 1
        assert "ca.ini:1: [calcium] eta_target_ut" in capsys.readouterr().err
        assert not (out / "calcium.csv").exists()

    @pytest.mark.parametrize("theta_pi", ["2.0", "4.0", "22.0", "26.0"])
    @pytest.mark.parametrize("filtered", ["true", "false"])
    def test_spectrum_at_even_theta_exits_1(self, tmp_path, capsys,
                                            theta_pi, filtered):
        # theta = 2 pi k has no carrier to pair the lines about
        cfg = tmp_path / "re.ini"
        cfg.write_text(f"[sequence]\ntheta_pi = {theta_pi}\n[spectrum]\n"
                       f"filter_harmonics = {filtered}\n")
        rc, out = run(tmp_path, "spectrum", "--config", str(cfg))
        assert rc == 1
        assert "re.ini:1: [sequence]" in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("theta_pi", ["2.0", "4.0", "22.0", "26.0"])
    def test_sensitivity_at_even_theta_exits_1(self, tmp_path, capsys,
                                               theta_pi):
        # theta = 2 pi k refocuses the field: no sensitivity to report
        cfg = tmp_path / "re.ini"
        cfg.write_text(f"[sequence]\ntheta_pi = {theta_pi}\n")
        rc, out = run(tmp_path, "sensitivity", "--config", str(cfg))
        assert rc == 1
        assert "re.ini:1: [sequence]" in capsys.readouterr().err
        assert not (out / "sensitivity.csv").exists()

    @pytest.mark.parametrize("argv, text, steps", [
        (("simulate",), "[sequence]\nn_cycles = 2000000\n[grid]\ndt_ns = 1\n",
         120_000_000),
        # a static run steps once per half echo, but its grid rule starts
        # from the drive grid of T_Rabi/200
        (("noise", "--trials", "2"),
         "[sequence]\nn_cycles = 2000000\n[noise]\nenabled = true\n"
         "axis = x\nkind = static\nsigma_rel = 0.05\n", 400_000_000),
    ], ids=["simulate", "noise-static"])
    def test_oversized_grid_exits_1_naming_sequence(self, tmp_path, capsys,
                                                    argv, text, steps):
        # refused before any grid is allocated
        cfg = tmp_path / "long.ini"
        cfg.write_text(text)
        rc, out = run(tmp_path, *argv, "--config", str(cfg))
        assert rc == 1
        assert (f"long.ini:1: [sequence] grid of {steps} steps exceeds "
                f"MAX_GRID_STEPS") in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_failed_write_leaves_no_partial_file(self, tmp_path):
        w = RunWriter(str(tmp_path), "simulate", parse_config(""), 1)
        with pytest.raises(TypeError):
            w.json("p.json", {"a": object()})
        # the half-written file sits under its temporary name only
        assert [p.name for p in tmp_path.iterdir()] == [".p.json.tmp"]
        w.cleanup()
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("write", [
        lambda w: w.csv("c.csv", {"t": np.arange(600.0)}),
        lambda w: w.json("j.json", {"t": list(range(600))})],
        ids=["csv", "json"])
    def test_write_failing_mid_file_leaves_neither_name(self, tmp_path,
                                                         monkeypatch, write):
        import remag.cli as cli

        class Failing(io.StringIO):
            # takes the first 256 characters, then fails like a full disk,
            # within whichever write call crosses that mark
            def write(self, text):
                room = max(256 - self.tell(), 0)
                super().write(text[:room])
                if len(text) > room:
                    raise OSError("disk full")
                return len(text)

            def close(self):
                path.write_text(self.getvalue())

        def failing_open(name, *a, **k):
            nonlocal path
            if not name.endswith(".tmp"):   # the previous run's manifest
                return open(name, *a, **k)
            path = Path(name)
            return Failing()

        path = None
        monkeypatch.setattr(cli, "open", failing_open, raising=False)
        w = RunWriter(str(tmp_path), "simulate", parse_config(""), 1)
        with pytest.raises(OSError, match="disk full"):
            write(w)
        assert path.name.endswith(".tmp") and path.read_text()
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        w.cleanup()
        assert not list(tmp_path.iterdir())

    def test_runtime_failure_removes_partial_outputs(self, tmp_path,
                                                     monkeypatch, capsys):
        import remag.cli as cli

        def boom(*a, **k):
            raise RuntimeError("injected")

        monkeypatch.setattr(cli, "extract_detunings", boom)
        cfg = tmp_path / "spec.ini"
        cfg.write_text(SPECTRUM_INI)
        rc, out = run(tmp_path, "spectrum", "--config", str(cfg))
        assert rc == 2
        assert "injected" in capsys.readouterr().err
        # spectrum.csv and peaks.json were written before the failure
        assert not list(out.glob("*.csv")) and not list(out.glob("*.json"))

    def test_out_path_that_is_a_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        assert main(["calcium", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_text() == "not a directory\n"

    def test_unwritable_manifest_removes_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "manifest.json").mkdir(parents=True)
        assert main(["calcium", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        assert (out / "manifest.json").is_dir()     # left as it was


class TestOutputDirectory:
    """A rerun into a used --out directory replaces the previous run."""

    def test_rerun_leaves_only_its_listed_files(self, tmp_path):
        cfg = tmp_path / "spec.ini"
        cfg.write_text(SPECTRUM_INI)
        rc, out = run(tmp_path, "spectrum", "--config", str(cfg))
        assert rc == 0 and (out / "detunings.json").exists()
        (out / "notes.txt").write_text("kept\n")
        cfg.write_text(SPECTRUM_INI.replace("max_peaks = 6", "max_peaks = 1"))
        rc, out = run(tmp_path, "spectrum", "--config", str(cfg))
        assert rc == 0
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert outputs == ["spectrum.csv", "peaks.json"]
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "notes.txt", "peaks.json", "spectrum.csv"]

    def test_failed_rerun_leaves_no_manifest(self, tmp_path, monkeypatch,
                                             capsys):
        import remag.cli as cli

        cfg = tmp_path / "spec.ini"
        cfg.write_text(SPECTRUM_INI)
        assert run(tmp_path, "spectrum", "--config", str(cfg))[0] == 0

        def boom(*a, **k):
            raise RuntimeError("injected")

        # the rerun fails after writing spectrum.csv and peaks.json
        monkeypatch.setattr(cli, "extract_detunings", boom)
        rc, out = run(tmp_path, "spectrum", "--config", str(cfg))
        assert rc == 2
        assert not list(out.iterdir())

    def test_only_plain_names_are_removed(self, tmp_path):
        out = tmp_path / "out"
        (out / "sub").mkdir(parents=True)
        names = ["../outside.txt", ".hidden", "sub/inner.txt", "..", ""]
        (out / "manifest.json").write_text(json.dumps({"outputs": names}))
        for name in names[:3]:
            (out / name).write_text("kept\n")
        assert main(["calcium", "--out", str(out)]) == 0
        for name in names[:3]:
            assert (out / name).read_text() == "kept\n"

    @pytest.mark.parametrize("text", ["not json", "[1, 2]",
                                      '{"outputs": "calcium.csv"}'])
    def test_unreadable_manifest_is_replaced(self, tmp_path, text):
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json").write_text(text)
        (out / "c").write_text("kept\n")
        assert main(["calcium", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "c", "calcium.csv", "manifest.json"]


class TestSpectrum:

    @pytest.mark.parametrize("sequence", [
        "kind = rabi\nduration_us = 1.0\n",
        "kind = ramsey\nduration_us = 0.512\n[grid]\ndt_ns = 1.0\n"],
        ids=["rabi", "ramsey"])
    def test_rabi_and_ramsey_write_no_detunings(self, tmp_path, sequence):
        # only a rotary echo has line pairs to invert
        cfg = tmp_path / "plain.ini"
        cfg.write_text(f"[sequence]\n{sequence}")
        rc, out = run(tmp_path, "spectrum", "--config", str(cfg))
        assert rc == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "peaks.json", "spectrum.csv"]
        assert json.loads((out / "peaks.json").read_text())

    def test_one_peak_has_no_pair_to_invert(self, tmp_path):
        cfg = tmp_path / "spec.ini"
        cfg.write_text(SPECTRUM_INI.replace("max_peaks = 6", "max_peaks = 1"))
        rc, out = run(tmp_path, "spectrum", "--config", str(cfg))
        assert rc == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "peaks.json", "spectrum.csv"]
        assert len(json.loads((out / "peaks.json").read_text())) == 1

    def test_harmonic_filter_warning_reaches_the_manifest(self, tmp_path):
        # three cycles are so short that each even-harmonic notch (half
        # width plus taper, 4/T) reaches the odd harmonics beside it
        cfg = tmp_path / "short.ini"
        cfg.write_text("[sequence]\nn_cycles = 3\n"
                       "[spectrum]\nfilter_harmonics = true\n")
        with pytest.warns(UserWarning, match="notch overlaps"):
            rc, out = run(tmp_path, "spectrum", "--config", str(cfg))
        assert rc == 0
        assert json.loads((out / "manifest.json").read_text())[
            "warnings"] == [{"category": "UserWarning",
                             "message": "even-harmonic notch overlaps the "
                             "signal region around an odd carrier harmonic"}]

    def test_triplet_recovery(self, tmp_path):
        cfg = tmp_path / "spec.ini"
        cfg.write_text(SPECTRUM_INI)
        rc, out = run(tmp_path, "spectrum", "--config", str(cfg))
        assert rc == 0
        assert (out / "spectrum.csv").exists()
        peaks = json.loads((out / "peaks.json").read_text())
        assert len(peaks) == 6
        est = json.loads((out / "detunings.json").read_text())
        assert est["carrier_mhz"] == pytest.approx(17.0, abs=0.1)
        detunings = sorted(d for d, _ in est["detunings_mhz"])
        assert detunings[0] == pytest.approx(0.17, abs=0.02)
        assert detunings[1] == pytest.approx(2.14 - 0.17, abs=0.03)
        assert detunings[2] == pytest.approx(2.14 + 0.17, abs=0.03)


class TestNoiseRun:

    def test_decay_csv_has_model_column(self, tmp_path):
        cfg = tmp_path / "noise.ini"
        cfg.write_text(NOISE_INI)
        out = tmp_path / "out"
        rc = main(["noise", "--config", str(cfg), "--trials", "20",
                   "--out", str(out)])
        assert rc == 0
        header = [ln for ln in (out / "decay.csv").read_text().splitlines()
                  if not ln.startswith("#")][0]
        assert header.split(",") == ["t_us", "mc_mean", "mc_stderr", "model"]

    @pytest.mark.parametrize("argv, name, header", [
        # [run] trials defaults to 1
        (("noise",), "decay.csv", ["t_us", "mc_mean", "model"]),
        (("figure", "4a", "--trials", "1"), "fig4a_rabi_peaks.csv",
         ["t_us", "mc_static", "model_static", "mc_ou", "model_ou"])])
    def test_one_trial_writes_no_standard_error(self, tmp_path, argv, name,
                                                header):
        # one trial has no spread to estimate an error from, so no column
        # claims an error of 0
        cfg = tmp_path / "noise.ini"
        cfg.write_text(NOISE_INI)
        rc, out = run(tmp_path, *argv,
                      *(("--config", str(cfg)) if argv[0] == "noise" else ()))
        assert rc == 0
        lines = (out / name).read_text().splitlines()
        assert [ln for ln in lines if not ln.startswith("#")][0] == \
            ",".join(header)
        assert "# trials: 1" in lines
        facts = json.loads((out / "manifest.json").read_text())["monte_carlo"]
        assert facts[name]["trials"] == 1

    def test_grid_facts_in_metadata_and_manifest(self, tmp_path):
        cfg = tmp_path / "noise.ini"
        cfg.write_text(NOISE_INI)
        name = "decay.csv"
        rc, out = run(tmp_path, "noise", "--trials", "20", "--config",
                      str(cfg))
        assert rc == 0
        meta = dict(ln[2:].split(": ", 1)
                    for ln in (out / name).read_text().splitlines()
                    if ln.startswith("# ") and ": " in ln)
        facts = json.loads((out / "manifest.json").read_text())["monte_carlo"]
        # OU dephasing on a rotary echo: tau_c/20 = 10 ns caps the step;
        # a pi half echo at 17 MHz lasts 29.4 ns, so three steps of 9.8 ns
        half_ns = 1e9 / (2.0 * 17e6)
        assert facts == {name: {"trials": 20, "dt_ns": pytest.approx(half_ns / 3),
                                "n_steps": 60, "chunks": 1}}
        assert float(meta["dt_ns"]) == facts[name]["dt_ns"]
        assert (meta["n_steps"], meta["chunks"], meta["trials"]) == \
            ("60", "1", "20")

    def test_figure_grid_facts_per_label(self, tmp_path):
        rc, out = run(tmp_path, "figure", "4a", "--trials", "4")
        assert rc == 0
        facts = json.loads((out / "manifest.json").read_text())["monte_carlo"]
        rabi = facts["fig4a_rabi_peaks.csv"]
        # static noise: one step per recorded Rabi period; OU drive noise
        # keeps the drive grid of T_Rabi/200
        assert (rabi["n_steps_static"], rabi["n_steps_ou"]) == (20, 4000)
        assert rabi["chunks_static"] == rabi["chunks_ou"] == 1

    def _decay(self, tmp_path, ini, trials=8):
        cfg = tmp_path / "case.ini"
        cfg.write_text(ini)
        out = tmp_path / "out"
        assert main(["noise", "--config", str(cfg), "--trials", str(trials),
                     "--out", str(out)]) == 0
        lines = [ln for ln in (out / "decay.csv").read_text().splitlines()
                 if not ln.startswith("#")]
        data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
        return dict(zip(lines[0].split(","), data.T))

    def test_ou_z_echo_model_is_exact_mean(self, tmp_path):
        cols = self._decay(tmp_path, NOISE_INI)
        seq = PulseSequence.rotary_echo(math.pi, mhz_to_rad(17.0), 10)
        spec = NoiseSpec("z", "ou", mhz_to_rad(1.0), 0.2e-6)
        model = exact_mean(seq, mhz_to_rad(0.17), spec, cols["t_us"] * 1e-6)
        assert np.allclose(cols["model"], model, rtol=0, atol=1e-10)

    def test_ou_z_echo_past_the_level_cap_has_no_model_column(self, tmp_path):
        # sigma tau_c = 38: 96 Hermite levels do not settle the exact mean
        cols = self._decay(tmp_path, NOISE_INI.replace("sigma_mhz = 1.0",
                                                       "sigma_mhz = 30.0"))
        assert list(cols) == ["t_us", "mc_mean", "mc_stderr"]

    @pytest.mark.parametrize("noise, sequence, model", [
        # relative strength: sigma_rel times the Rabi frequency
        ("axis = x\nkind = static\nsigma_rel = 0.05\n",
         "kind = rotary_echo\ntheta_pi = 5.0\nomega_mhz = 19.0\n"
         "n_cycles = 6\n",
         lambda t: mean_signal(DecayScenario(
             "rotary_echo", "x", "static", sigma=0.05 * W19,
             theta=5 * math.pi, omega=W19), t)),
        ("axis = x\nkind = ou\nsigma_rel = 0.05\ntau_c_us = 0.2\n",
         "kind = rotary_echo\ntheta_pi = 1.0\nomega_mhz = 19.0\n"
         "n_cycles = 20\n",
         lambda t: exact_mean(PulseSequence.rotary_echo(math.pi, W19, 20),
                              0.0, NoiseSpec("x", "ou", 0.05 * W19, 0.2e-6),
                              t)),
        # absolute strength in MHz, on Rabi's default 1 ns records
        ("axis = x\nkind = ou\nsigma_mhz = 1.0\ntau_c_us = 0.2\n",
         "kind = rabi\nomega_mhz = 19.0\nduration_us = 0.3\n",
         lambda t: exact_mean(PulseSequence.rabi(W19, 0.3e-6), 0.0,
                              NoiseSpec("x", "ou", mhz_to_rad(1.0), 0.2e-6),
                              t)),
    ], ids=["static-x-echo", "ou-x-echo", "ou-x-rabi"])
    def test_drive_noise_model(self, tmp_path, noise, sequence, model):
        # static noise: mean_signal; OU noise: exact_mean
        cols = self._decay(tmp_path, f"[sequence]\n{sequence}[field]\n"
                           f"detuning_mhz = 0.0\n[noise]\nenabled = true\n"
                           f"{noise}")
        assert np.allclose(cols["model"], model(cols["t_us"] * 1e-6),
                           rtol=0, atol=1e-10)
        if "kind = ou" in noise:
            assert np.ptp(cols["model"]) > 1e-3  # sigma shapes the decay

    @pytest.mark.parametrize("detuning, columns", [
        (2.0, ["t_us", "mc_mean", "mc_stderr"]),
        (0.0, ["t_us", "mc_mean", "mc_stderr", "model"])],
        ids=["detuned", "resonant"])
    def test_static_drive_noise_model_only_on_resonance(self, tmp_path,
                                                        detuning, columns):
        # mean_signal's echo form under drive noise is resonant: 1 at every
        # full echo, where a detuned ensemble carries the detuning's beat
        cols = self._decay(tmp_path, "[sequence]\nkind = rotary_echo\n"
                           "theta_pi = 1.0\nomega_mhz = 19.0\nn_cycles = 12\n"
                           f"[field]\ndetuning_mhz = {detuning}\n[noise]\n"
                           "enabled = true\naxis = x\nkind = static\n"
                           "sigma_rel = 0.05\n")
        assert list(cols) == columns

    @pytest.mark.parametrize("sequence, detuning, axis", [
        ("kind = rabi\nomega_mhz = 19.0\nduration_us = 0.5\n", 0.5, "z"),
        ("kind = ramsey\nduration_us = 0.5\n", 2.0, "x"),
        ("kind = rabi\nomega_mhz = 19.0\nduration_us = 0.5\n", 0.5, "x")],
        ids=["ou-z-rabi", "ou-x-ramsey", "ou-x-rabi-detuned"])
    def test_ou_model_column_within_4_se(self, tmp_path, sequence, detuning,
                                         axis):
        # exact_mean covers OU noise on every sequence, detuned or not
        cols = self._decay(tmp_path, f"[sequence]\n{sequence}[field]\n"
                           f"detuning_mhz = {detuning}\n[noise]\n"
                           f"enabled = true\naxis = {axis}\nkind = ou\n"
                           f"sigma_mhz = 1.0\ntau_c_us = 0.2\n", trials=2000)
        se = np.where(cols["mc_stderr"] > 0, cols["mc_stderr"], np.inf)
        assert np.max(np.abs(cols["mc_mean"] - cols["model"]) / se) < 4.0

    @pytest.mark.parametrize("detuning, columns", [
        (0.5, ["t_us", "mc_mean", "mc_stderr"]),
        (0.0, ["t_us", "mc_mean", "mc_stderr", "model"])],
        ids=["detuned", "resonant"])
    def test_static_z_rabi_model_only_on_resonance(self, tmp_path, detuning,
                                                   columns):
        # rabi_static_z_mean has no detuning term
        cols = self._decay(tmp_path, "[sequence]\nkind = rabi\n"
                           "omega_mhz = 19.0\nduration_us = 0.5\n[field]\n"
                           f"detuning_mhz = {detuning}\n[noise]\n"
                           "enabled = true\naxis = z\nkind = static\n"
                           "sigma_mhz = 1.0\n")
        assert list(cols) == columns

    @pytest.mark.parametrize("kind", ["static", "ou"])
    def test_slow_rabi_runs_on_its_default_records(self, tmp_path, kind):
        # 1 MHz over 0.3 us: 121 records 2.5 ns apart, on the noise grid
        cols = self._decay(tmp_path, "[sequence]\nkind = rabi\n"
                           "omega_mhz = 1.0\nduration_us = 0.3\n[noise]\n"
                           f"enabled = true\naxis = z\nkind = {kind}\n"
                           "sigma_mhz = 1.0\ntau_c_us = 0.2\n")
        np.testing.assert_allclose(cols["t_us"], np.linspace(0.0, 0.3, 121),
                                   rtol=1e-11, atol=1e-14)

    def test_static_ramsey_records_its_default_times(self, tmp_path):
        # 501 records 1 ns apart: one step each, not snapped onto a grid
        cols = self._decay(tmp_path, "[sequence]\nkind = ramsey\n"
                           "duration_us = 0.5\n[noise]\nenabled = true\n"
                           "axis = z\nkind = static\nsigma_mhz = 1.0\n")
        np.testing.assert_allclose(cols["t_us"], np.linspace(0.0, 0.5, 501),
                                   rtol=1e-11, atol=1e-14)

    def test_validity_warning_propagates(self, tmp_path):
        # 3pi/4 echo under a slow strong bath sits outside the OU-z window
        cfg = tmp_path / "warn.ini"
        cfg.write_text(NOISE_INI.replace("theta_pi = 1.0", "theta_pi = 0.75"))
        out = tmp_path / "out"
        rc = main(["noise", "--config", str(cfg), "--trials", "5",
                   "--out", str(out)])
        assert rc == 0
        # decay.csv's model column is noise.exact_mean, which has no window
        assert json.loads((out / "manifest.json").read_text())[
            "warnings"] == []
        # the sensitivity sweep divides by decay_envelope, which has one
        sens = tmp_path / "sens"
        with pytest.warns(ValidityWarning) as shown:
            rc = main(["sensitivity", "--config", str(cfg), "--out",
                       str(sens)])
        assert rc == 0
        assert "validity" not in (sens / "sensitivity.csv").read_text()
        assert json.loads((sens / "manifest.json").read_text())[
            "warnings"] == [{"category": "ValidityWarning",
                             "message": str(shown[0].message)}]


class TestCalcium:

    def test_default_scenario_field(self, tmp_path):
        rc, out = run(tmp_path, "calcium")
        assert rc == 0
        lines = [ln for ln in (out / "calcium.csv").read_text().splitlines()
                 if not ln.startswith("#")]
        row = dict(zip(lines[0].split(","), map(float, lines[1].split(","))))
        assert row["field_ut"] == pytest.approx(0.6409, abs=0.001)
        # eta = B sqrt(2 pi N t) with N = 1 repetition, t = 10 us
        assert row["eta_required_ut_rthz"] == pytest.approx(
            row["field_ut"] * (2 * 3.141592653589793 * 10e-6) ** 0.5,
            rel=1e-9)


class TestSensitivity:

    def test_sweep_columns(self, tmp_path):
        rc, out = run(tmp_path, "sensitivity")
        assert rc == 0
        lines = [ln for ln in (out / "sensitivity.csv").read_text().splitlines()
                 if not ln.startswith("#")]
        assert lines[0].split(",") == ["t_us", "eta_ideal_ut",
                                       "eta_corrected_ut"]
        assert len(lines) > 10

    def test_readout_overheads(self, tmp_path):
        cfg = tmp_path / "ro.ini"
        cfg.write_text(NOISE_INI + "[field]\nhyperfine_mhz = 2.14\n"
                       "[readout]\nn_r = 100\nt_r_us = 1.5\nt_d_us = 0.7\n")
        rc, out = run(tmp_path, "sensitivity", "--config", str(cfg))
        assert rc == 0
        lines = [ln for ln in (out / "sensitivity.csv").read_text().splitlines()
                 if not ln.startswith("#")]
        rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        # by hand: pi echo at full-echo times up to t_max = 5 us, first-order
        # OU-z envelope, C boosted by the n_r = 100 gain, C_A of the triplet,
        # and the time overhead sqrt((t + t_d + n_r t_r) / t)
        theta, omega = math.pi, mhz_to_rad(17.0)
        cycle = 2 * theta / omega
        times = cycle * np.arange(1, int(5e-6 / cycle) + 1)
        env = decay_envelope(DecayScenario("rotary_echo", "z", "ou",
                                           mhz_to_rad(1.0), 0.2e-6, theta,
                                           omega), times)
        r = ReadoutModel(n0=0.0022, n1=0.0015, n_r=100, t_r=1.5e-6,
                         t_d=0.7e-6)
        ideal, corrected = [], []
        for t, e in zip(times, env):
            eta = sensitivity_ideal("rotary_echo", t, theta=theta)
            c, c_a, _ = readout_factors(r, theta, mhz_to_rad(2.14), t)
            c_eff = c * repeated_readout_gain(r)
            ideal.append(eta)
            corrected.append(eta / e / (c_eff * c_a)
                             * math.sqrt((t + 0.7e-6 + 100 * 1.5e-6) / t))
        assert rows[:, 0] == pytest.approx(times * 1e6, rel=1e-10)
        assert rows[:, 1] == pytest.approx(np.array(ideal) * 1e6, rel=1e-10)
        assert rows[:, 2] == pytest.approx(np.array(corrected) * 1e6,
                                           rel=1e-10)

    def test_scenario_without_envelope_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "rabi.ini"
        cfg.write_text("[sequence]\nkind = rabi\nduration_us = 0.3\n"
                       "[noise]\nenabled = true\naxis = z\nkind = ou\n"
                       "sigma_mhz = 1.0\n")
        rc, out = run(tmp_path, "sensitivity", "--config", str(cfg))
        assert rc == 1
        assert "rabi.ini:4: [noise] OU-z Rabi has no closed-form envelope" \
            in capsys.readouterr().err
        assert not (out / "sensitivity.csv").exists()


class TestFigurePresets:

    def test_presets_claim_no_config(self, tmp_path):
        rc, out = run(tmp_path, "figure", "4a", "--trials", "8")
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "config" not in manifest and "config_hash" not in manifest
        assert manifest["seed"] == 12345
        text = (out / "fig4a_rabi_peaks.csv").read_text()
        assert "# seed: 12345\n" in text
        assert "config_hash" not in text

    @pytest.mark.parametrize("argv, output", [
        (("simulate",), "trace.csv"), (("spectrum",), "spectrum.csv"),
        (("sensitivity",), "sensitivity.csv"), (("calcium",), "calcium.csv"),
        (("noise", "--trials", "8"), "decay.csv")])
    def test_every_other_subcommand_records_its_config(self, tmp_path, argv,
                                                       output):
        cfg = tmp_path / "run.ini"
        cfg.write_text(NOISE_INI if argv[0] == "noise" else "")
        rc, out = run(tmp_path, *argv, "--config", str(cfg))
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["config_hash"]) == 64
        assert manifest["config"]["sequence"]["kind"] == "rotary_echo"
        assert f"# config_hash: {manifest['config_hash']}\n" in \
            (out / output).read_text()

    def test_deterministic_fast_panel(self, tmp_path):
        # analytic panel: rerun must be byte-identical
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            rc = main(["figure", "3a", "--out", str(out), "--seed", "5"])
            assert rc == 0
            outs.append((out / "fig3a_signal.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_deterministic_mc_panel(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            rc = main(["figure", "4a", "--out", str(out), "--seed", "5",
                       "--trials", "40"])
            assert rc == 0
            outs.append((out / "fig4a_rabi_peaks.csv").read_bytes())
        assert outs[0] == outs[1]
