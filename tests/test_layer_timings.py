"""Smoke test of tools/layer_timings.py: its A/B loop on two loads of this
checkout, and its input builders."""

import importlib.util
import math
import os
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def test_two_loads_of_this_checkout_agree_bit_for_bit():
    # the tool pins the BLAS threads in os.environ and puts perfbench on
    # sys.path when imported; both are put back
    environ, path, modules = dict(os.environ), list(sys.path), set(sys.modules)
    try:
        spec = importlib.util.spec_from_file_location(
            "layer_timings", ROOT / "tools" / "layer_timings.py")
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        this = tool.load(ROOT / "src", "remag_smoke_this")
        other = tool.load(ROOT / "src", "remag_smoke_other")
        assert this.noise is not other.noise
        engine = tool.engine_layers(this)
        layer = engine["kernel static-1.0pi-x65"]
        report = tool.time_layer(layer, this, other, 1)
        assert report["identical"] is True
        assert report["unit"] == "ns per trial-step"
        assert report["this"] > 0 and report["other"] > 0
        assert sum(report["wins"].values()) <= 1
        # the analysis layers' inputs are built through the package's API
        # (the sensitivity sweep's through models.decay_envelope)
        layers = tool.analysis_layers(this)
        assert "exact_mean" in layers
        assert layers["sensitivity_sweep"].call(this)
        # each kernel case runs the grid and records that monte_carlo runs
        inputs = tool.kernel_inputs(this)
        for label, seq, delta, spec, _, records in tool._cases(this):
            draw, kernel = inputs[label]
            res = this.noise.monte_carlo(seq, delta, spec, 1,
                                         record_times=records)
            assert draw[1] == res.meta["dt"], label
            assert (draw[4] == kernel[1] * kernel[0].amplitudes.size
                    == res.meta["n_steps"]), label
            assert kernel[-1].size == res.times.size, label
        # `kernel ou-x` steps the first chunk of figure 4c's pi echo over
        # its first ten full echoes (recorded here, not run)
        presets = []
        this.cli._write_cases = lambda w, files, trials: presets.extend(
            case for cases in files.values() for case in cases.values())
        this.cli.fig_4c(SimpleNamespace(seed=tool.FIGURE_SEED), None)
        fig, = presets
        kernels = []
        this.noise._propagate_batch = lambda *args: kernels.append(args)
        engine["kernel ou-x"].call(this)
        (wave, n_sub, axis, blocks, count, record_idx), = kernels
        assert np.array_equal(wave.amplitudes, np.tile(
            [fig.seq.omega, -fig.seq.omega], 10))
        assert wave.segment == fig.seq.theta / fig.seq.omega
        assert (n_sub, axis, count, record_idx.size) == (100, "x", 2048, 11)
        assert sum(map(len, blocks)) == 2000
        assert inputs["ou-x"][0][0] == fig.spec
        # the figures layer runs the Monte Carlo presets at 2,048 trials
        # and seed 11 (recorded here, not run)
        with tempfile.TemporaryDirectory() as work:
            layer, _ = tool.cli_layer("figures", tool.FIGURE_ARGVS,
                                      Path(work))
            argvs = []
            this.cli.main = lambda argv: argvs.append(argv) or 0
            layer.call(this)
        assert [argv[:-2] for argv in argvs] == [
            ["figure", panel, "--trials", "2048", "--seed", "11"]
            for panel in ("4a", "4b", "4c", "s4")]
        # the runner layer calls mc_vs_model on noise-ou-large's three
        # echoes, each at its trial count (recorded here, not run)
        calls, w, mhz = [], tool.w, tool.MHZ
        this.noise.mc_vs_model = lambda *args: calls.append(args)
        engine["mc_vs_model"].call(this)
        assert [(seq.kind, seq.theta / math.pi, seq.n_cycles, seq.omega,
                 delta, spec.axis, spec.kind, spec.sigma, spec.tau_c, trials)
                for seq, delta, spec, trials in calls] == [
            ("rotary_echo", theta_pi, n_cycles, w.OU_OMEGA_MHZ * mhz,
             w.OU_DETUNING_MHZ * mhz, "z", "ou", w.OU_SIGMA_MHZ * mhz,
             w.OU_TAU_C_US * 1e-6, w.OU_TRIALS)
            for theta_pi, n_cycles in w.OU_CASES]
    finally:
        os.environ.clear()
        os.environ.update(environ)
        sys.path[:] = path
        for name in set(sys.modules) - modules:
            if name.split(".")[0] in ("layer_timings", "remag_smoke_this",
                                      "remag_smoke_other", "run",
                                      "workloads"):
                del sys.modules[name]
