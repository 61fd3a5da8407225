"""SHA-256 of every CSV and JSON body that a fixed set of remag runs writes.

The set is every `remag figure` preset, plus `simulate`, `noise`,
`sensitivity` and `spectrum` on one config per scenario family,
`sensitivity` on one config with non-default readout overheads, and
`noise` on one OU-z echo whose grid crosses several noise time blocks.  A
refactor that must keep outputs byte-identical prints the same lines as
its parent commit; manifests are hashed without their `started` and
`finished` timestamps, the only fields allowed to differ between reruns.
The grid facts of a Monte Carlo run (its step, step count and trial
chunks: the `# dt_ns`, `# n_steps` and `# chunks` lines of a CSV and the
manifest's `monte_carlo` section) are printed on a `grid` line of their
own, so a changed grid shows apart from changed numbers.

    python tools/output_digests.py                     # this checkout
    python tools/output_digests.py --src OTHER/src     # another checkout
    diff <(python tools/output_digests.py) \\
         <(python tools/output_digests.py --src OTHER/src)

Each line is `<run> <file> <sha256>`, or `<run> <file> grid <facts>`; a
run that exits nonzero prints `<run> exit=<code>` instead of its files.
Monte Carlo runs use 60 trials and 2 threads, so the whole set takes well
under a minute on two cores.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

SEED = "11"
TRIALS = "60"
THREADS = "2"

# one config per scenario family: (sequence section, field section, noise section)
ECHO_PI = "kind = rotary_echo\ntheta_pi = 1.0\nomega_mhz = 20.0\nn_cycles = 12\n"
RABI = "kind = rabi\nomega_mhz = 19.0\nduration_us = 0.5\n"
RAMSEY = "kind = ramsey\nduration_us = 0.5\n"
OU = "enabled = true\nkind = ou\ntau_c_us = 0.2\n"
FAMILIES = {
    "ou_z_echo": (ECHO_PI, "detuning_mhz = 2.0\n",
                  OU + "axis = z\nsigma_mhz = 1.0\n"),
    "ou_z_echo_outside_window": (ECHO_PI.replace("theta_pi = 1.0",
                                                 "theta_pi = 0.75"),
                                 "detuning_mhz = 2.0\n",
                                 OU + "axis = z\nsigma_mhz = 1.0\n"),
    "ou_x_echo_rel": ("kind = rotary_echo\ntheta_pi = 1.0\n"
                      "omega_mhz = 19.0\nn_cycles = 12\n",
                      "detuning_mhz = 0.0\n",
                      OU + "axis = x\nsigma_rel = 0.05\n"),
    "static_x_echo_rel": ("kind = rotary_echo\ntheta_pi = 5.0\n"
                          "omega_mhz = 19.0\nn_cycles = 8\n",
                          "detuning_mhz = 0.0\n",
                          "enabled = true\nkind = static\naxis = x\n"
                          "sigma_rel = 0.05\n"),
    "ou_x_rabi_abs": (RABI, "detuning_mhz = 0.0\n",
                      OU + "axis = x\nsigma_mhz = 1.0\n"),
    "ou_z_rabi": (RABI, "detuning_mhz = 0.5\n",
                  OU + "axis = z\nsigma_mhz = 1.0\n"),
    "ou_z_ramsey": (RAMSEY, "detuning_mhz = 2.0\n",
                    OU + "axis = z\nsigma_mhz = 1.0\n"),
    "static_z_ramsey": (RAMSEY, "detuning_mhz = 2.0\n",
                        "enabled = true\nkind = static\naxis = z\n"
                        "sigma_mhz = 1.0\n"),
    "noiseless_triplet": ("kind = rotary_echo\ntheta_pi = 1.0\n"
                          "omega_mhz = 17.0\nn_cycles = 85\n",
                          "detuning_mhz = 0.17\nhyperfine_mhz = 2.14\n",
                          "enabled = false\n"),
}
SHARED = tuple(FAMILIES)
# sensitivity only: repeated readout, readout and dead time, and hyperfine
# averaging on top of an OU-z envelope
FAMILIES["ou_z_echo_readout"] = (ECHO_PI, "detuning_mhz = 2.0\n"
                                 "hyperfine_mhz = 2.14\n",
                                 OU + "axis = z\nsigma_mhz = 1.0\n")
# noise only: a 5 pi echo whose 624-step grid crosses five noise time blocks
FAMILIES["ou_z_echo_blocks"] = (ECHO_PI.replace("theta_pi = 1.0",
                                                "theta_pi = 5.0")
                                .replace("n_cycles = 12", "n_cycles = 24"),
                                "detuning_mhz = 2.0\n",
                                OU + "axis = z\nsigma_mhz = 1.0\n")
COMMANDS = {"simulate": SHARED, "noise": SHARED + ("ou_z_echo_blocks",),
            "sensitivity": SHARED + ("ou_z_echo_readout",),
            "spectrum": ("noiseless_triplet",)}
EXTRA = {"noiseless_triplet":
         "\n[spectrum]\nmax_peaks = 6\nfilter_harmonics = true\n",
         "ou_z_echo_readout":
         "\n[readout]\nn_r = 100\nt_r_us = 1.5\nt_d_us = 0.7\n"}


def _config_text(name: str) -> str:
    seq, field, noise = FAMILIES[name]
    return (f"[sequence]\n{seq}\n[field]\n{field}\n[noise]\n{noise}"
            + EXTRA.get(name, ""))


GRID_LINES = ("# dt_ns", "# n_steps", "# chunks")


def _digest_lines(tag: str, path: Path) -> list[str]:
    """The file's digest line, and its grid line if it has grid facts."""
    data = path.read_bytes()
    grid = ""
    if path.name == "manifest.json":
        payload = json.loads(data)
        payload.pop("started", None)
        payload.pop("finished", None)
        facts = payload.pop("monte_carlo", None)
        if facts is not None:
            grid = hashlib.sha256(json.dumps(facts, sort_keys=True)
                                  .encode()).hexdigest()
        data = json.dumps(payload, indent=2, sort_keys=True).encode()
    elif path.suffix == ".csv":
        lines = data.decode().splitlines(keepends=True)
        grid = "; ".join(ln[2:].strip() for ln in lines
                         if ln.startswith(GRID_LINES))
        data = "".join(ln for ln in lines
                       if not ln.startswith(GRID_LINES)).encode()
    out = [f"{tag} {path.name} {hashlib.sha256(data).hexdigest()}"]
    return out + [f"{tag} {path.name} grid {grid}"] if grid else out


def _run(main, tag: str, argv: list[str], work: Path) -> list[str]:
    out = work / tag.replace(" ", "_")
    with contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv + ["--out", str(out), "--seed", SEED,
                          "--trials", TRIALS, "--threads", THREADS])
    if rc != 0:
        return [f"{tag} exit={rc}"]
    return [line for p in sorted(out.iterdir())
            for line in _digest_lines(tag, p)]


def digests(src: Path) -> list[str]:
    sys.path.insert(0, str(src.resolve()))
    from remag.cli import FIGURES, main

    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for panel in FIGURES:
            lines += _run(main, f"figure {panel}", ["figure", panel], work)
        for command, names in COMMANDS.items():
            for name in names:
                cfg = work / f"{name}.ini"
                cfg.write_text(_config_text(name), encoding="utf-8")
                lines += _run(main, f"{command} {name}",
                              [command, "--config", str(cfg)], work)
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src",
                        help="the src/ directory of the checkout to run")
    args = parser.parse_args()
    print("\n".join(digests(args.src)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
