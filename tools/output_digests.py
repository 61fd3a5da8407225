"""SHA-256 of every CSV and JSON body that a fixed set of remag runs writes.

The set is every `remag figure` preset, plus `noise` and `sensitivity`
on one config per scenario family, `sensitivity` on one config with
non-default readout overheads, `noise` on one OU-z echo whose grid
crosses several noise time blocks, on OU drive noise on Ramsey, on
static drive noise on Rabi and on static dephasing on a detuned Rabi
(no model column, and a warning that says why), on resonant static
drive noise on Ramsey, on static dephasing on a detuned pi echo and on
a resonant Rabi (these three also under `sensitivity`, where the Rabi
has no envelope and exits 1) and on an OU-z echo whose bath is too
strong and slow for the exact mean (no model column, a warning),
`simulate` on four noiseless families (a pi echo, the hyperfine
triplet, Rabi and Ramsey), `spectrum` on the noiseless triplet, two
more whose window leakage clears the significance level and on Rabi
(no line pairs), and `sensitivity` and `spectrum` on a 22 pi echo,
which refocuses and so exits 1.  A
refactor that must keep outputs byte-identical prints the same lines as
its parent commit; manifests are hashed without their `started` and
`finished` timestamps, the only fields allowed to differ between reruns.
The grid facts of a Monte Carlo run (its step, step count and trial
chunks: the `# dt_ns`, `# n_steps` and `# chunks` lines of a CSV and the
manifest's `monte_carlo` section) are printed on a `grid` line of their
own, so a changed grid shows apart from changed numbers.

    python tools/output_digests.py                     # this checkout
    python tools/output_digests.py --src OTHER/src     # another checkout
    python tools/output_digests.py --diff OTHER/src    # this against another

Each line is `<run> <file> <sha256>`, or `<run> <file> grid <facts>`; a
run that exits nonzero prints `<run> exit=<code>` instead of its files.
`--diff` runs both checkouts, each in its own interpreter, and prints each
line that differs as `- <other>` / `+ <this>`.  Below a file's changed
digest it prints `  |d| <column>=<max>, ...`: the largest absolute
difference of each numeric CSV column or JSON field (list positions
merged) that differs, `shape` where the two files hold a different
number of values there, `changed` for a differing string, boolean or
null field, and then the names of the fields only this
checkout writes (`added ...`) and only the other writes (`removed ...`),
so a change that only moves rounding or adds one field shows in one short
line.  The last line counts the differing lines and names the largest
difference, and the exit status is 1 if any line differs, 0 if none does.
Monte Carlo runs (`noise` and figures 4a, 4b, 4c and s4, the runs that
take `--trials`) use 60 trials, and each run's cases run one after another,
so the whole set takes well under a minute on two cores.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import multiprocessing
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

SEED = "11"
TRIALS = "60"
MONTE_CARLO_PANELS = ("4a", "4b", "4c", "s4")  # the presets that take --trials

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
# noise only: drive noise on Ramsey's free evolution (exact_mean), and
# static drive noise between Rabi periods (mean_signal)
FAMILIES["ou_x_ramsey"] = (RAMSEY, "detuning_mhz = 2.0\n",
                           OU + "axis = x\nsigma_mhz = 1.0\n")
FAMILIES["static_x_rabi"] = (RABI, "detuning_mhz = 0.0\n",
                             "enabled = true\nkind = static\naxis = x\n"
                             "sigma_mhz = 1.0\n")
# noise only: static dephasing on a detuned Rabi, which mean_signal's
# resonant form does not cover (no model column)
FAMILIES["static_z_rabi_detuned"] = (RABI, "detuning_mhz = 0.5\n",
                                     "enabled = true\nkind = static\n"
                                     "axis = z\nsigma_mhz = 1.0\n")
# noise and sensitivity: static drive noise on Ramsey's free evolution,
# on resonance, where mean_signal's form holds
FAMILIES["static_x_ramsey"] = (RAMSEY, "detuning_mhz = 0.0\n",
                               "enabled = true\nkind = static\naxis = x\n"
                               "sigma_mhz = 1.0\n")
# noise only: an OU-z echo past exact_mean's hierarchy level cap (no model
# column; the manifest's warning names the cap)
FAMILIES["ou_z_echo_refused"] = (ECHO_PI.replace("n_cycles = 12",
                                                 "n_cycles = 18"),
                                 "detuning_mhz = 2.0\n",
                                 "enabled = true\nkind = ou\ntau_c_us = 2.0\n"
                                 "axis = z\nsigma_mhz = 3.0\n")
# noise and sensitivity: static dephasing on a detuned pi echo (mean_signal's
# first-order beat times the t_prime_re envelope), and on a resonant Rabi
# (rabi_static_z_mean; sensitivity refuses it: no multiplicative envelope)
FAMILIES["static_z_echo"] = (ECHO_PI, "detuning_mhz = 2.0\n",
                             "enabled = true\nkind = static\naxis = z\n"
                             "sigma_mhz = 1.0\n")
FAMILIES["static_z_rabi"] = (RABI, "detuning_mhz = 0.0\n",
                             "enabled = true\nkind = static\naxis = z\n"
                             "sigma_mhz = 1.0\n")
# simulate only: the noiseless trace of a detuned pi echo, Rabi and Ramsey
# (read between its ideal pi/2 pulses)
for name, seq in (("noiseless_echo", ECHO_PI), ("noiseless_rabi", RABI),
                  ("noiseless_ramsey", RAMSEY)):
    FAMILIES[name] = (seq, "detuning_mhz = 2.0\n", "enabled = false\n")
# spectrum only: two triplets of perfbench's analysis-cli spectrum design
# (its ops 4 and 9), at the default max_peaks, whose strong pairs' window
# sidelobes clear the significance level
for name, cycles, b in (("triplet_69_cycles", 69, 0.1625),
                         ("triplet_90_cycles_filtered", 90, 0.1675)):
    FAMILIES[name] = ("kind = rotary_echo\ntheta_pi = 1.0\n"
                      f"omega_mhz = 17.0\nn_cycles = {cycles}\n",
                      f"detuning_mhz = {b}\nhyperfine_mhz = 2.14\n",
                      "enabled = false\n")
# sensitivity and spectrum: theta = 22 pi = 2 pi k, the first even
# theta/pi whose theta mod 2 pi is not exactly 0 in floating point
FAMILIES["even_theta_22"] = ("kind = rotary_echo\ntheta_pi = 22.0\n"
                             "omega_mhz = 17.0\nn_cycles = 12\n",
                             "detuning_mhz = 0.17\n", "enabled = false\n")
COMMANDS = {"simulate": ("noiseless_echo", "noiseless_triplet",
                         "noiseless_rabi", "noiseless_ramsey"),
            "noise": SHARED + ("ou_z_echo_blocks", "ou_x_ramsey",
                               "static_x_rabi", "static_z_rabi_detuned",
                               "static_x_ramsey", "ou_z_echo_refused",
                               "static_z_echo", "static_z_rabi"),
            "sensitivity": SHARED + ("ou_z_echo_readout", "even_theta_22",
                                     "static_x_ramsey", "static_z_echo",
                                     "static_z_rabi"),
            "spectrum": ("noiseless_triplet", "triplet_69_cycles",
                         "triplet_90_cycles_filtered", "noiseless_rabi",
                         "even_theta_22")}
EXTRA = {"noiseless_triplet":
         "\n[spectrum]\nmax_peaks = 6\nfilter_harmonics = true\n",
         "triplet_69_cycles": "\n[spectrum]\nfilter_harmonics = false\n",
         "triplet_90_cycles_filtered":
         "\n[spectrum]\nfilter_harmonics = true\n",
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
    # only the Monte Carlo runs take a trial count
    monte_carlo = argv[0] == "noise" or (argv[0] == "figure"
                                         and argv[1] in MONTE_CARLO_PANELS)
    trials = ["--trials", TRIALS] if monte_carlo else []
    with contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv + ["--out", str(out), "--seed", SEED] + trials)
    if rc != 0:
        return [f"{tag} exit={rc}"]
    return [line for p in sorted(out.iterdir())
            for line in _digest_lines(tag, p)]


def digests(src: Path, work: Path) -> list[str]:
    """Digest lines of the runs of the checkout at ``src``; files stay in
    ``work``, one directory per run."""
    sys.path.insert(0, str(src.resolve()))
    from remag.cli import FIGURES, main

    work.mkdir(parents=True, exist_ok=True)
    lines = []
    for panel in FIGURES:
        lines += _run(main, f"figure {panel}", ["figure", panel], work)
    for command, names in COMMANDS.items():
        for name in names:
            cfg = work / f"{name}.ini"
            cfg.write_text(_config_text(name), encoding="utf-8")
            lines += _run(main, f"{command} {name}",
                          [command, "--config", str(cfg)], work)
    return lines


def _line_key(line: str) -> tuple:
    """A line's run, file and kind: what is compared across checkouts."""
    command, name, rest = line.split(" ", 2)
    if rest.startswith("exit="):
        return command, name, "exit"
    file, kind = rest.split(" ", 2)[:2]
    return command, name, file, "grid" if kind == "grid" else "sha"


def _fields(path: Path) -> dict:
    """Values of a CSV (by column, as floats) or JSON file (by field path,
    every leaf value and each empty list; numbers as floats; a manifest
    without its timestamps)."""
    if path.suffix == ".csv":
        text = path.read_text(encoding="utf-8").splitlines()
        rows = list(csv.reader(ln for ln in text if not ln.startswith("#")))
        return {col: [float(r[j]) for r in rows[1:]]
                for j, col in enumerate(rows[0])}
    values: dict = {}

    def walk(node, name):
        if isinstance(node, dict):
            for key, child in node.items():
                walk(child, f"{name}.{key}" if name else key)
        elif isinstance(node, list):
            if not node:        # an empty list is a field too
                values.setdefault(f"{name}[]", [])
            for child in node:
                walk(child, f"{name}[]")
        else:
            numeric = isinstance(node, (int, float)) and \
                not isinstance(node, bool)
            values.setdefault(name, []).append(float(node) if numeric
                                               else node)

    payload = json.loads(path.read_bytes())
    if path.name == "manifest.json":    # timestamps differ between reruns
        payload.pop("started", None)
        payload.pop("finished", None)
    walk(payload, "")
    return values


def _largest_differences(a: Path, b: Path) -> tuple[dict, list, list]:
    """For each column or field that differs, the largest |a - b| of its
    numbers, "shape" where the files hold a different number of values
    there, or "changed" for other values; and the names only ``a`` has
    and only ``b`` has."""
    na, nb = _fields(a), _fields(b)
    diffs = {}
    for name in na.keys() & nb.keys():
        x, y = na[name], nb[name]
        if len(x) != len(y):
            diffs[name] = "shape"
        elif not all(isinstance(v, float) for v in x + y):
            if x != y:
                diffs[name] = "changed"
        else:
            # nan on both sides is no difference; nan on one side is nan
            gaps = [abs(u - v) for u, v in zip(x, y)
                    if u != v and not (math.isnan(u) and math.isnan(v))]
            if gaps:
                diffs[name] = (math.nan if any(map(math.isnan, gaps))
                               else max(gaps))
    return (dict(sorted(diffs.items())), sorted(na.keys() - nb.keys()),
            sorted(nb.keys() - na.keys()))


def _describe(diffs: dict, added: list, removed: list) -> str:
    """One `|d|` line: the differing fields, then added and removed keys."""
    parts = [", ".join(f"{name}={d if isinstance(d, str) else f'{d:.3g}'}"
                       for name, d in diffs.items())] if diffs else []
    parts += [f"added {', '.join(added)}"] if added else []
    parts += [f"removed {', '.join(removed)}"] if removed else []
    return "  |d| " + ("; ".join(parts) or "no field differs")


def compare(this: Path, other: Path, work: Path) -> tuple[list[str], int]:
    """Lines that differ between two checkouts, with the numeric size of
    each changed file's difference, and how many lines differ."""
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
        mine = pool.submit(digests, this, work / "this")
        theirs = pool.submit(digests, other, work / "other")
        mine, theirs = mine.result(), theirs.result()
    old = {_line_key(ln): ln for ln in theirs}
    new = {_line_key(ln): ln for ln in mine}
    out, changed, largest = [], 0, (0.0, "none")
    for key in list(new) + [k for k in old if k not in new]:
        if old.get(key) == new.get(key):
            continue
        changed += 1
        out += [f"- {old[key]}"] if key in old else []
        out += [f"+ {new[key]}"] if key in new else []
        if key[-1] != "sha" or key not in old or key not in new:
            continue
        run = "_".join(key[:2])
        diffs, added, removed = _largest_differences(
            work / "this" / run / key[2], work / "other" / run / key[2])
        out.append(_describe(diffs, added, removed))
        for name, d in diffs.items():
            if not isinstance(d, str) and d >= largest[0]:
                largest = (d, f"{' '.join(key[:3])} {name}")
    out.append(f"{changed} of {len(set(old) | set(new))} lines differ; "
               f"largest |d| {largest[0]:.3g} ({largest[1]})")
    return out, changed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src",
                        help="the src/ directory of the checkout to run")
    parser.add_argument("--diff", type=Path, metavar="OTHER_SRC",
                        help="the src/ directory of a checkout to compare "
                             "with: print only what differs")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        if args.diff is None:
            lines, changed = digests(args.src, Path(tmp)), 0
        else:
            lines, changed = compare(args.src, args.diff, Path(tmp))
    print("\n".join(lines))
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
