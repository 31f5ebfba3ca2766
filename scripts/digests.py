"""sha256 of the report each of a fixed set of CLI calls writes.

    python3 scripts/digests.py [--root DIR]

DIR is a source checkout holding src/ and perfbench/grid.py (default:
the checkout this script is in).  Each call runs `python3 -m
xiverify.cli` in a fresh interpreter with DIR/src on PYTHONPATH and
PYTHONWARNINGS=error::RuntimeWarning, so an overflow or invalid
operation anywhere fails the call instead of becoming a NaN.  One line
per call, `<sha256>  <label>`, in a fixed order, then the exit status
after a colon when it is not 0:

- the default battery with the sample zeros, as JSON and as CSV, serial
  and with --jobs 2;
- theta, hardy, ferrar, ramanujan, lineint and digamma over the
  xi_sweep workload's grids, and rhl over the zero_sum workload's, at
  seeds 1, 2 and 3 (perfbench/grid.py);
- the edge cells: every family at (1, 7+7i), rhl at (1, 15), hardy at
  (0.1, 20).

A change that keeps the bytes prints the same lines as its parent, so
one `diff` of the two outputs checks it.  The script exits 1 when a
battery call does not exit 0, that is when a battery report fails.
"""

import argparse
import hashlib
import importlib.util
import os
import pathlib
import subprocess
import sys
import tempfile

ZEROS = ["--zeros", "src/xiverify/data/zeros_sample.txt"]
XI_FAMILIES = ("theta", "hardy", "ferrar", "ramanujan", "lineint",
               "digamma")
SEEDS = (1, 2, 3)
# perfbench's seeded points per workload grid, after the 12 anchors
SEEDED_POINTS = {"xi_sweep": 36, "zero_sum": 8}
EDGE_FAMILIES = (*XI_FAMILIES, "aux", "rhl")


def calls(root, where):
    """[(label, argv)] of every call, grids written under where."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_grid", root / "perfbench" / "grid.py")
    grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grid)
    out = []
    for jobs in (1, 2):
        for fmt in ("json", "csv"):
            out.append(("battery %s jobs %d" % (fmt, jobs),
                        ["--identity", "all", *ZEROS, "--format", fmt,
                         "--jobs", str(jobs)]))
    for workload, families in (("xi_sweep", XI_FAMILIES),
                               ("zero_sum", ("rhl",))):
        for seed in SEEDS:
            path = where / ("%s_%d.txt" % (workload, seed))
            grid.write_grid(path, grid.make_grid(
                seed, SEEDED_POINTS[workload]), seed)
            for family in families:
                argv = ["--identity", family, "--grid", "file:%s" % path]
                if family == "rhl":
                    argv += ZEROS
                out.append(("%s %s seed %d" % (family, workload, seed),
                            argv))
    for family, alpha, z in [*((f, "1", "7+7i") for f in EDGE_FAMILIES),
                             ("rhl", "1", "15"), ("hardy", "0.1", "20")]:
        argv = ["--identity", family, "--alpha", alpha, "--z", z]
        if family == "rhl":
            argv += ZEROS
        out.append(("%s at (%s, %s)" % (family, alpha, z), argv))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parents[1],
                        help="source checkout (default: this script's)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONWARNINGS="error::RuntimeWarning")
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for label, cli_args in calls(root, pathlib.Path(tmp)):
            proc = subprocess.run(
                [sys.executable, "-m", "xiverify.cli", *cli_args],
                cwd=root, env=env, capture_output=True, check=False)
            status = "" if proc.returncode == 0 else (
                ": exit %d" % proc.returncode)
            failed |= bool(status) and label.startswith("battery")
            print("%s  %s%s" % (hashlib.sha256(proc.stdout).hexdigest(),
                                label, status), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
