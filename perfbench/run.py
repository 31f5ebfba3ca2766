"""Benchmark for the xi-verify command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # table of all four

Run from the root of a source checkout.  Every timed invocation is a fresh
interpreter (perfbench/child.py) that imports xiverify.cli from ./src and
calls cli.main the way the `xi-verify` entry point does, one invocation at
a time, until S seconds have passed.  BLAS threads are left as the
environment sets them, as users get them.  run_s is scaled to a nominal
host speed measured by a calibration kernel around every invocation
(calib.py), because the speed of a shared host drifts between runs.

Workloads (see perfbench/README.md for why each exists):
  battery        every identity, built-in 20-point grid, zeros, serial
  battery_jobs2  the same with --jobs 2
  xi_sweep       theta, hardy, ramanujan, lineint over a seeded 48-point grid
  zero_sum       rhl over a seeded 20-point grid

With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
holds the per-layer metrics of a traced invocation, each paired with an
untraced one so the tracing overhead is known.  The last line of standard
output is one JSON object {correct, attempted, failed, metrics}; the line
before it records the seed, samples, problems found and the environment.
Exit status: 0 when every check passes, 1 when a correctness check fails,
2 when there is nothing to measure (no ./src/xiverify) or a bad argument.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import calib
import check
import grid
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = "src"
ZEROS = "src/xiverify/data/zeros_sample.txt"
WORK = ".perfbench_run"
SETUP_SAMPLES = 8
CHILD_TIMEOUT = 150.0

# The CLI's documented built-in grid, written out so that a cell the CLI
# stops computing is noticed instead of silently not expected.
DEFAULT_GRID = [(a, z) for a in (0.5, 0.8, 1.0, 1.25, 2.0)
                for z in (0j, 1 + 0j, 2j, 1 + 0.5j)]
BATTERY = ("theta", "hardy", "ferrar", "ramanujan", "digamma", "lineint",
           "aux", "rhl")
XI_FAMILIES = ("theta", "hardy", "ramanujan", "lineint")

WORKLOADS = ("battery", "battery_jobs2", "xi_sweep", "zero_sum")
SEEDED_POINTS = {"xi_sweep": 36, "zero_sum": 8}

END_TO_END = {
    "run_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "pass_frac": ("ratio", "higher"),
    "margin_digits": ("digits", "higher"),
}

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")


def plan(workload, seed, rundir):
    """The CLI calls of one invocation, as [(argv, families)], and the grid.

    Seeded workloads get their grid file written into `rundir`.
    """
    if workload in ("battery", "battery_jobs2"):
        argv = ["--identity", "all", "--zeros", ZEROS]
        if workload == "battery_jobs2":
            argv += ["--jobs", "2"]
        return [(argv, BATTERY)], DEFAULT_GRID
    points = grid.make_grid(seed, SEEDED_POINTS[workload])
    path = os.path.join(rundir, "grid.txt")
    grid.write_grid(path, points, seed)
    pairs = [(a, complex(re, im)) for a, re, im in points]
    if workload == "xi_sweep":
        return [(["--identity", f, "--grid", "file:" + path], (f,))
                for f in XI_FAMILIES], pairs
    argv = ["--identity", "rhl", "--zeros", ZEROS, "--grid", "file:" + path]
    return [(argv, ("rhl",))], pairs


def invoke(rundir, tag, argvs, trace="off"):
    """Run one fresh-interpreter invocation; return (record, outputs, spans).

    record is None when the child did not finish; outputs holds the bytes
    each CLI call wrote (None where it wrote nothing).
    """
    outs = [os.path.join(rundir, "%s-%d.json" % (tag, k))
            for k in range(len(argvs))]
    spec = {"src": SRC, "trace": trace,
            "argvs": [list(a) + ["--out", o] for a, o in zip(argvs, outs)],
            "spans": os.path.join(rundir, tag + "-spans.json"),
            "record": os.path.join(rundir, tag + "-record.json")}
    spec_path = os.path.join(rundir, tag + "-spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"),
                             spec_path], stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
    except BaseException:
        # interrupted: take the child and its pool workers down with us
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    record = None
    if proc.returncode == 0:
        with open(spec["record"]) as fh:
            record = json.load(fh)
    else:
        sys.stderr.write(err.decode(errors="replace")[-2000:])
    outputs = []
    for o in outs:
        if os.path.exists(o):
            with open(o, "rb") as fh:
                outputs.append(fh.read())
        else:
            outputs.append(None)
    spans = None
    if trace != "off" and record is not None:
        with open(spec["spans"]) as fh:
            spans = json.load(fh)
    return record, outputs, spans


def source_digest():
    """sha256 over the package sources: identifies the commit under test."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "xiverify")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(path.encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


class Checker:
    """Checks every invocation's outputs and keeps the cell tallies.

    Outputs must be byte-identical to the first output ever recorded for
    the same sources, workload and CLI arguments; the digests are kept
    under .perfbench_run/ref, so this holds across runs of one checkout.
    """

    def __init__(self, calls, grid_points, workload):
        self.cells = [check.expected_cells(f, grid_points) for _, f in calls]
        self.ncells = sum(len(c) for c in self.cells)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = {}  # call index -> reports of its first sound output
        refdir = os.path.join(WORK, "ref")
        os.makedirs(refdir, exist_ok=True)
        sources = source_digest()
        self.refs = []
        for argv, _ in calls:
            # the grid file's contents, not its path, identify the input
            key = json.dumps([sources, workload, _grid_text(argv),
                              [a for a in argv if not a.startswith("file:")]])
            self.refs.append(os.path.join(
                refdir, hashlib.sha256(key.encode()).hexdigest()))

    def add(self, tag, record, outputs):
        self.attempted += self.ncells
        if record is None:
            self.failed += self.ncells
            self.problems.append("%s: invocation did not finish" % tag)
            return
        for k, (out, code) in enumerate(zip(outputs, record["codes"])):
            cells = self.cells[k]
            if out is None:
                self.failed += len(cells)
                self.problems.append("%s: call %d wrote no output" % (tag, k))
                continue
            digest = hashlib.sha256(out).hexdigest()
            if not os.path.exists(self.refs[k]):
                _write_atomic(self.refs[k], digest)
            with open(self.refs[k]) as fh:
                ref = fh.read()
            if digest != ref:
                self.failed += len(cells)
                self.problems.append("%s: call %d output differs from the "
                                     "first run of these sources" % (tag, k))
                continue
            res = check.check_output(out.decode(), code, cells)
            self.failed += res["failed"]
            self.problems += ["%s: call %d: %s" % (tag, k, p)
                              for p in res["problems"]]
            if res["reports"]:
                self.first.setdefault(k, res["reports"])

    @property
    def reports(self):
        """One invocation's reports; every sound output holds the same."""
        return [r for k in sorted(self.first) for r in self.first[k]]


def _grid_text(argv):
    for a in argv:
        if a.startswith("file:"):
            with open(a[len("file:"):]) as fh:
                return fh.read()
    return None


def _write_atomic(path, text):
    tmp = "%s.%d" % (path, os.getpid())
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def environment():
    """Read-only facts about the machine and toolchain of this run."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError, ValueError):
        blas = None
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas,
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV}}


class Budget:
    """Repeats rounds while the next one is expected to end within budget.

    The first round always runs; after that a round starts only if the
    median round so far would still finish within `seconds`.
    """

    def __init__(self, seconds):
        self.seconds = seconds
        self.start = self.mark = time.perf_counter()
        self.laps = []

    @property
    def rounds(self):
        return len(self.laps)

    def another(self):
        if not self.laps:
            return True
        elapsed = time.perf_counter() - self.start
        return elapsed + statistics.median(self.laps) <= self.seconds

    def lap(self):
        now = time.perf_counter()
        self.laps.append(now - self.mark)
        self.mark = now


def timed_run(calls, checker, rundir, seconds):
    """Fresh-interpreter invocations until `seconds` have passed.

    run_s is scaled to the nominal host speed (see calib.py): each
    invocation's wall time by the mean of the calibration kernel timed just
    before and just after it.  Import times track the kernel poorly, so
    setup_s stays unscaled.
    """
    argvs = [a for a, _ in calls]
    setups, walls, speeds, peaks = [], [], [], []
    invoke(rundir, "warm", [])
    for i in range(SETUP_SAMPLES):
        record, _, _ = invoke(rundir, "setup%d" % i, [])
        if record is not None:
            setups.append(record["setup_s"])
    clock = Budget(seconds)
    before = calib.kernel()
    while clock.another():
        tag = "run%d" % clock.rounds
        record, outputs, _ = invoke(rundir, tag, argvs)
        after = calib.kernel()
        checker.add(tag, record, outputs)
        clock.lap()
        if record is not None:
            setups.append(record["setup_s"])
            walls.append(record["run_s"])
            speeds.append(2.0 * calib.NOMINAL_S / (before + after))
            peaks.append(record["peak_rss_mb"])
        before = after
    metrics = {}
    if walls:
        metrics = {
            "run_s": statistics.median(w * f for w, f in zip(walls, speeds)),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(peaks),
        }
    samples = {"wall_s": walls, "speed": speeds, "setup_s": setups,
               "peak_rss_mb": peaks}
    return metrics, samples


def traced_run(workload, calls, checker, rundir, seconds, seed):
    """Pairs of untraced and traced invocations until `seconds` have passed.

    battery_jobs2 runs its cells in worker processes whose spans this
    process cannot collect, so it is traced at the cli layer only and its
    lower-layer metrics come from a traced serial battery in the same pair.
    """
    argvs = [a for a, _ in calls]
    invoke(rundir, "warm", [])
    clock = Budget(seconds)
    pairs = []
    while clock.another():
        i = clock.rounds
        plain, outputs, _ = invoke(rundir, "plain%d" % i, argvs)
        checker.add("plain%d" % i, plain, outputs)
        mode = "cli" if workload == "battery_jobs2" else "all"
        traced, outputs, spans = invoke(rundir, "traced%d" % i, argvs, mode)
        checker.add("traced%d" % i, traced, outputs)
        if plain is None or traced is None:
            break
        m = layers.span_metrics(spans)
        accounted = sum(m[k] for k in layers.SELF_KEYS)
        if workload == "battery_jobs2":
            serial_calls, _ = plan("battery", seed, rundir)
            serial, _, serial_spans = invoke(rundir, "serial%d" % i,
                                             [a for a, _ in serial_calls],
                                             "all")
            if serial is None:
                checker.problems.append("serial%d: invocation did not "
                                        "finish" % i)
                break
            cli_part = {k: v for k, v in m.items() if k.startswith("cli.")}
            m = layers.span_metrics(serial_spans)
            m.update(cli_part)
            accounted = cli_part["cli.self_s"]
        m["identities.resid_over_err"] = layers.resid_over_err(checker.reports)
        m["cli.cells"] = checker.ncells
        m["cli.cpu_s"] = plain["cpu_s"]
        m["cli.cpu_per_wall"] = plain["cpu_s"] / plain["run_s"]
        m["trace.run_s"] = traced["run_s"]
        m["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
        m["trace.unaccounted_s"] = traced["run_s"] - accounted
        m["trace.spans"] = len(spans)
        pairs.append(m)
        clock.lap()
    return (layers.median_dict(pairs) if pairs else {}), {"pairs": len(pairs)}


def run_workload(workload, seed, seconds, trace):
    """Run one workload; return (result line, detail record)."""
    # scratch space for this run's invocations; only result files are kept
    rundir = os.path.join(WORK, "current")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    env = environment()
    env["loadavg_before"] = os.getloadavg()
    calls, grid_points = plan(workload, seed, rundir)
    checker = Checker(calls, grid_points, workload)
    if trace:
        metrics, samples = traced_run(workload, calls, checker, rundir,
                                      seconds, seed)
        units = {k: u for k, (u, _) in layers.PER_LAYER.items()}
    else:
        metrics, samples = timed_run(calls, checker, rundir, seconds)
        metrics["pass_frac"] = ((checker.attempted - checker.failed)
                                / checker.attempted)
        margin = check.margin_digits(checker.reports)
        if margin is not None:
            metrics["margin_digits"] = margin
        units = {k: u for k, (u, _) in END_TO_END.items()}
    env["loadavg_after"] = os.getloadavg()
    missing = sorted(set(units) - set(metrics))
    if missing:
        checker.problems.append("metrics not measured: %s"
                                % ", ".join(missing))
    correct = not checker.problems and checker.failed == 0
    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units if k in metrics},
    }
    detail = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "cells": checker.ncells,
              "grid_points": len(grid_points), "samples": samples,
              "problems": checker.problems, "env": env}
    keep = os.path.join(WORK, "results")
    os.makedirs(keep, exist_ok=True)
    with open(os.path.join(keep, "%s-%d-%d.json" % (workload, seed, trace)),
              "w") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1)
    shutil.rmtree(rundir)
    return result, detail


def print_table(results):
    for workload, result in results:
        for name, m in sorted(result["metrics"].items()):
            print("%-14s %-18s %14.6g %s" % (workload, name, m["value"],
                                            m["unit"]))
        print("%-14s %-18s %14s %d/%d cells failed" % (
            workload, "correct", result["correct"], result["failed"],
            result["attempted"]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "xiverify", "cli.py")):
        sys.stderr.write("perfbench: no %s/xiverify here; run from the root "
                         "of a source checkout\n" % SRC)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result, detail = run_workload(name, args.seed, args.seconds,
                                      args.trace)
        results.append((name, result))
        print(json.dumps(detail, sort_keys=True))
    if args.workload == "all":
        print_table(results)
        print(json.dumps({n: r for n, r in results}, sort_keys=True))
    else:
        print(json.dumps(results[0][1], sort_keys=True))
    return 0 if all(r["correct"] for _, r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
