"""Alternating parent/change runs of perfbench, written as one BENCH file.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --out FILE \\
        --runs WORKLOAD:SEED:PAIRS ... [--traced WORKLOAD:SEED:PAIRS ...] \\
        [--claim WORKLOAD:SEED:METRIC ...] [--seconds 25] \\
        [--traced-seconds 10]

Each DIR is a source checkout holding perfbench/ and src/.  One run is
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1`
with DIR as its working directory.  Pair i runs the parent first when i
is even and the change first when it is odd.  The file holds every run's
detail and result lines; a summary per workload and seed (median and
inclusive quartiles of each end-to-end metric on each side, the pairs
in which the change was strictly better, ties counting for neither, and
the change's median relative to the parent's); each claim, met when the
change wins at least nine tenths of the pairs and the medians differ by
more than the parent's interquartile range; and the traced runs'
deterministic counters next to their times.  The end-to-end metrics, and
which way each is better, are read from the change's BENCHMARK.json.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

TRACED = ("trace.run_s", "cli.cpu_s", "cli.render_s", "quad.calls",
          "quad.evals", "xikernel.xi_cap.points", "xikernel.xi_small.points",
          "specfun.hyp1f1.points", "numseries.mobius.calls",
          "numseries.mobius.self_s",
          "identities.theta.s", "identities.hardy.s",
          "identities.ramanujan.s", "identities.lineint.s")


def run(directory, workload, seed, seconds, trace):
    """One perfbench run; returns its exit status, detail and result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)], cwd=directory, capture_output=True,
        text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit("%s: perfbench printed no result (exit %d)\n%s"
                         % (directory, proc.returncode, proc.stderr[-2000:]))
    return {"exit": proc.returncode, "detail": json.loads(lines[-2]),
            "result": json.loads(lines[-1])}


def pairs(args, spec, seconds, trace):
    """Alternating runs for one WORKLOAD:SEED:PAIRS spec."""
    workload, seed, count = spec.split(":")
    out = []
    for i in range(int(count)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            pair[side] = run(getattr(args, side), workload, int(seed),
                             seconds, trace)
            print("%s seed %s pair %d %s: exit %d" % (
                workload, seed, i, side, pair[side]["exit"]), flush=True)
        out.append({"first": order[0], **pair})
    return "%s:%s" % (workload, seed), out


def metric(record, name):
    m = record["result"]["metrics"].get(name)
    return None if m is None else m["value"]


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(directory):
    """Metric name -> "lower" or "higher", from the directory's
    BENCHMARK.json, in its order."""
    path = pathlib.Path(directory) / "BENCHMARK.json"
    return {m["name"]: m["better"]
            for m in json.loads(path.read_text())["end_to_end"]}


def summarize(runs, metrics):
    summary = {}
    for key, ps in runs.items():
        rows = {}
        for name, better in metrics.items():
            vals = {side: [metric(p[side], name) for p in ps]
                    for side in ("parent", "change")}
            if any(v is None for side in vals.values() for v in side):
                continue
            sign = 1.0 if better == "lower" else -1.0
            wins = sum(sign * (c - p) < 0.0
                       for p, c in zip(vals["parent"], vals["change"]))
            row = {side: quartiles(v) for side, v in vals.items()}
            row["change_wins"] = "%d/%d" % (wins, len(ps))
            parent = row["parent"]["median"]
            row["change_vs_parent"] = (row["change"]["median"] / parent - 1.0
                                       if parent else None)
            rows[name] = row
        summary[key] = rows
    return summary


def claim(summary, spec):
    workload, seed, name = spec.split(":")
    row = summary["%s:%s" % (workload, seed)][name]
    parent, change = row["parent"], row["change"]
    wins, n = (int(x) for x in row["change_wins"].split("/"))
    iqr = parent["q3"] - parent["q1"]
    return {"workload": workload, "seed": int(seed), "metric": name,
            "parent_median": parent["median"],
            "change_median": change["median"], "parent_iqr": iqr,
            "change_wins": row["change_wins"],
            "change_vs_parent": row["change_vs_parent"],
            "met": (10 * wins >= 9 * n
                    and abs(change["median"] - parent["median"]) > iqr)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--runs", nargs="+", default=[])
    parser.add_argument("--traced", nargs="*", default=[])
    parser.add_argument("--claim", nargs="*", default=[])
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--traced-seconds", type=float, default=10.0)
    args = parser.parse_args(argv)

    runs = dict(pairs(args, spec, args.seconds, 0) for spec in args.runs)
    traced_runs = dict(pairs(args, spec, args.traced_seconds, 1)
                       for spec in args.traced)
    summary = summarize(runs, end_to_end(args.change))
    traced = {key: {side: [{k: metric(p[side], k) for k in TRACED}
                           for p in ps] for side in ("parent", "change")}
              for key, ps in traced_runs.items()}
    doc = {"what": "perfbench/run.py detail and result lines for the parent "
                   "commit and the change, alternating which side runs "
                   "first in each pair; quartiles are inclusive",
           "command": "python3 perfbench/run.py --workload <w> --seed <s> "
                      "--seconds %g --trace 0 (traced: --seconds %g "
                      "--trace 1)" % (args.seconds, args.traced_seconds),
           "claim": [claim(summary, spec) for spec in args.claim],
           "summary": summary, "traced": traced,
           "runs": runs, "runs_traced": traced_runs}
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
