"""Command line front end.

Runs one identity family (or all of them) over a parameter grid and
emits a machine-readable report.  Typical calls:

    xi-verify --identity theta
    xi-verify --identity all --zeros zeros.txt --format json --out report.json
    xi-verify --identity rhl --zeros zeros.txt --alpha 2 --z 1

Output is deterministic: given the same inputs and tolerance, the bytes
written are identical run to run (reports carry no timestamps, dict keys
are sorted, floats print as their shortest round-trip form).

Exit status: 0 when every report passes, 1 when any report fails, 2 for
usage errors (bad flags, malformed z or grid file, rhl without zeros).
"""

import argparse
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .identities import (RHL_COUNTS, VerificationReport, aux_checks,
                         verify_ferrar, verify_hardy, verify_line_integral,
                         verify_ramanujan_bose, verify_ramanujan_digamma,
                         verify_rhl, verify_theta)
from .numseries import MAX_TERMS
from .xikernel import KernelParams
from .zeros import prepare_zeros

_DEFAULT_ALPHAS = (0.5, 0.8, 1.0, 1.25, 2.0)
_DEFAULT_ZS = (0.0 + 0.0j, 1.0 + 0.0j, 2.0j, 1.0 + 0.5j)


def _each_point(grid):
    return list(grid)


def _each_alpha(grid):
    return [(a, 0.0 + 0.0j) for a in dict.fromkeys(a for a, _z in grid)]


def _once(grid):
    return [(1.0, 0.0 + 0.0j)]


# family -> (cells: the (alpha, z) points it runs at on a grid, run: its
# reports at one point), in battery order.  Each run names its verifier when
# called, so a module attribute rebound after import (a tracer's wrapper, a
# test's stub) is the one used; tasks carry the family name so they pickle.
# The run-wide extra (zeros, Moebius limit) is not in the tasks: a --jobs
# worker receives it once, through the pool's initializer, so the zeros
# are pickled once per worker instead of once per task.
_FAMILIES = {
    "theta": (_each_point, lambda p, tol, x: [verify_theta(p, tol)]),
    "hardy": (_each_point, lambda p, tol, x: [verify_hardy(p, tol)]),
    "ferrar": (_each_point, lambda p, tol, x: [verify_ferrar(p, tol)]),
    "ramanujan": (_each_point,
                  lambda p, tol, x: [verify_ramanujan_bose(p, tol)]),
    "digamma": (_each_alpha,
                lambda p, tol, x: [verify_ramanujan_digamma(p.alpha, tol)]),
    "lineint": (_each_point,
                lambda p, tol, x: [verify_line_integral(p, tol)]),
    "aux": (_once, lambda p, tol, x: aux_checks(tol)),
    "rhl": (_each_point, lambda p, tol, x: [verify_rhl(
        p, x["zeros"], x["mobius_limit"], tol)]),
}


def parse_z(text):
    """Parse a complex parameter written with i, e.g. 0, 2, 2i, 1+0.5i."""
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        value = complex(cleaned)
    except ValueError:
        raise ValueError("cannot parse %r as a complex number" % text)
    if not (abs(value.real) < 1e12 and abs(value.imag) < 1e12):
        raise ValueError("non-finite or absurd z: %r" % text)
    return value


def _format_z(z):
    z = complex(z)
    if z.imag == 0.0:
        return repr(z.real)
    if z.real == 0.0:
        return repr(z.imag) + "i"
    sign = "+" if z.imag >= 0 else "-"
    return "%s%s%si" % (repr(z.real), sign, repr(abs(z.imag)))


def load_grid_file(path):
    """Read grid points from a text file: one "alpha re(z) im(z)" triple
    per line, blank lines and #-comments ignored."""
    points = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 3:
                raise ValueError("%s:%d: expected 'alpha re im', got %r"
                                 % (path, lineno, raw.strip()))
            try:
                a, re_z, im_z = (float(f) for f in fields)
            except ValueError:
                raise ValueError("%s:%d: non-numeric field in %r"
                                 % (path, lineno, raw.strip()))
            if not (0.0 < a < math.inf and math.isfinite(re_z)
                    and math.isfinite(im_z)):
                raise ValueError("%s:%d: alpha must be positive and finite, "
                                 "z finite" % (path, lineno))
            points.append((a, complex(re_z, im_z)))
    if not points:
        raise ValueError("%s: grid file holds no points" % path)
    return points


def default_grid():
    return [(a, z) for a in _DEFAULT_ALPHAS for z in _DEFAULT_ZS]


def report_to_dict(report):
    """Flatten a VerificationReport into JSON-ready primitives."""
    sides = {name: [complex(v).real, complex(v).imag]
             for name, v in report.sides.items()}
    return {
        "identity": report.identity_id,
        "alpha": report.params.alpha,
        "z": [complex(report.params.z).real, complex(report.params.z).imag],
        "sides": sides,
        "residuals": dict(report.residuals),
        "tolerance": report.tolerance,
        "pass": bool(report.passed),
        "diagnostics": report.diagnostics,
    }


def _run_task(task, extra):
    """Evaluate one (identity, grid point) cell; returns a list of dicts.

    A numerical failure (a tolerance float64 quadrature cannot certify,
    an argument outside a function's range, a numpy overflow, division by
    zero or invalid operation, raised rather than computed on as inf or
    NaN) becomes a failing report, not a crash.
    """
    kind, alpha, z, tol = task
    params = KernelParams(alpha, z)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            reports = _FAMILIES[kind][1](params, tol, extra)
    except (ValueError, FloatingPointError) as exc:
        prefix = ("floating-point error: "
                  if isinstance(exc, FloatingPointError) else "")
        reports = [VerificationReport(kind, params, {}, {}, tol, False,
                                      {"error": prefix + str(exc)})]
    return [report_to_dict(r) for r in reports]


# a --jobs worker's copy of the run-wide extra, set by _init_worker
_worker_extra = None


def _init_worker(extra):
    """Pool initializer: keep the run-wide extra for this worker's tasks."""
    global _worker_extra
    _worker_extra = extra


def _run_in_worker(task):
    """_run_task in a pool worker; top-level so the pool can pickle it."""
    return _run_task(task, _worker_extra)


def build_tasks(identity, grid, tol, extra):
    """Expand the requested identity over the grid into worker tasks
    (kind, alpha, z, tol); "all" is every family in table order, rhl only
    when extra has zeros."""
    kinds = [identity]
    if identity == "all":
        kinds = [k for k in _FAMILIES
                 if k != "rhl" or extra["zeros"] is not None]
    return [(kind, a, z, tol)
            for kind in kinds for a, z in _FAMILIES[kind][0](grid)]


def render_json(dicts):
    payload = {"reports": dicts,
               "all_pass": all(d["pass"] for d in dicts)}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def render_csv(dicts):
    """One row per pairwise residual."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["identity", "alpha", "z", "pair", "residual",
                     "tolerance", "pass"])
    for d in dicts:
        items = sorted(d["residuals"].items()) or [("", 0.0)]
        for pair, value in items:
            writer.writerow([d["identity"], repr(d["alpha"]),
                             _format_z(complex(d["z"][0], d["z"][1])),
                             pair, repr(value), repr(d["tolerance"]),
                             "pass" if d["pass"] else "fail"])
    return buf.getvalue()


def build_parser():
    parser = argparse.ArgumentParser(
        prog="xi-verify",
        description="Numerically verify modular-type transformation "
                    "formulas and their Xi-integral representations.")
    parser.add_argument("--identity", choices=(*_FAMILIES, "all"),
                        default="all",
                        help="which identity family to check (default: all)")
    parser.add_argument("--alpha", type=float, default=None,
                        help="single alpha instead of the built-in grid")
    parser.add_argument("--z", type=str, default=None,
                        help="single z (forms: 0, 1.5, 2i, 1+0.5i); "
                             "requires --alpha")
    parser.add_argument("--grid", type=str, default="default",
                        help="'default' or 'file:PATH' with "
                             "'alpha re(z) im(z)' lines")
    parser.add_argument("--zeros", type=str, default=None,
                        help="path to a file of zero ordinates "
                             "(one positive real per line, ascending)")
    parser.add_argument("--mobius-limit", type=int, default=10000,
                        help="Moebius sieve cutoff for rhl, 1 to 1e7 "
                             "(default 1e4)")
    parser.add_argument("--tol", type=float, default=None,
                        help="tolerance for equality identities "
                             "(default 1e-8, env XI_VERIFY_TOL)")
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (default json)")
    parser.add_argument("--out", type=str, default=None,
                        help="write the report here instead of stdout")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for grid evaluation (at most "
                             "one per task and one per CPU)")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.z is not None and args.alpha is None:
        parser.error("--z requires --alpha")
    if args.tol is None:
        text = os.environ.get("XI_VERIFY_TOL", "1e-8")
        try:
            args.tol = float(text)
        except ValueError:
            parser.error("XI_VERIFY_TOL: invalid float value: %r" % text)
    if args.alpha is not None and not 0.0 < args.alpha < math.inf:
        parser.error("--alpha must be finite and positive")
    if not 0.0 < args.tol < math.inf:
        parser.error("--tol must be finite and positive")
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")

    if args.alpha is not None:
        if args.z is not None:
            try:
                z = parse_z(args.z)
            except ValueError as exc:
                parser.error(str(exc))
        else:
            z = 0.0 + 0.0j
        grid = [(args.alpha, z)]
    elif args.grid == "default":
        grid = default_grid()
    elif args.grid.startswith("file:"):
        try:
            grid = load_grid_file(args.grid[len("file:"):])
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
    else:
        parser.error("--grid must be 'default' or 'file:PATH'")

    needs_zeros = args.identity == "rhl"
    if needs_zeros and args.zeros is None:
        parser.error("--identity rhl requires --zeros")
    if not 1 <= args.mobius_limit <= MAX_TERMS:
        parser.error("--mobius-limit must lie in [1, 1e7]")

    extra = {"mobius_limit": args.mobius_limit, "zeros": None}
    if args.zeros is not None:
        try:
            extra["zeros"] = prepare_zeros(args.zeros,
                                           max_count=max(RHL_COUNTS))
        except (OSError, ValueError) as exc:
            parser.error(str(exc))

    tasks = build_tasks(args.identity, grid, args.tol, extra)

    # the pool forks all its workers at the first submit, so ask for no
    # more than can run at once
    workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_init_worker,
                                 initargs=(extra,)) as pool:
            grouped = list(pool.map(_run_in_worker, tasks))
    else:
        grouped = [_run_task(t, extra) for t in tasks]
    dicts = [d for group in grouped for d in group]

    text = render_json(dicts) if args.format == "json" else render_csv(dicts)
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    return 0 if all(d["pass"] for d in dicts) else 1


if __name__ == "__main__":
    sys.exit(main())
