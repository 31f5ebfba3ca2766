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
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .identities import (aux_checks, verify_ferrar, verify_hardy,
                         verify_line_integral, verify_ramanujan_bose,
                         verify_ramanujan_digamma, verify_rhl, verify_theta)
from .xikernel import KernelParams
from .zeros import prepare_zeros

_IDENTITIES = ("theta", "hardy", "ferrar", "ramanujan", "digamma", "rhl",
               "lineint", "aux", "all")

_DEFAULT_ALPHAS = (0.5, 0.8, 1.0, 1.25, 2.0)
_DEFAULT_ZS = (0.0 + 0.0j, 1.0 + 0.0j, 2.0j, 1.0 + 0.5j)

_AUX_TOL = 1e-9


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
            if a <= 0.0:
                raise ValueError("%s:%d: alpha must be positive"
                                 % (path, lineno))
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


def _run_task(task):
    """Evaluate one (identity, grid point) cell; returns a list of dicts.

    Top-level so ProcessPoolExecutor can pickle it.  A numerical failure
    (for example a tolerance beyond what float64 quadrature can certify,
    or an argument outside a function's supported range) becomes a
    failing report instead of a crash.
    """
    kind, alpha, z, tol, extra = task
    try:
        return _dispatch_task(kind, alpha, z, tol, extra)
    except (RuntimeError, ValueError) as exc:
        return [{"identity": kind, "alpha": alpha,
                 "z": [complex(z).real, complex(z).imag], "sides": {},
                 "residuals": {}, "tolerance": tol, "pass": False,
                 "diagnostics": {"error": str(exc)}}]


def _dispatch_task(kind, alpha, z, tol, extra):
    if kind == "aux":
        return [report_to_dict(r) for r in aux_checks(extra["aux_tol"])]
    if kind == "digamma":
        return [report_to_dict(verify_ramanujan_digamma(alpha, tol))]
    params = KernelParams(alpha, z)
    if kind == "theta":
        return [report_to_dict(verify_theta(params, tol))]
    if kind == "hardy":
        return [report_to_dict(verify_hardy(params, tol))]
    if kind == "ferrar":
        return [report_to_dict(verify_ferrar(params, tol))]
    if kind == "ramanujan":
        return [report_to_dict(verify_ramanujan_bose(params, tol))]
    if kind == "lineint":
        return [report_to_dict(verify_line_integral(params, tol))]
    if kind == "rhl":
        report = verify_rhl(params, extra["zeros"], extra["mobius_limit"],
                            extra["rhl_tol"])
        return [report_to_dict(report)]
    raise ValueError("unknown identity kind %r" % kind)


def build_tasks(identity, grid, tol, extra, have_zeros):
    """Expand the requested identity over the grid into worker tasks."""
    kinds = [identity]
    if identity == "all":
        kinds = ["theta", "hardy", "ferrar", "ramanujan", "digamma",
                 "lineint", "aux"]
        if have_zeros:
            kinds.append("rhl")
    tasks = []
    for kind in kinds:
        if kind == "aux":
            tasks.append((kind, 1.0, 0.0 + 0.0j, tol, extra))
        elif kind == "digamma":
            seen = []
            for a, _z in grid:
                if a not in seen:
                    seen.append(a)
                    tasks.append((kind, a, 0.0 + 0.0j, tol, extra))
        else:
            for a, z in grid:
                tasks.append((kind, a, z, tol, extra))
    return tasks


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
    parser.add_argument("--identity", choices=_IDENTITIES, default="all",
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
    parser.add_argument("--mobius-limit", type=int, default=100000,
                        help="Moebius sieve cutoff for rhl (default 1e5)")
    parser.add_argument("--tol", type=float,
                        default=float(os.environ.get("XI_VERIFY_TOL", "1e-8")),
                        help="tolerance for equality identities "
                             "(default 1e-8, env XI_VERIFY_TOL)")
    parser.add_argument("--rhl-tol", type=float, default=1e-3,
                        help="trend tolerance for the rhl residual "
                             "(default 1e-3)")
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (default json)")
    parser.add_argument("--out", type=str, default=None,
                        help="write the report here instead of stdout")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for grid evaluation")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.z is not None and args.alpha is None:
        parser.error("--z requires --alpha")
    if args.alpha is not None and args.alpha <= 0.0:
        parser.error("--alpha must be positive")
    if args.tol <= 0.0 or args.rhl_tol <= 0.0:
        parser.error("tolerances must be positive")
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
    if args.mobius_limit < 10000:
        parser.error("--mobius-limit must be at least 10000")

    extra = {"aux_tol": _AUX_TOL, "mobius_limit": args.mobius_limit,
             "rhl_tol": args.rhl_tol, "zeros": None}
    if args.zeros is not None:
        try:
            extra["zeros"] = prepare_zeros(args.zeros, max_count=100)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))

    tasks = build_tasks(args.identity, grid, args.tol, extra,
                        extra["zeros"] is not None)

    if args.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            grouped = list(pool.map(_run_task, tasks))
    else:
        grouped = [_run_task(t) for t in tasks]
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
