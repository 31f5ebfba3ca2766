"""Command line front end.

Runs one identity family (or all of them) over a parameter grid and
emits a machine-readable report.  Typical calls:

    xi-verify --identity theta
    xi-verify --identity all --zeros zeros.txt --format json --out report.json
    xi-verify --identity rhl --zeros zeros.txt --alpha 2 --z 1

Output is deterministic: given the same inputs and tolerance, the bytes
written are identical run to run (reports carry no timestamps, dict keys
are sorted, floats print as their shortest round-trip form).  The JSON
bytes are those of json.dumps(report, sort_keys=True, indent=2); cli
renders them itself, for speed, since json.dumps takes its pure-Python
encoder whenever it indents.  The writer takes only what a report holds
(str-keyed dicts, lists, str, float, int, bool, None), and the tests
check every payload they render against json.dumps.

Every family runs at --tol (default 1e-8), and rhl's Moebius sums run to
identities.RHL_MOBIUS_LIMIT.

Exit status: 0 when every report passes, 1 when any report fails, 2 for
usage errors (bad flags, malformed z or grid file, rhl without zeros, an
--out path that cannot be written).

Importing cli sets OPENBLAS_NUM_THREADS to 1 unless the environment sets
it, before numpy is first imported: the package makes no BLAS call, so a
BLAS thread pool would only idle (and, under --jobs, compete for the
cores).  It imports only what a serial run uses; --jobs forks its
workers itself.
"""

import argparse
import io
# argparse's gettext imports locale when the first parser is built;
# importing it here keeps that import out of the run
import locale
import math
import os
import pickle
import sys
from json.encoder import encode_basestring_ascii

# before numpy's first import, which starts OpenBLAS's threads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .identities import (BOSE_LINE, CONTOUR_LINE, CRITICAL_LINE,
                         RHL_COUNTS, VerificationReport, aux_checks,
                         prepare_rhl, prepare_xi_sides, verify_ferrar,
                         verify_hardy, verify_line_integral,
                         verify_ramanujan_bose, verify_ramanujan_digamma,
                         verify_rhl, verify_theta)
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


def _xi_rows(*lines):
    """The prepare step of a family whose Xi sides take rho on lines:
    every cell's start-batch rows on each line, one grouped series per
    line."""
    return lambda points, zeros: prepare_xi_sides(points, lines)


# family -> (cells: the (alpha, z) points it runs at on a grid, run: its
# reports at one point, given the run's zeros, prepare: None, or a step
# that fills caches for the (alpha, z) points of its cells, given the
# run's zeros), in battery order.  Each run and step names its function
# when called, so a module attribute rebound after import (a tracer's
# wrapper, a test's stub) is the one used.  A family whose cells take
# 1F1 rows at many w sums them in its prepare step, one grouped series
# per line: the Xi families their start batches' rows, rhl its zero
# sums'.  digamma's cells take one w, aux's no grid at all.
_FAMILIES = {
    "theta": (_each_point, lambda p, tol, x: [verify_theta(p, tol)],
              _xi_rows(CRITICAL_LINE)),
    "hardy": (_each_point, lambda p, tol, x: [verify_hardy(p, tol)],
              _xi_rows(CRITICAL_LINE)),
    "ferrar": (_each_point, lambda p, tol, x: [verify_ferrar(p, tol)],
               _xi_rows(CRITICAL_LINE)),
    "ramanujan": (_each_point,
                  lambda p, tol, x: [verify_ramanujan_bose(p, tol)],
                  _xi_rows(BOSE_LINE)),
    "digamma": (_each_alpha,
                lambda p, tol, x: [verify_ramanujan_digamma(p.alpha, tol)],
                None),
    "lineint": (_each_point,
                lambda p, tol, x: [verify_line_integral(p, tol)],
                _xi_rows(CRITICAL_LINE, CONTOUR_LINE)),
    "aux": (_once, lambda p, tol, x: aux_checks(tol), None),
    "rhl": (_each_point, lambda p, tol, zeros: [verify_rhl(p, zeros, tol)],
            lambda points, zeros: prepare_rhl(points, zeros)),
}

# overflow, division by zero and invalid operations raise in every cell
_RAISE = {"over": "raise", "divide": "raise", "invalid": "raise"}


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
    """Evaluate one (identity, grid point) cell, with extra the run's zeros
    (or None); returns a list of dicts.

    A numerical failure (a tolerance float64 quadrature cannot certify,
    an argument outside a function's range, a numpy overflow, division by
    zero or invalid operation, raised rather than computed on as inf or
    NaN) becomes a failing report, not a crash.
    """
    kind, alpha, z, tol = task
    params = KernelParams(alpha, z)
    try:
        with np.errstate(**_RAISE):
            reports = _FAMILIES[kind][1](params, tol, extra)
    except (ValueError, FloatingPointError) as exc:
        prefix = ("floating-point error: "
                  if isinstance(exc, FloatingPointError) else "")
        reports = [VerificationReport(kind, params, {}, {}, tol, False,
                                      {"error": prefix + str(exc)})]
    return [report_to_dict(r) for r in reports]


def _run_shard(shard, extra):
    """_run_task over one worker's tasks, in order.  Right before a
    family's first cell its prepare step, if any, runs over the shard's
    points of that family under _run_task's errstate.  A step only fills
    caches with what the cells would compute, so one that raises is
    dropped: each cell then meets the error itself and reports it in its
    own words."""
    reports, prepared = [], set()
    for task in shard:
        kind = task[0]
        prepare = _FAMILIES[kind][2]
        if prepare is not None and kind not in prepared:
            prepared.add(kind)
            try:
                with np.errstate(**_RAISE):
                    prepare([t[1:3] for t in shard if t[0] == kind], extra)
            except (ValueError, FloatingPointError):
                pass
        reports.append(_run_task(task, extra))
    return reports


def _run_child(shard, extra, reads, wfd):
    """A forked worker's whole life: close the read ends it inherited,
    run the shard, write the pickled (exception, reports) pair to wfd and
    leave by os._exit, with status 0 only once every byte is written, so
    the child never returns into the parent's stack nor flushes the
    parent's buffers."""
    status = 1
    try:
        for fd in reads:
            os.close(fd)
        try:
            result = (None, _run_shard(shard, extra))
        except Exception as exc:
            result = (exc, None)
        with open(wfd, "wb") as fh:
            fh.write(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)


def _fork_shards(shards, extra):
    """Each shard's _run_shard list, the first shard run in this process
    and every other in a forked child that sends it back through a pipe;
    a shard whose fork fails (EAGAIN at a process limit) runs in this
    process too.

    Every read end is closed before any child is reaped, so a child
    blocked on a full pipe gets EPIPE instead of hanging the parent, and
    every child is reaped, on success and on every failure path.  A
    child's exception is raised here; a child that died without a result
    is named in a RuntimeError.
    """
    results = [None] * len(shards)
    here, forked, reads, pids, payloads, statuses = [0], [], [], [], [], []
    try:
        for k, shard in enumerate(shards[1:], start=1):
            rfd, wfd = os.pipe()
            reads.append(rfd)
            try:
                pid = os.fork()
                if pid == 0:
                    _run_child(shard, extra, reads, wfd)
            except OSError:
                # no process to spare (EAGAIN at a process limit)
                os.close(reads.pop())
                here.append(k)
                continue
            finally:
                os.close(wfd)
            forked.append(k)
            pids.append(pid)
        for k in here:
            results[k] = _run_shard(shards[k], extra)
        for rfd in reads:
            with open(rfd, "rb", closefd=False) as fh:
                payloads.append(fh.read())
    finally:
        for fd in reads:
            os.close(fd)
        for pid in pids:
            statuses.append(os.waitpid(pid, 0)[1])
    for k, pid, status, data in zip(forked, pids, statuses, payloads):
        if status != 0 or not data:
            raise RuntimeError("--jobs worker %d (pid %d) ended without a "
                               "result (exit code %d)"
                               % (k + 1, pid,
                                  os.waitstatus_to_exitcode(status)))
        exc, reports = pickle.loads(data)
        if exc is not None:
            raise exc
        results[k] = reports
    return results


def shard_tasks(tasks, workers):
    """Split the indices of tasks into at most `workers` shards of whole
    +-w groups, w = z^2/4, each in ascending order.

    Every 1F1 row an Xi side or zero sum takes is at w or -w and is
    cached per process, and the rows at w and -w come from one series
    (xikernel._row_cache), so a worker that runs a whole +-w group sums
    each of its series once.  A group is keyed by w^2, the same at w and
    -w: z, -z, iz and -iz, and imaginary parts of either zero sign, give
    one group.  A group larger than the share ceil(n / workers) is
    cut into pieces of that size, so a grid of one w still spreads; the
    pieces go largest first to the shard with the fewest cells, so shard
    sizes differ by at most the share.
    """
    share = -(-len(tasks) // workers)
    groups = {}
    for i, (_kind, _alpha, z, _tol) in enumerate(tasks):
        w = 0.25 * z * z
        groups.setdefault(w * w, []).append(i)
    pieces = sorted((g[k:k + share] for g in groups.values()
                     for k in range(0, len(g), share)), key=len, reverse=True)
    shards = [[] for _ in range(workers)]
    for piece in pieces:
        min(shards, key=len).extend(piece)
    return [sorted(s) for s in shards if s]


def _usable_cpus():
    """CPUs this process may run on: its affinity mask where the platform
    has one (os.cpu_count ignores a cpuset or taskset), else
    os.cpu_count(), else 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_tasks(identity, grid, tol, zeros):
    """Expand the requested identity over the grid into worker tasks
    (kind, alpha, z, tol); "all" is every family in table order, rhl only
    when there are zeros."""
    kinds = [identity]
    if identity == "all":
        kinds = [k for k in _FAMILIES if k != "rhl" or zeros is not None]
    return [(kind, a, z, tol)
            for kind in kinds for a, z in _FAMILIES[kind][0](grid)]


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _append_json(o, pad, out):
    """Append to out the pieces of json.dumps(o, sort_keys=True, indent=2)
    for an o inside containers; pad is "\\n" and two spaces per container
    around o.

    Takes what a report holds: dicts with str keys, lists, str, float,
    int, bool and None.  A float or int subclass (np.float64) prints as
    its base type's repr, as json.dumps prints it.  Anything else raises
    TypeError, a tuple and a non-str key too, which json.dumps would
    accept, so every text written is json.dumps's.
    """
    if isinstance(o, float):
        text = float.__repr__(o)
        out.append(_NONFINITE.get(text, text))
    elif isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    elif isinstance(o, dict):
        indent = pad + "  "
        sep = "{" + indent
        for key, value in sorted(o.items()):
            if not isinstance(key, str):
                raise TypeError("keys must be str, not %s"
                                % type(key).__name__)
            out.append(sep + encode_basestring_ascii(key) + ": ")
            sep = "," + indent
            _append_json(value, indent, out)
        out.append(pad + "}" if o else "{}")
    elif isinstance(o, list):
        indent = pad + "  "
        sep = "[" + indent
        for item in o:
            out.append(sep)
            sep = "," + indent
            _append_json(item, indent, out)
        out.append(pad + "]" if o else "[]")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif o is None:
        out.append("null")
    else:
        raise TypeError("Object of type %s is not JSON serializable"
                        % type(o).__name__)


def render_json(dicts):
    """The report, byte for byte as json.dumps(payload, sort_keys=True,
    indent=2) + "\\n" writes it, rendered by _append_json: the default
    battery's 139 reports take 3.2 ms against json.dumps's 5.5 ms (best
    of 9 x 20 calls, Python 3.11, a 2-core x86-64 host)."""
    payload = {"reports": dicts,
               "all_pass": all(d["pass"] for d in dicts)}
    out = []
    _append_json(payload, "\n", out)
    out.append("\n")
    return "".join(out)


def render_csv(dicts):
    """One row per pairwise residual, or one with empty pair and residual
    for a report that has none."""
    import csv  # here, so a JSON run does not import it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["identity", "alpha", "z", "pair", "residual",
                     "tolerance", "pass"])
    for d in dicts:
        pairs = [(pair, repr(value))
                 for pair, value in sorted(d["residuals"].items())]
        for pair, value in pairs or [("", "")]:
            writer.writerow([d["identity"], repr(d["alpha"]),
                             _format_z(complex(d["z"][0], d["z"][1])),
                             pair, value, repr(d["tolerance"]),
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
    parser.add_argument("--tol", type=float, default=1e-8,
                        help="tolerance for equality identities "
                             "(default 1e-8)")
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (default json)")
    parser.add_argument("--out", type=str, default=None,
                        help="write the report here instead of stdout")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for grid evaluation (at most "
                             "one per task and one per usable CPU); each "
                             "takes one shard of whole +-z^2/4 groups")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.z is not None and args.alpha is None:
        parser.error("--z requires --alpha")
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

    if args.identity == "rhl" and args.zeros is None:
        parser.error("--identity rhl requires --zeros")
    zeros = None
    if args.zeros is not None:
        try:
            zeros = prepare_zeros(args.zeros, max_count=max(RHL_COUNTS))
        except (OSError, ValueError) as exc:
            parser.error(str(exc))

    tasks = build_tasks(args.identity, grid, args.tol, zeros)

    # no more workers than can run at once, and none where the platform
    # cannot fork.  Each worker runs one shard of whole +-w groups, so two
    # workers sum the same 1F1 series only where a group was cut; a forked
    # child inherits the zeros, and the reports go back in task order
    workers = min(args.jobs, len(tasks), _usable_cpus())
    if workers > 1 and hasattr(os, "fork"):
        shards = shard_tasks(tasks, workers)
        grouped = [None] * len(tasks)
        done = _fork_shards([[tasks[i] for i in s] for s in shards], zeros)
        for shard, reports in zip(shards, done):
            for i, r in zip(shard, reports):
                grouped[i] = r
    else:
        grouped = _run_shard(tasks, zeros)
    dicts = [d for group in grouped for d in group]

    text = render_json(dicts) if args.format == "json" else render_csv(dicts)
    if args.out is not None:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            parser.error("cannot write --out %s: %s"
                         % (args.out, exc.strerror or exc))
    else:
        sys.stdout.write(text)

    return 0 if all(d["pass"] for d in dicts) else 1


if __name__ == "__main__":
    sys.exit(main())
