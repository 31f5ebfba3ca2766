"""Correctness checks on the CLI's JSON output.

A cell is one identity family at one grid point: what the CLI computes as
one task.  The expected cells are derived here from the workload's own
description, not from the CLI's own task list, so a cell the CLI drops is
noticed.  aux is one cell however many reports it yields, and digamma has
one cell per distinct alpha because it takes no z.
"""

import json
import math


def expected_cells(families, grid):
    """Cell keys for `families` over `grid`, a list of (alpha, z) pairs."""
    cells = []
    for family in families:
        if family == "aux":
            cells.append(("aux",))
        elif family == "digamma":
            for a in dict.fromkeys(a for a, _ in grid):
                cells.append(("digamma", a))
        else:
            for a, z in grid:
                z = complex(z)
                cells.append((family, a, z.real, z.imag))
    return cells


def cell_of(report):
    family = report["identity"].split(":", 1)[0]
    if family == "aux":
        return ("aux",)
    if family == "digamma":
        return ("digamma", report["alpha"])
    return (family, report["alpha"], report["z"][0], report["z"][1])


def report_failed(report):
    return not report["pass"] or "error" in report["diagnostics"]


def margin_digits(reports):
    """min over reports of log10(tolerance / worst residual).

    Reports whose residuals are all exactly 0 have no finite margin and
    are skipped; None when no report has a nonzero residual.
    """
    margins = [math.log10(r["tolerance"] / max(r["residuals"].values()))
               for r in reports
               if r["residuals"] and max(r["residuals"].values()) > 0.0]
    return min(margins) if margins else None


def check_output(text, returncode, cells):
    """Check one CLI output against the cells it should cover.

    Returns a dict with `problems` (empty when the output is sound),
    `failed` (cells that are missing or whose report fails) and `reports`
    (the parsed reports, or [] when the output is unusable).  A missing
    cell counts as failed; an unparseable output or an exit status other
    than the one the reports imply fails every cell.
    """
    expected = set(cells)
    out = {"problems": [], "failed": len(expected), "reports": []}
    try:
        reports = json.loads(text)["reports"]
    except (ValueError, KeyError, TypeError) as exc:
        out["problems"].append("output does not parse: %s" % exc)
        return out
    failed_cells = set()
    seen = {}
    for r in reports:
        key = cell_of(r)
        seen[key] = seen.get(key, 0) + 1
        if report_failed(r):
            failed_cells.add(key)
    unexpected = set(seen) - expected
    missing = expected - set(seen)
    doubled = [k for k, n in seen.items() if n > 1 and k != ("aux",)]
    if unexpected:
        out["problems"].append("%d unexpected cells, e.g. %r"
                               % (len(unexpected), sorted(unexpected)[0]))
    if missing:
        out["problems"].append("%d missing cells, e.g. %r"
                               % (len(missing), sorted(missing)[0]))
    if doubled:
        out["problems"].append("%d cells reported twice, e.g. %r"
                               % (len(doubled), doubled[0]))
    want_rc = 1 if any(report_failed(r) for r in reports) else 0
    if returncode != want_rc:
        out["problems"].append("exit status %r, reports imply %d"
                               % (returncode, want_rc))
        return out
    out["failed"] = len((failed_cells & expected) | missing)
    out["reports"] = reports
    return out
