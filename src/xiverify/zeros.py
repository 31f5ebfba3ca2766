"""Nontrivial zeta zeros: file ingestion, on-site refinement, derivatives.

A zeros file is UTF-8 text with one positive decimal ordinate per line in
strictly ascending order (the format of the published tables).  Loaded
ordinates are refined against this package's own Xi implementation by
bracketed Illinois false position (Dowell & Jarratt, BIT 1971), after
which zeta'(1/2 + i gamma) is attached for use in the zero sums.  The
repo ships a 100-ordinate sample generated by scanning Xi sign changes
with scan_zero_brackets, so nothing external is required to exercise the
pipeline.
"""

from dataclasses import dataclass

import numpy as np

from .specfun import zeta_eta_prime
from .xikernel import xi_cap


@dataclass(frozen=True)
class ZeroRecord:
    """Ordinate of a nontrivial zero, refinement flag, zeta'(rho)."""

    gamma: float
    refined: bool = False
    zeta_prime: complex | None = None

    def __post_init__(self):
        gamma = float(self.gamma)
        if not (np.isfinite(gamma) and gamma > 0.0):
            raise ValueError(
                "ZeroRecord: ordinate must be finite and positive")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "refined", bool(self.refined))


def load_zeros(path, max_count):
    """Parse at most max_count ordinates from a zeros file.

    Raises ValueError naming the offending line for anything that does
    not parse as a positive decimal or that breaks ascending order.
    Records come back unrefined, with no derivative attached.
    """
    records = []
    prev = 0.0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if len(records) >= max_count:
                break
            try:
                g = float(line)
            except ValueError:
                raise ValueError("%s:%d: not a decimal ordinate: %r"
                                 % (path, lineno, line)) from None
            if not np.isfinite(g) or g <= 0.0:
                raise ValueError("%s:%d: ordinate must be positive, got %r"
                                 % (path, lineno, line))
            if g <= prev:
                raise ValueError("%s:%d: ordinates must be strictly "
                                 "ascending (%r after %r)"
                                 % (path, lineno, g, prev))
            prev = g
            records.append(ZeroRecord(g))
    return records


def refine_zero(gamma0):
    """Refine an approximate ordinate against Xi on [gamma0 - 0.5, gamma0 + 0.5].

    Looks for a sign change of the real-valued Xi(t) over the bracket
    (falling back to a 0.02-step scan when the endpoints agree in sign),
    then takes Illinois false-position steps until the bracket collapses
    below 1e-12: each step is the secant through the two bracket ends,
    clipped 0.1% inside the bracket, and when the same end is kept twice
    in a row its stored Xi value is halved, so the far end cannot stall
    the bracket.  Raises ValueError when Xi does not change sign anywhere
    in the window.
    """
    lo, hi = gamma0 - 0.5, gamma0 + 0.5
    flo, fhi = float(xi_cap(lo)), float(xi_cap(hi))
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        grid = np.arange(lo, hi + 1e-12, 0.02)
        vals = xi_cap(grid)
        sign_flip = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        if len(sign_flip) == 0:
            raise ValueError("refine_zero: Xi does not change sign on "
                             "[%.6f, %.6f]" % (lo, hi))
        i = int(sign_flip[0])
        lo, hi = float(grid[i]), float(grid[i + 1])
        flo, fhi = float(vals[i]), float(vals[i + 1])
    kept = None  # the end that survived the previous step
    for _ in range(200):
        if hi - lo < 1e-12:
            break
        # flo and fhi have opposite signs, so the secant root lies inside
        x = hi - fhi * (hi - lo) / (fhi - flo)
        margin = 1e-3 * (hi - lo)
        x = min(max(x, lo + margin), hi - margin)
        fx = float(xi_cap(x))
        if fx == 0.0:
            return x
        if flo * fx < 0.0:
            hi, fhi = x, fx
            if kept == "lo":
                flo *= 0.5
            kept = "lo"
        else:
            lo, flo = x, fx
            if kept == "hi":
                fhi *= 0.5
            kept = "hi"
    return 0.5 * (lo + hi)


def zeta_derivative(gamma):
    """zeta'(1/2 + i gamma), differentiating the eta series term by term."""
    return complex(zeta_eta_prime(0.5 + 1j * float(gamma)))


def prepare_zeros(path, max_count):
    """Load, refine, and attach derivatives; the one-call pipeline."""
    records = load_zeros(path, max_count)
    out = []
    for rec in records:
        g = refine_zero(rec.gamma)
        out.append(ZeroRecord(g, refined=True, zeta_prime=zeta_derivative(g)))
    return out


def scan_zero_brackets(t_min, t_max, step=0.05):
    """Sign-change brackets of Xi on a uniform grid over [t_min, t_max].

    The minimal gap between ordinates below 240 is about 0.7, so the
    default step cannot straddle two zeros in one cell; each returned
    (lo, hi) pair brackets exactly one ordinate.
    """
    grid = np.arange(t_min, t_max + step, step)
    vals = xi_cap(grid)
    flips = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    return [(float(grid[i]), float(grid[i + 1])) for i in flips]
