"""Nontrivial zeta zeros: file ingestion, on-site refinement, derivatives.

A zeros file is UTF-8 text with one positive decimal ordinate per line in
strictly ascending order (the format of the published tables).  Loaded
ordinates are refined against this package's own Xi implementation by
bracketed Illinois false position (Dowell & Jarratt, BIT 1971), after
which zeta'(1/2 + i gamma) is attached for use in the zero sums.

refine_zeros is the one refinement: it runs every ordinate in lockstep,
one xi_cap call per step on the brackets still open (one ordinate is
refine_zeros([g])[0]).  The derivatives come from one
specfun.zeta_eta_prime call.  The eta series behind both takes a term
count set by the largest ordinate of the batch, so a batch can differ
from one-ordinate calls in the last bits.  The repo ships a 100-ordinate
sample generated by scanning Xi sign changes with scan_zero_brackets, so
nothing external is required to exercise the pipeline.
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


def refine_zeros(gammas):
    """Refine approximate ordinates against Xi, each on [g - 0.5, g + 0.5].

    Every ordinate runs the same bracketed Illinois false position, in
    lockstep: each step is one xi_cap call on the brackets still open.
    A bracket whose ends agree in sign falls back to a 0.02-step scan of
    its window for the first sign change.  Each step takes the secant
    through the two bracket ends, clipped 0.1% inside the bracket; when
    the same end is kept twice in a row its stored Xi value is halved, so
    the far end cannot stall the bracket.  A bracket stops when it is
    narrower than 1e-12, when Xi is exactly 0 at a probe (the probe is
    returned), or after 200 steps; the result is its midpoint.  Raises
    ValueError when Xi does not change sign anywhere in some window.
    """
    g0 = np.asarray(gammas, dtype=np.float64).reshape(-1)
    m = len(g0)
    lo, hi = g0 - 0.5, g0 + 0.5
    if m == 0:
        return lo
    ends = xi_cap(np.concatenate([lo, hi]))
    flo, fhi = ends[:m], ends[m:]
    # NaN marks a bracket still open; a window end where Xi is 0 is done
    out = np.where(flo == 0.0, lo, np.where(fhi == 0.0, hi, np.nan))
    active = np.isnan(out)
    scan = np.nonzero(active & (flo * fhi > 0.0))[0]
    if len(scan):
        grids = [np.arange(lo[i], hi[i] + 1e-12, 0.02) for i in scan]
        vals = np.split(xi_cap(np.concatenate(grids)),
                        np.cumsum([len(g) for g in grids])[:-1])
        for i, grid, v in zip(scan, grids, vals):
            sign_flip = np.nonzero(np.sign(v[:-1]) * np.sign(v[1:]) < 0)[0]
            if len(sign_flip) == 0:
                raise ValueError("refine_zeros: Xi does not change sign on "
                                 "[%.6f, %.6f]" % (lo[i], hi[i]))
            j = sign_flip[0]
            lo[i], hi[i] = grid[j], grid[j + 1]
            flo[i], fhi[i] = v[j], v[j + 1]
    kept = np.zeros(m, dtype=np.int8)  # end kept last step: -1 lo, +1 hi
    for _ in range(200):
        active &= ~(hi - lo < 1e-12)
        idx = np.nonzero(active)[0]
        if len(idx) == 0:
            break
        l, h, fl, fh = lo[idx], hi[idx], flo[idx], fhi[idx]
        # fl and fh have opposite signs, so the secant root lies inside
        x = h - fh * (h - l) / (fh - fl)
        margin = 1e-3 * (h - l)
        x = np.minimum(np.maximum(x, l + margin), h - margin)
        fx = xi_cap(x)
        hit = fx == 0.0
        out[idx[hit]] = x[hit]
        active[idx[hit]] = False
        left = (fl * fx < 0.0) & ~hit
        right = ~left & ~hit
        # the root is left of x: x becomes hi and lo is kept
        i = idx[left]
        hi[i], fhi[i] = x[left], fx[left]
        flo[i[kept[i] == -1]] *= 0.5
        kept[i] = -1
        i = idx[right]
        lo[i], flo[i] = x[right], fx[right]
        fhi[i[kept[i] == 1]] *= 0.5
        kept[i] = 1
    open_ = np.isnan(out)
    out[open_] = 0.5 * (lo[open_] + hi[open_])
    return out


def prepare_zeros(path, max_count):
    """Load, refine, and attach derivatives; the one-call pipeline.

    All ordinates are refined in one refine_zeros call and differentiated
    in one zeta_eta_prime call.  Raises ValueError when the file holds
    no ordinate.
    """
    records = load_zeros(path, max_count)
    if not records:
        raise ValueError("%s: zeros file holds no ordinates" % path)
    gammas = refine_zeros([rec.gamma for rec in records])
    derivs = zeta_eta_prime(0.5 + 1j * gammas)
    return [ZeroRecord(g, refined=True, zeta_prime=complex(d))
            for g, d in zip(gammas, derivs)]


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
