"""Nontrivial zeta zeros: file ingestion, on-site refinement, derivatives.

A zeros file is UTF-8 text with one positive decimal ordinate per line in
strictly ascending order (the format of the published tables).  Loaded
ordinates are refined by Newton's method on zeta(1/2 + it), with zeta
and its derivative from specfun.zeta_and_prime, and each result is
certified by a sign change of this package's own Xi; then
zeta'(1/2 + i gamma) is attached for use in the zero sums: a ZeroRecord
cannot exist without it.

refine_zeros is the one refinement: it runs every ordinate in lockstep,
one zeta_and_prime call per Newton step and one xi_cap call for the
certificates (one ordinate is refine_zeros([g])[0]).  The derivatives
come from one more zeta_and_prime call.  The eta series behind all of
them takes a term count set by the largest ordinate of the batch, so a
batch can differ from one-ordinate calls in the last bits.
The repo ships a 100-ordinate sample, the midpoints of Xi's sign-change
brackets on a 0.05 grid over [10, 237] refined and rounded to 9 decimals
(tests/test_zeros.py rebuilds it), so nothing external is required to
exercise the pipeline.
"""

from dataclasses import dataclass

import numpy as np

from .specfun import zeta_and_prime
from .xikernel import xi_cap


@dataclass(frozen=True)
class ZeroRecord:
    """Ordinate gamma of a zero rho = 1/2 + i gamma, and zeta'(rho)."""

    gamma: float
    zeta_prime: complex

    def __post_init__(self):
        gamma = float(self.gamma)
        if not (np.isfinite(gamma) and gamma > 0.0):
            raise ValueError(
                "ZeroRecord: ordinate must be finite and positive")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "zeta_prime", complex(self.zeta_prime))


def load_zeros(path, max_count):
    """Parse at most max_count ordinates from a zeros file.

    Raises ValueError naming the offending line for anything that does
    not parse as a positive decimal or that breaks ascending order.
    Returns the ordinates as a list of floats, unrefined.
    """
    gammas = []
    prev = 0.0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if len(gammas) >= max_count:
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
            gammas.append(g)
    return gammas


def refine_zeros(gammas):
    """Refine approximate ordinates to zeros of zeta(1/2 + it).

    Newton's method on t -> zeta(1/2 + it), whose derivative is
    i zeta'(1/2 + it), runs every ordinate in lockstep: each step is one
    zeta_and_prime call on the whole batch, and moves t by
    Re(zeta / (i zeta')), kept within [g - 0.5, g + 0.5] of its seed g.
    The steps stop when none moves t by more than 1e-14 t, or after 20.
    One xi_cap call then certifies every result t: Xi must change sign
    across t -+ 1e-13 t.  Raises ValueError naming the seed when it does
    not, so a seed with no zero within 0.5 is refused.
    """
    g0 = np.asarray(gammas, dtype=np.float64).reshape(-1)
    t = g0.copy()
    for _ in range(20):
        s = 0.5 + 1j * t
        value, deriv = zeta_and_prime(s)
        step = (value / (1j * deriv)).real
        moved = np.clip(t - step, g0 - 0.5, g0 + 0.5)
        done = np.abs(moved - t) <= 1e-14 * t
        t = moved
        if done.all():
            break
    ends = xi_cap(np.concatenate([t * (1.0 - 1e-13), t * (1.0 + 1e-13)]))
    bad = np.nonzero(np.sign(ends[:len(t)]) * np.sign(ends[len(t):]) >= 0)[0]
    if len(bad):
        i = bad[0]
        raise ValueError("refine_zeros: Xi does not change sign near %.6f "
                         "within 0.5 of the seed %.6f" % (t[i], g0[i]))
    return t


def prepare_zeros(path, max_count):
    """Load, refine, and attach derivatives; the one-call pipeline.

    All ordinates are refined in one refine_zeros call and differentiated
    in one zeta_and_prime call.  Raises ValueError when the file holds
    no ordinate.
    """
    seeds = load_zeros(path, max_count)
    if not seeds:
        raise ValueError("%s: zeros file holds no ordinates" % path)
    gammas = refine_zeros(seeds)
    derivs = zeta_and_prime(0.5 + 1j * gammas)[1]
    return [ZeroRecord(g, d) for g, d in zip(gammas, derivs)]
