"""Composite kernels built from the special functions.

This module assembles the completed zeta function xi(s) and its
critical-line restriction Xi(t), the hypergeometric kernel
rho(x, z, s) = x^(1/2-s) e^(-z^2/8) 1F1((1-s)/2; 1/2; z^2/4) and the
digamma remainder lambda(x) = psi(x) + 1/(2x) - log x.

Every Xi side integrates rho at a pair c +- ikt (identities._xi_side),
as the two rows of one rho_rows call.  On the critical line the pair is
s, 1 - s, and rho(x, z, s) + rho(x, z, 1-s) generalizes
2 cos((t/2) log x): at z = 0 and s = (1+it)/2 the terms are x^(-it/2)
and x^(it/2).  Kummer's transformation of 1F1 makes the sum invariant
under (x, z) -> (1/x, iz) on the critical line, the engine behind every
verified identity here.

rho's 1F1 factor is summed in one place, rho_series, whose rows a
per-process LRU cache keeps, one entry per (w, c, k, node batch).
rho_rows takes them at w = z^2/4 for every Xi side and the
inverse-Mellin check, and numseries' zero sums at w = -z^2/4 on
s = 1/2 +- i gamma.  Only the power x^(1/2-s) depends on x, so every
alpha, every family on one line, and z and -z share one series.
prepare_rho_series sums the rows of many w on one batch as the groups
of one series, each with the bits of its own series; rhl's prepare step
takes it for every zero sum of a run, whose rows are too short for
their own series to cost less than its per-term numpy calls.  The
exponents 1/2 - s of that power are kept too, per (c, k, node batch)
(_power_exponents), so a warm rho_rows call forms x's power, e^(-w/2)
and their product with the rows, and nothing else.
"""

import functools
from collections import OrderedDict, namedtuple
from dataclasses import dataclass

import numpy as np

from .specfun import (EULER_GAMMA, _merge, _require_finite, _split,
                      digamma, hyp1f1, lngamma, zeta)

_QUARTER_LOG_PI = 0.28618247146235004  # log(pi) / 4

# Stieltjes constants gamma_1, gamma_2 for the zeta Laurent expansion
# zeta(w) = 1/(w-1) + gamma_0 - gamma_1 (w-1) + gamma_2 (w-1)^2 / 2 - ...
_STIELTJES_1 = -0.07281584548367672486
_STIELTJES_2 = -0.00969036319287231848


@dataclass(frozen=True)
class KernelParams:
    """Parameter pair (alpha, z) with beta always derived as 1/alpha;
    alpha must be a positive finite float and z a finite complex."""

    alpha: float
    z: complex = 0.0

    def __post_init__(self):
        alpha, z = float(self.alpha), complex(self.z)
        if not 0.0 < alpha < np.inf:
            raise ValueError("KernelParams: need 0 < alpha < inf, got %r"
                             % alpha)
        if not np.isfinite(z):
            raise ValueError("KernelParams: z must be finite, got %r" % z)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "z", z)

    @property
    def beta(self):
        return 1.0 / self.alpha


def xi_small(s):
    """Completed zeta xi(s) = (1/2) s (s-1) pi^(-s/2) Gamma(s/2) zeta(s).

    Entire; the zeta pole at s = 1 is cancelled by the (s-1) factor.
    At |s-1| < 2e-3, where the eta series loses digits to the pole, the
    truncated Laurent product (s-1) zeta(s) = 1 + g0 (s-1) - g1 (s-1)^2
    + g2 (s-1)^3 / 2 stands in for the pair (within 5.6e-15 of it at
    |s-1| = 2e-3).
    Arguments with Re s < 1/2 are reflected first through xi(s) = xi(1-s),
    so the Gamma factor never meets its poles.
    """
    w, scalar = _split(s, np.complex128)
    w = np.where(w.real < 0.5, 1.0 - w, w)
    out = np.empty_like(w)
    near1 = np.abs(w - 1.0) < 2e-3
    if np.any(~near1):
        v = w[~near1]
        out[~near1] = (0.5 * v * (v - 1.0)
                       * np.exp(-0.5 * v * np.log(np.pi) + lngamma(0.5 * v))
                       * zeta(v))
    if np.any(near1):
        v = w[near1]
        u = v - 1.0
        pole_product = (1.0 + EULER_GAMMA * u - _STIELTJES_1 * u * u
                        + 0.5 * _STIELTJES_2 * u ** 3)
        out[near1] = (0.5 * v
                      * np.exp(-0.5 * v * np.log(np.pi) + lngamma(0.5 * v))
                      * pole_product)
    return _merge(out, scalar)


def xi_cap(t):
    """Xi(t) = xi(1/2 + it).

    For real t the value is computed in explicitly real form and returned
    as a real float or float array: with theta(t) the phase of
    pi^(-it/2) Gamma(1/4 + it/2),

        Xi(t) = -(1/2) (t^2 + 1/4) pi^(-1/4) |Gamma(1/4 + it/2)|
                * Re[e^(i theta(t)) zeta(1/2 + it)],

    where the bracket is the classical real-valued combination of zeta
    with its critical-line phase.  Non-finite t raises ValueError, and so
    does t off the real axis (xi_small takes xi there).
    """
    w, scalar = _split(t, np.complex128)
    _require_finite("xi_cap", w)
    if np.any(w.imag != 0.0):
        raise ValueError("xi_cap: argument must be real")
    tv = w.real
    lg = lngamma(0.25 + 0.5j * tv)
    theta = lg.imag - 0.5 * tv * np.log(np.pi)
    zval = zeta(0.5 + 1j * tv)
    hardy_z = (np.exp(1j * theta) * zval).real
    mag = np.exp(lg.real - _QUARTER_LOG_PI)
    return _merge(-0.5 * (tv * tv + 0.25) * mag * hardy_z, scalar)


def _line(c, k, t):
    """s = c + ikt and c - ikt, one row each."""
    return c + 1j * k * np.stack([t, -t])


# A key's rows take at most 2 x 640 nodes x 16 B = 20 KB (the finest
# level's batch), its node bytes 5 KB more; the usual key, a start batch
# of 321 nodes, takes 12.8 KB, and a zero sum's 10 ordinates 320 B.
# 256 keys hold 256 x 12.8 KB = 3.3 MB of start batches and cap the
# cache at 6.4 MB: room for every (w, line) of a grid of about 80
# distinct w, so four families that scan one such grid in turn sum
# each row once.  The bound stays, since a grid of ever new z would
# otherwise grow the cache without limit.
_RHO_ROW_KEYS = 256

_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def _row_cache(maxsize):
    """A least recently used cache of rho's 1F1 rows, with functools'
    cache_info and cache_clear: called with (w, c, k, shape, nodes) it
    returns 1F1((1-s)/2; 1/2; w) at s = c +- ikt for the batch of t whose
    float64 bytes are nodes, read-only, summed through the module's
    hyp1f1 binding on a miss.  The batch is part of the key because a
    series stops only when its whole batch has converged: rows taken
    from a larger or smaller batch could differ in their last bits.  For
    real z, z and -z give w imaginary parts of opposite zero sign; the
    keys compare equal and the rows come out the same bits.

    Its fill(ws, c, k, shape, nodes) makes the first maxsize // 2
    distinct w of ws inside hyp1f1's range (finite, |w| <= 50) the most
    recent keys, summing those not cached as the groups of one series
    (each with the bits of its rows summed alone) and storing them in
    the order of ws.  Later w are left out, so no key of a fill is
    evicted before maxsize // 2 other keys are stored, and so is every
    w of a one-node batch, whose one-entry rows are never grouped.  If
    the series raises, nothing is stored.  A key a fill sums counts as
    a miss, one it finds cached as a hit.
    """
    cache = OrderedDict()
    hits = misses = 0

    def store(key, rows):
        rows.flags.writeable = False
        cache[key] = rows
        if len(cache) > maxsize:
            cache.popitem(last=False)

    def rows_at(w, c, k, shape, nodes):
        nonlocal hits, misses
        key = (w, c, k, shape, nodes)
        rows = cache.get(key)
        if rows is not None:
            hits += 1
            cache.move_to_end(key)
            return rows
        misses += 1
        s = _line(c, k, np.frombuffer(nodes).reshape(shape))
        rows = hyp1f1(0.5 * (1.0 - s), 0.5, w)
        store(key, rows)
        return rows

    def fill(ws, c, k, shape, nodes):
        nonlocal hits, misses
        t = np.frombuffer(nodes).reshape(shape)
        if t.size < 2:
            return
        # NaN fails the range test too
        keys = [(w, c, k, shape, nodes) for w in dict.fromkeys(ws)
                if abs(w) <= 50.0][:maxsize // 2]
        new = []
        for key in keys:
            if key in cache:
                cache.move_to_end(key)
            else:
                new.append(key)
        hits += len(keys) - len(new)
        if new:
            s = _line(c, k, t)
            w = np.reshape([key[0] for key in new], (-1,) + (1,) * s.ndim)
            rows = hyp1f1(0.5 * (1.0 - s), 0.5, w, grouped=True)
            misses += len(new)
            for key, r in zip(new, rows):
                store(key, r)

    def cache_info():
        return _CacheInfo(hits, misses, maxsize, len(cache))

    def cache_clear():
        nonlocal hits, misses
        cache.clear()
        hits = misses = 0

    rows_at.fill = fill
    rows_at.cache_info = cache_info
    rows_at.cache_clear = cache_clear
    return rows_at


_rho_series_rows = _row_cache(_RHO_ROW_KEYS)


def rho_series(w, c, k, t):
    """1F1((1-s)/2; 1/2; w) at s = c + ikt and c - ikt as two read-only
    rows of one series, from _rho_series_rows' cache: rho_rows takes them
    at w = z^2/4, the zero sums at w = -z^2/4 with c = 1/2, k = 1 and t
    the ordinates."""
    tv = np.asarray(t, np.float64)
    return _rho_series_rows(w, c, k, tv.shape, tv.tobytes())


def prepare_rho_series(ws, c, k, t):
    """Sum the rows rho_series(w, c, k, t) returns for each w of ws as
    one grouped series into its cache, within the limits of the cache's
    fill; rho_series then finds the bits an uncached call sums."""
    tv = np.asarray(t, np.float64)
    _rho_series_rows.fill(ws, c, k, tv.shape, tv.tobytes())


# A key's exponents take what its rows take, 10 KB at a start batch.  The
# three Xi lines and the inverse-Mellin check's two, each at the start
# batch and levels 2 and 3, are 15 keys; 32 bound the cache at 640 KB.
_LINE_KEYS = 32


@functools.lru_cache(maxsize=_LINE_KEYS)
def _power_exponents(c, k, shape, nodes):
    """1/2 - s at s = c +- ikt, read-only, keyed as _rho_series_rows: the
    exponent of x's power in rho, the same for every x and z."""
    e = 0.5 - _line(c, k, np.frombuffer(nodes).reshape(shape))
    e.flags.writeable = False
    return e


def rho_rows(x, z, c, k, t):
    """rho(x, z, c + ikt) and rho(x, z, c - ikt) as two rows, x > 0 a
    float.

    The 1F1 rows come from rho_series' cache and the exponents 1/2 - s
    from _power_exponents'; only x's power and e^(-w/2) are formed per
    call, so the result is the same bits whichever calls filled the
    caches.
    """
    if not x > 0.0:
        raise ValueError("rho_rows: x must be positive")
    tv = np.asarray(t, np.float64)
    key = (c, k, tv.shape, tv.tobytes())
    zc = complex(z)
    w = 0.25 * zc * zc
    return (np.exp(_power_exponents(*key) * np.log(x)) * np.exp(-0.5 * w)
            * _rho_series_rows(w, *key))


def lambda_kernel(x):
    """lambda(x) = psi(x) + 1/(2x) - log x; decays like -1/(12 x^2)."""
    xv, scalar = _split(x, np.float64)
    if np.any(xv <= 0.0):
        raise ValueError("lambda_kernel: x must be positive")
    return _merge(digamma(xv) + 0.5 / xv - np.log(xv), scalar)

