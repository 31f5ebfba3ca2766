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
alpha, every family on one line, and z and -z share one series.  The
cache picks each row's series, with Kummer's transformation where
Re w < 0, and on a line with c = 1/2 that gives the rows at w and -w
from one series (_row_cache).  prepare_rho_series sums the rows of
many w on one batch as the groups of one Taylor loop per line and
parameter (two on a line with c != 1/2, whose rows at Re w < 0 take
Kummer's parameter), each with the bits of its own series.  cli's
prepare steps take them for the start batch of every Xi side of a run
and for every zero sum, so a run's rows cost a few Taylor loops: a
loop's cost is its per-term numpy calls more than its entries.  The
exponents 1/2 - s of that power are kept too, per (c, k, node batch)
(_power_exponents), so a warm rho_rows call forms x's power, e^(-w/2)
and their product with the rows, and nothing else.
"""

import functools
from collections import OrderedDict, namedtuple
from dataclasses import dataclass

import numpy as np

from .specfun import (EULER_GAMMA, _hyp_series, _merge, _require_finite,
                      _require_hyp1f1_range, _split, digamma, lngamma, zeta)

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
    float64 bytes are nodes, read-only, the bits specfun.hyp1f1 gives.
    The batch is part of the key because a series stops only when its
    whole batch has converged: rows taken from a larger or smaller batch
    could differ in their last bits.  For real z, z and -z give w
    imaginary parts of opposite zero sign; the keys compare equal and
    the rows come out the same bits.

    This is the one place a row's series is chosen.  A missing key
    (w, line) takes the series in a = (1-s)/2 at w where Re w >= 0, and
    else e^w times the series in 1/2 - a at -w (Kummer's
    transformation), as hyp1f1 does.  Where 1/2 - a is bitwise a with
    its two rows swapped, as on every line with c = 1/2, that is a's
    series at -w, rows swapped: the rows at -w come from the cache if it
    holds them, else they are summed, so w and -w cost one series.  A
    lone miss stores them under (-w, line) as well, views into the
    loop's sums, and folds a copy; a fill stores only the keys it was
    asked for and folds over the loop's sums at -w, which no key keeps,
    so its folded rows cost no memory besides the loop's.  Each
    parameter's distinct series on a line are the groups of one Taylor
    loop, called through the module's _hyp_series binding; a lone miss
    is a one-group loop.  Nothing is stored before every series of the
    call has succeeded, so a line whose series raises stores nothing,
    and a lone miss stores the rows at -w before the key asked for.  A
    key asked for and not cached counts as a miss, one a fill
    finds cached as a hit.

    Its fill(ws, lines, shape, nodes) makes the first maxsize // 2 keys
    (w, line) of the distinct w of ws inside hyp1f1's range (finite,
    |w| <= 50), each on every line (c, k) of lines, the most recent
    keys, storing those not cached in the order of ws.  Later keys are
    left out, so no key of a fill is evicted before maxsize // 2 other
    keys are stored; so is every w of a one-node batch, whose one-entry
    rows are never grouped.
    """
    cache = OrderedDict()
    hits = misses = 0

    def line_rows(ws, line, keep_extra):
        """(key, rows) of each w of ws on line, none of them cached, and,
        if keep_extra, of the rows at -w summed besides."""
        c, k, shape, nodes = line
        a = 0.5 * (1.0 - _line(c, k, np.frombuffer(nodes).reshape(shape)))
        _require_finite("hyp1f1", a, "parameter a")
        _require_hyp1f1_range(np.asarray(ws))
        kummer = 0.5 - a
        swaps = kummer.tobytes() == a[::-1].tobytes()
        # each w's series: in a (True) or in 1/2 - a, and its argument
        plan = [(True, w) if w.real >= 0.0 else (swaps, -w) for w in ws]
        found = {p: cache.get((p[1],) + line) if p[0] else None
                 for p in plan}
        todo = [p for p, rows in found.items() if rows is None]
        for in_a, param in ((True, a), (False, kummer)):
            us = [u for p, u in todo if p == in_a]
            if us:
                found.update(zip([(in_a, u) for u in us], _hyp_series(
                    "hyp1f1", (param,), (0.5,),
                    np.reshape(us, (-1,) + (1,) * a.ndim))))
        wanted = set(ws)
        extra = dict.fromkeys(p for p in todo if p[0] and p[1] not in wanted)
        asked = []
        for w, p in zip(ws, plan):
            rows = found[p]
            if w.real < 0.0:
                if p[0]:
                    # a's rows at -w, swapped, over the loop's own sums
                    # where no key at -w is to keep them
                    swapped = rows[::-1].copy()
                    if p in extra and not keep_extra:
                        rows[...] = swapped
                    else:
                        rows = swapped
                # e^w first, times contiguous rows: hyp1f1's product
                np.multiply(np.exp(w), rows, out=rows)
            asked.append(((w,) + line, rows))
        return asked, [((p[1],) + line, found[p])
                       for p in extra if keep_extra]

    def sum_rows(wanted, keep_extra):
        """Store the rows of each w on each line of wanted, a dict line ->
        ws, none of them cached, after the rows at -w summed besides if
        keep_extra, and return them in order."""
        nonlocal misses
        done = [line_rows(ws, line, keep_extra) for line, ws in wanted.items()]
        asked = [pair for pairs, _ in done for pair in pairs]
        for key, rows in [pair for _, extra in done for pair in extra] + asked:
            rows.flags.writeable = False
            cache[key] = rows
            if len(cache) > maxsize:
                cache.popitem(last=False)
        misses += len(asked)
        return [rows for _, rows in asked]

    def rows_at(w, c, k, shape, nodes):
        nonlocal hits
        key = (w, c, k, shape, nodes)
        rows = cache.get(key)
        if rows is not None:
            hits += 1
            cache.move_to_end(key)
            return rows
        return sum_rows({key[1:]: [w]}, True)[0]

    def fill(ws, lines, shape, nodes):
        nonlocal hits
        if np.frombuffer(nodes).size < 2:
            return
        # NaN fails the range test too
        keys = [(w, c, k, shape, nodes) for w in dict.fromkeys(ws)
                if abs(w) <= 50.0 for c, k in lines][:maxsize // 2]
        new = {}
        for key in keys:
            if key in cache:
                hits += 1
                cache.move_to_end(key)
            else:
                new.setdefault(key[1:], []).append(key[0])
        sum_rows(new, False)

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


def prepare_rho_series(ws, lines, t):
    """Sum the rows rho_series(w, c, k, t) returns for each w of ws on
    each line (c, k) of lines into its cache, as the groups of one
    series per line and parameter, within the limits of the cache's fill
    (_row_cache); rho_series then finds the bits an uncached call
    sums."""
    tv = np.asarray(t, np.float64)
    _rho_series_rows.fill(ws, lines, tv.shape, tv.tobytes())


def _rho_argument(z):
    """z^2/4, the argument of rho's 1F1 rows at z."""
    zc = complex(z)
    return 0.25 * zc * zc


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
    w = _rho_argument(z)
    return (np.exp(_power_exponents(*key) * np.log(x)) * np.exp(-0.5 * w)
            * _rho_series_rows(w, *key))


def lambda_kernel(x):
    """lambda(x) = psi(x) + 1/(2x) - log x; decays like -1/(12 x^2)."""
    xv, scalar = _split(x, np.float64)
    if np.any(xv <= 0.0):
        raise ValueError("lambda_kernel: x must be positive")
    return _merge(digamma(xv) + 0.5 / xv - np.log(xv), scalar)

