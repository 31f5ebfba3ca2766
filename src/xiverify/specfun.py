"""Classical special functions implemented from scratch.

Everything downstream (kernels, series, quadrature integrands) is built on
the functions in this module: complex log-gamma, real digamma, the Riemann
zeta function and its derivative on the half plane Re s >= 1/2 (the
critical line and the zeros, every point the package evaluates, lie
there), the confluent hypergeometric 1F1 and the single 2F2
parameter set the identities need (both summed by one Taylor loop,
_hyp_series, whose leading axis indexes independent series: hyp1f1 and
hyp2f2_11 sum one group, xikernel's row cache the 1F1 rows of many
arguments), the modified Bessel function K0 (a trapezoid rule on its
integral representation), and a Moebius sieve.

Functions here, in xikernel and in numseries that take scalars or numpy
arrays tell them apart only through _split (coerce, note a scalar) and
_merge (a numpy scalar back when every input was one); bodies work on
possibly 0-d arrays.  Arithmetic is IEEE double; design accuracy is
~1e-12 relative on the documented working ranges, which leaves headroom
for the 1e-8..1e-9 verification tolerances used by the identity checks.
An argument outside a working range, or a series that does not
converge, raises ValueError naming the function.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

EULER_GAMMA = 0.5772156649015328606

# Lanczos approximation, g = 7, 9 coefficients.  Gamma(z) for Re z >= 1/2 is
#   sqrt(2 pi) * t^(z - 1/2) * exp(-t) * A(z),  t = z + 6.5,
#   A(z) = c[0] + sum_{k=1}^{8} c[k] / (z - 1 + k).
_LANCZOS_G = 7.0
_LANCZOS_C = np.array([
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
])

_LN_SQRT_TWO_PI = 0.9189385332046727418

# Bernoulli-number coefficients B_{2k}/(2k) for the digamma asymptotic series
# psi(x) ~ log x - 1/(2x) - sum_k B_{2k} / (2k x^{2k}).
_PSI_ASYMP = np.array([
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
])

_SERIES_MAX_TERMS = 100000
_SERIES_RELTOL = 1e-17


def _split(x, dtype):
    """Coerce scalar-or-array input; return (array, was_scalar)."""
    arr = np.asarray(x, dtype=dtype)
    return arr, arr.ndim == 0


def _merge(arr, scalar):
    """The numpy scalar in a 0-d result when scalar, else the array."""
    return arr[()] if scalar else arr


def _require_finite(name, arr, what="argument"):
    """Raise ValueError naming the function unless every entry is finite.

    Checked once per call, before any series starts: a NaN or infinite
    input would otherwise run a series to its term limit or end in an
    integer conversion deep inside.
    """
    if not np.isfinite(arr).all():
        raise ValueError("%s: %s must be finite" % (name, what))


def _require_hyp1f1_range(z):
    """Raise hyp1f1's ValueError unless every |z| <= 50, its working
    range; NaN fails too."""
    zmax = np.abs(z).max(initial=0.0)
    if not zmax <= 50.0:
        raise ValueError("hyp1f1: |z| = %.6g outside the working range "
                         "|z| <= 50" % zmax)


def _lanczos_lngamma(z):
    """Log-gamma via the Lanczos sum; requires Re z >= 0.5 elementwise."""
    t = z + (_LANCZOS_G - 0.5)
    a = np.full(z.shape, _LANCZOS_C[0], dtype=np.complex128)
    for k in range(1, 9):
        a = a + _LANCZOS_C[k] / (z - 1.0 + k)
    return _LN_SQRT_TWO_PI + (z - 0.5) * np.log(t) - t + np.log(a)


def lngamma(s):
    """Principal branch of log Gamma(s).

    Uses the Lanczos rational approximation on Re s >= 1/2 and the downward
    recurrence log Gamma(s) = log Gamma(s + m) - sum_j log(s + j) to reach
    that half-plane otherwise.  The recurrence keeps the principal branch
    for the arguments used here (verified against an independent
    arbitrary-precision implementation on vertical lines up to |Im s| = 500).

    Raises ValueError at nonpositive integers (poles of Gamma) and at
    non-finite input.
    """
    z, scalar = _split(s, np.complex128)
    _require_finite("lngamma", z)
    pole = (z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.floor(z.real))
    if np.any(pole):
        raise ValueError("lngamma: pole at nonpositive integer argument")
    lift = np.maximum(0, np.ceil(0.5 - z.real)).astype(np.int64)
    shift = np.zeros_like(z)
    zz = z.copy()
    for step in range(int(np.max(lift, initial=0))):
        active = lift > step
        shift[active] += np.log(zz[active])
        zz[active] += 1.0
    return _merge(_lanczos_lngamma(zz) - shift, scalar)


def digamma(x):
    """Digamma psi(x) for real x > 0.

    Recurrence-lift to x + 15, then the Bernoulli asymptotic series through
    the x^-12 term; the first omitted term is below 3e-18 at x >= 15.
    Raises ValueError at x <= 0, at non-finite x and at complex x.
    """
    v = np.asarray(x)
    _require_finite("digamma", v)
    if np.iscomplexobj(v):
        raise ValueError("digamma: argument must be real")
    v, scalar = _split(v, np.float64)
    if np.any(v <= 0.0):
        raise ValueError("digamma: argument must be positive")
    w = v + 15.0
    rec = np.zeros_like(w)
    for j in range(15):
        rec += 1.0 / (v + j)
    iw2 = 1.0 / (w * w)
    tail = np.zeros_like(w)
    p = iw2.copy()
    for coeff in _PSI_ASYMP:
        tail += coeff * p
        p *= iw2
    return _merge(np.log(w) - 0.5 / w - tail - rec, scalar)


_LN_ETA_BASE = 1.7627471740390860505  # log(3 + sqrt(8))
_ETA_MAX_N = 380


def _eta_terms_needed(name, tmax):
    """Terms for the accelerated alternating series at |Im s| <= tmax."""
    n = int(np.ceil((39.0 + 0.5 * np.pi * tmax + np.log1p(2.0 * tmax))
                    / _LN_ETA_BASE)) + 10
    n = max(60, n)
    if n > _ETA_MAX_N:
        raise ValueError(
            "%s: |Im s| = %.1f beyond the supported strip (coefficient "
            "overflow past n = %d)" % (name, tmax, _ETA_MAX_N))
    return n


@functools.lru_cache(maxsize=None)
def _eta_coefficients(n):
    """Chebyshev-polynomial weights d_k for the accelerated eta series.

    d_k = n * sum_{i=0}^{k} (n+i-1)! 4^i / ((n-i)! (2i)!), built by the term
    ratio 4 (n+i)(n-i) / ((2i+1)(2i+2)).  Returns (e, d_n) with
    e[k] = (-1)^k (d_k - d_n) for k = 0..n-1; e is memoized per process
    by n and read-only for that reason.
    """
    d = np.empty(n + 1)
    term = 1.0 / n
    acc = term
    d[0] = n * acc
    for i in range(n):
        term *= 4.0 * (n + i) * (n - i) / ((2 * i + 1) * (2 * i + 2))
        acc += term
        d[i + 1] = n * acc
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    e = signs * (d[:n] - d[n])
    e.flags.writeable = False
    return e, d[n]


# rows of the (points x terms) matrix of powers formed at a time: at most
# 74 KB at 144 terms, for a batch of any size
_ETA_ROWS = 32


def _eta_series(name, s, prime):
    """zeta(s), and with prime zeta'(s) too, by the accelerated
    alternating (eta) series of Borwein (2000), for Re s >= 1/2.

    With S(s) = sum_{k<n} e_k (k+1)^(-s) and D(s) = 1 - 2^(1-s),
    zeta = -S / (d_n D), and its term-wise derivative is
    zeta' = (S D' / D - S') / (d_n D) with S'(s) = -sum_k e_k log(k+1)
    (k+1)^(-s) and D'(s) = 2^(1-s) log 2.  The term count n is set by the
    largest |Im s| of the batch; the error falls geometrically in n on
    Re s >= 1/2.  zeta comes out of the same operations with or without
    prime, so the two entry points agree bit for bit.  Raises ValueError
    naming name at non-finite s, at the pole s = 1 and at Re s < 1/2.

    The powers (k+1)^(-s) are formed _ETA_ROWS points at a time and each
    row is summed on its own, so the sums do not depend on the chunking.
    Row sums, not a matrix-vector product: `@` goes to BLAS, whose helper
    thread spins on the other core between calls and slows every --jobs
    worker beside it.
    """
    z, scalar = _split(s, np.complex128)
    _require_finite(name, z)
    if np.any(z == 1.0):
        raise ValueError("%s: pole at s = 1" % name)
    if np.any(z.real < 0.5):
        raise ValueError("%s: Re s < 1/2 outside the working range" % name)
    tmax = float(np.max(np.abs(z.imag))) if z.size else 0.0
    e, dn = _eta_coefficients(_eta_terms_needed(name, tmax))
    logk = np.log(np.arange(1.0, len(e) + 1.0))
    flat = z.reshape(-1)
    total = np.empty(z.size, np.complex128)
    dtotal = np.empty_like(total)
    for start in range(0, z.size, _ETA_ROWS):
        rows = slice(start, start + _ETA_ROWS)
        powers = np.outer(-flat[rows], logk)
        np.exp(powers, out=powers)
        powers *= e
        total[rows] = powers.sum(axis=1)
        if prime:
            powers *= logk
            dtotal[rows] = -powers.sum(axis=1)
    total, dtotal = total.reshape(z.shape), dtotal.reshape(z.shape)
    two = np.exp((1.0 - z) * np.log(2.0))
    d = 1.0 - two
    value = _merge(-total / (dn * d), scalar)
    if not prime:
        return value
    return value, _merge((total * two * np.log(2.0) / d - dtotal) / (dn * d),
                         scalar)


def zeta(s):
    """Riemann zeta for Re s >= 1/2, by the accelerated eta series.

    Raises ValueError at Re s < 1/2, at the pole s = 1, at |Im s| past
    the supported strip and at non-finite s.
    """
    return _eta_series("zeta", s, prime=False)


def zeta_and_prime(s):
    """(zeta(s), zeta'(s)) for Re s >= 1/2 from one pass of the eta series.

    The zeta value is bit-identical to zeta(s); the refusals are zeta's.
    """
    return _eta_series("zeta_and_prime", s, prime=True)


def _hyp_series(name, num, den, z):
    """Raw Taylor sums of pFq(num; den; z); the parameters and z broadcast.

    Axis 0 of the broadcast shape indexes groups: independent series
    that share each term's numpy calls.  Only z carries that axis, with
    one argument per group, so z has the broadcast shape's number of
    axes and a + n is formed at one group's shape; an elementwise sum is
    one group.  num and den are tuples of parameters; a 0-d one stays a
    numpy scalar, so only the arrays the result needs are allocated.
    The loop updates term and total in place; each step multiplies term
    by every (a_i + n) and by z, then divides by d = prod_j (c_j + n)
    (n + 1).  A series that has not converged raises ValueError naming
    name.

    When every c_j is a scalar on the real axis, as in hyp1f1 and
    hyp2f2_11, d is formed in float arithmetic (the real part of the
    complex product, bit for bit) and term's real and imaginary parts are
    multiplied by 1/d through its float view.  numpy divides by a
    complex d = (p, 0) as Smith's algorithm does: with r = 0/p and
    q = 1/(p + 0 r) = 1/p it forms ((x + y r) q, (y - x r) q), and for
    finite x, y those are x q and y q except for the sign of a zero
    part, which no |term| and no total can see (total starts at 1 + 0i,
    and adding a zero of either sign to +0 gives +0).  The float multiply
    gives the same bits at a third of the cost on a 2 x 321 batch.  A
    complex or array c_j keeps the complex division.

    A group stops at the first term where every one of its entries has
    |term| < _SERIES_RELTOL max(|total|, 1e-300).  That full test costs
    about half of what a term costs, so each term first tests one
    witness entry per group, the one furthest from converging at the
    group's last full test: while its |term| is at least twice its bound
    the full test must fail and is skipped.  The factor 2 outweighs any
    last-bit difference between the scalar abs and numpy's, so the
    witness skips only tests that fail, the group stops at the same term
    and its sum keeps its bits.  A NaN fails the witness comparison and
    takes the full test.  A group that stops has its rows swapped behind
    those of the groups still running, which go on as the leading rows
    of term and total, and at the end every group's sum is swapped back
    into its row.  Every operation is elementwise, so each group's sum
    has the bits of its rows summed as one series, provided a group
    holds two entries or more: numpy rounds a one-element complex
    product by another path than a longer one, so a one-entry row alone
    and the same row among others can differ in the last bit.
    """
    num = [np.asarray(a, np.complex128)[()] for a in num]
    den = [np.asarray(c, np.complex128)[()] for c in den]
    z = np.asarray(z, np.complex128)
    shape = np.broadcast_shapes(*map(np.shape, num), *map(np.shape, den),
                                z.shape)
    term = np.ones(shape, dtype=np.complex128)
    total = term.copy()
    real = all(type(c) is np.complex128 and c.imag == 0.0 for c in den)
    if real:
        den = [float(c.real) for c in den]
    group = shape[1:]
    step = np.empty(np.broadcast_shapes(*map(np.shape, num), group),
                    np.complex128)
    mag, bound = np.empty(group), np.empty(group)

    def full_test(t, s):
        """None when every entry of one group's t and s passes, else the
        group's new witness: its entry furthest from passing."""
        np.abs(s, out=bound)
        np.maximum(bound, 1e-300, out=bound)
        np.multiply(bound, _SERIES_RELTOL, out=bound)
        np.abs(t, out=mag)
        if (mag < bound).all():
            return None
        return int(np.divide(mag, bound, out=mag).argmax())

    # rows 0..m-1 of term, total and z run; row j holds group order[j],
    # and slow[j] is its witness, an index among a group's `size` entries
    m = shape[0]
    size = term.size // m
    order, slow = list(range(m)), [0] * m
    if m > 1:
        z = z.copy()
        # each row's witness entries of term and total, gathered every
        # term from the flat indices `at`
        at = np.arange(0, term.size, size)
        flat_t, flat_s = term.reshape(-1), total.reshape(-1)
        wit_t, wit_s = wit = np.empty((2, m), np.complex128)
        abs_t, abs_s = absw = np.empty((2, m))
        skip = np.empty(m, bool)
    witness_tol = 2.0 * _SERIES_RELTOL
    n = -1
    while m:
        run_t, run_s, run_z = term[:m], total[:m], z[:m]
        parts = run_t.reshape(-1).view(np.float64) if real else None
        k, running = slow[0], skip[:m] if m > 1 else None
        stops = []
        for n in range(n + 1, _SERIES_MAX_TERMS):
            for a in num:
                np.add(a, n, out=step)
                run_t *= step
            run_t *= run_z
            d = n + 1.0
            for c in den:
                d = (c + n) * d
            if parts is None:
                run_t /= d
            else:
                parts *= 1.0 / d
            run_s += run_t
            if m == 1:
                if abs(run_t.item(k)) >= witness_tol * max(
                        abs(run_s.item(k)), 1e-300):
                    continue
                k = full_test(term[0], total[0])
                if k is None:
                    stops.append(0)
                    break
                continue
            flat_t.take(at, out=wit_t)
            flat_s.take(at, out=wit_s)
            np.abs(wit, out=absw)
            np.maximum(abs_s, 1e-300, out=abs_s)
            abs_s *= witness_tol
            np.greater_equal(abs_t, abs_s, out=skip)
            if np.count_nonzero(running) == m:
                continue
            for j in (~running).nonzero()[0].tolist():
                slow[j] = full_test(run_t[j], run_s[j])
                if slow[j] is None:
                    stops.append(j)
                else:
                    at[j] = j * size + slow[j]
            if stops:
                break
        else:
            raise ValueError("%s: series did not converge in %d terms"
                             % (name, _SERIES_MAX_TERMS))
        # each stopped group's row goes behind the running ones
        for j in reversed(stops):
            m -= 1
            if j != m:
                term[j] = term[m]
                total[[j, m]] = total[[m, j]]
                z[[j, m]] = z[[m, j]]
                order[j], order[m] = order[m], order[j]
                slow[j], slow[m] = slow[m], slow[j]
                at[j] = j * size + slow[j]
    # every group's sum back into its own row
    for j in range(len(order)):
        while order[j] != j:
            i = order[j]
            total[[j, i]] = total[[i, j]]
            order[j], order[i] = order[i], order[j]
    return total


def hyp1f1(a, c, z):
    """Confluent hypergeometric 1F1(a; c; z) by Taylor series.

    Where Re z < 0 the first Kummer transformation
    1F1(a; c; z) = e^z 1F1(c - a; c; -z) is applied, elementwise, so the
    one summed series has nonnegative argument real part, avoiding the
    cancellation blowup of the raw alternating sum.  Working range
    |z| <= 50; any other z (NaN included) raises ValueError, as does a
    non-finite a or c.

    Within that range the accuracy depends on the phase of z, since
    nothing avoids the cancellation near Re z = 0.  At a = (1 - s)/2,
    s = (1 + it)/2, t in [0, 243], c = 1/2, the worst relative error
    against 50-digit values is 1e-11 at z = +-49 and 7e-12 at 30 + 30i,
    but 3e-7 at 24.5i and 0.14 at 36i, growing like eps e^|z| along the
    imaginary axis.

    a, c, z broadcast, summed as one group (_hyp_series); c must avoid
    nonpositive integers.
    """
    cc, scalar_c = _split(c, np.complex128)
    _require_finite("hyp1f1", cc, "parameter c")
    badc = (cc.imag == 0.0) & (cc.real <= 0.0) & (cc.real == np.floor(cc.real))
    if np.any(badc):
        raise ValueError("hyp1f1: parameter c at a nonpositive integer")
    aa, scalar_a = _split(a, np.complex128)
    _require_finite("hyp1f1", aa, "parameter a")
    zz, scalar_z = _split(z, np.complex128)
    _require_hyp1f1_range(zz)
    neg = zz.real < 0.0
    param = np.where(neg, cc - aa, aa)
    arg = np.where(neg, -zz, zz)
    series = _hyp_series("hyp1f1", (param,), (cc,), np.reshape(
        arg, (1,) * (1 + param.ndim - arg.ndim) + arg.shape))[0]
    # e^z first: numpy's complex product may fuse a multiply-add, so the
    # operand order fixes the last bit
    out = np.multiply(np.where(neg, np.exp(zz), 1.0), series)
    return _merge(out, scalar_a and scalar_c and scalar_z)


def hyp2f2_11(z):
    """2F2(1, 1; 3/2, 2; z) by its Taylor series."""
    zz, scalar = _split(z, np.complex128)
    _require_finite("hyp2f2_11", zz)
    return _merge(_hyp_series("hyp2f2_11", (1, 1), (1.5, 2), zz[None])[0],
                  scalar)


def _k0_trapezoid(name, x):
    """e^x K0(x) = int_0^inf exp(-2x sinh^2(u/2)) du by the trapezoid rule.

    Each x integrates over [0, T], T = arccosh(1 + 40/x), where the
    integrand has fallen to e^-40; every x of a batch takes the same
    K = max(16, ceil(T_max / 0.25)) steps, with its own h = T/K.  The
    integrand is analytic in |Im u| < pi/2, so the rule converges
    exponentially (Trefethen & Weideman, SIAM Rev. 56, 2014) and h <= 0.25
    keeps its error below 1e-17.  Returns (x array, was_scalar, e^x K0(x));
    raises ValueError naming the function for x outside [1e-12, inf), NaN
    included.  At x = 1e-12, T = 32.0, so no row takes over 128 steps.
    """
    v, scalar = _split(x, np.float64)
    inside = (v >= 1e-12) & (v < np.inf)
    if not inside.all():
        raise ValueError("%s: x = %.6g outside the working range "
                         "1e-12 <= x < inf" % (name, v[~inside][0]))
    T = 2.0 * np.arcsinh(np.sqrt(20.0 / v))  # arccosh(1 + 40/v), stably
    K = max(16, int(np.ceil(T.max(initial=0.0) / 0.25)))
    h = T / K
    f = np.sinh(0.5 * h[..., None] * np.arange(K + 1.0))
    f *= f
    f *= v[..., None]  # at most 20, even where 2 v would overflow
    f *= -2.0
    np.exp(f, out=f)
    # trapezoid weights: the end values 1 and f[..., -1] count half
    return v, scalar, h * (f.sum(axis=-1) - 0.5 * (1.0 + f[..., -1]))


def besselk0(x):
    """Modified Bessel function K0(x) for 1e-12 <= x < inf.

    e^x K0(x) from the trapezoid rule, times e^-x taken apart: folding
    -x into the integrand's exponent costs up to 3e-14 relative near
    x = 700.
    """
    v, scalar, out = _k0_trapezoid("besselk0", x)
    return _merge(out * np.exp(-v), scalar)


def besselk0_scaled(x):
    """e^x K0(x) for 1e-12 <= x < inf; finite where K0 itself underflows."""
    v, scalar, out = _k0_trapezoid("besselk0_scaled", x)
    return _merge(out, scalar)


# eq=False: a table holds arrays, so it compares and hashes by identity
@dataclass(frozen=True, eq=False)
class MobiusTable:
    """Moebius function values mu(1..limit).

    values has length limit + 1 with values[0] = 0 unused, so values[n]
    is mu(n) for 1 <= n <= limit.  squarefree holds, in ascending order,
    the n with mu(n) != 0, the only n a Moebius-weighted sum needs; n,
    mu_over_n and inv_n2 hold n, mu(n)/n and 1/n^2 at those n as float64.
    Every array is read-only, because mobius_sieve shares one table per
    limit across the process.
    """

    limit: int
    values: np.ndarray
    squarefree: np.ndarray = field(init=False)
    n: np.ndarray = field(init=False)
    mu_over_n: np.ndarray = field(init=False)
    inv_n2: np.ndarray = field(init=False)

    def __post_init__(self):
        squarefree = np.flatnonzero(self.values)
        n = squarefree.astype(np.float64)
        arrays = {"squarefree": squarefree, "n": n,
                  "mu_over_n": self.values[squarefree] / n,
                  "inv_n2": 1.0 / (n * n)}
        for name, arr in arrays.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@functools.lru_cache(maxsize=4)
def mobius_sieve(N):
    """Sieve mu(1..N).

    Only the primes p <= sqrt(N) are sieved; each flips the sign of its
    multiples, zeroes the multiples of p^2 and is divided out of them
    once.  A squarefree n <= N then has at most one prime factor above
    sqrt(N), which is what remains of n when it exceeds 1, and that
    factor flips the sign once more.  Every step is one numpy slice
    operation, so there is no Python loop over n.  Tables are memoized
    per process by N, so every caller shares one table; its arrays are
    read-only for that reason.
    """
    if N < 1:
        raise ValueError("mobius_sieve: N must be >= 1")
    root = math.isqrt(N)
    is_prime = np.ones(root + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if is_prime[p]:
            is_prime[p * p::p] = False
    mu = np.ones(N + 1, dtype=np.int8)
    mu[0] = 0
    rest = np.arange(N + 1)
    for p in np.flatnonzero(is_prime).tolist():
        mu[p::p] *= -1
        mu[p * p::p * p] = 0
        rest[p::p] //= p
    mu[rest > 1] *= -1
    mu.flags.writeable = False
    return MobiusTable(N, mu)
