"""Classical special functions implemented from scratch.

Everything downstream (kernels, series, quadrature integrands) is built on
the functions in this module: complex log-gamma, real digamma, the Riemann
zeta function on and off the critical line and its derivative, the
confluent hypergeometric series 1F1 and the single 2F2 parameter set the
identities need, the modified Bessel function K0, and a Moebius sieve.

Functions here, in xikernel and in numseries that take scalars or numpy
arrays tell them apart only through _split (coerce, note a scalar) and
_merge (a numpy scalar back when every input was one); bodies work on
possibly 0-d arrays.  Arithmetic is IEEE double; design accuracy is
~1e-12 relative on the documented working ranges, which leaves headroom
for the 1e-8..1e-9 verification tolerances used by the identity checks.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

EULER_GAMMA = 0.5772156649015328606

# Stieltjes constants gamma_1, gamma_2 for the zeta Laurent expansion
# zeta(w) = 1/(w-1) + gamma_0 - gamma_1 (w-1) + gamma_2 (w-1)^2 / 2 - ...
_STIELTJES_1 = -0.07281584548367672486
_STIELTJES_2 = -0.00969036319287231848

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


def gamma_fn(s):
    """Gamma(s) = exp(lngamma(s)); branch-free since exp kills 2 pi i shifts."""
    return np.exp(lngamma(s))


def digamma(x):
    """Digamma psi(x) for real x > 0 or complex x off the pole ray.

    Recurrence-lift to x + 15, then the Bernoulli asymptotic series through
    the x^-12 term; the first omitted term is below 3e-18 at x >= 15.
    Raises ValueError on the pole ray and at non-finite input.
    """
    if np.iscomplexobj(x) or isinstance(x, complex):
        v, scalar = _split(x, np.complex128)
        _require_finite("digamma", v)
        if np.any((v.imag == 0.0) & (v.real <= 0.0)):
            raise ValueError("digamma: argument must avoid the pole ray")
    else:
        v, scalar = _split(x, np.float64)
        _require_finite("digamma", v)
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
_eta_coeff_cache = {}


def _eta_terms_needed(tmax):
    """Terms for the accelerated alternating series at |Im s| <= tmax."""
    n = int(np.ceil((39.0 + 0.5 * np.pi * tmax + np.log1p(2.0 * tmax))
                    / _LN_ETA_BASE)) + 10
    n = max(60, n)
    if n > _ETA_MAX_N:
        raise ValueError(
            "zeta: |Im s| = %.1f beyond the supported strip (coefficient "
            "overflow past n = %d)" % (tmax, _ETA_MAX_N))
    return n


def _eta_coefficients(n):
    """Chebyshev-polynomial weights d_k for the accelerated eta series.

    d_k = n * sum_{i=0}^{k} (n+i-1)! 4^i / ((n-i)! (2i)!), built by the term
    ratio 4 (n+i)(n-i) / ((2i+1)(2i+2)).  Returns (e, d_n) with
    e[k] = (-1)^k (d_k - d_n) for k = 0..n-1.
    """
    cached = _eta_coeff_cache.get(n)
    if cached is not None:
        return cached
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
    _eta_coeff_cache[n] = (e, d[n])
    return e, d[n]


def _eta_powers(z, n):
    """(k+1)^(-s) for k = 0..n-1, one row per entry of z, and log(k+1).

    Callers weight the rows in place and sum them along axis 1 rather than
    take a matrix-vector product: `@` goes to BLAS, whose helper thread
    spins on the other core between calls and slows every --jobs worker
    beside it.
    """
    logk = np.log(np.arange(1.0, n + 1.0))
    powers = np.outer(-z.reshape(-1), logk)
    np.exp(powers, out=powers)
    return powers, logk


def zeta_eta(s, n=None):
    """Zeta via the accelerated alternating (eta) series.

    zeta(s) = -1/(d_n (1 - 2^(1-s))) * sum_{k=0}^{n-1} (-1)^k (d_k - d_n)
    (k+1)^(-s).  Convergence is geometric in n for Re s >= 1/2; for
    0 < Re s < 1/2 it still converges but needs a larger n (the caller can
    pass one), which the cross-check of the functional equation uses.
    """
    z, scalar = _split(s, np.complex128)
    _require_finite("zeta_eta", z)
    if n is None:
        tmax = float(np.max(np.abs(z.imag))) if z.size else 0.0
        n = _eta_terms_needed(tmax)
    e, dn = _eta_coefficients(n)
    powers, _ = _eta_powers(z, n)
    powers *= e
    total = powers.sum(axis=1).reshape(z.shape)
    out = -total / (dn * (1.0 - np.exp((1.0 - z) * np.log(2.0))))
    return _merge(out, scalar)


def zeta_eta_prime(s):
    """zeta'(s) for Re s >= 1/2 by the term-wise derivative of zeta_eta.

    With S(s) = sum_k e_k (k+1)^(-s) and D(s) = 1 - 2^(1-s), zeta_eta is
    -S / (d_n D), so zeta' = (S D' / D - S') / (d_n D) where
    S'(s) = -sum_k e_k log(k+1) (k+1)^(-s) and D'(s) = 2^(1-s) log 2.
    Same coefficients and term count as zeta_eta; one series evaluation.
    """
    z, scalar = _split(s, np.complex128)
    _require_finite("zeta_eta_prime", z)
    tmax = float(np.max(np.abs(z.imag))) if z.size else 0.0
    e, dn = _eta_coefficients(_eta_terms_needed(tmax))
    powers, logk = _eta_powers(z, len(e))
    powers *= e
    total = powers.sum(axis=1).reshape(z.shape)
    powers *= logk
    dtotal = -powers.sum(axis=1).reshape(z.shape)
    two = np.exp((1.0 - z) * np.log(2.0))
    d = 1.0 - two
    out = (total * two * np.log(2.0) / d - dtotal) / (dn * d)
    return _merge(out, scalar)


def zeta(s):
    """Riemann zeta with analytic continuation.

    Re s >= 1/2: accelerated alternating series.  Re s < 1/2: functional
    equation zeta(s) = pi^(s-1/2) Gamma((1-s)/2) / Gamma(s/2) * zeta(1-s),
    with a series branch near s = 0 where 1/Gamma(s/2) vanishes:
    zeta(1-s) Gamma(s/2)^-1 = (s/2)(-1/s + g0 + g1 s + ...) / Gamma(1+s/2).

    Raises ValueError at the pole s = 1 and at non-finite s.
    """
    z, scalar = _split(s, np.complex128)
    _require_finite("zeta", z)
    if np.any(z == 1.0):
        raise ValueError("zeta: pole at s = 1")
    out = np.empty_like(z)
    right = z.real >= 0.5
    if np.any(right):
        out[right] = zeta_eta(z[right])
    left = ~right
    if np.any(left):
        w = z[left]
        near0 = np.abs(w) < 1e-3
        res = np.empty_like(w)
        if np.any(~near0):
            v = w[~near0]
            ratio = np.exp(lngamma((1.0 - v) / 2.0) - lngamma(v / 2.0))
            res[~near0] = (np.exp((v - 0.5) * np.log(np.pi)) * ratio
                           * zeta_eta(1.0 - v))
        if np.any(near0):
            v = w[near0]
            # (s/2) * zeta(1-s) expanded through s^3; exact at s = 0
            ser = (-0.5 + 0.5 * EULER_GAMMA * v
                   + 0.5 * _STIELTJES_1 * v * v
                   + 0.25 * _STIELTJES_2 * v ** 3)
            res[near0] = (np.exp((v - 0.5) * np.log(np.pi))
                          * gamma_fn((1.0 - v) / 2.0) * ser
                          / gamma_fn(1.0 + v / 2.0))
        out[left] = res
    return _merge(out, scalar)


def _hyp_series(a, c, z):
    """Raw Taylor sum of 1F1(a; c; z); a, c, z broadcast.

    A 0-d c or z stays a numpy scalar (every caller passes scalar c and
    most pass scalar z), so only the arrays the result needs are
    allocated.  The loop updates term and total in place and reuses its
    magnitude buffers; each step is the same sequence of operations,
    term * (a + n) * z / ((c + n) (n + 1)), for scalar and array c, z.
    """
    a = np.asarray(a, np.complex128)
    c = np.asarray(c, np.complex128)[()]
    z = np.asarray(z, np.complex128)[()]
    shape = np.broadcast_shapes(a.shape, np.shape(c), np.shape(z))
    term = np.ones(shape, dtype=np.complex128)
    total = term.copy()
    step = np.empty_like(term)
    mag = np.empty(shape)
    bound = np.empty(shape)
    for n in range(_SERIES_MAX_TERMS):
        np.add(a, n, out=step)
        term *= step
        term *= z
        term /= (c + n) * (n + 1.0)
        total += term
        np.abs(total, out=bound)
        np.maximum(bound, 1e-300, out=bound)
        bound *= _SERIES_RELTOL
        np.abs(term, out=mag)
        if (mag < bound).all():
            return total
    raise RuntimeError("hyp1f1: series did not converge in %d terms"
                       % _SERIES_MAX_TERMS)


def hyp1f1(a, c, z):
    """Confluent hypergeometric 1F1(a; c; z) by Taylor series.

    For Re z < 0 the first Kummer transformation
    1F1(a; c; z) = e^z 1F1(c - a; c; -z) is applied first so the summed
    series has nonnegative argument real part, avoiding the cancellation
    blowup of the raw alternating sum.  Working range |z| <= 50; any other
    z (NaN included) raises ValueError, as does a non-finite a or c.

    a, c, z broadcast; c must avoid nonpositive integers.  The series
    itself is _hyp_series, which keeps a scalar c or z scalar and sums in
    place.
    """
    cc, scalar_c = _split(c, np.complex128)
    _require_finite("hyp1f1", cc, "parameter c")
    badc = (cc.imag == 0.0) & (cc.real <= 0.0) & (cc.real == np.floor(cc.real))
    if np.any(badc):
        raise ValueError("hyp1f1: parameter c at a nonpositive integer")
    aa, scalar_a = _split(a, np.complex128)
    _require_finite("hyp1f1", aa, "parameter a")
    zz, scalar_z = _split(z, np.complex128)
    zmax = np.abs(zz).max(initial=0.0)
    if not zmax <= 50.0:  # NaN fails too
        raise ValueError("hyp1f1: |z| = %.6g outside the working range "
                         "|z| <= 50" % zmax)
    neg = zz.real < 0.0
    if not np.any(neg):
        out = _hyp_series(aa, cc, zz)
    elif np.all(neg):
        out = np.exp(zz) * _hyp_series(cc - aa, cc, -zz)
    else:
        direct = _hyp_series(aa, cc, np.where(neg, 0.0, zz))
        flipped = np.exp(zz) * _hyp_series(cc - aa, cc, np.where(neg, -zz, 0.0))
        out = np.where(neg, flipped, direct)
    return _merge(out, scalar_a and scalar_c and scalar_z)


def hyp2f2_11(z):
    """2F2(1, 1; 3/2, 2; z) by direct series; term ratio (n+1) z / ((n+3/2)(n+2))."""
    zz, scalar = _split(z, np.complex128)
    _require_finite("hyp2f2_11", zz)
    term = np.ones(zz.shape, dtype=np.complex128)
    total = term.copy()
    for n in range(_SERIES_MAX_TERMS):
        term = term * (n + 1.0) * zz / ((n + 1.5) * (n + 2.0))
        total = total + term
        bound = _SERIES_RELTOL * np.maximum(np.abs(total), 1e-300)
        if np.all(np.abs(term) < bound):
            return _merge(total, scalar)
    raise RuntimeError("hyp2f2_11: series did not converge")


def _k0_series(x):
    """Power-log series, accurate for 0 < x <= 2.

    K0(x) = -(log(x/2) + gamma) I0(x) + sum_{k>=1} H_k (x^2/4)^k / (k!)^2.
    """
    q = 0.25 * x * x
    i0 = np.ones_like(x)
    corr = np.zeros_like(x)
    term = np.ones_like(x)
    hk = 0.0
    for k in range(1, 40):
        term = term * q / (k * k)
        hk += 1.0 / k
        i0 += term
        corr += hk * term
        if np.all(term < 1e-19):
            break
    return -(np.log(0.5 * x) + EULER_GAMMA) * i0 + corr


def _k0_cf2_scaled(x):
    """e^x K0(x) by the Steed continued fraction, for x >= 2.

    Evaluates CF2 of the modified Bessel equation at order zero:
    the Lentz/Thompson recurrence on b = 2(1+x), b += 2 with partial
    numerators a_1 = 1/4, a_{i} = a_{i-1} - 2(i-1), accumulating the
    series factor S; then e^x K0(x) = sqrt(pi/(2x)) / S.
    """
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    delh = d.copy()
    h = delh.copy()
    q1 = np.zeros_like(x)
    q2 = np.ones_like(x)
    a1 = 0.25
    q = np.full_like(x, a1)
    c = np.full_like(x, a1)
    a = -a1
    s = 1.0 + q * delh
    for i in range(2, 40001):
        a -= 2.0 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1 = q2
        q2 = qnew
        q = q + c * qnew
        b = b + 2.0
        d = 1.0 / (a * d + b)
        delh = (b * d - 1.0) * delh
        h = h + delh
        dels = q * delh
        s = s + dels
        if np.all(np.abs(dels) < np.abs(s) * 1e-17):
            return np.sqrt(np.pi / (2.0 * x)) / s
    raise RuntimeError("besselk0: continued fraction did not converge")


# coefficients c_k of e^x K0(x) ~ sqrt(pi/(2x)) sum c_k x^(-k), from
# c_k = -c_{k-1} (2k-1)^2 / (8k); truncating after c_6 leaves a relative
# error below 8e-18 for x >= 300
_K0_LARGE = np.array([1.0, -1.0 / 8.0, 9.0 / 128.0, -75.0 / 1024.0,
                      3675.0 / 32768.0, -59535.0 / 262144.0,
                      2401245.0 / 4194304.0])


def _k0_asymp_scaled(x):
    """e^x K0(x) by the large-argument expansion, for x >= 300."""
    acc = np.zeros_like(x)
    for ck in _K0_LARGE[::-1]:
        acc = acc / x + ck
    return np.sqrt(np.pi / (2.0 * x)) * acc


def _k0_branches(name, x):
    """Validate x > 0 (NaN fails) and evaluate K0 by branch.

    Returns (v, scalar, small, out): out holds K0(v) where small (v <= 2,
    power-log series) and e^v K0(v) elsewhere (continued fraction below
    300, large-argument expansion from 300), so each caller applies its
    own exponential factor to one part.
    """
    v, scalar = _split(x, np.float64)
    if np.any(~(v > 0.0)):
        raise ValueError("%s: argument must be positive" % name)
    out = np.empty_like(v)
    small = v <= 2.0
    big = v >= 300.0
    mid = ~small & ~big
    if np.any(small):
        out[small] = _k0_series(v[small])
    if np.any(mid):
        out[mid] = _k0_cf2_scaled(v[mid])
    if np.any(big):
        out[big] = _k0_asymp_scaled(v[big])
    return v, scalar, small, out


def besselk0(x):
    """Modified Bessel function K0(x), x > 0.

    Power-log series for x <= 2, continued-fraction regime for
    2 < x < 300, large-argument expansion beyond; the branches agree at
    the seams to better than 1e-13 relative.
    """
    v, scalar, small, out = _k0_branches("besselk0", x)
    out[~small] *= np.exp(-v[~small])
    return _merge(out, scalar)


def besselk0_scaled(x):
    """e^x K0(x); safe for large x where K0 itself underflows."""
    v, scalar, small, out = _k0_branches("besselk0_scaled", x)
    out[small] *= np.exp(v[small])
    return _merge(out, scalar)


# eq=False: a table holds an array, so it compares and hashes by identity
@dataclass(frozen=True, eq=False)
class MobiusTable:
    """Moebius function values mu(1..limit).

    values has length limit + 1 with values[0] = 0 unused, so values[n]
    is mu(n) for 1 <= n <= limit.  squarefree holds, in ascending order,
    the n with mu(n) != 0, the only n a Moebius-weighted sum needs.
    """

    limit: int
    values: np.ndarray
    squarefree: np.ndarray = field(init=False)

    def __post_init__(self):
        squarefree = np.flatnonzero(self.values)
        squarefree.flags.writeable = False
        object.__setattr__(self, "squarefree", squarefree)


@functools.lru_cache(maxsize=4)
def mobius_sieve(N):
    """Sieve mu(1..N).

    Boolean prime sieve, then one sign flip per prime stride and a zero
    pass per squared-prime stride; total work O(N log log N).  Tables are
    memoized per process by N, so every caller shares one table; its
    values array is read-only for that reason.
    """
    if N < 1:
        raise ValueError("mobius_sieve: N must be >= 1")
    mu = np.ones(N + 1, dtype=np.int8)
    mu[0] = 0
    if N >= 2:
        is_comp = np.zeros(N + 1, dtype=bool)
        for p in range(2, N + 1):
            if is_comp[p]:
                continue
            is_comp[p * p::p] = True
            mu[p::p] *= -1
            sq = p * p
            if sq <= N:
                mu[sq::sq] = 0
    mu.flags.writeable = False
    return MobiusTable(N, mu)
