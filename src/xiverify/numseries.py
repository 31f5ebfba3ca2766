"""Infinite series with certified truncation.

Each sum here feeds one side of an identity check: theta-type Gaussian
sums, sums of the modified Bessel function K0, the Bessel-difference sum
behind the z = 0 Ferrar reduction, the digamma-remainder sum, the
Moebius sum, and the sum over nontrivial zeta zeros in conjugate pairs.

Truncation policy: sums stop when a rigorous term bound drops below
1e-17 or switch to an Euler-Maclaurin tail once terms follow their
asymptotic power law; the Moebius sum, a short head plus moment tails
whose two known moments are exact, reports a bound on its tail, its
moment truncation and its rounding.  A term count above MAX_TERMS
(20000 for ferrar_bessel_sum) raises ValueError before any term is
allocated.
mobius_theta_sum and zero_sum_bracketed each do one rhl side's work in
one pass: the Moebius sum from one head array and its moment tails, and
the zero sum at every zero count from one evaluation of the pair terms.
A side pays only for what depends on its own (alpha, z).  The Moebius
sum reads n, mu(n)/n and 1/n^2 from the shared MobiusTable, takes its
head terms in real arithmetic and keeps the moment tails per table and
split level, 12 scalars each, in a per-process LRU cache.  The zero sum
keeps its log-Gamma factors per zero set in a per-process LRU cache and
takes its 1F1 rows from xikernel.rho_series, whose cache also serves the
Xi sides; prepare_zero_sums fills that cache with the rows of many z as
one grouped series.  The entries of all three caches are the bits an
uncached call would compute.
"""

import functools
import math

import numpy as np

from .specfun import (_PSI_ASYMP, EULER_GAMMA, _merge, _split, besselk0,
                      besselk0_scaled, lngamma)
from .xikernel import lambda_kernel, prepare_rho_series, rho_series

_LOG_TERM_CUTOFF = 39.2  # -log(1e-17)

# the most terms a series may take
MAX_TERMS = 10 ** 7

# 1/zeta(3) to 40 digits, in units of 10^-40 (_E40)
_INV_ZETA3_E40 = 8319073725807074686831262788215307344171
_E40 = 10 ** 40

# mobius_theta_sum's moment tails take d_m x^(2m) up to m = _MOMENTS
_MOMENTS = 12

_TWO_PI = 2.0 * np.pi

_SQRT_PI = math.sqrt(math.pi)

_EPS = float(np.finfo(np.float64).eps)

# k0_sum_minus_pole uses the lattice form below this t and the direct
# Bessel sum from it up (see k0_sum_minus_pole for why 4)
_K0_SUM_SEAM = 4.0

# coefficients c_k of e^x K0(x) ~ sqrt(pi/(2x)) sum c_k x^(-k), from
# c_k = -c_{k-1} (2k-1)^2 / (8k); ferrar_bessel_sum's tail takes c_1..c_4
_K0_LARGE = np.array([1.0, -1.0 / 8.0, 9.0 / 128.0, -75.0 / 1024.0,
                      3675.0 / 32768.0])


def _zeta_tail(N, m):
    """Euler-Maclaurin tail sum_{n > N} n^(-m) for integer N, real m > 1."""
    return (N ** (1.0 - m) / (m - 1.0) - 0.5 * N ** (-m)
            + (m / 12.0) * N ** (-m - 1.0)
            - (m * (m + 1.0) * (m + 2.0) / 720.0) * N ** (-m - 3.0))


def _term_count(name, count):
    """ceil(count) as an int; ValueError naming the function above
    MAX_TERMS."""
    if not count <= MAX_TERMS:
        raise ValueError("%s: %.3g terms needed, above the ceiling of %d"
                         % (name, count, MAX_TERMS))
    return int(math.ceil(count))


def theta_sum(alpha, z):
    """sum_{n>=1} e^(-pi alpha^2 n^2) cos(sqrt(pi) alpha n z).

    Truncated once the term bound e^(-pi a^2 n^2 + sqrt(pi) a n |Im z|)
    falls below 1e-17; the bound is the positive root of the exponent
    quadratic, so no trial summation is needed.  The root is taken with
    alpha factored out, so no alpha over- or underflows it.
    """
    alpha = float(alpha)
    if alpha <= 0.0:
        raise ValueError("theta_sum: alpha must be positive")
    z = complex(z)
    a = np.pi * alpha * alpha
    root = ((abs(z.imag) + math.sqrt(z.imag ** 2 + 4.0 * _LOG_TERM_CUTOFF))
            / (2.0 * math.sqrt(math.pi) * alpha))
    N = _term_count("theta_sum", root) + 1
    n = np.arange(1.0, N + 1.0)
    terms = np.exp(-a * n * n) * np.cos(np.sqrt(np.pi) * alpha * n * z)
    return complex(terms[::-1].sum())


def cosh_theta_sum(beta, z):
    """sum_{n>=1} e^(-pi beta^2 n^2) cosh(sqrt(pi) beta n z).

    Independent twin of theta_sum (cosh in place of cos, bound driven by
    |Re z|); kept as separate code so the two sides of the transformation
    identities are not computed by the same expression.
    """
    beta = float(beta)
    if beta <= 0.0:
        raise ValueError("cosh_theta_sum: beta must be positive")
    z = complex(z)
    a = np.pi * beta * beta
    root = ((abs(z.real) + math.sqrt(z.real ** 2 + 4.0 * _LOG_TERM_CUTOFF))
            / (2.0 * math.sqrt(math.pi) * beta))
    N = _term_count("cosh_theta_sum", root) + 1
    n = np.arange(1.0, N + 1.0)
    terms = np.exp(-a * n * n) * np.cosh(np.sqrt(np.pi) * beta * n * z)
    return complex(terms[::-1].sum())


def sqrt_lattice_sum(t):
    """S(t) = sum_n (1/sqrt(t^2 + 4 pi^2 n^2) - 1/(2 pi n)), vectorized.

    Direct terms to n = N plus the tail from expanding the square root,
    sum_{n>N} = -t^2/(2 c^3) T(3) + 3 t^4/(8 c^5) T(5) with c = 2 pi and
    T(m) the Euler-Maclaurin tail of n^(-m).  The first omitted term is
    about (t/N)^6 / 7.4e6, so N = max(128, 32 max t) keeps it near 1e-16;
    an N above MAX_TERMS raises ValueError before any array is made.
    On the lattice route of k0_sum_minus_pole (t < 4) N is 128: against
    30-digit mpmath the error is at most 1.0e-16 at t = 0.05, 0.5, 1, 2,
    3 and 3.99, and within 1.3e-16 of the N = 500 sum over 400 points of
    (0, 4].
    """
    tt, scalar = _split(t, np.float64)
    N = max(128, _term_count("sqrt_lattice_sum", 32.0 * tt.max(initial=0.0)))
    n = np.arange(1.0, N + 1.0)
    direct = (1.0 / np.sqrt(tt[..., None] ** 2 + (_TWO_PI * n) ** 2)
              - 1.0 / (_TWO_PI * n))
    head = direct[..., ::-1].sum(axis=-1)
    c = _TWO_PI
    tail = (-tt ** 2 / (2.0 * c ** 3) * _zeta_tail(N, 3.0)
            + 3.0 * tt ** 4 / (8.0 * c ** 5) * _zeta_tail(N, 5.0))
    return _merge(head + tail, scalar)


def k0_sum_direct(t):
    """sum_{n>=1} K0(n t) by direct Bessel summation, for t >= 0.2.

    Every row takes N = ceil(45/min(t)) terms, enough for K0(N t) < 1e-20.
    From t = 4 up that is at most 12 terms with arguments of 4 or more.
    Against 30-digit mpmath sums its absolute error is below 1.9e-18
    (1.7e-16 relative) at t = 4, 6, 10, 20, 40, 59, 60 and 100, and below
    4.6e-16 (2.5e-16 relative) at 37 points of [0.25, 4).  Below t = 0.2
    the term count grows like 1/t and the sum loses digits against its
    pole, so smaller t is rejected.  k0_sum_minus_pole takes this route
    from t = 4 up; watson_lattice_check calls it directly to compare
    it with the lattice route at any t >= 0.2.
    """
    tv, scalar = _split(t, np.float64)
    if np.any(~(tv >= 0.2)):
        raise ValueError("k0_sum_direct: t must be at least 0.2")
    N = max(2, int(np.ceil(45.0 / float(tv.min()))))
    n = np.arange(1.0, N + 1.0)
    vals = besselk0(tv[..., None] * n)
    return _merge(vals[..., ::-1].sum(axis=-1), scalar)


def k0_sum_minus_pole(t):
    """The regularized bracket sum_n K0(n t) - pi/(2t), stable near t = 0.

    Below t = 4 (_K0_SUM_SEAM) the lattice representation
    (gamma + log(t/(4 pi)))/2 + pi S(t), with the pole left out
    analytically, so no large terms cancel; against 30-digit mpmath sums
    its absolute error is below 4e-16 at 40 points of [0.05, 4].  From
    t = 4 up the direct Bessel sum (k0_sum_direct, at most 12 terms),
    error below 1.9e-17 at 8 points of [4, 100], the rounding of taking
    out the pole.  The lattice form is not taken further: its error
    grows with t, to 1.5e-15 at t = 20, 1.1e-13 at t = 40 and 2.7e-11 at
    t = 100, while ferrar's physical sides tabulate this sum on the
    double-exponential nodes, which reach t = 243.7; at those nodes it
    is within 4e-16 of mpmath, and at the first, 8.9e-42, of the small-t
    form (gamma + log(t/(4 pi)))/2.
    Either route is one vectorized call over its share of t.
    """
    tv, scalar = _split(t, np.float64)
    if np.any(~(tv > 0.0)):
        raise ValueError("k0_sum_minus_pole: t must be positive")
    out = np.empty_like(tv)
    lattice = tv < _K0_SUM_SEAM
    if np.any(~lattice):
        tl = tv[~lattice]
        out[~lattice] = k0_sum_direct(tl) - 0.5 * np.pi / tl
    if np.any(lattice):
        ts = tv[lattice]
        out[lattice] = (0.5 * (EULER_GAMMA + np.log(ts) - np.log(4.0 * np.pi))
                        + np.pi * sqrt_lattice_sum(ts))
    return _merge(out, scalar)


def ferrar_bessel_sum(alpha):
    """sum_{n>=1} (e^(x_n) K0(x_n) - 1/(n alpha)), x_n = pi alpha^2 n^2 / 2.

    Each term is (E(x_n))/(n alpha) with E(x) = e^x K0(x) sqrt(2x/pi) - 1,
    which decays like -1/(8x), so the terms are O(n^-3).  Direct summation
    runs to N and the remainder uses the asymptotic coefficients of E
    against Euler-Maclaurin power tails; the result carries ~1e-12
    absolute error.  N = max(400, ceil(20/alpha)) terms, at most 20000:
    below alpha = 1e-3, where more would be needed, it raises ValueError
    (a capped N was off by 1.8e-2 at alpha = 1e-4).
    """
    alpha = float(alpha)
    if alpha <= 0.0:
        raise ValueError("ferrar_bessel_sum: alpha must be positive")
    if not 20.0 / alpha <= 20000:
        raise ValueError("ferrar_bessel_sum: %.3g terms needed at alpha = "
                         "%.3g, above its ceiling of 20000"
                         % (20.0 / alpha, alpha))
    N = max(400, int(np.ceil(20.0 / alpha)))
    n = np.arange(1.0, N + 1.0)
    x = 0.5 * np.pi * alpha * alpha * n * n
    E = besselk0_scaled(x) * np.sqrt(2.0 * x / np.pi) - 1.0
    head = (E / (n * alpha))[::-1].sum()
    scale = 2.0 / (np.pi * alpha * alpha)
    # E(x) ~ sum_{k>=1} c_k x^(-k), c_k from K0's large-argument expansion
    tail = sum(ck * scale ** (k + 1) * _zeta_tail(N, 2.0 * k + 3.0)
               for k, ck in enumerate(_K0_LARGE[1:5])) / alpha
    return float(head + tail)


def lambda_sum(alpha):
    """sum_{k>=1} lambda(k alpha) with lambda(x) = psi(x) + 1/(2x) - log x.

    lambda(k alpha) ~ -1/(12 (k alpha)^2), so after K direct terms the
    remainder is the Bernoulli expansion of lambda against power tails:
    sum_{k>K} lambda(k alpha) = -sum_j B_{2j}/(2j alpha^{2j}) T(2j).
    Direct cutoff K scales like 1/alpha so small alpha keeps its accuracy.
    """
    alpha = float(alpha)
    if alpha <= 0.0:
        raise ValueError("lambda_sum: alpha must be positive")
    K = max(1000, _term_count("lambda_sum", 50.0 / alpha))
    k = np.arange(1.0, K + 1.0)
    head = lambda_kernel(k * alpha)[::-1].sum()
    # lambda(x) = -sum_j B_{2j}/(2j x^{2j}), the tail of psi's expansion
    tail = -sum(bj * alpha ** (-2.0 * (j + 1)) * _zeta_tail(K, 2.0 * (j + 1))
                for j, bj in enumerate(_PSI_ASYMP[:4]))
    return float(head + tail)


def _mobius_level(c):
    """The smallest power of two n0 with c <= n0^2/4: mobius_theta_sum
    sums n < n0 directly and n >= n0 by moments."""
    n0 = 1
    while 4.0 * c > n0 * n0:
        n0 *= 2
    return n0


def _mobius_head(alpha, z, table, stop):
    """The terms mu(n)/n f(1/n) of mobius_theta_sum at the squarefree
    n < stop, as a complex array, and their rounding scale: the sum over
    those n of (C_n/n) (6 + ceil(log2 k) + 5 (|u| + |X| + |Y|)), k terms.

    f is taken in real arithmetic.  With u = -pi alpha^2/n^2,
    X = sqrt(pi) alpha Re z/n, Y = sqrt(pi) alpha Im z/n and
    C, S = (e^(u-Y) +- e^(u+Y))/2, f(1/n) = C cos X + i S sin X: two
    real exponentials, a cosine and a sine per n.  Each exponent u +- Y
    is at most |Im z|^2/4, the maximum over n of -q^2 + q |Im z| with
    q = sqrt(pi) alpha/n, so nothing overflows where cos(sqrt(pi) alpha
    z/n) alone would; and |f| <= C, as |S| <= C.  The rounding scale
    bounds a term's error by an ulp of C_n/n for each operation and for
    each level of the pairwise sum, and by the 5 ulps that u, X and Y
    each carry, which exp and cos turn into errors of their values.
    """
    k = int(np.searchsorted(table.squarefree, stop))
    n = table.n[:k]
    u = -(math.pi * alpha * alpha) * table.inv_n2[:k]
    X = (_SQRT_PI * alpha * z.real) / n
    Y = (_SQRT_PI * alpha * z.imag) / n
    lo = np.exp(u - Y)
    hi = np.exp(u + Y)
    C = 0.5 * (lo + hi)
    S = 0.5 * (lo - hi)
    # the terms' real and imaginary parts, written into one complex
    # array, so the sum is numpy's complex pairwise sum
    terms = np.empty(k, np.complex128)
    terms.real = table.mu_over_n[:k] * (C * np.cos(X))
    terms.imag = table.mu_over_n[:k] * (S * np.sin(X))
    ulps = 6.0 + math.ceil(math.log2(max(k, 1)))
    scale = float((C / n * (ulps + 5.0 * (np.abs(u) + np.abs(X)
                                          + np.abs(Y)))).sum())
    return terms, scale


@functools.lru_cache(maxsize=32)
def _moment_tails(table, n0):
    """The moment tails of mobius_theta_sum split at n0, as floats:
    T0 = -sum_{n<n0} mu(n)/n, T1 = 1/zeta(3) - sum_{n<n0} mu(n)/n^3, and
    n0^(2m) T_m = sum_{n0<=n<=N} mu(n)/n (n0/n)^(2m) for m = 2.._MOMENTS,
    N = table.limit.

    T0 and T1 are the known moments sum mu(n)/n = 0 and sum mu(n)/n^3 =
    1/zeta(3) less their heads, taken as integers in units of 10^-40,
    where nothing cancels, and divided once, correctly rounded; each
    floor division is off by less than one unit.  The T_m are scaled by
    n0^(2m), so none underflows, and each is one pass over the table
    above n0.  Cached per (table, n0), _MOMENTS + 1 scalars an entry; a
    table has one n0 per power of two up to its limit, and mobius_theta_sum
    asks for no n0 above limit + 1.  The cache holds its tables, at most
    32 of them.
    """
    k = int(np.searchsorted(table.squarefree, n0))
    mu = table.values
    head = table.squarefree[:k].tolist()
    s1 = sum(int(mu[n]) * (_E40 // n) for n in head)
    s3 = sum(int(mu[n]) * (_E40 // n ** 3) for n in head)
    q = float(n0) * n0 * table.inv_n2[k:]
    w = table.mu_over_n[k:] * q
    taus = []
    for _ in range(2, _MOMENTS + 1):
        w = w * q
        taus.append(float(w[::-1].sum()))
    return -s1 / _E40, (_INV_ZETA3_E40 - s3) / _E40, tuple(taus)


def mobius_theta_sum(alpha, z, table):
    """sum_n mu(n)/n f(1/n), f(x) = e^(-pi a^2 x^2) cos(sqrt(pi) a z x) with
    a = alpha, summed absolutely; returns (sum, error_bound).

    f(x) = sum_m d_m x^(2m) with d_0 = 1 and d_1 = -pi alpha^2 (1 + z^2/2),
    so the sum is the Hardy-Littlewood series sum_{m>=1} d_m/zeta(2m+1).
    The known moments sum mu(n)/n = 0 (the prime number theorem) and
    sum mu(n)/n^3 = 1/zeta(3) leave O(n^-5) terms, so with N =
    table.limit the sum is taken as

        sum_{n<=N} mu(n)/n (f(1/n) - 1 - d_1/n^2) + d_1/zeta(3),

    regrouped, as both double series converge absolutely, into a head
    and moment tails.  With c = pi alpha^2 (1 + |z|^2), n0 is the
    smallest power of two with c <= n0^2/4.  The head sums
    mu(n)/n f(1/n) directly over the squarefree n < n0 (_mobius_head,
    at most 20 terms on alpha in [0.5, 2], |z|^2 <= 5).  The tails add
    d_0 T0 + d_1 T1 + sum_{m=2}^{M} d_m T_m, M = 12, with T0 = sum_{n>=n0}
    mu(n)/n, T1 = sum_{n>=n0} mu(n)/n^3 and T_m = sum_{n0<=n<=N}
    mu(n)/n^(2m+1) (_moment_tails, cached per table and n0).  For
    m >= 2, d_m T_m = e_m (n0^(2m) T_m) with e_m = d_m/n0^(2m), formed
    from the powers of r = -pi alpha^2/n0^2 and of r z^2, so
    e_m = sum_{j+k=m} r^j/j! (r z^2)^k/(2k)!; |r| + |r z^2| = rho =
    c/n0^2 <= 1/4, so nothing overflows.  When n0 > N every n <= N is in
    the head and the tails are T0 and T1 beyond N alone.

    error_bound is the sum of
      - the truncation at N: |d_m| <= c^m/m!, so the neglected tail is at
        most (c^2/2) e^(c/N^2) / (4 N^4).  Raises ValueError when that
        bound is not finite;
      - the truncation at M: |e_m| <= rho^m/m! and |n0^(2m) T_m| <=
        1/n0 + 1/(2m) <= 5/4 for m >= 2, so the omitted m > M add less
        than 2 rho^(M+1)/(M+1)!, 4.8e-18 at rho = 1/4 (none when n0 > N);
      - the rounding, eps times the sum of: the head's scale from
        _mobius_head; 4 (|head| + |T0| + |moment sum|) for the final
        additions; 12 c |T1| for d_1 T1, since d_1 carries a few ulps of
        c; and 100 (e^rho - 1 - rho) for the coefficients e_m and the
        sums T_m, m >= 2, as each m has at most 4M + 30 ulps of
        |e_m| |n0^(2m) T_m| <= (5/4) rho^m/m! from the two and their
        product (none when n0 > N);
      - k (1 + c) 10^-40 for the floor divisions of T0 and T1, k the
        head's term count.
    """
    alpha = float(alpha)
    if alpha <= 0.0:
        raise ValueError("mobius_theta_sum: alpha must be positive")
    N = table.limit
    z = complex(z)
    a2 = math.pi * alpha * alpha
    c = a2 * (1.0 + abs(z) * abs(z))
    # Python floats: c * c overflows to inf instead of warning
    tail = (0.125 * c * c / N ** 4 * math.exp(c / (N * N))
            if c / (N * N) < 700.0 else math.inf)
    if not math.isfinite(tail):
        raise ValueError("mobius_theta_sum: tail bound at alpha=%g, z=%s, "
                         "N=%d is not finite" % (alpha, z, N))
    n0 = _mobius_level(c)
    stop = min(n0, N + 1)
    terms, scale = _mobius_head(alpha, z, table, stop)
    t0, t1, taus = _moment_tails(table, stop)
    d1 = -a2 * (1.0 + 0.5 * z * z)
    moments = 0.0
    truncation = 0.0
    coefficients = 0.0
    if n0 <= N:
        r = -a2 / (n0 * n0)
        s = r * z * z
        # r^j/j! and (r z^2)^k/(2k)!, the coefficients of x^(2j) in the
        # Gaussian and of x^(2k) in the cosine at x = n0/n
        gauss, cosine = [1.0], [1.0 + 0.0j]
        for k in range(1, _MOMENTS + 1):
            gauss.append(gauss[-1] * r / k)
            cosine.append(cosine[-1] * s / ((2 * k - 1) * (2 * k)))
        moments = sum(sum(gauss[j] * cosine[m - j] for j in range(m + 1))
                      * taus[m - 2] for m in range(2, _MOMENTS + 1))
        rho = c / (n0 * n0)
        truncation = 2.0 * rho ** (_MOMENTS + 1) / math.factorial(
            _MOMENTS + 1)
        coefficients = 100.0 * (math.expm1(rho) - rho)
    head = complex(terms[::-1].sum())
    rounding = _EPS * (scale + 4.0 * (abs(head) + abs(t0) + abs(moments))
                       + 12.0 * c * abs(t1) + coefficients)
    floors = len(terms) * (1.0 + c) * 1e-40
    return (head + (t0 + d1 * t1 + moments),
            tail + truncation + rounding + floors)


# the zero sets zero_sum_bracketed keeps per process: rhl passes one
# set of 10 zeros
_ZERO_SETS = 4


@functools.lru_cache(maxsize=_ZERO_SETS)
def _zero_factors(zeros):
    """The ordinates gamma of the tuple zeros and, for r = 1/2 + i gamma
    in row 0 and its conjugate in row 1, the (2, n) arrays r, zeta'(r) and
    log Gamma((1-r)/2) + (r/2) log pi, all read-only, through the module's
    lngamma binding.  None of them depends on alpha or z."""
    gammas = np.array([rec.gamma for rec in zeros], dtype=np.float64)
    zp = np.array([rec.zeta_prime for rec in zeros], dtype=np.complex128)
    rho = 0.5 + 1j * gammas
    r = np.stack([rho, np.conj(rho)])
    d = np.stack([zp, np.conj(zp)])
    A = lngamma(0.5 * (1.0 - r)) + 0.5 * r * np.log(np.pi)
    for arr in (gammas, r, d, A):
        arr.flags.writeable = False
    return gammas, r, d, A


def _zero_sum_argument(z):
    """-z^2/4, the argument of the zero sums' 1F1 rows at z."""
    z = complex(z)
    return -0.25 * z * z


def prepare_zero_sums(zeros, zs):
    """Sum the 1F1 rows zero_sum_bracketed(zeros, alpha, z, counts) takes
    at each z of zs, for any alpha, as one grouped series into
    xikernel's row cache, within the limits of xikernel.prepare_rho_series;
    the sums that follow find the bits they would sum themselves."""
    if len(zeros) > 0:
        prepare_rho_series([_zero_sum_argument(z) for z in zs],
                           [(0.5, 1.0)], _zero_factors(tuple(zeros))[0])


def zero_sum_bracketed(zeros, alpha, z, counts):
    """Sums over nontrivial zeros rho = 1/2 + i gamma and conjugates, one
    per count c in counts, over the first c zeros:

        sum_rho Gamma((1-rho)/2) / zeta'(rho) 1F1((1-rho)/2; 1/2; -z^2/4)
                pi^(rho/2) alpha^rho.

    Each ordinate contributes its conjugate pair as one bracket, which
    makes the sum real for real alpha and z^2.  Hardy and Littlewood also
    group ordinates closer than exp(-a1 g/log g) + exp(-a1 g'/log g')
    (a1 = 0.1); that only changes the order of the same terms, and no two
    zeros below t = 386 come that close (the 193 there are at least 0.498
    apart), so none is grouped here.  Terms decay like e^(-pi g/4)
    through the Gamma factor, so the partial sums settle after a handful
    of zeros.  The pair terms are evaluated once, on all of zeros; each
    count then sums its own prefix.

    What does not depend on alpha is kept per process: the log-Gamma and
    pi factors per zero set (_zero_factors), and the 1F1 rows at rho and
    its conjugate, the two rows of xikernel.rho_series at w = -z^2/4 on
    the line s = 1/2 +- i gamma, in the cache that also holds the Xi
    sides' rows.  A call multiplies in alpha^rho alone, with the
    operations of the uncached expression in its order, so the sums are
    the same bits cold or warm.
    """
    alpha = float(alpha)
    if alpha <= 0.0:
        raise ValueError("zero_sum_bracketed: alpha must be positive")
    counts = [int(c) for c in counts]
    if not all(0 <= c <= len(zeros) for c in counts):
        raise ValueError("zero_sum_bracketed: counts must lie in [0, %d]"
                         % len(zeros))
    if len(zeros) == 0:
        return [0.0 + 0.0j] * len(counts)
    gammas, r, d, A = _zero_factors(tuple(zeros))
    arg = _zero_sum_argument(z)
    term = (np.exp(A + r * np.log(alpha)) / d
            * rho_series(arg, 0.5, 1.0, gammas))
    if arg.imag == 0.0:
        pair = 2.0 * term[0].real + 0.0j
    else:
        pair = term[0] + term[1]
    return [complex(pair[:c].sum()) for c in counts]
