"""Infinite series with certified truncation.

Each sum here feeds one side of an identity check: theta-type Gaussian
sums, sums of the modified Bessel function K0, the Bessel-difference sum
behind the z = 0 Ferrar reduction, the digamma-remainder sum, the
Moebius sum, and the sum over nontrivial zeta zeros with conjugate-pair
bracketing.

Truncation policy: sums stop when a rigorous term bound drops below
1e-17 or switch to an Euler-Maclaurin tail once terms follow their
asymptotic power law; the Moebius sum, with its two known moments taken
out, converges absolutely and reports a bound on its tail and its
rounding.  A term count above MAX_TERMS raises ValueError before any
term is allocated.
mobius_theta_sum and zero_sum_bracketed each do one rhl side's work in
one pass: the Moebius sum from one term array, and the zero sum at every
zero count from one evaluation of the pair terms.
"""

import math

import numpy as np

from .specfun import (_PSI_ASYMP, EULER_GAMMA, _merge, _split, besselk0,
                      besselk0_scaled, hyp1f1, lngamma, zeta)
from .xikernel import lambda_kernel

_LOG_TERM_CUTOFF = 39.2  # -log(1e-17)

# the most terms a series may take, the --mobius-limit ceiling too
MAX_TERMS = 10 ** 7

_ZETA3 = float(zeta(3.0).real)

_TWO_PI = 2.0 * np.pi

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
    about (t/N)^6 / 7.4e6, so N = max(128, 32 max t) keeps it near 1e-16.
    On the lattice route of k0_sum_minus_pole (t < 4) N is 128: against
    30-digit mpmath the error is at most 1.0e-16 at t = 0.05, 0.5, 1, 2,
    3 and 3.99, and within 1.3e-16 of the N = 500 sum over 400 points of
    (0, 4].
    """
    tt, scalar = _split(t, np.float64)
    N = max(128, int(np.ceil(32.0 * tt.max(initial=0.0))))
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
    from t = 4 up; watson_lattice_residual calls it directly to compare
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
    absolute error.
    """
    alpha = float(alpha)
    if alpha <= 0.0:
        raise ValueError("ferrar_bessel_sum: alpha must be positive")
    N = min(20000, max(400, int(np.ceil(20.0 / alpha))))
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


def mobius_theta_sum(alpha, z, table):
    """sum_n mu(n)/n f(1/n), f(x) = e^(-pi a^2 x^2) cos(sqrt(pi) a z x) with
    a = alpha, summed absolutely; returns (sum, error_bound).

    f(x) = sum_m d_m x^(2m) with d_0 = 1 and d_1 = -pi alpha^2 (1 + z^2/2),
    so the sum is the Hardy-Littlewood series sum_{m>=1} d_m/zeta(2m+1).
    Taking out the known moments sum mu(n)/n = 0 (the prime number
    theorem) and sum mu(n)/n^3 = 1/zeta(3) leaves O(n^-5) terms:

        sum_{n<=N} mu(n)/n (f(1/n) - 1 - d_1/n^2) + d_1/zeta(3),

    N = table.limit, the whole table.  With c = pi alpha^2
    (1 + |z|^2), |d_m| <= c^m/m!, so the neglected tail is at most
    (c^2/2) e^(c/N^2) / (4 N^4).  Raises ValueError when that bound is not
    finite.  error_bound adds the rounding, eps (4 P + |d_1/zeta(3)| +
    ceil(log2 k) sum_n |term_n|) over the k terms, with P the sum of
    (|f(1/n)| + 1 + |d_1|/n^2)/n: the parts of a term cancel to O(n^-5),
    so their own rounding outweighs the terms' (about 1.3e-14 at
    (0.2, 3i), N = 1e4, against an observed 2.2e-16).  The terms are
    evaluated only at the squarefree n of the table.
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
    k = table.squarefree
    n = k.astype(np.float64)
    mu = table.values[k].astype(np.float64)
    d1 = -a2 * (1.0 + 0.5 * z * z)
    u = -a2 / (n * n)
    f = np.exp(u)
    if z != 0.0:
        # e^u cos(v) as two exponentials, each at most e^(|Im z|^2/4)
        v = 1j * np.sqrt(np.pi) * alpha * z / n
        f = 0.5 * (np.exp(u + v) + np.exp(u - v))
    terms = (mu / n) * (f - 1.0 - d1 / (n * n))
    # rounding: 4 ulps of each term's parts, which cancel to O(n^-5), and
    # the pairwise sum's log2(len) ulps of the terms' magnitudes
    parts = ((np.abs(f) + 1.0 + abs(d1) / (n * n)) / n).sum()
    rounding = _EPS * float(4.0 * parts + abs(d1 / _ZETA3)
                            + math.ceil(math.log2(len(n)))
                            * np.abs(terms).sum())
    return complex(terms[::-1].sum()) + d1 / _ZETA3, tail + rounding


_BRACKET_A1 = 0.1  # the closeness constant a1 of the zero-sum brackets


def _bracket_edges(gammas):
    """Split ordinates into brackets: consecutive zeros whose gap is below
    exp(-a1 g/log g) + exp(-a1 g'/log g') share a bracket."""
    a1 = _BRACKET_A1
    edges = [0]
    for i in range(1, len(gammas)):
        g0, g1 = gammas[i - 1], gammas[i]
        close = (np.exp(-a1 * g0 / np.log(max(g0, 2.0)))
                 + np.exp(-a1 * g1 / np.log(max(g1, 2.0))))
        if g1 - g0 >= close:
            edges.append(i)
    edges.append(len(gammas))
    return edges


def zero_sum_bracketed(zeros, alpha, z, counts):
    """Bracketed sums over nontrivial zeros rho = 1/2 + i gamma and
    conjugates, one per count c in counts, over the first c zeros:

        sum_rho Gamma((1-rho)/2) / zeta'(rho) 1F1((1-rho)/2; 1/2; -z^2/4)
                pi^(rho/2) alpha^rho.

    Each ordinate contributes its conjugate pair in one bracket, which
    makes the sum real for real alpha and z^2; ordinates closer than the
    closeness criterion (constant _BRACKET_A1) are additionally grouped,
    though at desk height the gaps never trigger it.  Terms decay like e^(-pi g/4)
    through the Gamma factor, so the bracketed partial sums settle after
    a handful of zeros.  The pair terms are evaluated once, on all of
    zeros; each count then sums its own prefix, with the bracket that
    straddles c closed at c, exactly as zeros[:c] alone would close it.
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
    z = complex(z)
    gammas = np.array([rec.gamma for rec in zeros], dtype=np.float64)
    zp = np.array([rec.zeta_prime for rec in zeros], dtype=np.complex128)
    rho = 0.5 + 1j * gammas
    arg = -0.25 * z * z
    def term(r, d):
        return (np.exp(lngamma(0.5 * (1.0 - r)) + 0.5 * r * np.log(np.pi)
                       + r * np.log(alpha))
                / d * hyp1f1(0.5 * (1.0 - r), 0.5, arg))
    upper = term(rho, zp)
    if arg.imag == 0.0:
        pair = 2.0 * upper.real + 0.0j
    else:
        pair = upper + term(np.conj(rho), np.conj(zp))
    edges = _bracket_edges(gammas)
    sums = []
    for c in counts:
        starts = [e for e in edges[:-1] if e < c]
        sums.append(complex(np.add.reduceat(pair[:c], starts).sum()) if c
                    else 0.0 + 0.0j)
    return sums
