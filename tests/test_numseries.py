"""Series evaluators: theta sums, Bessel-sum lattices, Moebius and zero sums.

Frozen constants come from 30-digit mpmath summations (nsum with
acceleration); the Moebius references are 40-digit mpmath evaluations of
the Hardy-Littlewood series, which involves no Moebius function.
"""

import math
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xiverify import numseries, xikernel
from xiverify.cli import default_grid
from xiverify.numseries import (_zeta_tail, cosh_theta_sum,
                                ferrar_bessel_sum, k0_sum_direct,
                                k0_sum_minus_pole, lambda_sum,
                                mobius_theta_sum, sqrt_lattice_sum,
                                theta_sum, zero_sum_bracketed)
from xiverify.specfun import (besselk0_scaled, hyp1f1, lngamma,
                               mobius_sieve, zeta)
from xiverify.xikernel import lambda_kernel
from xiverify.zeros import ZeroRecord


def _close(got, want, rel=1e-12, abs_tol=0.0):
    got, want = complex(got), complex(want)
    assert abs(got - want) <= max(abs_tol, rel * abs(want)), \
        "got %r want %r" % (got, want)


class TestThetaSums:
    def test_frozen_value(self):
        _close(theta_sum(2.0, 1.0), -3.2075354240146004e-6, rel=1e-12)

    def test_classical_theta_constant(self):
        # sum e^(-pi n^2) = (pi^(1/4)/Gamma(3/4) - 1)/2
        want = (math.pi ** 0.25 / math.gamma(0.75) - 1.0) / 2.0
        _close(theta_sum(1.0, 0.0), want, rel=1e-13)

    def test_cosh_twin_frozen_value(self):
        _close(cosh_theta_sum(1.0, 0.5), 0.061334719919418707, rel=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.5, 2.0), st.floats(-2.0, 2.0))
    def test_twin_relation(self, b, w):
        # cos(i y) = cosh(y) links the two independently coded sums
        _close(theta_sum(b, 1j * w), cosh_theta_sum(b, w), rel=1e-11,
               abs_tol=1e-16)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            theta_sum(0.0, 1.0)
        with pytest.raises(ValueError):
            cosh_theta_sum(-2.0, 1.0)


class TestTermCeiling:
    # each count would have numpy allocate gigabytes to terabytes of
    # terms; the ceiling refuses it before any array exists
    @pytest.mark.parametrize("call,message", [
        (lambda: theta_sum(1e-12, 0.0), "theta_sum: 3.53e+12 terms"),
        (lambda: theta_sum(1.0, 1e11j), "theta_sum: 5.64e+10 terms"),
        (lambda: cosh_theta_sum(1e-12, 0.0), "cosh_theta_sum: 3.53e+12"),
        (lambda: lambda_sum(1e-9), "lambda_sum: 5e+10 terms"),
        # pi alpha^2 underflows to 0 here and 50/alpha overflows; the
        # parent's counts were NaN or failed to convert
        (lambda: theta_sum(1e-300, 0.0), "theta_sum: 3.53e+300 terms"),
        (lambda: lambda_sum(1e-320), "lambda_sum: inf terms"),
    ])
    def test_refused_at_once_naming_the_function(self, call, message):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape(message)):
            call()
        assert time.perf_counter() - start < 0.05


def _k0_sum(t):
    """sum_n K0(n t), put back together from the pole-subtracted sum."""
    return k0_sum_minus_pole(t) + 0.5 * np.pi / t


class TestK0Sums:
    def test_direct_regime(self):
        _close(_k0_sum(5.0), 0.0037089771693329877, rel=1e-12)

    def test_lattice_regime(self):
        _close(_k0_sum(0.05), 28.941137078581026, rel=1e-11)

    def test_direct_route_matches_lattice_form(self):
        # k0_sum_direct against the lattice representation built by hand
        # from its public pieces, across and beyond the route seam at 4
        t = np.linspace(0.2, 10.0, 200)
        lattice = (0.5 * np.pi / t
                   + 0.5 * (0.5772156649015329 + np.log(t)
                            - np.log(4.0 * np.pi))
                   + np.pi * sqrt_lattice_sum(t))
        assert np.max(np.abs(k0_sum_direct(t) - lattice)) <= 1e-14

    @pytest.mark.parametrize("t,want", [
        # mpmath nsum of besselk(0, n t) over n >= 1, less pi/(2t), 30 digits
        (0.3, -1.57957477489255214072674044709),
        (3.99, -0.382246142782161447819068080812),
        (4.0, -0.381390698504235866323863190108),
        (4.01, -0.380538666350000908975208991415),
        (20.0, -0.0785398157656210485886275438865),
        (59.0, -0.0266236665558457054107003637792),
    ])
    def test_pole_subtracted_against_mpmath_across_seam(self, t, want):
        assert abs(k0_sum_minus_pole(t) - want) <= 1e-14

    def test_direct_route_rejects_small_t(self):
        with pytest.raises(ValueError):
            k0_sum_direct(np.array([1.0, 0.1]))

    def test_pole_subtracted_small_t(self):
        _close(k0_sum_minus_pole(0.01), -3.2794901452381036, rel=1e-11)

    def test_pole_subtraction_consistency(self):
        # the lattice route at t = 1 against the direct Bessel sum
        _close(k0_sum_minus_pole(1.0), k0_sum_direct(1.0) - 0.5 * np.pi,
               rel=1e-12)

    def test_vectorized(self):
        t = np.array([0.05, 0.5, 5.0])
        vals = k0_sum_minus_pole(t)
        assert vals.shape == (3,)
        _close(vals[2], k0_sum_minus_pole(5.0), rel=1e-15)

    def test_nonpositive_raises(self):
        with pytest.raises(ValueError):
            k0_sum_minus_pole(0.0)
        with pytest.raises(ValueError):
            k0_sum_minus_pole(np.array([1.0, -0.3]))
        with pytest.raises(ValueError, match="k0_sum_minus_pole"):
            k0_sum_minus_pole(float("nan"))

    def test_sqrt_lattice_frozen_value(self):
        _close(sqrt_lattice_sum(1.0), -0.0023841005352976151, rel=1e-11)
        # mpmath nsum, 30 digits; the truncated tail expansion errs most
        # at the top of the lattice range (1.0e-16 with 128 direct terms,
        # 7.7e-15 with 64)
        want = -0.0309516471169674206624340959585
        assert abs(sqrt_lattice_sum(3.99) - want) <= 2e-16

    def test_sqrt_lattice_refuses_past_the_term_ceiling(self, monkeypatch):
        # t = 1e6 needs N = 3.2e7 terms, above MAX_TERMS: the ceiling
        # speaks before numpy is asked for an array of that length
        def no_arange(*args, **kwargs):
            raise AssertionError("np.arange called")

        monkeypatch.setattr(numseries.np, "arange", no_arange)
        with pytest.raises(ValueError, match="^sqrt_lattice_sum: 3.2e"
                                             "\\+07 terms needed"):
            sqrt_lattice_sum(1e6)


class TestBesselDifferenceSum:
    def test_frozen_values(self):
        _close(ferrar_bessel_sum(1.0), -0.076493834651369916, rel=1e-12)
        _close(ferrar_bessel_sum(2.0), -0.01115490110594263, rel=1e-12)

    def test_small_alpha(self):
        # more direct terms, same machinery; sanity against monotony in
        # alpha (terms are negative and shrink with alpha)
        assert ferrar_bessel_sum(0.5) < ferrar_bessel_sum(1.0) < 0.0

    def test_bit_identical_to_own_tail_table(self):
        # the tail coefficients c_1..c_4 of e^x K0(x) sqrt(2x/pi), written
        # out; the sum must not move by a bit against them
        c = (-1.0 / 8.0, 9.0 / 128.0, -75.0 / 1024.0, 3675.0 / 32768.0)
        for alpha in (0.05, 0.3, 0.5, 1.0, 1.7, 2.0, 5.0):
            N = min(20000, max(400, int(np.ceil(20.0 / alpha))))
            n = np.arange(1.0, N + 1.0)
            x = 0.5 * np.pi * alpha * alpha * n * n
            E = besselk0_scaled(x) * np.sqrt(2.0 * x / np.pi) - 1.0
            head = (E / (n * alpha))[::-1].sum()
            scale = 2.0 / (np.pi * alpha * alpha)
            tail = sum(c[k] * scale ** (k + 1) * _zeta_tail(N, 2.0 * k + 3.0)
                       for k in range(4)) / alpha
            assert ferrar_bessel_sum(alpha) == float(head + tail)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            ferrar_bessel_sum(0.0)

    @pytest.mark.parametrize("alpha", [9.9e-4, 3e-4, 1e-4, 3e-5])
    def test_refuses_alpha_past_its_term_ceiling(self, alpha):
        # ceil(20/alpha) terms past 20000; a sum capped at 20000 was off
        # by 1.3e-7 at alpha 3e-4 and 1.8e-2 at 1e-4
        with pytest.raises(ValueError, match="^ferrar_bessel_sum: .* "
                                             "ceiling of 20000$"):
            ferrar_bessel_sum(alpha)

    def test_last_uncapped_alpha_against_a_large_n_reference(self):
        # alpha = 1e-3 takes the full 20000 terms; the same formula at
        # N = 1e6, summed in chunks, agrees within 1.8e-12 (value -5246)
        alpha, N = 1e-3, 10 ** 6
        head = 0.0
        for top in range(N, 0, -200000):
            n = np.arange(top - 199999.0, top + 1.0)
            x = 0.5 * np.pi * alpha * alpha * n * n
            E = besselk0_scaled(x) * np.sqrt(2.0 * x / np.pi) - 1.0
            head += (E / (n * alpha))[::-1].sum()
        scale = 2.0 / (np.pi * alpha * alpha)
        tail = sum(ck * scale ** (k + 1) * _zeta_tail(N, 2.0 * k + 3.0)
                   for k, ck in enumerate(numseries._K0_LARGE[1:5])) / alpha
        got = ferrar_bessel_sum(alpha)
        assert abs(got - (head + tail)) <= 1e-15 * abs(got)


class TestLambdaSum:
    def test_frozen_values(self):
        _close(lambda_sum(1.0), -0.13033070075390631, rel=1e-12)
        _close(lambda_sum(0.5), -0.47690429103387897, rel=1e-12)

    def test_bit_identical_to_own_tail_table(self):
        # B_{2j}/(2j), j = 1..4, written out; the sum must not move by a
        # bit against them
        b = (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0)
        for alpha in (0.05, 0.3, 0.5, 1.0, 1.7, 2.0, 5.0):
            K = max(1000, int(np.ceil(50.0 / alpha)))
            k = np.arange(1.0, K + 1.0)
            head = lambda_kernel(k * alpha)[::-1].sum()
            tail = -sum(b[j] * alpha ** (-2.0 * (j + 1))
                        * _zeta_tail(K, 2.0 * (j + 1)) for j in range(4))
            assert lambda_sum(alpha) == float(head + tail)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            lambda_sum(-1.0)


# sum_n mu(n)/n f(1/n), f(x) = e^(-pi a^2 x^2) cos(sqrt(pi) a z x), as the
# Hardy-Littlewood series sum_{m>=1} d_m/zeta(2m+1) evaluated by
# mpmath at 40 digits (d_m by exact convolution of the two Taylor series,
# working precision raised to cover their cancellation)
MOBIUS_REFERENCE = {
    (1.0, 0.0): -0.56868220911974899136,
    (2.0, 1.0 + 0.5j): -0.12033328828698131598 + 0.090530561412156700526j,
    (0.5, 2.0j): 0.26568904717992498379,
    (1.25, 1.0): -0.34052029138358521543,
    (1.25, 2.0j): -1.0064272396451235034,
    (5.0, 3.0): 0.0075304459758770111211,
    (0.2, 3.0j): 0.35585593087582357424,
    # 30 digits; sqrt(pi) Re z = pi/2 to 7 digits, so cos X is about 0 at
    # n = 1 and the real form's C cos X + i S sin X rests on its sine
    (1.0, 0.886227 + 1.5j): (-0.775444786736136679228894781419
                             + 0.117547009500631132530478256275j),
}


# the error bounds at N = 1e4 of the form that summed every squarefree n
# and took 1 + d_1/n^2 out of each term, cut to two digits
MOBIUS_ALL_N_BOUNDS = {
    (1.0, 0.0): 2.1e-14, (2.0, 1.0 + 0.5j): 9.9e-14, (0.5, 2.0j): 1.4e-14,
    (1.25, 1.0): 4.0e-14, (1.25, 2.0j): 4.2e-14, (5.0, 3.0): 9.7e-12,
    (0.2, 3.0j): 1.2e-14, (1.0, 0.886227 + 1.5j): 3.0e-14,
}


def _hardy_littlewood(alpha, z, terms=60):
    """sum_{m=1}^{terms} d_m/zeta(2m+1) in doubles, d_m the x^(2m)
    coefficient of e^(-pi alpha^2 x^2) cos(sqrt(pi) alpha z x)."""
    a = math.pi * alpha * alpha
    b2 = a * complex(z) ** 2
    gauss, cosine = [1.0], [1.0 + 0.0j]
    for k in range(1, terms + 1):
        gauss.append(gauss[-1] * -a / k)
        cosine.append(cosine[-1] * -b2 / ((2 * k - 1) * (2 * k)))
    return sum(sum(gauss[j] * cosine[m - j] for j in range(m + 1))
               / complex(zeta(2.0 * m + 1.0)).real
               for m in range(1, terms + 1))


def _truncated_mobius_sum(alpha, z, N):
    """sum_{n<=N} mu(n)/n (f(1/n) - 1 - d_1/n^2) + d_1/zeta(3) in 30-digit
    mpmath: mobius_theta_sum's value before rounding and before its
    moment series is cut at M."""
    import mpmath
    table = mobius_sieve(N)
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)
        w = mpmath.sqrt(mpmath.pi) * a * mpmath.mpc(z)
        d1 = -mpmath.pi * a * a * (1 + mpmath.mpc(z) ** 2 / 2)
        total = d1 / mpmath.zeta(3)
        for n in table.squarefree.tolist():
            x = mpmath.mpf(1) / n
            f = mpmath.exp(-mpmath.pi * a * a * x * x) * mpmath.cos(w * x)
            total += int(table.values[n]) * x * (f - 1 - d1 * x * x)
        return complex(total)


class TestMobiusThetaSum:
    def test_frozen_value(self, mobius_10k):
        got, _ = mobius_theta_sum(1.0, 0.0, mobius_10k)
        _close(got, MOBIUS_REFERENCE[1.0, 0.0], rel=0.0, abs_tol=1e-13)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.25])
    @pytest.mark.parametrize("z", [0.0, 1.0, 2.0, 2.0j, 1.0 + 0.5j,
                                   -1.5 + 1.0j, 1.2 + 1.6j])
    def test_hardy_littlewood_series(self, mobius_10k, alpha, z):
        got, _ = mobius_theta_sum(alpha, z, mobius_10k)
        _close(got, _hardy_littlewood(alpha, z), rel=0.0, abs_tol=1e-12)

    @pytest.mark.parametrize("alpha,z", list(MOBIUS_REFERENCE))
    def test_tail_bound_covers_the_error(self, alpha, z):
        # the bound covers rounding too: (0.2, 3i) at N = 1e4 is off by
        # 3.3e-16 and (2, 1 + 0.5i) at N = 1e5 by 5.7e-17, where the
        # truncation tail alone is 2.0e-17 and 1.0e-18
        want = MOBIUS_REFERENCE[alpha, z]
        for N in (100, 1000, 10000, 100000):
            got, bound = mobius_theta_sum(alpha, z, mobius_sieve(N))
            assert abs(got - want) <= bound, (N, abs(got - want), bound)
        _close(got, want, rel=0.0, abs_tol=1e-13)

    @pytest.mark.parametrize("c,n0", [(0.25, 1), (0.26, 2), (math.pi, 4),
                                       (24.0 * math.pi, 32),
                                       (6800.0 * math.pi, 512)])
    def test_split_level(self, c, n0):
        # the smallest power of two with c <= n0^2/4; 24 pi is the box
        # corner alpha = 2, |z|^2 = 5, and 6800 pi alpha = 20, |z| = 4
        assert numseries._mobius_level(c) == n0

    def test_inverse_zeta3_literal(self):
        import mpmath
        with mpmath.workdps(60):
            want = int(mpmath.nint(mpmath.mpf(10) ** 40 / mpmath.zeta(3)))
        assert numseries._INV_ZETA3_E40 == want

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(0.05, 20.0), re=st.floats(-4.0, 4.0),
           im=st.floats(-4.0, 4.0), N=st.sampled_from([100, 1000]))
    @example(alpha=0.05, re=0.0, im=4.0, N=1000)  # n0 = 1
    @example(alpha=0.5, re=0.0, im=2.0, N=1000)   # n0 = 4
    @example(alpha=2.0, re=-1.0, im=2.0, N=1000)  # n0 = 32, 20 head terms
    @example(alpha=20.0, re=0.0, im=4.0, N=1000)  # n0 = 512, head to 511
    @example(alpha=20.0, re=0.0, im=4.0, N=100)   # n0 > N, no moment sum
    @example(alpha=15.0, re=4.0, im=0.0, N=100)   # n0 > N at real z
    def test_bound_covers_the_truncated_sum(self, alpha, re, im, N):
        # |z| <= 4; the reference is the N-truncated sum in 30 digits,
        # so the bound's rounding and moment truncation must cover the
        # whole difference; draws reach n0 = 1 near alpha = 0.05 and
        # n0 > N = 100 from alpha = 10 at |z| = 4
        z = complex(re, im)
        if abs(z) > 4.0:
            z *= 4.0 / abs(z)
        got, bound = mobius_theta_sum(alpha, z, mobius_sieve(N))
        want = _truncated_mobius_sum(alpha, z, N)
        assert abs(got - want) <= bound, (abs(got - want), bound)

    def test_level_cache_gives_cold_bits(self):
        # the moment tails are cached per (table, n0); a warm entry, and
        # one built for a new table after the sieve's cache is emptied,
        # must give the bits of the first call
        points = [(0.05, 4j), (1.0, 0.0), (0.5, 2j), (2.0, -1.0 + 2j),
                  (1.3, 1.0 + 0.5j), (20.0, 4j)]
        numseries._moment_tails.cache_clear()
        runs = [[mobius_theta_sum(a, z, mobius_sieve(1000))
                 for a, z in points] for _ in range(2)]
        assert numseries._moment_tails.cache_info().hits >= len(points)
        mobius_sieve.cache_clear()
        runs.append([mobius_theta_sum(a, z, mobius_sieve(1000))
                     for a, z in points])
        assert runs[1] == runs[0] and runs[2] == runs[0]
        assert numseries._moment_tails.cache_info().misses == 10

    @pytest.mark.parametrize("alpha,z", list(MOBIUS_REFERENCE))
    def test_bound_below_the_all_n_form(self, mobius_10k, alpha, z):
        # at N = 1e4 the bound is no larger than that of the form which
        # summed every squarefree n and took 1 + d_1/n^2 out of each term
        _, bound = mobius_theta_sum(alpha, z, mobius_10k)
        assert bound <= MOBIUS_ALL_N_BOUNDS[alpha, z]

    def test_overflowing_tail_bound_raises(self, mobius_10k):
        with pytest.raises(ValueError, match="tail bound"):
            mobius_theta_sum(1e6, 0.0, mobius_10k)

    def test_short_prefix_matches_hand_sum(self):
        mu = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
        d1 = -math.pi
        want = sum(m / n * (math.exp(-math.pi / (n * n)) - 1.0 - d1 / (n * n))
                   for n, m in enumerate(mu, start=1))
        want += d1 / 1.2020569031595942  # zeta(3)
        got, _ = mobius_theta_sum(1.0, 0.0, mobius_sieve(10))
        _close(got, want, rel=1e-14)

    def test_term_count_validation(self, mobius_100k):
        # the sum takes the whole table, so the term count is the sieve's
        with pytest.raises(ValueError, match="N must be >= 1"):
            mobius_sieve(0)
        with pytest.raises(ValueError, match="alpha must be positive"):
            mobius_theta_sum(-1.0, 0.0, mobius_100k)

    @pytest.mark.parametrize("alpha,z", [(0.8, 0.0), (0.8, 1.0),
                                         (1.3, 1.0 + 0.5j), (0.5, 2.0j),
                                         (1.0, 0.886227 + 1.5j),
                                         (2.0, -1.0 + 2.0j)])
    def test_head_matches_all_n_formula(self, mobius_10k, alpha, z):
        # the head takes its terms only where mu(n) != 0 and n < n0; they
        # must equal the all-n formula's at those n, term for term
        z = complex(z)
        n0 = numseries._mobius_level(math.pi * alpha * alpha
                                     * (1.0 + abs(z) * abs(z)))
        n = np.arange(1.0, n0)
        mu = mobius_10k.values[1:n0]
        u = -math.pi * alpha * alpha * (1.0 / (n * n))
        X = (math.sqrt(math.pi) * alpha * z.real) / n
        Y = (math.sqrt(math.pi) * alpha * z.imag) / n
        C = 0.5 * (np.exp(u - Y) + np.exp(u + Y))
        S = 0.5 * (np.exp(u - Y) - np.exp(u + Y))
        f = C * np.cos(X) + 1j * (S * np.sin(X))
        want = ((mu / n) * f)[mu != 0]
        terms, _ = numseries._mobius_head(alpha, z, mobius_10k, n0)
        assert len(terms) == len(want) > 0
        assert np.array_equal(terms, want)


def _zero_sum(zeros, alpha, z):
    """The bracketed zero sum over all of zeros."""
    return zero_sum_bracketed(zeros, alpha, z, [len(zeros)])[0]


def _bits(values):
    return np.array(values, np.complex128).tobytes()


class TestZeroSum:
    def test_frozen_value(self, zero_records):
        # reference: 25-digit mpmath over the first ten ordinate pairs
        got = _zero_sum(zero_records[:10], 2.0, 1.0)
        _close(got, 0.00023941036712518003, rel=0.0, abs_tol=1e-11)

    def test_real_when_z_squared_real(self, zero_records):
        val = _zero_sum(zero_records[:25], 2.0, 1.0)
        assert val.imag == 0.0
        val = _zero_sum(zero_records[:25], 2.0, 2.0j)
        assert val.imag == 0.0

    def test_conjugate_pair_path_consistency(self, zero_records):
        # generic complex z exercises the explicit conjugate-term path;
        # z with real z^2 must agree with the folded 2 Re(...) path
        a = _zero_sum(zero_records[:25], 2.0, 1.0 + 0j)
        b = _zero_sum(zero_records[:25], 2.0, 1.0 + 1e-30j)
        _close(a, b, rel=1e-10, abs_tol=1e-18)

    def test_empty_input(self):
        assert _zero_sum([], 1.0, 0.0) == 0.0

    @pytest.mark.parametrize("z", [1.0, 2.0j, 1.0 + 0.5j])
    def test_one_pass_matches_each_prefix(self, zero_records, z):
        counts = [1, 9, 10, 13, 25, 50, 100]
        sums = zero_sum_bracketed(zero_records, 0.8, z, counts)
        for c, got in zip(counts, sums):
            _close(got, _zero_sum(zero_records[:c], 0.8, z), rel=1e-15)

    def test_one_pass_splits_a_synthetic_bracket(self):
        # 1.0 and 1.001 lie closer than Hardy and Littlewood's grouping
        # criterion; count 1 still takes the first pair alone
        gammas = [1.0, 1.001, 5.0]
        recs = [ZeroRecord(g, zeta_prime=d) for g, d in
                zip(gammas, [0.8 + 0.1j, -0.5 + 0.3j, 1.2 - 0.4j])]
        sums = zero_sum_bracketed(recs, 2.0, 1.0 + 0.5j, [0, 1, 2, 3])
        assert sums[0] == 0.0
        for c, got in zip((1, 2, 3), sums[1:]):
            _close(got, _zero_sum(recs[:c], 2.0, 1.0 + 0.5j), rel=1e-15)

    @pytest.mark.parametrize("z", [1.0, 2.0j, 1.0 + 0.5j])
    def test_warm_caches_give_cold_bits(self, zero_records, z, fresh_caches):
        # the factors and 1F1 rows kept per process serve every alpha,
        # z and -z, and every count; for z = 1, -z = -1 - 0j gives -z^2/4
        # a negative zero imaginary part where z gives a positive one
        zeros, counts, z = zero_records[:10], [1, 3, 10], complex(z)
        cold = {}
        for w in (z, -z):
            fresh_caches()
            cold[w] = _bits(zero_sum_bracketed(zeros, 0.8, w, counts))
        fresh_caches()
        for alpha in (0.5, 2.0):
            zero_sum_bracketed(zeros, alpha, -z, [10])
        zero_sum_bracketed(zeros, 1.25, z, [2, 5])
        for w in (z, -z):
            assert _bits(zero_sum_bracketed(zeros, 0.8, w, counts)) == cold[w]
        # one series, both rows, for z and -z at every alpha
        assert xikernel._rho_series_rows.cache_info().misses == 1

    def test_shared_rows_are_the_per_row_bits(self, zero_records,
                                              fresh_caches):
        # the zero sums take rho and its conjugate as the two rows of one
        # series in the Xi sides' cache, which stops when both rows have
        # converged; at rhl's 10 zeros, on both sides of every cell of the
        # default grid and the box anchors, the rows and the sums are the
        # bits of one 1F1 series per row, as each was summed on its own
        zeros, counts = zero_records[:10], [1, 2, 3, 5, 10]
        gammas = np.array([rec.gamma for rec in zeros])
        zp = np.array([rec.zeta_prime for rec in zeros], np.complex128)
        rho = 0.5 + 1j * gammas
        pairs = [(rho, zp), (np.conj(rho), np.conj(zp))]
        anchors = [(a, complex(re, im)) for a in (0.5, 2.0)
                   for re in (-1.0, 0.0, 1.0) for im in (-2.0, 2.0)]
        for alpha, z in default_grid() + anchors:
            for x, w in ((alpha, complex(z)), (1.0 / alpha, 1j * z)):
                arg = -0.25 * w * w
                rows = [hyp1f1(0.5 * (1.0 - r), 0.5, arg) for r, _ in pairs]
                shared = xikernel.rho_series(arg, 0.5, 1.0, gammas)
                assert shared.tobytes() == np.stack(rows).tobytes()
                term = [np.exp(lngamma(0.5 * (1.0 - r))
                               + 0.5 * r * np.log(np.pi) + r * np.log(x))
                        / d * row for (r, d), row in zip(pairs, rows)]
                pair = (2.0 * term[0].real + 0.0j if arg.imag == 0.0
                        else term[0] + term[1])
                want = [complex(pair[:c].sum()) for c in counts]
                assert _bits(zero_sum_bracketed(zeros, x, w, counts)) == (
                    _bits(want))

    def test_prepared_rows_are_the_sums_rows(self, zero_records,
                                             fresh_caches, summed_rows):
        # prepare_zero_sums forms -z^2/4 as the sums do, so after it the
        # sums at those z sum no row, and keep their cold bits.  The six
        # distinct -z^2/4 take five series: the rows at -(0.1875+0.25i)
        # are those at 0.1875+0.25i, rows swapped, times e^w.  The rows
        # at 1/4 and 14.0625, whose series serve -1/4 and -14.0625, are
        # not stored: six keys
        zeros, counts = zero_records[:10], [1, 3, 10]
        zs = [1.0, -1.0, 2j, 1.0 + 0.5j, 1j * (1.0 + 0.5j), 0.0, 7.5]
        cold = {}
        for z in zs:
            fresh_caches()
            cold[z] = _bits(zero_sum_bracketed(zeros, 0.8, z, counts))
        fresh_caches()
        summed_rows.clear()
        numseries.prepare_zero_sums(zeros, zs)
        assert len(summed_rows) == 5
        assert xikernel._rho_series_rows.cache_info().currsize == 6
        for z in zs:
            assert _bits(zero_sum_bracketed(zeros, 0.8, z, counts)) == cold[z]
        assert len(summed_rows) == 5 and set(summed_rows.values()) == {1}

    def test_count_out_of_range_raises(self, zero_records):
        with pytest.raises(ValueError):
            zero_sum_bracketed(zero_records[:10], 1.0, 0.0, [11])

    def test_decay_with_ordinate(self, zero_records):
        # each additional bracket moves the partial sum by roughly
        # e^(-pi gamma / 4); zeros beyond the 25th are invisible at 1e-14
        a = _zero_sum(zero_records[:25], 2.0, 1.0)
        b = _zero_sum(zero_records[:100], 2.0, 1.0)
        assert abs(a - b) < 1e-14
