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
from hypothesis import given, settings
from hypothesis import strategies as st

from xiverify import numseries as ns
from xiverify.numseries import (_bracket_edges, _zeta_tail,
                                cosh_theta_sum, ferrar_bessel_sum,
                                k0_sum_direct, k0_sum_minus_pole, lambda_sum,
                                mobius_theta_sum, sqrt_lattice_sum,
                                theta_sum, zero_sum_bracketed)
from xiverify.specfun import besselk0_scaled, mobius_sieve, zeta
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
        # 2.2e-16 and (2, 1 + 0.5i) at N = 1e5 by 3.0e-15, where the
        # truncation tail alone is 2.0e-17 and 1.0e-18
        want = MOBIUS_REFERENCE[alpha, z]
        for N in (100, 1000, 10000, 100000):
            got, bound = mobius_theta_sum(alpha, z, mobius_sieve(N))
            assert abs(got - want) <= bound, (N, abs(got - want), bound)
        _close(got, want, rel=0.0, abs_tol=1e-13)

    def test_tail_bound_formula(self, mobius_10k):
        # the truncation tail (c^2/2) e^(c/N^2) / (4 N^4), c = pi alpha^2
        # (1 + |z|^2), about 5e-14 at alpha = 2, |z| = 2, N = 1e4, plus
        # the rounding term, recomputed here from the squarefree terms
        _, bound = mobius_theta_sum(2.0, 2.0j, mobius_10k)
        c = 20.0 * math.pi
        tail = c * c / 8e16 * math.exp(c / 1e8)
        assert 4e-14 < tail < 6e-14
        n = mobius_10k.squarefree.astype(np.float64)
        mu = mobius_10k.values[mobius_10k.squarefree]
        d1 = -4.0 * math.pi * (1.0 + 0.5 * (2.0j) ** 2)
        u = -4.0 * math.pi / (n * n)
        v = 1j * math.sqrt(math.pi) * 2.0 * 2.0j / n
        f = 0.5 * (np.exp(u + v) + np.exp(u - v))
        terms = (mu / n) * (f - 1.0 - d1 / (n * n))
        parts = ((np.abs(f) + 1.0 + abs(d1) / (n * n)) / n).sum()
        rounding = np.finfo(np.float64).eps * (
            4.0 * parts + abs(d1) / 1.2020569031595942
            + math.ceil(math.log2(len(n))) * np.abs(terms).sum())
        assert bound == pytest.approx(tail + rounding, rel=1e-14, abs=0.0)

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
                                         (1.3, 1.0 + 0.5j), (0.5, 2.0j)])
    def test_squarefree_terms_match_all_n_formula(self, mobius_10k,
                                                  alpha, z):
        # the terms are evaluated only where mu(n) != 0; their sum
        # must equal the all-n formula's bit for bit
        z = complex(z)
        n = np.arange(1.0, mobius_10k.limit + 1.0)
        mu = mobius_10k.values[1:].astype(np.float64)
        d1 = -math.pi * alpha * alpha * (1.0 + 0.5 * z * z)
        u = -np.pi * alpha * alpha / (n * n)
        f = np.exp(u)
        if z != 0.0:
            v = 1j * np.sqrt(np.pi) * alpha * z / n
            f = 0.5 * (np.exp(u + v) + np.exp(u - v))
        terms = (mu / n) * (f - 1.0 - d1 / (n * n))
        total, _ = mobius_theta_sum(alpha, z, mobius_10k)
        want = complex(terms[mu != 0][::-1].sum()) + d1 / 1.2020569031595942
        assert total == want


def _zero_sum(zeros, alpha, z):
    """The bracketed zero sum over all of zeros."""
    return zero_sum_bracketed(zeros, alpha, z, [len(zeros)])[0]


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

    def test_close_ordinates_share_a_bracket(self, monkeypatch):
        # the shipped ordinates never trigger grouping, synthetic ones do
        gammas = [1.0, 1.001, 5.0]
        recs = [ZeroRecord(g, zeta_prime=d) for g, d in
                zip(gammas, [0.8 + 0.1j, -0.5 + 0.3j, 1.2 - 0.4j])]
        assert _bracket_edges(gammas) == [0, 2, 3]
        grouped = _zero_sum(recs, 2.0, 1.0 + 0.5j)
        monkeypatch.setattr(ns, "_BRACKET_A1", 1e3)
        assert _bracket_edges(gammas) == [0, 1, 2, 3]
        ungrouped = _zero_sum(recs, 2.0, 1.0 + 0.5j)
        _close(grouped, ungrouped, rel=1e-15)

    @pytest.mark.parametrize("a1", [0.1, 1e-3, 1e3])
    @pytest.mark.parametrize("z", [1.0, 2.0j, 1.0 + 0.5j])
    def test_one_pass_matches_each_prefix(self, zero_records, a1, z,
                                          monkeypatch):
        # at a1 = 1e-3 gaps below about 2 share a bracket, so counts 9
        # and 13 close a bracket early, as zeros[:c] does
        monkeypatch.setattr(ns, "_BRACKET_A1", a1)
        counts = [1, 9, 10, 13, 25, 50, 100]
        if a1 == 1e-3:
            edges = _bracket_edges([r.gamma for r in zero_records])
            assert 9 not in edges and 13 not in edges
        sums = zero_sum_bracketed(zero_records, 0.8, z, counts)
        for c, got in zip(counts, sums):
            _close(got, _zero_sum(zero_records[:c], 0.8, z), rel=1e-15)

    def test_one_pass_splits_a_synthetic_bracket(self, monkeypatch):
        gammas = [1.0, 1.001, 5.0]
        recs = [ZeroRecord(g, zeta_prime=d) for g, d in
                zip(gammas, [0.8 + 0.1j, -0.5 + 0.3j, 1.2 - 0.4j])]
        for a1 in (0.1, 1e3):
            monkeypatch.setattr(ns, "_BRACKET_A1", a1)
            sums = zero_sum_bracketed(recs, 2.0, 1.0 + 0.5j, [0, 1, 2, 3])
            assert sums[0] == 0.0
            for c, got in zip((1, 2, 3), sums[1:]):
                _close(got, _zero_sum(recs[:c], 2.0, 1.0 + 0.5j), rel=1e-15)

    def test_count_out_of_range_raises(self, zero_records):
        with pytest.raises(ValueError):
            zero_sum_bracketed(zero_records[:10], 1.0, 0.0, [11])

    def test_decay_with_ordinate(self, zero_records):
        # each additional bracket moves the partial sum by roughly
        # e^(-pi gamma / 4); zeros beyond the 25th are invisible at 1e-14
        a = _zero_sum(zero_records[:25], 2.0, 1.0)
        b = _zero_sum(zero_records[:100], 2.0, 1.0)
        assert abs(a - b) < 1e-14
