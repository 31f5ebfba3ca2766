"""Special-function building blocks against frozen multiprecision values.

Reference numbers were computed with mpmath at 30+ significant digits and
are quoted to 17 digits; comparisons run at a few ulps above what float64
evaluation can honestly deliver.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xiverify.specfun import (_SERIES_MAX_TERMS, _SERIES_RELTOL,
                              EULER_GAMMA, _hyp_series, _k0_asymp_scaled,
                              _k0_cf2_scaled, _k0_series, besselk0,
                              besselk0_scaled, digamma, gamma_fn, hyp1f1,
                              hyp2f2_11, lngamma, mobius_sieve, zeta,
                              zeta_eta, zeta_eta_prime)

# arguments on both sides of the K0 branch seams at 2 and 300, and on them
K0_GRID = np.concatenate([
    np.geomspace(1e-3, 1e3, 301),
    [2.0, np.nextafter(2.0, 0.0), np.nextafter(2.0, 3.0),
     300.0, np.nextafter(300.0, 0.0), np.nextafter(300.0, 400.0)]])


def _k0_reference(x, scaled):
    """besselk0 (scaled=False) or besselk0_scaled as a chain of its own
    branches, each function applying its exponential where it evaluates."""
    v = np.asarray(x, np.float64)
    out = np.empty_like(v)
    small = v <= 2.0
    rest = v[~small]
    big = rest >= 300.0
    vals = np.empty_like(rest)
    vals[~big] = _k0_cf2_scaled(rest[~big])
    vals[big] = _k0_asymp_scaled(rest[big])
    if scaled:
        out[small] = _k0_series(v[small]) * np.exp(v[small])
        out[~small] = vals
    else:
        out[small] = _k0_series(v[small])
        out[~small] = vals * np.exp(-rest)
    return out


def _close(got, want, rel=1e-13, abs_tol=0.0):
    got, want = complex(got), complex(want)
    assert abs(got - want) <= max(abs_tol, rel * abs(want)), \
        "got %r want %r" % (got, want)


class TestLngamma:
    def test_known_complex_value(self):
        _close(lngamma(3.7 + 2.1j), 0.78534695807382239 + 2.5830129251152622j)

    def test_left_halfplane_value(self):
        # exercises the recurrence lift below Re z = 0.5
        _close(lngamma(-2.5 + 1.5j), -3.7175134511917918 - 7.7130655258341925j)

    def test_matches_stdlib_on_reals(self):
        for x in (0.5, 1.0, 2.5, 7.3, 41.0):
            _close(lngamma(x), math.lgamma(x), rel=1e-14)

    def test_gamma_half(self):
        _close(gamma_fn(0.5), math.sqrt(math.pi), rel=1e-14)

    def test_poles_raise(self):
        for bad in (0.0, -1.0, -7.0):
            with pytest.raises(ValueError):
                lngamma(bad)

    def test_array_shape_and_scalar_type(self):
        arr = lngamma(np.array([1.0, 2.0, 3.0]))
        assert arr.shape == (3,)
        assert not isinstance(lngamma(2.0 + 0j), np.ndarray)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.05, 0.95), st.floats(-8.0, 8.0))
    def test_reflection(self, x, y):
        z = complex(x, y)
        lhs = np.exp(lngamma(z) + lngamma(1.0 - z))
        rhs = np.pi / np.sin(np.pi * z)
        _close(lhs, rhs, rel=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.1, 4.0), st.floats(-8.0, 8.0))
    def test_duplication(self, x, y):
        z = complex(x, y)
        lhs = lngamma(z) + lngamma(z + 0.5)
        rhs = (1.0 - 2.0 * z) * np.log(2.0) + 0.5 * np.log(np.pi) \
            + lngamma(2.0 * z)
        _close(np.exp(lhs - rhs), 1.0, rel=1e-10)


class TestDigamma:
    def test_small_argument(self):
        _close(digamma(0.3), -3.502524222200133)

    def test_complex_argument(self):
        _close(digamma(5.5 + 2.0j), 1.6846878228912377 + 0.37952403462929969j)

    def test_at_one(self):
        _close(digamma(1.0), -EULER_GAMMA, rel=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.01, 50.0))
    def test_recurrence(self, x):
        _close(digamma(x + 1.0), digamma(x) + 1.0 / x, rel=1e-11,
               abs_tol=1e-12)

    def test_pole_raises(self):
        with pytest.raises(ValueError):
            digamma(0.0)
        with pytest.raises(ValueError):
            digamma(-2.0)


class TestZeta:
    def test_basel(self):
        _close(zeta(2.0), math.pi ** 2 / 6.0, rel=1e-14)

    def test_even_integer(self):
        _close(zeta(4.0), math.pi ** 4 / 90.0, rel=1e-14)

    def test_critical_strip_value(self):
        _close(zeta(0.5 + 25.0j),
               0.0049845933640356754 - 0.014012301962583383j, rel=1e-11)

    def test_rejects_height_past_supported_strip(self):
        # the eta coefficients overflow past n = 380, near |Im s| = 420
        with pytest.raises(ValueError, match="strip"):
            zeta(0.5 + 438.7j)

    def test_functional_equation_region(self):
        # Re s < 1/2 goes through the reflection; check against the frozen
        # value and against the alternating-series path, which needs no
        # reflection at Re s = 0.3
        want = 0.6756489981160233 + 0.25414478655467744j
        _close(zeta(0.3 + 5.0j), want, rel=1e-11)
        _close(zeta_eta(0.3 + 5.0j, 170), want, rel=1e-9)

    def test_negative_real_axis(self):
        _close(zeta(-3.7), 0.0025992549871493221, rel=1e-11)

    def test_near_pole_expansion(self):
        _close(zeta(1.0 + 5e-4), 2000.5772520716129, rel=1e-12)
        _close(zeta(1.0 + 1e-4 + 2e-4j),
               2000.5772229466314 - 3999.9999854370247j, rel=1e-12)

    def test_pole_raises(self):
        with pytest.raises(ValueError):
            zeta(1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(1.5, 6.0))
    def test_against_dirichlet_series(self, s):
        # independent route: 3000 direct terms plus the Euler-Maclaurin
        # tail of the remainder
        N = 3000
        n = np.arange(1.0, N + 1.0)
        direct = np.sum(n ** -s)
        tail = (N ** (1.0 - s) / (s - 1.0) - 0.5 * N ** -s
                + (s / 12.0) * N ** (-s - 1.0))
        _close(zeta(s), direct + tail, rel=1e-10)


class TestHyp1f1:
    def test_complex_a(self):
        _close(hyp1f1(0.25 - 1.5j, 0.5, 0.25),
               1.0327925889474725 - 0.84661266952995034j)

    def test_large_negative_a(self):
        # Kummer-switch territory: the direct series alternates violently
        _close(hyp1f1(-30.25, 0.5, 2.0), -2.7065110037195441, rel=1e-11)

    def test_large_imaginary_a(self):
        _close(hyp1f1(0.25 - 60.0j, 0.5, 0.25),
               93.851570667743259 + 97.929111541594068j, rel=1e-11)

    def test_at_zero(self):
        _close(hyp1f1(1.7, 0.5, 0.0), 1.0, rel=1e-15)

    def test_exponential_case(self):
        _close(hyp1f1(1.0, 1.0, 0.7), math.exp(0.7), rel=1e-14)

    def test_terminating_polynomial(self):
        x = 0.83
        want = 1.0 - 4.0 * x + (4.0 / 3.0) * x * x
        _close(hyp1f1(-2.0, 0.5, x), want, rel=1e-13)

    def test_bad_c_raises(self):
        with pytest.raises(ValueError):
            hyp1f1(1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            hyp1f1(1.0, -3.0, 0.5)

    def test_rejects_argument_outside_working_range(self):
        assert np.isfinite(hyp1f1(0.5, 0.5, 50.0))
        assert np.isfinite(hyp1f1(0.5, 0.5, -50.0j))
        for z in (60.0, -60.0, 40.0 + 40.0j, float("nan")):
            with pytest.raises(ValueError, match="working range"):
                hyp1f1(0.5, 0.5, z)
        with pytest.raises(ValueError, match="working range"):
            hyp1f1(0.5, 0.5, np.array([1.0, 60.0]))

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-10.0, 10.0), st.floats(-6.0, 6.0))
    def test_kummer_transformation(self, a, x):
        lhs = hyp1f1(a, 0.5, x)
        rhs = np.exp(x) * hyp1f1(0.5 - a, 0.5, -x)
        _close(lhs, rhs, rel=1e-9, abs_tol=1e-10)


def _broadcast_hyp_series(a, c, z):
    """The 1F1 Taylor loop as it stood before _hyp_series kept scalar c
    and z scalar and summed in place, frozen as its bit-level reference."""
    a, c, z = np.broadcast_arrays(
        np.asarray(a, np.complex128), np.asarray(c, np.complex128),
        np.asarray(z, np.complex128))
    term = np.ones(a.shape, dtype=np.complex128)
    total = term.copy()
    for n in range(_SERIES_MAX_TERMS):
        term = term * (a + n) * z / ((c + n) * (n + 1.0))
        total = total + term
        bound = _SERIES_RELTOL * np.maximum(np.abs(total), 1e-300)
        if np.all(np.abs(term) < bound):
            return total
    raise RuntimeError("reference series did not converge")


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


# the theta family's 1F1 parameters: a = (1 - s)/2 on the critical line
# and at 1 - s, c = 1/2, w = z^2/4 for z = 1, 2i, 1 + 0.5i
_S = 0.5 * (1.0 + 1j * np.linspace(0.0, 60.0, 65))
_A = 0.5 * (1.0 - np.concatenate([_S, 1.0 - _S]))


class TestHypSeriesLoop:
    @pytest.mark.parametrize("w", [0.25, 1.0, 0.1875 + 0.25j, 12.5 - 3.0j])
    def test_scalar_c_and_z(self, w):
        assert _same_bits(_hyp_series(_A, 0.5, w),
                          _broadcast_hyp_series(_A, 0.5, w))

    def test_array_z(self):
        z = np.linspace(0.0, 20.0, 41) * (1.0 + 0.3j)
        assert _same_bits(_hyp_series(-0.5, 0.5, z),
                          _broadcast_hyp_series(-0.5, 0.5, z))
        assert _same_bits(_hyp_series(_A[:41], 0.5, z),
                          _broadcast_hyp_series(_A[:41], 0.5, z))

    def test_all_scalar(self):
        got = _hyp_series(0.25 - 1.5j, 0.5, 0.25)
        assert _same_bits(got, _broadcast_hyp_series(0.25 - 1.5j, 0.5, 0.25))

    def test_mixed_sign_branch_of_hyp1f1(self):
        z = np.linspace(-6.0, 6.0, 25) + 0.5j
        a = _A[:25]
        neg = z.real < 0.0
        direct = _broadcast_hyp_series(a, 0.5, np.where(neg, 0.0, z))
        flipped = np.exp(z) * _broadcast_hyp_series(
            0.5 - a, 0.5, np.where(neg, -z, 0.0))
        assert neg.any() and not neg.all()
        assert _same_bits(hyp1f1(a, 0.5, z), np.where(neg, flipped, direct))


class TestNonFiniteInput:
    # each used to run a series to its 100,000-term limit (1-2 s) or fail
    # converting NaN to an integer
    @pytest.mark.parametrize("call,message", [
        (lambda: hyp1f1(np.nan, 0.5, 1.0), "hyp1f1: parameter a"),
        (lambda: hyp1f1(np.inf, 0.5, 1.0), "hyp1f1: parameter a"),
        (lambda: hyp1f1(np.array([0.5, np.nan]), 0.5, 1.0),
         "hyp1f1: parameter a"),
        (lambda: hyp1f1(0.5, np.nan, 1.0), "hyp1f1: parameter c"),
        (lambda: hyp1f1(0.5, complex(0.5, np.inf), 1.0),
         "hyp1f1: parameter c"),
        (lambda: hyp2f2_11(np.nan), "hyp2f2_11"),
        (lambda: hyp2f2_11(np.array([1.0, np.inf])), "hyp2f2_11"),
        (lambda: zeta(complex(0.5, np.nan)), "zeta"),
        (lambda: zeta(np.inf), "zeta"),
        (lambda: zeta_eta(np.nan), "zeta_eta"),
        (lambda: zeta_eta_prime(complex(0.5, np.inf)), "zeta_eta_prime"),
        (lambda: lngamma(np.nan), "lngamma"),
        (lambda: lngamma(complex(np.inf, 0.0)), "lngamma"),
        (lambda: lngamma(np.array([1.5, complex(0.5, np.nan)])), "lngamma"),
        (lambda: digamma(np.nan), "digamma"),
        (lambda: digamma(np.inf), "digamma"),
        (lambda: digamma(-np.inf), "digamma"),
        (lambda: digamma(complex(np.nan, 1.0)), "digamma"),
    ])
    def test_raises_at_once_naming_the_function(self, call, message):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=message + ".*must be finite"):
            call()
        assert time.perf_counter() - start < 0.05


class TestHyp2f2:
    def test_frozen_value(self):
        _close(hyp2f2_11(0.25), 1.0892002535044484)

    def test_at_zero(self):
        _close(hyp2f2_11(0.0), 1.0, rel=1e-15)

    def test_leading_series_term(self):
        # 2F2(1,1;3/2,2;z) = 1 + z/3 + O(z^2)
        z = 1e-5
        _close(hyp2f2_11(z), 1.0 + z / 3.0, rel=1e-9)


class TestBesselK0:
    def test_frozen_values(self):
        _close(besselk0(1.0), 0.42102443824070833)
        _close(besselk0(0.13), 2.1695034123504536)

    def test_scaled_large_argument(self):
        _close(besselk0_scaled(1000.0), 0.039628321600754217, rel=1e-14)

    def test_scaled_relation(self):
        _close(besselk0(5.0), besselk0_scaled(5.0) * math.exp(-5.0),
               rel=1e-14)

    def test_branch_seams(self):
        # series / continued fraction at 2, continued fraction /
        # asymptotic at 300; offsets small enough that the function's own
        # slope contributes < 1e-13 relative
        for seam in (2.0, 300.0):
            lo = besselk0_scaled(seam * (1.0 - 1e-13))
            hi = besselk0_scaled(seam * (1.0 + 1e-13))
            assert abs(lo - hi) <= 1e-12 * abs(hi)

    def test_bit_identical_to_branch_chains(self):
        # the shared branch helper leaves every bit of both functions as
        # the separate branch chains gave it, in batches and per scalar
        for fn, scaled in ((besselk0, False), (besselk0_scaled, True)):
            want = _k0_reference(K0_GRID, scaled)
            assert np.array_equal(fn(K0_GRID), want)
            assert [fn(float(x)) for x in K0_GRID] == [
                float(_k0_reference(np.array([x]), scaled)[0])
                for x in K0_GRID]

    def test_nonpositive_raises(self):
        with pytest.raises(ValueError):
            besselk0(0.0)
        with pytest.raises(ValueError):
            besselk0_scaled(-1.0)
        with pytest.raises(ValueError):
            besselk0(np.array([1.0, np.nan]))

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.05, 30.0), st.floats(0.05, 30.0))
    def test_monotone_decreasing(self, a, b):
        lo, hi = min(a, b), max(a, b)
        if hi - lo > 1e-9:
            assert besselk0(lo) > besselk0(hi)


class TestMobius:
    def test_first_values(self):
        table = mobius_sieve(30)
        want = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
        assert list(table.values[1:13]) == want
        # values[n] is mu(n) for n = 1..limit; values[0] is unused
        assert len(table.values) == table.limit + 1 == 31
        assert table.values[0] == 0

    def test_mertens_10k(self, mobius_100k):
        assert int(mobius_100k.values[1:10001].sum()) == -23

    def test_square_multiples_vanish(self, mobius_100k):
        for n in (4, 9, 25, 49, 121):
            for k in (1, 2, 3, 5):
                assert mobius_100k.values[n * k] == 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 300), st.integers(2, 300))
    def test_multiplicative_on_coprime_pairs(self, mobius_100k, m, n):
        if math.gcd(m, n) == 1:
            mu = mobius_100k.values
            assert mu[m * n] == mu[m] * mu[n]

    def test_tables_are_shared_and_read_only(self):
        table = mobius_sieve(1000)
        assert mobius_sieve(1000) is table
        with pytest.raises(ValueError):
            table.values[6] = 0
        assert table.values[6] == 1

    @pytest.mark.parametrize("N", [30, 1000])
    def test_cached_table_matches_fresh_sieve(self, N):
        fresh = mobius_sieve.__wrapped__(N)
        cached = mobius_sieve(N)
        assert fresh is not cached
        assert cached.limit == fresh.limit == N
        np.testing.assert_array_equal(cached.values, fresh.values)

    def test_euler_gamma_constant(self):
        assert EULER_GAMMA == pytest.approx(0.5772156649015329, abs=1e-16)
