"""Completed-zeta kernel layer: xi, Xi, rho and its pairs, lambda."""

import time

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xiverify import quad, xikernel
from xiverify.specfun import hyp1f1
from xiverify.xikernel import (KernelParams, lambda_kernel, rho_rows,
                               xi_cap, xi_small)


def _close(got, want, rel=1e-12, abs_tol=0.0):
    got, want = complex(got), complex(want)
    assert abs(got - want) <= max(abs_tol, rel * abs(want)), \
        "got %r want %r" % (got, want)


class TestKernelParams:
    def test_beta_is_reciprocal(self):
        p = KernelParams(2.5, 1.0 + 0.5j)
        assert p.beta == pytest.approx(0.4, rel=1e-15)
        assert p.z == 1.0 + 0.5j

    def test_alpha_must_be_positive(self):
        for alpha in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="alpha"):
                KernelParams(alpha, 0.0)

    def test_z_must_be_finite(self):
        for z in (complex("nan"), complex(0.0, float("inf"))):
            with pytest.raises(ValueError, match="z must be finite"):
                KernelParams(1.0, z)


class TestXiSmall:
    def test_center_of_strip(self):
        _close(xi_small(0.5), 0.49712077818831411, rel=1e-13)

    def test_off_line_value(self):
        _close(xi_small(2.0 + 3.0j),
               0.41627125989962381 + 0.088823304965639391j, rel=1e-12)

    def test_special_points(self):
        # xi(0) = xi(1) = 1/2
        _close(xi_small(0.0), 0.5, rel=1e-12)
        _close(xi_small(1.0), 0.5, rel=1e-12)

    def test_near_pole_branch(self):
        _close(xi_small(1.0 + 1e-7), 0.50000000115478557, rel=1e-12)

    def test_branch_continuity_at_switch(self):
        # the |s-1| < 2e-3 neighborhood uses a local product expansion;
        # just inside and just outside it the two branches agree
        u = 2e-3 * np.exp(2j * np.pi * np.arange(12) / 12)
        inner = xi_small(1.0 + u * (1.0 - 1e-12))
        outer = xi_small(1.0 + u * (1.0 + 1e-12))
        assert np.max(np.abs(inner - outer) / np.abs(outer)) <= 2e-13

    def test_near_pole_against_mpmath(self):
        # 12 angles on each of 40 rings, radii 1e-8 to 2e-2, around the
        # pole of zeta: on either side of the switch the eta route and the
        # Laurent product each keep about 13 digits (the switch at
        # |s-1| = 1e-6 lost four just outside it)
        r = np.geomspace(1e-8, 2e-2, 40)
        turn = np.exp(2j * np.pi * np.arange(12) / 12)
        s = (1.0 + r[:, None] * turn).reshape(-1)
        with mpmath.workdps(30):
            want = np.array([complex(
                0.5 * v * (v - 1) * mpmath.pi ** (-v / 2)
                * mpmath.gamma(v / 2) * mpmath.zeta(v))
                for v in map(mpmath.mpc, s)])
        assert np.max(np.abs(xi_small(s) - want) / np.abs(want)) <= 2e-13

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-2.0, 3.0), st.floats(-12.0, 12.0))
    def test_functional_symmetry(self, sigma, t):
        # xi_small reflects Re s < 1/2 to 1 - s, so xi_small(s) and
        # xi_small(1 - s) run the same arithmetic: each is checked against
        # 30-digit mpmath xi(s) instead (worst 2.5e-14 relative at 400
        # random s of this box).  At s = 0, 1 and -2 a factor of the
        # oracle has a pole
        s = complex(sigma, t)
        assume(s not in (0.0, 1.0, -2.0))
        with mpmath.workdps(30):
            v = mpmath.mpc(s)
            want = complex(0.5 * v * (v - 1) * mpmath.pi ** (-v / 2)
                           * mpmath.gamma(v / 2) * mpmath.zeta(v))
        for got in (xi_small(s), xi_small(1.0 - s)):
            assert abs(got - want) <= 1e-12 * abs(want)


class TestXiCap:
    def test_matches_xi_at_origin(self):
        _close(xi_cap(0.0), 0.49712077818831411, rel=1e-13)

    @pytest.mark.parametrize("t,want,rel", [
        (1.0, 0.48575742967098349, 1e-12),
        (5.0, 0.27554999734420419, 1e-12),
        (20.0, -3.6655427755609457e-5, 1e-10),
        (50.0, 3.1621951259578891e-15, 1e-9),
    ])
    def test_frozen_values(self, t, want, rel):
        _close(xi_cap(t), want, rel=rel)

    def test_real_for_real_argument(self):
        vals = xi_cap(np.linspace(0.0, 60.0, 7))
        assert np.all(np.isreal(vals))

    def test_vanishes_at_first_zero(self):
        assert abs(xi_cap(14.134725141734694)) < 1e-12

    def test_complex_argument_raises(self):
        # off the real axis xi is xi_small's
        for t in (1.0 + 0.5j, np.array([1.0, 2.0 - 1e-3j])):
            with pytest.raises(ValueError,
                               match="xi_cap: argument must be real"):
                xi_cap(t)

    @pytest.mark.parametrize("t", [np.nan, np.inf, np.array([1.0, np.nan]),
                                   complex(1.0, np.nan)])
    def test_non_finite_argument_raises_at_once(self, t):
        # NaN used to end in "cannot convert float NaN to integer"
        start = time.perf_counter()
        with pytest.raises(ValueError, match="xi_cap: argument must be finite"):
            xi_cap(t)
        assert time.perf_counter() - start < 0.05


def _rho(x, z, s):
    """rho(x, z, s) = x^(1/2 - s) e^(-z^2/8) 1F1((1-s)/2; 1/2; z^2/4),
    written from specfun.hyp1f1 in rho_rows' operand order."""
    s = np.asarray(s, np.complex128)
    z = complex(z)
    w = 0.25 * z * z
    return (np.exp((0.5 - s) * np.log(x)) * np.exp(-0.5 * w)
            * hyp1f1(0.5 * (1.0 - s), 0.5, w))[()]


def _rho_pair(x, z, s):
    """rho(x, z, s) + rho(x, z, 1-s), the nabla of the integral class."""
    return _rho(x, z, s) + _rho(x, z, 1.0 - s)


class TestRhoNabla:
    def test_frozen_value(self):
        _close(_rho(2.0, 1.0, 0.5 + 3.0j),
               -1.0964141814197279 - 0.43220343286924227j, rel=1e-12)

    def test_z_zero_reduces_to_power(self):
        s = 0.7 + 2.0j
        _close(_rho(3.0, 0.0, s), 3.0 ** (0.5 - s), rel=1e-13)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.1, 40.0), st.sampled_from([0.5, 2.0, 3.0]))
    def test_nabla_cosine_reduction(self, t, alpha):
        # the digamma family's kernel: at z = 0 the pair at (1 +- it)/2
        # sums to 2 cos((t/2) log alpha)
        got = _rho_pair(alpha, 0.0, 0.5 * (1.0 + 1j * t))
        want = 2.0 * np.cos(0.5 * t * np.log(alpha))
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want))

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.3, 3.0), st.floats(-1.5, 1.5), st.floats(-1.5, 1.5),
           st.floats(0.05, 0.95), st.floats(-20.0, 20.0))
    def test_alpha_beta_swap(self, alpha, zr, zi, sigma, t):
        # the Kummer transformation makes rho(s) + rho(1-s) invariant
        # under (alpha, z) -> (1/alpha, iz)
        z = complex(zr, zi)
        s = complex(sigma, t)
        a = _rho_pair(alpha, z, s)
        b = _rho_pair(1.0 / alpha, 1j * z, s)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))

    def test_nabla_reflection_symmetry(self):
        s = 0.3 + 7.0j
        _close(_rho_pair(2.0, 1.0, s), _rho_pair(2.0, 1.0, 1.0 - s),
               rel=1e-14)

    # A Xi side's kernel call evaluates rho at c + ikt and c - ikt as two
    # rows of one stacked series, which runs until both rows have
    # converged.  On the critical line (c = k = 1/2) the rows' parameters
    # are complex conjugates, so their terms have equal size: with real or
    # imaginary z (z = 2i has Re(z^2/4) < 0 and takes Kummer's
    # transformation) they stop on the same term, and an array of t, like
    # a quadrature level's, stops where its slowest point does in either
    # row.  Then the rows sum to rho + rho to the bit.  A lone t with
    # complex z can stop one row a term later than its own call would, a
    # change below 1e-17 of that row's total.
    @pytest.mark.parametrize("z,s", [
        (0.0, 0.5 + 3.5j), (1.0, 0.5 + 3.5j), (2.0j, 0.5 + 3.5j),
        (2.0j, 0.5 + 20.0j)] + [
        (z, 0.5 * (1.0 + 1j * np.linspace(0.0, 60.0, 49)))
        for z in (0.0, 1.0, 2.0j, 1.0 + 0.5j)])
    def test_nabla_is_one_series_and_the_sum_of_two_rhos(self, monkeypatch,
                                                        z, s):
        want = _rho_pair(2.0, z, s)
        rows = _xi_side_rows(monkeypatch, 2.0, z, s)
        assert rows["calls"] == [(2,) + np.shape(s)]
        got = rows["value"][0] + rows["value"][1]
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_lone_s_with_complex_z_within_the_series_stop(self, monkeypatch):
        s, z = 0.5 + 3.5j, 1.0 + 0.5j
        want = [_rho(2.0, z, s), _rho(2.0, z, 1.0 - s)]
        rows = _xi_side_rows(monkeypatch, 2.0, z, s)["value"]
        assert abs(rows[0] + rows[1] - want[0] - want[1]) <= 1e-15 * (
            abs(want[0]) + abs(want[1]))

    def test_nabla_broadcasts_array_x_against_scalar_s(self):
        x = np.array([0.5, 2.0, 3.0])
        got = _rho_pair(x, 1.0, 0.5 + 2.0j)
        assert got.shape == x.shape
        for xi, g in zip(x, got):
            _close(g, _rho_pair(float(xi), 1.0, 0.5 + 2.0j), rel=1e-14)


class TestRhoRows:
    @pytest.mark.parametrize("c,k", [(0.5, 0.5), (1.5, 0.5), (0.5, 1.0)])
    def test_rows_are_rho_kernel_to_the_bit(self, c, k):
        # against rho written out from specfun.hyp1f1 at s = c +- ikt: the
        # second alpha and -z take their 1F1 rows from the cache; two
        # batches of one size keep rows of their own
        xikernel._rho_series_rows.cache_clear()
        for x in (0.5, 2.0):
            for t in (np.linspace(0.1, 30.0, 57), np.linspace(0.2, 40.0, 57)):
                s = c + 1j * k * np.stack([t, -t])
                for z in (1.0 + 0.5j, -1.0 - 0.5j, 2j):
                    got = rho_rows(x, z, c, k, t)
                    assert got.shape == (2, t.size)
                    assert got.tobytes() == _rho(x, z, s).tobytes()
        assert xikernel._rho_series_rows.cache_info().misses == 4

    @pytest.mark.parametrize("x", [0.0, -1.0, float("nan")])
    def test_x_must_be_positive(self, x):
        with pytest.raises(ValueError, match="^rho_rows: x must be positive"):
            rho_rows(x, 1.0, 0.5, 0.5, np.array([1.0]))

    def test_cached_rows_are_read_only(self):
        # every later side at this (w, c, k, batch) shares the array
        t = np.array([0.5, 2.0])
        rows = xikernel.rho_series(0.25, 0.5, 0.5, t)
        assert rows.shape == (2, 2) and not rows.flags.writeable


# the first three zero ordinates: a zero sum's batch
_ORDINATES = np.array([14.134725141734693, 21.022039638771555,
                       25.010857580145688])


def _series(w, t=_ORDINATES):
    return xikernel.rho_series(w, 0.5, 1.0, t)


class TestRowCacheFill:
    """prepare_rho_series: the rows of many w on one batch summed as the
    groups of one series into the cache rho_series reads."""

    def test_filled_rows_are_the_rows_summed_alone(self, fresh_caches,
                                                   summed_rows):
        # z and -z, either sign of a zero part and a repeated w are one
        # key each; the rows at -1/4 and -1 - 0.5i are those of the
        # series at 1/4 and 1 + 0.5i, so 6 keys take 5 series
        ws = [-0.25 + 0j, complex(-0.25, -0.0), 1.0 + 0.5j, 1.0 + 0.5j,
              -1.0 - 0.5j, 0j, complex(-0.0, -0.0), 12.0 - 30.0j, 49.0j]
        cold = {}
        for w in ws:
            fresh_caches()
            cold[w] = _series(w).tobytes()
        fresh_caches()
        summed_rows.clear()
        xikernel.prepare_rho_series(ws, 0.5, 1.0, _ORDINATES)
        info = xikernel._rho_series_rows.cache_info()
        assert (info.misses, info.hits, info.currsize) == (6, 0, 6)
        assert len(summed_rows) == 5
        for w in ws:
            assert _series(w).tobytes() == cold[w], w
        assert xikernel._rho_series_rows.cache_info().misses == 6
        assert len(summed_rows) == 5 and set(summed_rows.values()) == {1}

    def test_leaves_out_what_hyp1f1_refuses(self, fresh_caches):
        ws = [complex("nan"), complex(float("inf"), 0.0), 50.5 + 0j, 36j,
              complex(30.0, 40.0000001), 50.0 + 0j, 1.0 + 0j]
        xikernel.prepare_rho_series(ws, 0.5, 1.0, _ORDINATES)
        assert xikernel._rho_series_rows.cache_info().currsize == 3
        _series(36j)
        _series(50.0 + 0j)
        _series(1.0 + 0j)
        assert xikernel._rho_series_rows.cache_info().misses == 3

    def test_takes_the_first_half_of_the_keys(self, fresh_caches):
        half = xikernel._RHO_ROW_KEYS // 2
        ws = [complex(0.01 * k) for k in range(half + 40)]
        xikernel.prepare_rho_series(ws, 0.5, 1.0, _ORDINATES)
        assert xikernel._rho_series_rows.cache_info().currsize == half
        for w in ws[:half]:
            _series(w)
        assert xikernel._rho_series_rows.cache_info().misses == half
        _series(ws[half])
        assert xikernel._rho_series_rows.cache_info().misses == half + 1

    def test_keeps_its_cached_keys(self, fresh_caches):
        # the cache is full and its oldest key is in the fill: the fill
        # makes it recent before storing new keys, so the keys evicted
        # are the oldest of the others
        n = xikernel._RHO_ROW_KEYS
        old = [complex(0.01 * k) for k in range(n)]
        for w in old:
            _series(w)
        new = [complex(0.01 * k, 1.0) for k in range(10)]
        xikernel.prepare_rho_series([old[0]] + new, 0.5, 1.0, _ORDINATES)
        info = xikernel._rho_series_rows.cache_info()
        assert (info.misses, info.hits, info.currsize) == (n + 10, 1, n)
        for w in [old[0], old[11]] + new:
            _series(w)
        assert xikernel._rho_series_rows.cache_info().misses == n + 10
        _series(old[10])
        assert xikernel._rho_series_rows.cache_info().misses == n + 11

    def test_one_node_rows_are_not_grouped(self, fresh_caches, summed_rows):
        xikernel.prepare_rho_series([0.25 + 0j, 1j], 0.5, 1.0,
                                    _ORDINATES[:1])
        assert xikernel._rho_series_rows.cache_info().currsize == 0
        assert not summed_rows

    def test_a_series_that_raises_stores_nothing(self, fresh_caches,
                                                 monkeypatch):
        def failing(a, c, w, grouped=False):
            raise FloatingPointError("overflow encountered in multiply")

        monkeypatch.setattr(xikernel, "hyp1f1", failing)
        with pytest.raises(FloatingPointError):
            xikernel.prepare_rho_series([0.25 + 0j, 1j], 0.5, 1.0,
                                        _ORDINATES)
        assert xikernel._rho_series_rows.cache_info().currsize == 0


class TestKummerFold:
    """Where 1/2 - a is a's rows swapped, the rows at Re w < 0 are those
    of the series at -w, rows swapped, times e^w: w and -w take one
    series."""

    @staticmethod
    def _a(c, k, t):
        return 0.5 * (1.0 - xikernel._line(c, k, t))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(0.5, 0.5), (0.5, 1.0)]), st.floats(1e-9, 6.0),
           st.floats(-6.0, 6.0))
    def test_folded_rows_are_kummers_bits(self, line, re, im):
        # the rows at w, from the series at -w alone, from the rows at -w
        # cached before, or grouped with -w, are hyp1f1's own at w, which
        # sums the series in 1/2 - a at -w, and e^w times the rows at -w
        # swapped
        t = quad.start_nodes()
        a, w = self._a(*line, t), complex(-re, im)
        want = hyp1f1(a, 0.5, w).tobytes()
        partner = hyp1f1(a, 0.5, -w)
        assert want == (np.exp(w) * partner[::-1]).tobytes()
        rows = xikernel._rho_series_rows
        for cached, group in (([], [w]), ([-w], [w]), ([], [w, -w])):
            rows.cache_clear()
            for v in cached:
                xikernel.rho_series(v, *line, t)
            xikernel.prepare_rho_series(group, *line, t)
            assert xikernel.rho_series(w, *line, t).tobytes() == want
            assert rows.cache_info().misses == len(cached) + len(group)

    @pytest.mark.parametrize("line,series", [((0.5, 0.5), 1),
                                             ((0.5, 1.0), 1),
                                             ((1.5, 0.5), 2)])
    def test_taken_where_the_rows_swap(self, line, series, fresh_caches,
                                       summed_rows):
        # on Bose's line c = 3/2, 1/2 - a is no swap of a: w and -w take
        # a series each, in a and in 1/2 - a
        t = quad.start_nodes()
        a = self._a(*line, t)
        assert ((0.5 - a).tobytes() == a[::-1].tobytes()) == (series == 1)
        ws = [-0.75 + 0.5j, 0.75 - 0.5j, 0.25j]
        xikernel.prepare_rho_series(ws, *line, t)
        got = [xikernel.rho_series(w, *line, t).tobytes() for w in ws]
        assert len(summed_rows) == series + 1
        assert got == [hyp1f1(a, 0.5, w).tobytes() for w in ws]

    def test_cached_rows_at_minus_w_serve_w(self, fresh_caches,
                                            summed_rows):
        # the rows at -w are cached, so the rows at w, Re w < 0, one
        # call at a time or in a fill, sum no series of their own
        t = quad.start_nodes()
        w = -0.75 + 0.5j
        xikernel.rho_series(-w, 0.5, 0.5, t)
        xikernel.rho_series(w, 0.5, 0.5, t)
        xikernel.rho_series(-w, 0.5, 1.0, t)
        xikernel.prepare_rho_series([w], 0.5, 1.0, t)
        assert len(summed_rows) == 2 and set(summed_rows.values()) == {1}


def _xi_side_rows(monkeypatch, alpha, z, s):
    """The kernel rows one identities._xi_side call at c = k = 1/2 makes
    at t = (s - 1/2)/(i/2), with the shapes of the hyp1f1 calls behind
    them, from reset caches."""
    from xiverify import identities, quad
    identities.reset_caches()
    t = np.real((np.asarray(s) - 0.5) / 0.5j)
    out = {"calls": []}

    def counted(a, c, w):
        out["calls"].append(np.shape(a))
        return hyp1f1(a, c, w)

    def one_call(kernel, table, tol):
        out["value"] = kernel(t)
        return quad.QuadratureResult(0.0, 0.0, np.size(t), 0.0)

    monkeypatch.setattr(xikernel, "hyp1f1", counted)
    monkeypatch.setattr(quad, "integrate_tabulated", one_call)
    identities._xi_side(KernelParams(alpha, z), 0.5, 0.5, None, 1e-9)
    return out


class TestLambdaKernel:
    def test_frozen_value(self):
        _close(lambda_kernel(0.7), -0.14906289547348795, rel=1e-12)

    def test_asymptotic_decay(self):
        # lambda(x) = -1/(12 x^2) + O(x^-4)
        x = 50.0
        assert abs(lambda_kernel(x) + 1.0 / (12.0 * x * x)) < 1e-8

    def test_vectorized(self):
        xs = np.array([0.5, 1.0, 2.0])
        vals = lambda_kernel(xs)
        assert vals.shape == (3,)
        assert abs(vals[1] - lambda_kernel(1.0)) == 0.0
