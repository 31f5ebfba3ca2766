"""Completed-zeta kernel layer: xi, Xi, rho and its pairs, lambda."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xiverify import xikernel
from xiverify.specfun import hyp1f1
from xiverify.xikernel import (KernelParams, lambda_kernel, rho_kernel,
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
        # the |s-1| < 1e-6 neighborhood uses a local product expansion
        inner = xi_small(1.0 + 9.9e-7)
        outer = xi_small(1.0 + 1.01e-6)
        assert abs(inner - outer) <= 1e-8 * abs(outer)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-2.0, 3.0), st.floats(-12.0, 12.0))
    def test_functional_symmetry(self, sigma, t):
        s = complex(sigma, t)
        a, b = xi_small(s), xi_small(1.0 - s)
        assert abs(a - b) <= 1e-10 * max(1e-30, abs(a))


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

    def test_complex_argument_reduces_to_xi(self):
        t = 1.0 + 0.5j
        _close(xi_cap(t), xi_small(0.5 + 1j * t), rel=1e-12)

    @pytest.mark.parametrize("t", [np.nan, np.inf, np.array([1.0, np.nan]),
                                   complex(1.0, np.nan)])
    def test_non_finite_argument_raises_at_once(self, t):
        # NaN used to end in "cannot convert float NaN to integer"
        start = time.perf_counter()
        with pytest.raises(ValueError, match="xi_cap: argument must be finite"):
            xi_cap(t)
        assert time.perf_counter() - start < 0.05


def _rho_pair(x, z, s):
    """rho(x, z, s) + rho(x, z, 1-s), the nabla of the integral class."""
    return rho_kernel(x, z, s) + rho_kernel(x, z, 1.0 - s)


class TestRhoNabla:
    def test_frozen_value(self):
        _close(rho_kernel(2.0, 1.0, 0.5 + 3.0j),
               -1.0964141814197279 - 0.43220343286924227j, rel=1e-12)

    def test_z_zero_reduces_to_power(self):
        s = 0.7 + 2.0j
        _close(rho_kernel(3.0, 0.0, s), 3.0 ** (0.5 - s), rel=1e-13)

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
        want = [rho_kernel(2.0, z, s), rho_kernel(2.0, z, 1.0 - s)]
        rows = _xi_side_rows(monkeypatch, 2.0, z, s)["value"]
        assert abs(rows[0] + rows[1] - want[0] - want[1]) <= 1e-15 * (
            abs(want[0]) + abs(want[1]))

    def test_nabla_broadcasts_array_x_against_scalar_s(self):
        x = np.array([0.5, 2.0, 3.0])
        got = _rho_pair(x, 1.0, 0.5 + 2.0j)
        assert got.shape == x.shape
        for xi, g in zip(x, got):
            _close(g, _rho_pair(float(xi), 1.0, 0.5 + 2.0j), rel=1e-14)


def _xi_side_rows(monkeypatch, alpha, z, s):
    """The kernel rows one identities._xi_side call at c = k = 1/2 makes
    at t = (s - 1/2)/(i/2), with the shapes of the hyp1f1 calls behind
    them."""
    from xiverify import identities, quad
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
