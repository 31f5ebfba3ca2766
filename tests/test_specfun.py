"""Special-function building blocks against frozen multiprecision values.

Reference numbers were computed with mpmath at 30+ significant digits and
are quoted to 17 digits; comparisons run at a few ulps above what float64
evaluation can honestly deliver.
"""

import functools
import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xiverify import quad, specfun
from xiverify.specfun import (_SERIES_MAX_TERMS, _SERIES_RELTOL,
                              EULER_GAMMA, _hyp_series, besselk0,
                              besselk0_scaled, digamma, hyp1f1, hyp2f2_11,
                              lngamma, mobius_sieve, zeta, zeta_and_prime)

# 240 log-spaced arguments over K0's tested range
K0_GRID = np.geomspace(1e-3, 1e7, 240)


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
        _close(np.exp(lngamma(0.5)), math.sqrt(math.pi), rel=1e-14)

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
        # real x only; numpy would drop the imaginary part with a warning
        for x in (5.5 + 2.0j, np.array([1.0, 2.0 + 0.5j])):
            with pytest.raises(ValueError, match="digamma: argument must be "
                               "real"):
                digamma(x)

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

    @pytest.mark.parametrize("fn", [zeta, zeta_and_prime],
                             ids=["zeta", "zeta_and_prime"])
    def test_refuses_left_of_the_critical_line(self, fn):
        # every point the package evaluates lies in Re s >= 1/2
        for s in (0.3 + 5.0j, -3.7, np.array([0.5, 0.4999 + 2.0j])):
            with pytest.raises(ValueError, match=fn.__name__
                               + r": Re s < 1/2 outside the working range"):
                fn(s)

    def test_and_prime_matches_zeta_bit_for_bit(self):
        # the same batch gives the same term count, so the same zeta
        s = np.array([0.5 + 14.1j, 0.5 + 236.5j, 2.0, 1.0 + 5e-4, 3.0 - 7.0j])
        value, deriv = zeta_and_prime(s)
        assert np.array_equal(value, zeta(s))
        assert zeta_and_prime(2.0)[0] == zeta(2.0)
        for d, w in zip(deriv, s):
            _close(d, complex(mpmath.zeta(complex(w), derivative=1)),
                   rel=1e-11)

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


def _inplace_hyp_series(name, num, den, z):
    """The in-place Taylor loop as it stood before _hyp_series scaled by
    1/d for a real divisor d, dividing term by the complex d, frozen as
    its bit-level reference for every shape, 0-d and one-entry included:
    its products take the same numpy paths as _hyp_series' own."""
    num = [np.asarray(a, np.complex128)[()] for a in num]
    den = [np.asarray(c, np.complex128)[()] for c in den]
    z = np.asarray(z, np.complex128)[()]
    shape = np.broadcast_shapes(*map(np.shape, num), *map(np.shape, den),
                                np.shape(z))
    term = np.ones(shape, dtype=np.complex128)
    total = term.copy()
    step = np.empty_like(term)
    mag = np.empty(shape)
    bound = np.empty(shape)
    slow = 0
    witness_tol = 2.0 * _SERIES_RELTOL
    for n in range(_SERIES_MAX_TERMS):
        for a in num:
            np.add(a, n, out=step)
            term *= step
        term *= z
        d = n + 1.0
        for c in den:
            d = (c + n) * d
        term /= d
        total += term
        if abs(term.item(slow)) >= witness_tol * max(abs(total.item(slow)),
                                                     1e-300):
            continue
        np.abs(total, out=bound)
        np.maximum(bound, 1e-300, out=bound)
        bound *= _SERIES_RELTOL
        np.abs(term, out=mag)
        if (mag < bound).all():
            return total
        slow = int(np.divide(mag, bound, out=mag).argmax())
    raise RuntimeError("reference series did not converge")


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


# the theta family's 1F1 parameters: a = (1 - s)/2 on the critical line
# and at 1 - s, c = 1/2, w = z^2/4 for z = 1, 2i, 1 + 0.5i
_S = 0.5 * (1.0 + 1j * np.linspace(0.0, 60.0, 65))
_A = 0.5 * (1.0 - np.concatenate([_S, 1.0 - _S]))


def _start_batch_a(c, k):
    """a = (1 - s)/2 at s = c +- ikt over the rule's 321 start nodes, in
    two rows: a Xi side's first 1F1 parameters on the line (c, k)."""
    from xiverify.xikernel import _line
    return 0.5 * (1.0 - _line(c, k, quad.start_nodes()))


# one w per draw (r, phase, kind, flip Re, flip Im): a point of the
# circle |w| = r, or r on an axis, or 0, with either sign of each part
_W_DRAWS = st.tuples(st.floats(0.0, 1.0), st.floats(-np.pi, np.pi),
                     st.sampled_from(["any", "real", "imag", "zero"]),
                     st.booleans(), st.booleans())


def _drawn_w(r, phase, kind, flip_re, flip_im):
    re, im = {"any": (r * math.cos(phase), r * math.sin(phase)),
              "real": (r, 0.0), "imag": (0.0, r), "zero": (0.0, 0.0)}[kind]
    return complex(-re if flip_re else re, -im if flip_im else im)


def _zero_sum_a(n):
    """a = (1 - s)/2 at s = 1/2 +- i gamma over the first n zeros, in
    two rows: a zero sum's 1F1 parameters."""
    gammas = np.array([
        14.134725141734693, 21.022039638771555, 25.010857580145688,
        30.424876125859513, 32.935061587739189, 37.586178158825671,
        40.918719012147495, 43.327073280914999, 48.005150265997457,
        49.773832477672302])[:n]
    return 0.5 * (1.0 - (0.5 + 1j * np.stack([gammas, -gammas])))


class TestHypSeriesLoop:
    @pytest.mark.parametrize("w", [0.25, 1.0, 0.1875 + 0.25j, 12.5 - 3.0j])
    def test_scalar_c_and_z(self, w):
        assert _same_bits(_hyp_series("hyp1f1", (_A,), (0.5,), w),
                          _broadcast_hyp_series(_A, 0.5, w))

    def test_array_z(self):
        z = np.linspace(0.0, 20.0, 41) * (1.0 + 0.3j)
        assert _same_bits(_hyp_series("hyp1f1", (-0.5,), (0.5,), z),
                          _broadcast_hyp_series(-0.5, 0.5, z))
        assert _same_bits(_hyp_series("hyp1f1", (_A[:41],), (0.5,), z),
                          _broadcast_hyp_series(_A[:41], 0.5, z))

    def test_all_scalar(self):
        # w is real: the reference's first 0-d complex product takes
        # another numpy path than its later scalar ones, and at complex w
        # the two can round a last bit differently (so can a one-entry
        # batch's); at real w every product is exact in both
        for a, w in ((0.25 - 1.5j, 0.25), (0.25 - 1.5j, 30.0),
                     (-7.5 + 40.0j, 2.0), (12.0, -50.0)):
            got = _hyp_series("hyp1f1", (a,), (0.5,), w)
            assert np.ndim(got) == 0
            assert _same_bits(got, _broadcast_hyp_series(a, 0.5, w))

    def test_slowest_entry_changes_mid_series(self):
        # entry 0 converges first, entry 1 (large a) is the slowest at
        # first and entry 2 (large z) from term 18 on, so the witness
        # entry moves twice before the series stops
        a = np.array([0.5, 30.0 - 40.0j, 0.25])
        z = np.array([0.1, 1.0, 6.0])
        term, total, slowest = np.ones(3, np.complex128), np.ones(3), []
        for n in range(40):
            term = term * (a + n) * z / (0.5 + n) / (n + 1.0)
            total = total + term
            slowest.append(int(np.argmax(np.abs(term) / np.abs(total))))
        assert slowest[0] == 1 and slowest[-1] == 2
        assert _same_bits(_hyp_series("hyp1f1", (a,), (0.5,), z),
                          _broadcast_hyp_series(a, 0.5, z))

    def test_zero_sum_batch(self):
        # a zero sum's rows: s = 1/2 +- i gamma over the first 10 zeros
        a = _zero_sum_a(10)
        for w in (0.25, 1.0 - 0.5j, 0.75 + 1.0j):
            got = _hyp_series("hyp1f1", (a,), (0.5,), w)
            assert got.shape == (2, 10)
            assert _same_bits(got, _broadcast_hyp_series(a, 0.5, w))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.lists(
               st.tuples(st.floats(-20.0, 20.0), st.floats(-60.0, 60.0)),
               min_size=2 * n, max_size=2 * n)),
           st.floats(0.0, 50.0), st.floats(-np.pi, np.pi))
    def test_random_rows_keep_their_bits(self, parts, r, phase):
        # two rows, as rho_series sums them, alone and as one group
        a = np.array([complex(x, y) for x, y in parts]).reshape(2, -1)
        w = r * complex(math.cos(phase), math.sin(phase))
        want = _broadcast_hyp_series(a, 0.5, w)
        assert _same_bits(_hyp_series("hyp1f1", (a,), (0.5,), w), want)
        assert _same_bits(_hyp_series("hyp1f1", (a[None],), (0.5,), w,
                                      grouped=True), want[None])

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([1, 2, 10]),
           st.lists(_W_DRAWS, min_size=1, max_size=12))
    def test_groups_keep_the_bits_of_one_w_rows(self, n, draws):
        # zero-sum rows over 1, 2 or 10 ordinates summed as the groups of
        # one series, each against its own w's series: Re w of both signs
        # (Kummer's branch both ways in one call), zero parts of either
        # sign, w = 0 and |w| up to 50; groups stop at their own terms
        ws = [_drawn_w(49.9 * r, *rest) for r, *rest in draws]
        a = _zero_sum_a(n)
        got = hyp1f1(a, 0.5, np.reshape(ws, (-1, 1, 1)), grouped=True)
        assert got.shape == (len(ws), 2, n)
        for w, rows in zip(ws, got):
            assert rows.tobytes() == hyp1f1(a, 0.5, w).tobytes(), w

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([(0.5, 0.5), (1.5, 0.5), (0.5, 1.0)]),
           st.lists(_W_DRAWS, min_size=1, max_size=8))
    # the group that stops first (w = 0, at its first term) is the last
    # one, the one that stops last the first; Kummer's branch both ways
    @example(line=(1.5, 0.5), draws=[(1.0, 2.0, "any", False, False),
                                     (0.1, 0.0, "real", True, False),
                                     (0.5, 1.0, "any", False, True),
                                     (0.0, 0.0, "zero", True, True)])
    @example(line=(0.5, 0.5), draws=[(0.25, 0.0, "imag", False, True)])
    def test_start_batch_groups_keep_the_bits_of_one_w_rows(self, line,
                                                            draws):
        # a Xi side's 2 x 321 start batch on each of the three lines,
        # grouped over w as the prepare steps group it, against one-w
        # series: Re w of both signs, zero parts of either sign, groups
        # stopping in any order, a single group
        ws = [_drawn_w(8.0 * r, *rest) for r, *rest in draws]
        a = _start_batch_a(*line)
        got = hyp1f1(a, 0.5, np.reshape(ws, (-1, 1, 1)), grouped=True)
        assert got.shape == (len(ws), 2, 321)
        for w, rows in zip(ws, got):
            assert rows.tobytes() == hyp1f1(a, 0.5, w).tobytes(), w

    def test_grouped_takes_one_z_per_group(self):
        with pytest.raises(ValueError, match="one z per group"):
            hyp1f1(_zero_sum_a(2), 0.5, np.ones((2, 2, 2)), grouped=True)

    def test_mixed_sign_branch_of_hyp1f1(self):
        z = np.linspace(-6.0, 6.0, 25) + 0.5j
        a = _A[:25]
        neg = z.real < 0.0
        direct = _broadcast_hyp_series(a, 0.5, np.where(neg, 0.0, z))
        flipped = np.exp(z) * _broadcast_hyp_series(
            0.5 - a, 0.5, np.where(neg, -z, 0.0))
        assert neg.any() and not neg.all()
        assert _same_bits(hyp1f1(a, 0.5, z), np.where(neg, flipped, direct))

    def test_mixed_sign_against_mpmath(self):
        z = np.linspace(-6.0, 6.0, 25) + 0.5j
        got = hyp1f1(_A[:25], 0.5, z)
        for g, a, w in zip(got, _A[:25], z):
            _close(g, mpmath.hyp1f1(complex(a), 0.5, complex(w)), rel=1e-14)

    @pytest.mark.parametrize("a,w", [
        (0.25 - 1.5j, 30.0 + 10.0j), (0.25 - 1.5j, 0.3153 + 0.949j),
        (-7.5 + 40.0j, -2.0 + 1.0j), (12.0, 25.0j), (0.5, 0.0)])
    def test_real_divisor_step_at_0d(self, a, w):
        # a 0-d term is scaled through the float view of its 1-entry
        # reshape, the aux checks' scalar calls
        got = _hyp_series("hyp1f1", (a,), (0.5,), w)
        assert np.ndim(got) == 0
        assert _same_bits(got, _inplace_hyp_series("hyp1f1", (a,), (0.5,),
                                                   w))

    def test_real_divisor_step_at_one_entry_and_complex_w(self):
        # one-entry batches, whose complex products numpy rounds by
        # another path than longer ones, and two-row batches at complex w
        rng = np.random.default_rng(5)
        for n in (1, 1, 1, 2, 3, 321):
            for _ in range(8):
                a = (rng.uniform(-20.0, 20.0, (2, n))
                     + 1j * rng.uniform(-60.0, 60.0, (2, n)))
                if n == 1:
                    a = a[0]
                w = complex(*rng.uniform(-35.0, 35.0, 2))
                assert _same_bits(
                    _hyp_series("hyp1f1", (a,), (0.5,), w),
                    _inplace_hyp_series("hyp1f1", (a,), (0.5,), w))
        a, w = np.array([1.0 + 0j]), 0.3153 + 0.949j
        assert _same_bits(_hyp_series("hyp1f1", (a,), (0.5,), w),
                          _inplace_hyp_series("hyp1f1", (a,), (0.5,), w))

    def test_complex_divisor_keeps_the_division(self):
        # c off the real axis, or an array of c, divides as before
        for c in (0.5 + 0.25j, np.array([0.5, 1.5])):
            for w in (2.0 - 1.0j, np.array([0.75j, 3.0])):
                assert _same_bits(
                    _hyp_series("hyp1f1", (0.25 - 1.5j,), (c,), w),
                    _inplace_hyp_series("hyp1f1", (0.25 - 1.5j,), (c,), w))

    @pytest.mark.parametrize("w", [0.25, 0.1875 + 0.25j, -3.0 + 4.0j,
                                   np.array([0.5, 2.0j, -1.0 + 1.0j]),
                                   np.array([1.0 - 1.0j])])
    def test_real_divisor_step_of_hyp2f2(self, w):
        # two real divisors, 3/2 + n and 2 + n, in one 1/d
        got = hyp2f2_11(w)
        want = _inplace_hyp_series("hyp2f2_11", (1, 1), (1.5, 2),
                                   np.asarray(w, np.complex128))
        assert _same_bits(got, want[()] if np.ndim(w) == 0 else want)

    def test_non_convergence_names_the_public_function(self, monkeypatch):
        monkeypatch.setattr(specfun, "_SERIES_MAX_TERMS", 3)
        with pytest.raises(ValueError, match="hyp1f1: series did not"):
            hyp1f1(0.5, 0.5, np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="hyp1f1: series did not"):
            hyp1f1(_zero_sum_a(2), 0.5, np.array([[[1e-9]], [[1.0]]]),
                   grouped=True)
        with pytest.raises(ValueError, match="hyp2f2_11: series did not"):
            hyp2f2_11(1.0)


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
        # own ids: the generated ones differ only past the 100th character
        # of the test's full name
        pytest.param(lambda: zeta_and_prime(np.nan), "zeta_and_prime",
                     id="zeta_and_prime-nan"),
        pytest.param(lambda: zeta_and_prime(complex(0.5, np.inf)),
                     "zeta_and_prime", id="zeta_and_prime-inf"),
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
    # |z| <= 10; away from the positive axis the terms cancel, and at
    # |z| = 10 there the series keeps 13 digits (6e-14 relative at 10i),
    # within the module's 1e-12 design accuracy
    @pytest.mark.parametrize("z,rel", [
        (0.25, 1e-14), (-0.0625, 1e-14), (1.0 + 1.0j, 1e-14),
        (-2.0 + 0.5j, 1e-14), (5.0j, 1e-14), (10.0, 1e-14),
        (3.0 - 4.0j, 1e-14), (7.0 + 7.0j, 1e-14),
        (-10.0, 1e-12), (10.0j, 1e-12), (-6.0 + 8.0j, 1e-12),
        (-7.0 - 7.0j, 1e-12)])
    def test_against_mpmath(self, z, rel):
        with mpmath.workdps(30):
            want = mpmath.hyp2f2(1, 1, 1.5, 2, z)
        _close(hyp2f2_11(z), want, rel=rel)

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

    def test_scaled_against_mpmath(self):
        with mpmath.workdps(40):
            want = np.array([float(mpmath.besselk(0, v) * mpmath.exp(v))
                             for v in map(mpmath.mpf, K0_GRID)])
        np.testing.assert_allclose(besselk0_scaled(K0_GRID), want,
                                   rtol=1e-15, atol=0.0)

    def test_unscaled_against_mpmath(self):
        x = K0_GRID[K0_GRID <= 700.0]
        with mpmath.workdps(40):
            want = np.array([float(mpmath.besselk(0, v))
                             for v in map(mpmath.mpf, x)])
        np.testing.assert_allclose(besselk0(x), want, rtol=1e-15, atol=0.0)

    def test_batch_matches_scalar_calls(self):
        # a batch takes the step count of its smallest x, so rows can
        # differ from one-x calls, but by a few ulps at most
        for fn in (besselk0, besselk0_scaled):
            batch = fn(K0_GRID)
            single = np.array([fn(float(x)) for x in K0_GRID])
            np.testing.assert_allclose(batch, single, rtol=1e-15, atol=0.0)

    def test_working_range_lower_end(self):
        assert np.isfinite(besselk0(1e-12))
        for fn in (besselk0, besselk0_scaled):
            name = fn.__name__
            with pytest.raises(ValueError, match=name + ": .*working range"):
                fn(9e-13)
            with pytest.raises(ValueError, match=name + ": .*working range"):
                fn(np.array([1.0, 1e-13]))

    def test_nonpositive_raises(self):
        with pytest.raises(ValueError):
            besselk0(0.0)
        with pytest.raises(ValueError):
            besselk0_scaled(-1.0)
        with pytest.raises(ValueError):
            besselk0(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            besselk0_scaled(np.inf)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.05, 30.0), st.floats(0.05, 30.0))
    def test_monotone_decreasing(self, a, b):
        lo, hi = min(a, b), max(a, b)
        if hi - lo > 1e-9:
            assert besselk0(lo) > besselk0(hi)


@functools.lru_cache(maxsize=None)
def _trial_division_mobius(limit=10 ** 5):
    """mu(0..limit) by trial division of each n, mu(0) = 0."""
    mu = [0] * (limit + 1)
    for n in range(1, limit + 1):
        m, sign, p = n, 1, 2
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    sign = 0
                    break
                sign = -sign
            p += 1
        if sign and m > 1:
            sign = -sign
        mu[n] = sign
    return np.array(mu, dtype=np.int8)


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

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 10, 97, 100, 101, 10 ** 4,
                                   10 ** 5])
    def test_sieve_matches_trial_division(self, N):
        # 97 and 101 are primes just under and over a square, 100 a
        # square; every table is a prefix of the trial-division one
        np.testing.assert_array_equal(mobius_sieve.__wrapped__(N).values,
                                      _trial_division_mobius()[:N + 1])

    def test_squarefree_fields(self, mobius_10k):
        t = mobius_10k
        k = np.flatnonzero(t.values)
        np.testing.assert_array_equal(t.squarefree, k)
        np.testing.assert_array_equal(t.n, k.astype(np.float64))
        np.testing.assert_array_equal(t.mu_over_n, t.values[k] / t.n)
        np.testing.assert_array_equal(t.inv_n2, 1.0 / (t.n * t.n))
        for arr in (t.squarefree, t.n, t.mu_over_n, t.inv_n2):
            assert not arr.flags.writeable

    def test_euler_gamma_constant(self):
        assert EULER_GAMMA == pytest.approx(0.5772156649015329, abs=1e-16)
