"""Adaptive Gauss-Kronrod quadrature on the four contour shapes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xiverify import quad
from xiverify.quad import (QuadratureResult, integrate_log_singular,
                           integrate_real_line, integrate_semi_infinite,
                           integrate_vertical_line,
                           integrate_zero_one_logsafe)
from xiverify.specfun import hyp1f1, lngamma

SQRT_PI = math.sqrt(math.pi)


def test_gaussian_half_line():
    res = integrate_semi_infinite(lambda t: np.exp(-t * t), 1e-12, 1.0)
    assert abs(res.value - 0.5 * SQRT_PI) <= 1e-12
    assert res.abs_error <= 1e-12
    assert res.evaluations > 0
    assert res.truncation_T > 0.0


@pytest.mark.parametrize("alpha,z", [(1.0, 0.5), (2.0, 1.0 + 0.5j)])
def test_gaussian_cosine_closed_form(alpha, z):
    # int_0^inf e^(-pi a^2 t^2) cos(sqrt(pi) a t z) dt = e^(-z^2/4)/(2a)
    def f(t):
        return np.exp(-np.pi * alpha ** 2 * t * t) \
            * np.cos(SQRT_PI * alpha * t * z)

    res = integrate_semi_infinite(f, 1e-12, 2.0 * alpha * alpha)
    want = np.exp(-z * z / 4.0) / (2.0 * alpha)
    assert abs(res.value - want) <= max(res.abs_error, 1e-12)


def test_gaussian_cosine_first_moment():
    # the t-weighted variant picks up a terminating 1F1
    alpha, z = 1.0, 0.5

    def f(t):
        return t * np.exp(-np.pi * alpha ** 2 * t * t) \
            * np.cos(SQRT_PI * alpha * t * z)

    res = integrate_semi_infinite(f, 1e-12, 2.0)
    want = (np.exp(-z * z / 4.0) / (2.0 * np.pi * alpha ** 2)
            * complex(hyp1f1(-0.5, 0.5, z * z / 4.0)))
    assert abs(res.value - want) <= max(res.abs_error, 1e-12)


def test_damped_oscillation():
    res = integrate_semi_infinite(lambda t: np.exp(-t) * np.cos(5.0 * t),
                                  1e-11, 1.0)
    assert abs(res.value - 1.0 / 26.0) <= 1e-11


def test_wrong_decay_hint_is_recovered():
    # the tail-sampling pass must extend T when the hint is too optimistic
    res = integrate_semi_infinite(lambda t: np.exp(-0.5 * t), 1e-10, 5.0)
    assert abs(res.value - 2.0) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(st.floats(0.1, 10.0))
def test_scaling_linearity(c):
    res = integrate_semi_infinite(lambda t: c * np.exp(-t * t), 1e-11, 1.0)
    assert abs(res.value - c * 0.5 * SQRT_PI) <= 1e-10 * max(1.0, c)


def test_real_line_gaussian():
    res = integrate_real_line(lambda t: np.exp(-t * t), 1e-12, 1.0)
    assert abs(res.value - SQRT_PI) <= 1e-12


def test_real_line_sech():
    res = integrate_real_line(lambda t: 1.0 / np.cosh(t), 1e-11, 1.0)
    assert abs(res.value - np.pi) <= 1e-11


def test_real_line_shifted_gaussian():
    # the fold pairs f(t) with f(-t); off-centre mass must still total sqrt(pi)
    res = integrate_real_line(lambda t: np.exp(-(t - 1.0) ** 2), 1e-12, 1.0)
    assert abs(res.value - SQRT_PI) <= 1e-12
    assert res.abs_error <= 1e-12


def test_real_line_odd_integrand_vanishes():
    res = integrate_real_line(lambda t: t * np.exp(-t * t), 1e-12, 1.0)
    assert res.value == 0.0


def test_vertical_line_inverse_mellin():
    # (1/(2 pi i)) int_{Re s = 1} (1/2) Gamma(s/2) e^(-1/4)
    #   1F1((1-s)/2; 1/2; 1/4) 2^(-s) ds = e^(-4) cos 2
    def g(s):
        return (0.5 * np.exp(lngamma(0.5 * s)) * np.exp(-0.25)
                * hyp1f1(0.5 * (1.0 - s), 0.5, 0.25) * np.exp(-s * np.log(2.0)))

    res = integrate_vertical_line(g, 1.0, 1e-11, np.pi / 8.0)
    value = res.value / (2j * np.pi)
    want = math.exp(-4.0) * math.cos(2.0)
    assert abs(value - want) <= 1e-9


class TestLogSafe:
    def test_log(self):
        res = integrate_zero_one_logsafe(np.log, 1e-12)
        assert abs(res.value + 1.0) <= 1e-12

    def test_x_log(self):
        res = integrate_zero_one_logsafe(lambda x: x * np.log(x), 1e-12)
        assert abs(res.value + 0.25) <= 1e-12

    def test_log_squared(self):
        res = integrate_zero_one_logsafe(lambda x: np.log(x) ** 2, 1e-12)
        assert abs(res.value - 2.0) <= 1e-11


class TestLogSingular:
    EULER_GAMMA = 0.5772156649015329

    @pytest.mark.parametrize("g,rate,want", [
        # int_0^inf log x e^(-x) dx = -gamma
        (lambda x: np.log(x) * np.exp(-x), 1.0, -EULER_GAMMA),
        # int_0^inf log x e^(-x^2) dx = -(sqrt(pi)/4)(gamma + 2 log 2)
        (lambda x: np.log(x) * np.exp(-x * x), 1.0,
         -(SQRT_PI / 4.0) * (EULER_GAMMA + 2.0 * math.log(2.0))),
    ])
    def test_closed_forms(self, g, rate, want):
        res = integrate_log_singular(g, 1e-12, rate)
        observed = abs(res.value - want)
        assert observed <= 1e-14
        assert res.abs_error >= observed
        assert res.abs_error <= 1e-12

    def test_pieces_are_summed(self):
        g = lambda x: np.log(x) * np.exp(-x)
        res = integrate_log_singular(g, 1e-10, 1.0)
        near = integrate_zero_one_logsafe(g, 0.5e-10)
        far = integrate_semi_infinite(lambda u: g(u + 1.0), 0.5e-10, 1.0)
        assert res.value == near.value + far.value
        assert res.abs_error == near.abs_error + far.abs_error
        assert res.evaluations == near.evaluations + far.evaluations
        assert res.truncation_T == 1.0 + far.truncation_T


def test_budget_exhaustion_raises():
    # a chirp needs far more panels than the evaluation budget allows
    with pytest.raises(ValueError):
        integrate_semi_infinite(lambda t: np.cos(80.0 * t * t) * np.exp(-t),
                                1e-12, 1.0)


def test_zero_integrand_same_truncation_on_both_routes():
    zero = lambda t: np.zeros_like(t)
    half = integrate_semi_infinite(zero, 1e-10, 1.0)
    whole = integrate_real_line(zero, 1e-10, 1.0)
    assert half.value == 0.0 and whole.value == 0.0
    assert half.truncation_T == whole.truncation_T


def test_tail_error_quotes_the_tail_target():
    tol = 1e-8
    with pytest.raises(ValueError) as info:
        integrate_semi_infinite(lambda t: np.exp(-0.01 * t), tol, 1.0)
    assert "needs <= %.3e" % (quad._TAIL_SHARE * tol) in str(info.value)


def test_result_fields():
    # evaluations counts every abscissa the integrand sees on each route:
    # truncation probes and tail checks as well as the Kronrod panels
    # (267, 459 and 459 here, none of them whole 15-point panels)
    points = []

    def f(t):
        points.append(np.size(t))
        return np.exp(-t * t)

    for integrate in (
            lambda: integrate_semi_infinite(f, 1e-10, 1.0),
            lambda: integrate_real_line(f, 1e-10, 1.0),
            lambda: integrate_vertical_line(lambda s: f(-1j * (s - 0.5)),
                                            0.5, 1e-10, 1.0)):
        points.clear()
        res = integrate()
        assert isinstance(res, QuadratureResult)
        assert res.evaluations == sum(points)
        assert res.truncation_T >= 10.0
        assert res.abs_error < 1e-10


def test_complex_valued_integrand():
    res = integrate_semi_infinite(lambda t: np.exp(-t) * np.exp(2j * t),
                                  1e-11, 1.0)
    want = 1.0 / (1.0 - 2j)
    assert abs(res.value - want) <= 1e-10


def _sequential_truncation(amp, tol, rate):
    """The one-step-per-call truncation ladder, frozen as the reference
    for quad._truncation_point; returns (T, tail, ladder steps)."""
    probe_t = np.linspace(0.25, 25.0, 24)
    probe = amp(probe_t)
    m = float(probe.max())
    T = 10.0
    if m > 0.0:
        t_at = float(probe_t[int(probe.argmax())])
        T = t_at + np.log(max(10.0 * m / (tol * rate), 2.0)) / rate
    T = min(max(T, 10.0), quad._T_CAP)
    steps = 0
    while True:
        tail = float(np.max(amp(T * np.array([0.92, 0.96, 1.0])))) / rate
        steps += 1
        if tail <= quad._TAIL_SHARE * tol:
            return T, tail, steps
        if T >= quad._T_CAP:
            raise ValueError(
                "quadrature: integrand tail still %.3e at T = %g "
                "(needs <= %.3e); decay hint %.3g looks wrong"
                % (tail, T, quad._TAIL_SHARE * tol, rate))
        T = min(1.25 * T, quad._T_CAP)


class TestTruncationLadder:
    # |f| flat up to L, then e^(-3 (t - L)): the seed (21.0 here) is
    # blind to L, so L sets how many 25% steps the ladder climbs
    @staticmethod
    def _amp(L, calls):
        def amp(t):
            calls.append(np.size(t))
            return np.exp(-3.0 * np.maximum(t - L, 0.0))
        return amp

    @pytest.mark.parametrize("L,steps,amp_calls", [
        (5.0, 1, 2), (15.0, 2, 2), (22.0, 3, 2), (35.0, 5, 3)])
    def test_same_point_as_one_step_at_a_time(self, L, steps, amp_calls):
        ref_calls, calls = [], []
        T_ref, tail_ref, n = _sequential_truncation(
            self._amp(L, ref_calls), 1e-8, 1.0)
        assert n == steps
        T, tail, points = quad._truncation_point(self._amp(L, calls),
                                                 1e-8, 1.0)
        assert (T, tail) == (T_ref, tail_ref)
        assert len(calls) == amp_calls
        assert points == sum(calls)

    def test_cap_error_message_unchanged(self):
        flat = lambda t: np.ones_like(t)
        with pytest.raises(ValueError) as want:
            _sequential_truncation(flat, 1e-8, 1.0)
        with pytest.raises(ValueError) as got:
            quad._truncation_point(flat, 1e-8, 1.0)
        assert str(got.value) == str(want.value)
        assert "T = %g" % quad._T_CAP in str(got.value)

    def test_real_line_calls_f_once_per_folded_batch(self, monkeypatch):
        # every batch the truncation ladder samples reaches f as one call
        # on the stacked [t, -t], and its amplitude is |f(t) + f(-t)|
        f_args, batches = [], []
        real = quad._truncation_point

        def g(t):
            return np.exp(-t * t + 0.5 * t)

        def spy(folded, tol, rate):
            def counted(ts):
                before = len(f_args)
                out = folded(ts)
                batches.append(len(f_args) - before)
                assert np.array_equal(f_args[-1], np.concatenate([ts, -ts]))
                assert np.array_equal(out, g(ts) + g(-ts))
                return out
            return real(counted, tol, rate)

        def f(t):
            f_args.append(t.copy())
            return g(t)

        monkeypatch.setattr(quad, "_truncation_point", spy)
        res = integrate_real_line(f, 1e-10, 1.0)
        assert batches and set(batches) == {1}
        assert res.evaluations == sum(np.size(t) for t in f_args)


class TestTabulatedRule:
    """The nested double-exponential rule on shared node tables."""

    START, FINEST = 321, 1281  # nodes up to _DE_START and _DE_FINEST

    def test_levels_nest_into_one_trapezoid_grid(self):
        # levels 0..L together are t = exp(u - e^(-u)) at u = lo + k h_L,
        # each node once and the same double at every level
        for L in range(quad._DE_FINEST + 1):
            t = np.sort(np.concatenate([quad._de_batch(j)[0]
                                        for j in range(L + 1)]))
            h = quad._DE_H0 / 2 ** L
            u = quad._DE_U_LO + h * np.arange(
                round((quad._DE_U_HI - quad._DE_U_LO) / h) + 1.0)
            assert np.array_equal(t, np.exp(u - np.exp(-u)))
        sizes = [quad._de_batch(j)[0].size
                 for j in range(quad._DE_FINEST + 1)]
        assert sum(sizes[:quad._DE_START + 1]) == self.START
        assert sum(sizes) == self.FINEST

    @pytest.mark.parametrize("b", [0.0, 1.0, 3.0])
    def test_exponential_cosine(self, b):
        # int_0^inf e^(-t) cos(b t) dt = 1/(1 + b^2), at the start step
        table = quad.NodeTable(lambda t: np.exp(-t))
        res = quad.integrate_tabulated(lambda t: np.cos(b * t), table, 1e-12)
        assert abs(res.value - 1.0 / (1.0 + b * b)) <= 1e-14
        assert res.abs_error <= 1e-12
        assert res.evaluations == self.START
        assert res.truncation_T == quad._de_batch(0)[0][-1]

    def test_endpoint_singularity(self):
        # int_0^inf t^(-1/2) e^(-t) dt = sqrt(pi): the map clusters nodes
        # at 0 double exponentially
        table = quad.NodeTable(lambda t: np.exp(-t) / np.sqrt(t))
        res = quad.integrate_tabulated(np.ones_like, table, 1e-12)
        assert abs(res.value - SQRT_PI) <= 1e-14

    def test_rows_are_summed(self):
        table = quad.NodeTable(lambda t: np.stack([np.exp(-t),
                                                   2.0 * np.exp(-t)]))
        res = quad.integrate_tabulated(np.ones_like, table, 1e-12)
        assert abs(res.value - 3.0) <= 1e-14

    def test_refines_one_level_per_kernel_call(self):
        # cos(10 t) outruns the start step and needs the finest; each
        # finer level is one more kernel call on the nodes it adds
        calls = []

        def kernel(t):
            calls.append(t.size)
            return np.cos(10.0 * t)

        table = quad.NodeTable(lambda t: np.exp(-t))
        res = quad.integrate_tabulated(kernel, table, 1e-12)
        assert calls == [self.START, 320, 640]
        assert res.evaluations == self.FINEST
        assert abs(res.value - 1.0 / 101.0) <= res.abs_error <= 1e-12

    def test_finest_step_fails_fast_and_names_its_estimate(self):
        # a kernel that cancels the weight's decay leaves the ends of the
        # range far from 0: the rule stops at its finest step
        calls = []

        def kernel(t):
            calls.append(t.size)
            return np.exp(0.99 * t)

        table = quad.NodeTable(lambda t: np.exp(-t))
        with pytest.raises(ValueError, match=(
                r"^quad: double-exponential rule at its finest step "
                r"h = 1/128 \(1281 nodes\) estimates error \S+ "
                r"\(tol 1\.000e-08\)$")):
            quad.integrate_tabulated(kernel, table, 1e-8)
        assert sum(calls) == self.FINEST and len(calls) == 3

    def test_weight_tabulated_once_per_level(self):
        calls = []

        def weight(t):
            calls.append(t.size)
            return np.exp(-t)

        table = quad.NodeTable(weight)
        for b in (1.0, 2.0):
            quad.integrate_tabulated(lambda t: np.cos(b * t), table, 1e-12)
        assert calls == [161, 160]

    def test_derived_table_is_built_from_its_base(self):
        base_calls = []

        def base_weight(t):
            base_calls.append(t.size)
            return np.exp(-t)

        base = quad.NodeTable(base_weight)
        derived = base.derive(lambda t, w: w / (1.0 + t * t))
        quad.integrate_tabulated(np.ones_like, derived, 1e-12)
        quad.integrate_tabulated(np.ones_like, base, 1e-12)
        assert base_calls == [161, 160]
        for level in (0, 1):
            t, jac, w = derived.batch(level)
            assert np.array_equal(w, base.batch(level)[2] / (1.0 + t * t))
        t = np.array([0.5, 2.0])
        assert np.array_equal(derived(t), np.exp(-t) / (1.0 + t * t))


class TestNarrowPeakAtZero:
    """Probes that all read 0 move toward 0 before T is seeded."""

    @pytest.mark.parametrize("a", [1e3, 1e4, 1e5])
    def test_narrow_gaussian(self, a):
        # int_0^inf e^(-pi a^2 t^2) dt = 1/(2a); every probe on (0, 25]
        # reads 0, and the hint pi a^2 holds from t = 1 on
        res = integrate_semi_infinite(
            lambda t: np.exp(-np.pi * a * a * t * t), 1e-12,
            np.pi * a * a)
        assert abs(res.value - 0.5 / a) <= max(res.abs_error, 1e-15)
        assert res.truncation_T < 1.0

    def test_probes_that_see_the_integrand_do_not_move(self):
        # the rule as before wherever a probe on (0, 25] is nonzero
        points = []

        def f(t):
            points.append(np.size(t))
            return np.exp(-t * t)

        quad._truncation_point(f, 1e-10, 1.0)
        assert points[0] == 24 and len(points) == 2
