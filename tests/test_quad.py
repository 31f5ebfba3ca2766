"""The double-exponential rule on shared node tables, against closed forms.

Every integral is w(t) kernel(t) over [0, infinity) with w tabulated in a
quad.NodeTable.  A plain integrand is a kernel against a table of ones; a
whole-line integrand folds onto the half line as two rows, f(t) and
f(-t); a vertical line is a whole line in its imaginary coordinate.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xiverify import quad
from xiverify.quad import QuadratureResult, integrate_tabulated
from xiverify.specfun import hyp1f1, lngamma

SQRT_PI = math.sqrt(math.pi)
EULER_GAMMA = 0.5772156649015329
ONES = quad.NodeTable(np.ones_like)
LAST_NODE = quad._de_batch(0)[0][-1]  # 243.7


def half_line(f, tol):
    return integrate_tabulated(f, ONES, tol)


def real_line(f, tol):
    return integrate_tabulated(lambda t: f(np.stack([t, -t])), ONES, tol)


def vertical_line(g, c, tol):
    """int g(s) ds upward along Re s = c: ds = i du on s = c + iu."""
    res = real_line(lambda u: g(c + 1j * u), tol)
    return 1j * res.value


def test_gaussian_half_line():
    res = half_line(lambda t: np.exp(-t * t), 1e-12)
    assert abs(res.value - 0.5 * SQRT_PI) <= 1e-12
    assert res.abs_error <= 1e-12
    assert res.evaluations > 0
    assert res.truncation_T == LAST_NODE


@pytest.mark.parametrize("alpha,z", [(1.0, 0.5), (2.0, 1.0 + 0.5j)])
def test_gaussian_cosine_closed_form(alpha, z):
    # int_0^inf e^(-pi a^2 t^2) cos(sqrt(pi) a t z) dt = e^(-z^2/4)/(2a)
    def f(t):
        return np.exp(-np.pi * alpha ** 2 * t * t) \
            * np.cos(SQRT_PI * alpha * t * z)

    res = half_line(f, 1e-12)
    want = np.exp(-z * z / 4.0) / (2.0 * alpha)
    assert abs(res.value - want) <= max(res.abs_error, 1e-12)


def test_gaussian_cosine_first_moment():
    # the t-weighted variant picks up a terminating 1F1
    alpha, z = 1.0, 0.5

    def f(t):
        return t * np.exp(-np.pi * alpha ** 2 * t * t) \
            * np.cos(SQRT_PI * alpha * t * z)

    res = half_line(f, 1e-12)
    want = (np.exp(-z * z / 4.0) / (2.0 * np.pi * alpha ** 2)
            * complex(hyp1f1(-0.5, 0.5, z * z / 4.0)))
    assert abs(res.value - want) <= max(res.abs_error, 1e-12)


def test_damped_oscillation():
    res = half_line(lambda t: np.exp(-t) * np.cos(5.0 * t), 1e-11)
    assert abs(res.value - 1.0 / 26.0) <= 1e-11


def test_slow_decay_needs_no_hint():
    # e^(-t/2) is still 1e-53 of its peak at the last node
    res = half_line(lambda t: np.exp(-0.5 * t), 1e-10)
    assert abs(res.value - 2.0) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(st.floats(0.1, 10.0))
def test_scaling_linearity(c):
    res = half_line(lambda t: c * np.exp(-t * t), 1e-11)
    assert abs(res.value - c * 0.5 * SQRT_PI) <= 1e-10 * max(1.0, c)


def test_real_line_gaussian():
    res = real_line(lambda t: np.exp(-t * t), 1e-12)
    assert abs(res.value - SQRT_PI) <= 1e-12


def test_real_line_sech():
    res = real_line(lambda t: 1.0 / np.cosh(t), 1e-11)
    assert abs(res.value - np.pi) <= 1e-11


def test_real_line_shifted_gaussian():
    # the fold pairs f(t) with f(-t); off-centre mass must still total sqrt(pi)
    res = real_line(lambda t: np.exp(-(t - 1.0) ** 2), 1e-12)
    assert abs(res.value - SQRT_PI) <= 1e-12
    assert res.abs_error <= 1e-12


def test_real_line_odd_integrand_vanishes():
    res = real_line(lambda t: t * np.exp(-t * t), 1e-12)
    assert res.value == 0.0


def test_vertical_line_inverse_mellin():
    # (1/(2 pi i)) int_{Re s = 1} (1/2) Gamma(s/2) e^(-1/4)
    #   1F1((1-s)/2; 1/2; 1/4) 2^(-s) ds = e^(-4) cos 2
    def g(s):
        return (0.5 * np.exp(lngamma(0.5 * s)) * np.exp(-0.25)
                * hyp1f1(0.5 * (1.0 - s), 0.5, 0.25) * np.exp(-s * np.log(2.0)))

    value = vertical_line(g, 1.0, 1e-11) / (2j * np.pi)
    want = math.exp(-4.0) * math.cos(2.0)
    assert abs(value - want) <= 1e-9


class TestLogSafe:
    # int_0^1 g(x) dx with a log singularity at 0, as the half-line
    # integral of g(e^(-u)) against the weight e^(-u)
    EXP = quad.NodeTable(lambda u: np.exp(-u))

    def zero_one(self, g, tol):
        return integrate_tabulated(lambda u: g(np.exp(-u)), self.EXP, tol)

    def test_log(self):
        res = self.zero_one(np.log, 1e-12)
        assert abs(res.value + 1.0) <= 1e-12

    def test_x_log(self):
        res = self.zero_one(lambda x: x * np.log(x), 1e-12)
        assert abs(res.value + 0.25) <= 1e-12

    def test_log_squared(self):
        res = self.zero_one(lambda x: np.log(x) ** 2, 1e-12)
        assert abs(res.value - 2.0) <= 1e-11


class TestLogSingular:
    # the weight log t against a kernel: the nodes cluster at t = 0
    # double exponentially, so the singularity needs no split
    LOG = quad.NodeTable(np.log)

    @pytest.mark.parametrize("kernel,want", [
        # int_0^inf log x e^(-x) dx = -gamma
        (lambda x: np.exp(-x), -EULER_GAMMA),
        # int_0^inf log x e^(-x^2) dx = -(sqrt(pi)/4)(gamma + 2 log 2)
        (lambda x: np.exp(-x * x),
         -(SQRT_PI / 4.0) * (EULER_GAMMA + 2.0 * math.log(2.0))),
    ])
    def test_closed_forms(self, kernel, want):
        res = integrate_tabulated(kernel, self.LOG, 1e-12)
        observed = abs(res.value - want)
        assert observed <= 1e-14
        assert res.abs_error >= observed
        assert res.abs_error <= 1e-12


def test_budget_exhaustion_raises():
    # a chirp outruns the finest step
    with pytest.raises(ValueError, match="^quad: "):
        half_line(lambda t: np.cos(80.0 * t * t) * np.exp(-t), 1e-12)


def test_zero_integrand_same_truncation_on_both_routes():
    zero = lambda t: np.zeros_like(t)
    half = half_line(zero, 1e-10)
    whole = real_line(zero, 1e-10)
    assert half.value == 0.0 and whole.value == 0.0
    assert half.truncation_T == whole.truncation_T == LAST_NODE
    assert half.evaluations == whole.evaluations


def test_tail_error_quotes_the_tail_target():
    # e^(-t/100) is still 0.09 at the last node: the rule raises, naming
    # the target it missed, tol (1 + |value|), with value near 91.3, the
    # integral up to the last node
    tol = 1e-8
    with pytest.raises(ValueError) as info:
        half_line(lambda t: np.exp(-0.01 * t), tol)
    target = re.search(r"\(target (\S+) = tol %.3e \(1 \+ \|value\|\)\)$"
                       % tol, str(info.value))
    assert 92.0 * tol < float(target.group(1)) < 92.5 * tol


def test_result_fields():
    # evaluations counts the nodes passed to the kernel on each route;
    # a whole line passes each node once, t and -t as two rows
    points = []

    def f(t):
        points.append(np.shape(t)[-1])
        return np.exp(-t * t)

    for integrate in (lambda: half_line(f, 1e-10),
                      lambda: real_line(f, 1e-10)):
        points.clear()
        res = integrate()
        assert isinstance(res, QuadratureResult)
        # plain Python types, not numpy scalars, so reports stay JSON-ready
        fields = (res.value, res.abs_error, res.evaluations, res.truncation_T)
        assert [type(v) for v in fields] == [complex, float, int, float]
        assert res.evaluations == sum(points)
        assert res.truncation_T == LAST_NODE
        assert res.abs_error < 1e-10


def test_complex_valued_integrand():
    res = half_line(lambda t: np.exp(-t) * np.exp(2j * t), 1e-11)
    want = 1.0 / (1.0 - 2j)
    assert abs(res.value - want) <= 1e-10


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
                r"\(target \S+ = tol 1\.000e-08 \(1 \+ \|value\|\)\)$")):
            quad.integrate_tabulated(kernel, table, 1e-8)
        assert sum(calls) == self.FINEST and len(calls) == 3

    def test_target_is_relative_to_the_value(self):
        # 1e8 e^(-t): the rounding allowance alone, four ulps of the
        # summed terms, is near 1e-7, above an absolute 1e-12, but the
        # target tol (1 + |value|) is 1e-4, met at the starting step
        table = quad.NodeTable(lambda t: 1e8 * np.exp(-t))
        res = quad.integrate_tabulated(np.ones_like, table, 1e-12)
        assert 1e-12 < res.abs_error <= 1e-12 * (1.0 + abs(res.value))
        assert res.evaluations == self.START
        assert abs(res.value - 1e8) <= 1e-12 * 1e8

    def test_weight_tabulated_once_per_level(self):
        calls = []

        def weight(t):
            calls.append(t.size)
            return np.exp(-t)

        table = quad.NodeTable(weight)
        for b in (1.0, 2.0):
            quad.integrate_tabulated(lambda t: np.cos(b * t), table, 1e-12)
        assert calls == [161, 160]

    def test_node_only_arrays_are_kept(self):
        # the first kernel call's nodes, one array per start level, and
        # each level's w dt/du are formed once, read-only, to the bits
        # every call formed before
        for start in range(quad._DE_FINEST + 1):
            nodes = quad._de_start_nodes(start)
            assert nodes is quad._de_start_nodes(start)
            assert not nodes.flags.writeable
            assert nodes.tobytes() == np.concatenate(
                [quad._de_batch(L)[0] for L in range(start + 1)]).tobytes()
        table = quad.NodeTable(lambda t: np.stack([np.exp(-t), 1j * t]))
        for level in range(quad._DE_FINEST + 1):
            t, jw, w = table.batch(level)
            assert jw is table.batch(level)[1] and not jw.flags.writeable
            assert jw.tobytes() == (quad._de_batch(level)[1] * w).tobytes()

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
            t, _, w = derived.batch(level)
            assert np.array_equal(w, base.batch(level)[2] / (1.0 + t * t))
        t = np.array([0.5, 2.0])
        assert np.array_equal(derived(t), np.exp(-t) / (1.0 + t * t))


class TestNarrowPeakAtZero:
    """The nodes cluster at 0, so a peak far narrower than 1 is seen."""

    @pytest.mark.parametrize("a", [1e3, 1e4, 1e5])
    def test_narrow_gaussian(self, a):
        # int_0^inf e^(-pi a^2 t^2) dt = 1/(2a)
        res = half_line(lambda t: np.exp(-np.pi * a * a * t * t), 1e-12)
        assert abs(res.value - 0.5 / a) <= max(res.abs_error, 1e-15)
