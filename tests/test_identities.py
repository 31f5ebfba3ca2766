"""End-to-end identity verification: each side by its own route.

Frozen side values are 25-30 digit mpmath evaluations of one side only;
the package must then agree with itself across all sides and with the
reference where one is pinned.
"""

import math

import numpy as np
import pytest

from xiverify.identities import (VerificationReport, aux_checks,
                                 cotangent_partial_fraction_check,
                                 ferrar_bessel_closed_form,
                                 ferrar_gaussian_bessel_check,
                                 inverse_mellin_gaussian_check,
                                 inverse_mellin_kernel_check,
                                 log_gaussian_closed_form,
                                 log_gaussian_integral, residual,
                                 verify_ferrar, verify_hardy,
                                 verify_line_integral, verify_ramanujan_bose,
                                 verify_ramanujan_digamma, verify_rhl,
                                 verify_theta, watson_lattice_residual)
from xiverify.xikernel import KernelParams

EULER_GAMMA = 0.5772156649015329


def test_residual_normalization():
    assert residual(0.0, 0.0) == 0.0
    assert residual(1.0, 1.0) == 0.0
    # symmetric and scale-normalized
    assert residual(3.0, 4.0) == residual(4.0, 3.0)
    assert residual(1e8, 1e8 + 1.0) == pytest.approx(1.0 / (1.0 + 1e8 + 1.0))


def test_xi_sides_hold_three_and_a_half_digits_below_tol():
    # the benchmark's box anchors (alpha at its ends, Im z = +-2, Re z in
    # {-1, 0, 1}), where the accuracy margin of the Xi sides is thinnest;
    # a tail target of tol/10 left the hardy Xi side at 4.6e-12 here
    tol = 1e-8
    worst = 0.0
    for alpha in (0.5, 2.0):
        for z in (complex(re, im) for re in (-1.0, 0.0, 1.0)
                  for im in (-2.0, 2.0)):
            params = KernelParams(alpha, z)
            for verify in (verify_theta, verify_hardy, verify_line_integral):
                worst = max(worst, *verify(params, tol).residuals.values())
    assert worst <= 10.0 ** -3.5 * tol


def aux_battery(params, tol):
    return aux_checks()


@pytest.mark.parametrize("verify", [
    verify_theta, verify_hardy, verify_ferrar, verify_line_integral,
    verify_ramanujan_bose,
    lambda params, tol: verify_ramanujan_digamma(params.alpha, tol),
    aux_battery])
def test_quadrature_sides_carry_their_cost_and_error(verify):
    reps = verify(KernelParams(1.25, 1.0), 1e-8)
    for rep in (reps if isinstance(reps, list) else [reps]):
        quad_sides = [name for name, d in rep.diagnostics.items()
                      if d["path"].startswith("quad")]
        assert quad_sides or rep.identity_id in ("aux:cotangent",
                                                 "aux:k0_lattice")
        for name in quad_sides:
            d = rep.diagnostics[name]
            assert d["path"] == "quad"
            assert d["evaluations"] > 0
            assert d["truncation_T"] >= 10.0
            assert 0.0 < d["abs_error"] < 1e-8


def digamma_at(params, tol):
    return verify_ramanujan_digamma(params.alpha, tol)


# each family's twin sides, the (alpha, z) one first; digamma has no z
SWAP_PAIRS = {verify_theta: ("alpha_series", "beta_series"),
              verify_hardy: ("alpha_integral", "beta_integral"),
              verify_ferrar: ("alpha_integral", "beta_integral"),
              digamma_at: ("alpha_series", "beta_series")}


@pytest.mark.parametrize("verify", list(SWAP_PAIRS))
@pytest.mark.parametrize("alpha,z", [(2.0, 1.0 + 0.5j), (0.5, 2.0j),
                                     (0.8, 1.0), (1.25, 0.0)])
def test_swapping_alpha_and_beta_swaps_the_sides(verify, alpha, z):
    # the paper's symmetry F(z, alpha) = F(iz, 1/alpha) at verifier level:
    # verifying at (1/alpha, iz) computes the same sides with their roles
    # swapped, and the same Xi integral
    here = verify(KernelParams(alpha, z), 1e-8)
    there = verify(KernelParams(1.0 / alpha, 1j * z), 1e-8)
    side_a, side_b = SWAP_PAIRS[verify]
    assert residual(here.sides[side_a], there.sides[side_b]) <= 1e-12
    assert residual(here.sides[side_b], there.sides[side_a]) <= 1e-12
    assert residual(here.sides["xi_integral"],
                    there.sides["xi_integral"]) <= 1e-12


class TestTheta:
    def test_reference_point(self):
        rep = verify_theta(KernelParams(2.0, 1.0), 1e-8)
        assert rep.passed
        assert set(rep.sides) == {"alpha_series", "beta_series",
                                  "xi_integral"}
        for side in rep.sides.values():
            assert abs(side - 0.31201491221698116) <= 1e-10

    def test_z_zero_classical_row(self):
        rep = verify_theta(KernelParams(1.0, 0.0), 1e-8)
        assert rep.passed
        # at alpha = 1, z = 0 the side value is 1/2 - sum e^(-pi n^2)
        want = 0.5 - (math.pi ** 0.25 / math.gamma(0.75) - 1.0) / 2.0
        assert abs(rep.sides["alpha_series"] - want) <= 1e-13

    def test_report_shape(self):
        rep = verify_theta(KernelParams(0.8, 2.0j), 1e-8)
        assert isinstance(rep, VerificationReport)
        assert rep.identity_id == "theta"
        assert len(rep.residuals) == 3
        assert rep.diagnostics["xi_integral"]["evaluations"] > 0
        assert rep.diagnostics["xi_integral"]["truncation_T"] >= 40.0
        assert "pass" in repr(rep)


    def test_default_grid_work_counts(self, monkeypatch):
        # one 1F1 series per nabla and one integrand call per three
        # truncation ladder steps; before, 260 series and 70 truncation
        # calls over the default grid
        from xiverify import cli, quad, specfun
        calls = {"series": 0, "amp": 0}
        series = specfun._hyp_series
        truncation = quad._truncation_point

        def counted_series(a, c, z):
            calls["series"] += 1
            return series(a, c, z)

        def counted_truncation(amp, tol, rate):
            def counted_amp(ts):
                calls["amp"] += 1
                return amp(ts)
            return truncation(counted_amp, tol, rate)

        monkeypatch.setattr(specfun, "_hyp_series", counted_series)
        monkeypatch.setattr(quad, "_truncation_point", counted_truncation)
        for alpha, z in cli.default_grid():
            assert verify_theta(KernelParams(alpha, z), 1e-8).passed
        assert calls["series"] <= 100
        assert calls["amp"] <= 40


class TestDigamma:
    def test_alpha_one(self):
        rep = verify_ramanujan_digamma(1.0, 1e-8)
        assert rep.passed
        for side in rep.sides.values():
            assert abs(side - (-0.76066140150781262)) <= 1e-11

    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    def test_grid_alphas(self, alpha):
        rep = verify_ramanujan_digamma(alpha, 1e-8)
        assert rep.passed
        assert max(rep.residuals.values()) <= 1e-10


class TestHardy:
    def test_z_zero_koshliakov_row(self):
        rep = verify_hardy(KernelParams(1.0, 0.0), 1e-7)
        assert rep.passed
        # side = sqrt(1) e^0 X(1, 0) with X the psi-Gaussian integral
        assert abs(rep.sides["alpha_integral"] - 0.68740406613526977) <= 1e-9

    def test_generic_point(self):
        rep = verify_hardy(KernelParams(2.0, 1.0), 1e-7)
        assert rep.passed
        assert max(rep.residuals.values()) <= 1e-8


class TestFerrar:
    def test_z_zero_has_bessel_series_side(self):
        rep = verify_ferrar(KernelParams(1.0, 0.0), 1e-7)
        assert rep.passed
        assert "bessel_series" in rep.sides
        assert abs(rep.sides["bessel_series"] - (-2.7434669516308189)) <= 1e-9
        assert abs(rep.sides["xi_integral"] - (-2.7434669516308189)) <= 1e-8

    def test_closed_form_alpha_two(self):
        # cross-path: the alpha-side quadrature against the Bessel series
        rep = verify_ferrar(KernelParams(2.0, 0.0), 1e-7)
        assert rep.passed
        got = ferrar_bessel_closed_form(2.0)
        assert abs(rep.sides["alpha_integral"] - got) <= 1e-8

    def test_generic_point_three_sides(self):
        rep = verify_ferrar(KernelParams(2.0, 1.0), 1e-7)
        assert rep.passed
        assert "bessel_series" not in rep.sides
        assert len(rep.residuals) == 3

    @pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0, 1.25, 2.0])
    def test_z_zero_brackets_match_closed_form(self, alpha):
        # the bracket integrals are log-singular at t = 0; bisecting into
        # the singularity instead of splitting at t = 1 missed by 4.1e-10
        rep = verify_ferrar(KernelParams(alpha, 0.0), 1e-8)
        want = ferrar_bessel_closed_form(alpha)
        assert abs(rep.sides["alpha_integral"] - want) <= 1e-11
        assert abs(rep.sides["beta_integral"] - want) <= 1e-11

    def test_default_grid_work_counts(self, monkeypatch):
        # Over the CLI's default grid at its default tol, K0 takes 67,946
        # points, 63,067 of them in the continued fraction; with the direct
        # Bessel sum running from t = 0.2 it took 1,791,265 and 892,757.
        # The quadrature does the same work on either K0-sum route.  The
        # evaluations were 43,095 before the bracket integrals were split
        # at t = 1 (34,455 of them in the brackets, now 15,204).
        from xiverify import cli, specfun
        from xiverify import numseries as ns
        points = {"besselk0": 0, "cf2": 0}

        def counted(key, fn):
            def wrapper(x):
                points[key] += np.size(x)
                return fn(x)
            return wrapper

        k0 = counted("besselk0", specfun.besselk0)
        monkeypatch.setattr(specfun, "besselk0", k0)
        monkeypatch.setattr(ns, "besselk0", k0)
        monkeypatch.setattr(specfun, "_k0_cf2_scaled",
                            counted("cf2", specfun._k0_cf2_scaled))
        evaluations = 0
        for alpha, z in cli.default_grid():
            rep = verify_ferrar(KernelParams(alpha, z), 1e-8)
            evaluations += sum(d.get("evaluations", 0)
                               for d in rep.diagnostics.values())
        assert points["besselk0"] <= 100000
        assert points["cf2"] <= 100000
        # 23,844 while the truncation ladder took one step per integrand
        # call; the batched ladder also passes the tail points of steps
        # past the one it takes, and evaluations count every point passed
        assert evaluations == 24315


class TestRamanujanBose:
    def test_two_way_and_imag(self):
        rep = verify_ramanujan_bose(KernelParams(2.0, 1.0), 1e-8)
        assert rep.passed
        assert rep.residuals["xi_integral_imag"] <= 1e-12

    def test_z_zero_invariance(self):
        rep = verify_ramanujan_bose(KernelParams(2.0, 0.0), 1e-8)
        assert rep.passed
        assert abs(rep.sides["weighted_integral"] - 0.26718295333083636) <= 1e-11
        # the rescaled form equals itself at 1/alpha
        assert rep.residuals["invariant_alpha|invariant_beta"] <= 1e-10
        # and relates to the plain side by one power of alpha
        assert abs(rep.sides["invariant_alpha"]
                   - 2.0 * rep.sides["weighted_integral"]) <= 1e-10

    def test_mixed_z_skips_imag_residual(self):
        rep = verify_ramanujan_bose(KernelParams(1.25, 1.0 + 0.5j), 1e-8)
        assert rep.passed
        assert "xi_integral_imag" not in rep.residuals


class TestLineIntegral:
    def test_contour_matches_real_axis(self):
        rep = verify_line_integral(KernelParams(2.0, 1.0), 1e-8)
        assert rep.passed
        assert rep.residuals["real_axis|contour"] <= 1e-10

    def test_cross_identity_consistency(self):
        # the real-axis side is 4 pi times the theta report's Xi integral
        p = KernelParams(1.25, 1.0)
        li = verify_line_integral(p, 1e-8)
        th = verify_theta(p, 1e-8)
        lhs = li.sides["real_axis"]
        rhs = 4.0 * np.pi * th.sides["xi_integral"]
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


class TestRhl:
    def test_trend_at_reference_points(self, zero_records, mobius_100k):
        rep = verify_rhl(KernelParams(2.0, 0.0), zero_records, 100000, 1e-3)
        assert rep.passed
        seq = rep.diagnostics["residual_sequence"]
        assert rep.diagnostics["zero_counts"] == [10, 25, 50, 100]
        assert seq[-1] <= 1e-3
        assert rep.diagnostics["non_increasing"]
        assert rep.diagnostics["mobius_oscillation"] > 0.0

    def test_one_moebius_sum_per_side(self, zero_records, monkeypatch):
        # one Moebius sum per side (each gives its sum and oscillation
        # proxy from one term array) and one zero-sum pass per side, each
        # over all 100 zeros, whatever the number of zero counts
        from xiverify import numseries as ns
        sums, passes = [], []
        mobius = ns.mobius_theta_sum

        def counted_mobius(alpha, z, *args):
            sums.append((alpha, complex(z)))
            return mobius(alpha, z, *args)

        hyp = ns.hyp1f1

        def counted_hyp(a, c, w):
            passes.append(np.size(a))
            return hyp(a, c, w)

        monkeypatch.setattr(ns, "mobius_theta_sum", counted_mobius)
        monkeypatch.setattr(ns, "hyp1f1", counted_hyp)
        rep = verify_rhl(KernelParams(2.0, 1.0), zero_records, 100000, 1e-3)
        assert rep.diagnostics["zero_counts"] == [10, 25, 50, 100]
        assert sums == [(2.0, 1.0), (0.5, 1.0j)]
        # z^2 is real at both sides, so a pass is one 1F1 call
        assert passes == [100, 100]

    def test_rejects_empty_zeros(self):
        with pytest.raises(ValueError, match="at least one zero"):
            verify_rhl(KernelParams(2.0, 0.0), [], 100000, 1e-3)

    def test_requires_derivatives(self, sample_zeros_path):
        from xiverify.zeros import load_zeros
        raw = load_zeros(sample_zeros_path, max_count=10)
        with pytest.raises(ValueError, match="derivative"):
            verify_rhl(KernelParams(2.0, 0.0), raw, 100000, 1e-3)

    def test_requires_mobius_depth(self, zero_records):
        with pytest.raises(ValueError, match="1e4"):
            verify_rhl(KernelParams(2.0, 0.0), zero_records, 5000, 1e-3)


class TestAuxiliaryForms:
    def test_battery_passes(self):
        reports = aux_checks()
        assert len(reports) == 14
        assert all(r.passed for r in reports)
        ids = {r.identity_id for r in reports}
        assert ids == {"aux:gaussian_cosine", "aux:gaussian_cosine_moment",
                       "aux:log_gaussian", "aux:cotangent",
                       "aux:gaussian_bessel", "aux:k0_lattice",
                       "aux:inverse_mellin", "aux:inverse_mellin_kernel"}

    def test_log_gaussian_closed_form_z_zero(self):
        # at z = 0 the 2F2 drops out: -(gamma + log(4 pi a^2))/(4a)
        a = 2.0
        want = -(EULER_GAMMA + math.log(4.0 * math.pi * a * a)) / (4.0 * a)
        assert abs(log_gaussian_closed_form(a, 0.0) - want) <= 1e-14
        got, _ = log_gaussian_integral(a, 0.0)
        assert abs(got - want) <= 1e-11

    def test_log_gaussian_complex_z(self):
        z = 0.5j
        got, _ = log_gaussian_integral(1.0, z)
        want = log_gaussian_closed_form(1.0, z)
        assert abs(got - want) <= 1e-11

    def test_log_gaussian_validates_alpha(self):
        with pytest.raises(ValueError):
            log_gaussian_integral(-1.0, 0.0)

    @pytest.mark.parametrize("t", [1e-3, 0.37, 1.0, 10.0])
    def test_cotangent_partial_fraction(self, t):
        assert cotangent_partial_fraction_check(t) <= 1e-9

    def test_cotangent_validates_t(self):
        with pytest.raises(ValueError):
            cotangent_partial_fraction_check(0.0)

    @pytest.mark.parametrize("alpha,n", [(1.0, 1), (1.0, 3), (0.5, 1),
                                         (2.0, 2)])
    def test_gaussian_bessel_laplace(self, alpha, n):
        assert ferrar_gaussian_bessel_check(alpha, n)[0] <= 1e-9

    def test_gaussian_bessel_validates(self):
        with pytest.raises(ValueError):
            ferrar_gaussian_bessel_check(1.0, 0)

    def test_watson_lattice(self):
        assert watson_lattice_residual(1.0) <= 1e-12
        assert watson_lattice_residual(2.5) <= 1e-12
        with pytest.raises(ValueError):
            watson_lattice_residual(0.05)

    def test_watson_lattice_spans_both_routes(self, monkeypatch):
        # the Bessel side must come from the direct sum even where
        # k0_sum_minus_pole takes the lattice route, or the check compares a route with itself
        from xiverify import numseries as ns
        direct = ns.k0_sum_direct
        monkeypatch.setattr(ns, "k0_sum_direct", lambda t: direct(t) + 1e-6)
        assert watson_lattice_residual(1.0) >= 1e-6

    def test_inverse_mellin_recoveries(self):
        assert inverse_mellin_gaussian_check()[0] <= 1e-10
        assert inverse_mellin_kernel_check()[0] <= 1e-9
