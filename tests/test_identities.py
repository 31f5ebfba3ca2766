"""End-to-end identity verification: each side by its own route.

Frozen side values are 25-30 digit mpmath evaluations of one side only;
the package must then agree with itself across all sides and with the
reference where one is pinned.
"""

import cmath
import functools
import math
import pathlib

import numpy as np
import pytest

import xiverify

from xiverify import quad
from xiverify.identities import (VerificationReport, aux_checks,
                                 cotangent_partial_fraction_check,
                                 ferrar_bessel_closed_form,
                                 ferrar_gaussian_bessel_check,
                                 inverse_mellin_check,
                                 log_gaussian_check,
                                 log_gaussian_closed_form, residual,
                                 verify_ferrar, verify_hardy,
                                 verify_line_integral, verify_ramanujan_bose,
                                 verify_ramanujan_digamma, verify_rhl,
                                 verify_theta, watson_lattice_check)
from xiverify.xikernel import KernelParams, rho_rows
from xiverify.zeros import prepare_zeros

EULER_GAMMA = 0.5772156649015329


def test_residual_normalization():
    assert residual(0.0, 0.0) == 0.0
    assert residual(1.0, 1.0) == 0.0
    # symmetric and scale-normalized
    assert residual(3.0, 4.0) == residual(4.0, 3.0)
    assert residual(1e8, 1e8 + 1.0) == pytest.approx(
        1.0 / (1.0 + 1e8 + 1.0), abs=0.0)


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
    return aux_checks(tol)


def digamma_at(params, tol):
    return verify_ramanujan_digamma(params.alpha, tol)


def _reports(verify, alpha, z, tol=1e-8):
    """verify's reports at (alpha, z), as a list."""
    reps = verify(KernelParams(alpha, z), tol)
    return reps if isinstance(reps, list) else [reps]


def _quad_sides(rep):
    """The names of rep's quadrature sides."""
    return [name for name, d in rep.diagnostics.items()
            if d["path"].startswith("quad")]


# the nodes the double-exponential rule passes to a kernel at its
# starting step
START_NODES = 321


@pytest.mark.parametrize("verify", [
    verify_theta, verify_hardy, verify_ferrar, verify_line_integral,
    verify_ramanujan_bose,
    lambda params, tol: verify_ramanujan_digamma(params.alpha, tol),
    aux_battery])
def test_quadrature_sides_carry_their_cost_and_error(verify):
    # every quadrature side, Xi, physical or auxiliary, takes the
    # tabulated double-exponential rule, 321 kernel nodes at its starting
    # step; the last node, 243.7 for every side, is not reported
    for rep in _reports(verify, 1.25, 1.0):
        quad_sides = _quad_sides(rep)
        assert quad_sides or rep.identity_id in ("aux:cotangent",
                                                 "aux:k0_lattice")
        for name in quad_sides:
            d = rep.diagnostics[name]
            assert d["path"] == "quad.tabulated"
            assert d["evaluations"] == START_NODES
            assert set(d) == {"path", "evaluations", "abs_error"}
            assert 0.0 < d["abs_error"] < 1e-8


@functools.lru_cache(maxsize=1)
def _ten_zeros():
    path = pathlib.Path(xiverify.__file__).parent / "data" / "zeros_sample.txt"
    return prepare_zeros(str(path), max_count=10)


def rhl_at(params, tol):
    return verify_rhl(params, _ten_zeros(), tol)


# each family's twin sides, the (alpha, z) one first; digamma has no z
SWAP_PAIRS = {verify_theta: ("alpha_series", "beta_series"),
              verify_hardy: ("alpha_integral", "beta_integral"),
              verify_ferrar: ("alpha_integral", "beta_integral"),
              digamma_at: ("alpha_series", "beta_series"),
              rhl_at: ("alpha_side", "beta_side")}


@pytest.mark.parametrize("verify", list(SWAP_PAIRS))
@pytest.mark.parametrize("alpha,z", [(2.0, 1.0 + 0.5j), (0.5, 2.0j),
                                     (0.8, 1.0), (1.25, 0.0)])
def test_swapping_alpha_and_beta_swaps_the_sides(verify, alpha, z):
    # the paper's symmetry F(z, alpha) = F(iz, 1/alpha) at verifier level:
    # verifying at (1/alpha, iz) computes the same sides with their roles
    # swapped, and the same Xi integral (rhl has none)
    here = verify(KernelParams(alpha, z), 1e-8)
    there = verify(KernelParams(1.0 / alpha, 1j * z), 1e-8)
    side_a, side_b = SWAP_PAIRS[verify]
    assert residual(here.sides[side_a], there.sides[side_b]) <= 1e-12
    assert residual(here.sides[side_b], there.sides[side_a]) <= 1e-12
    if verify is not rhl_at:
        assert residual(here.sides["xi_integral"],
                        there.sides["xi_integral"]) <= 1e-12


# The mirror grid: alpha in {1/2, 1, 2}, |z| in {1, 2, 4, 7} and
# z = |z| e^(ik pi/8), k = 0..4.  The mirror of cell (alpha, |z|, k) is
# (1/alpha, |z|, 4 - k), within an ulp of (1/alpha, i conj z); at
# k = 2, Re z and Im z differ in their last bit, so the rows at w = z^2/4
# of a cell and its mirror lie on opposite sides of Re w = 0 and take
# opposite Kummer branches in xikernel's row cache, as at every other k.
_MIRROR_CELLS = [(alpha, r, k) for alpha in (0.5, 1.0, 2.0)
                 for r in (1.0, 2.0, 4.0, 7.0) for k in range(5)]

# each family's Xi sides, and today's misses of its mirror test:
# (side, alpha, |z|, k) -> |side - conj(mirror side)| over the two
# cells' summed abs_error
MIRROR_SIDES = [
    (verify_theta, ("xi_integral",), {}),
    (verify_hardy, ("xi_integral",), {("xi_integral", 0.5, 4.0, 2): 1.217,
                                      ("xi_integral", 1.0, 4.0, 2): 1.520,
                                      ("xi_integral", 2.0, 4.0, 2): 1.217}),
    (verify_ferrar, ("xi_integral",), {("xi_integral", 1.0, 4.0, 2): 1.028}),
    (verify_line_integral, ("real_axis", "contour"), {
        ("contour", 0.5, 7.0, 1): 2.216, ("contour", 0.5, 7.0, 2): 1.675,
        ("contour", 0.5, 7.0, 3): 2.728, ("contour", 2.0, 7.0, 1): 2.728,
        ("contour", 2.0, 7.0, 2): 1.675, ("contour", 2.0, 7.0, 3): 2.216}),
]


@pytest.mark.parametrize("verify,sides,misses", MIRROR_SIDES,
                         ids=[v.__name__ for v, _, _ in MIRROR_SIDES])
def test_xi_sides_match_their_mirror_cells(verify, sides, misses):
    # the paper's symmetry with evenness in z and conjugation with z for
    # real alpha: F(alpha, z) = conj F(1/alpha, i conj z).  Every Xi side
    # should agree with its mirror cell's conjugate within the two cells'
    # summed abs_error; the misses listed are today's, by cell and ratio
    reports = {(alpha, r, k): verify(KernelParams(
        alpha, r * cmath.exp(1j * k * math.pi / 8)), 1e-8)
        for alpha, r, k in _MIRROR_CELLS}
    found = {}
    for (alpha, r, k), here in reports.items():
        there = reports[1.0 / alpha, r, 4 - k]
        mirror = 1j * here.params.z.conjugate()
        assert abs(there.params.z - mirror) <= 1e-15 * r
        for side in sides:
            gap = abs(here.sides[side] - there.sides[side].conjugate())
            bound = (here.diagnostics[side]["abs_error"]
                     + there.diagnostics[side]["abs_error"])
            if not gap <= bound:
                found[side, alpha, r, k] = gap / bound
    assert found == pytest.approx(misses, rel=2e-3)


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
        assert rep.diagnostics["xi_integral"]["abs_error"] > 0.0
        assert "pass" in repr(rep)


    def test_default_grid_work_counts(self, monkeypatch, fresh_caches):
        # one nabla per cell on the shared nodes, one kernel call at the
        # starting step, and one 1F1 series per distinct z^2/4 (4 on the
        # default grid) from an empty row cache; before, 260 series and
        # 70 truncation calls over the default grid, then at most 100 and
        # 40 with an adaptive Xi side, then one series per cell
        from xiverify import cli, quad, xikernel
        calls = {"series": 0, "kernel": 0}
        series = xikernel._hyp_series
        tabulated = quad.integrate_tabulated

        def counted_series(*args):
            calls["series"] += 1
            return series(*args)

        def counted_tabulated(kernel, table, tol):
            def counted_kernel(t):
                calls["kernel"] += 1
                return kernel(t)
            return tabulated(counted_kernel, table, tol)

        monkeypatch.setattr(xikernel, "_hyp_series", counted_series)
        monkeypatch.setattr(quad, "integrate_tabulated", counted_tabulated)
        for alpha, z in cli.default_grid():
            assert verify_theta(KernelParams(alpha, z), 1e-8).passed
        assert calls["series"] == 4
        assert calls["kernel"] == 20

    def test_series_refuses_before_its_prefactor_overflows(self):
        # e^(-z^2/8) overflows at z = 1e11 i; the sum's term ceiling
        # must speak first
        with pytest.raises(ValueError, match="^theta_sum: "):
            verify_theta(KernelParams(1.0, 1e11j), 1e-8)


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

    def test_series_refuses_before_its_prefactor_overflows(self):
        # (gamma - log(2 pi x))/(2x) overflows at x = 1e-320
        with pytest.raises(ValueError, match="^lambda_sum: "):
            verify_ramanujan_digamma(1e-320, 1e-8)


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

    def test_default_grid_work_counts(self, monkeypatch, fresh_caches):
        # Over the CLI's default grid at its default tol, in a fresh
        # process, K0 takes 1,449 points: the K0-sum table on the 321
        # nodes of the starting step, once, and the z = 0 Bessel series.
        # The adaptive bracket integrals took 67,946 (1,791,265 with the
        # direct Bessel sum running from t = 0.2).
        from xiverify import cli, specfun
        from xiverify import numseries as ns
        points = 0
        besselk0 = specfun.besselk0

        def k0(x):
            nonlocal points
            points += np.size(x)
            return besselk0(x)

        monkeypatch.setattr(specfun, "besselk0", k0)
        monkeypatch.setattr(ns, "besselk0", k0)
        evaluations = 0
        for alpha, z in cli.default_grid():
            rep = verify_ferrar(KernelParams(alpha, z), 1e-8)
            evaluations += sum(d.get("evaluations", 0)
                               for d in rep.diagnostics.values())
        assert points <= 1500
        # every side, physical or Xi, passes START_NODES tabulated nodes to
        # its kernel; the adaptive physical sides passed 15,555 points
        assert evaluations == 3 * 20 * START_NODES


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

    def test_z_zero_invariant_reuses_the_weighted_side(self, monkeypatch):
        # alpha lhs(alpha, 0) is the weighted side times alpha, so z = 0
        # adds one quadrature, lhs(beta, 0), to the weighted side's; both
        # integrate the Bose weight's table, the Xi side the Xi table.
        # Each kernel sees each node once (the two halves of a fold, or
        # of a cosine, as two rows of one call), and each side's
        # evaluations are the nodes its kernel saw
        from xiverify import identities as I
        tabulated = quad.integrate_tabulated
        tables, nodes = [], []

        def spy_tabulated(kernel, table, tol):
            tables.append(table)
            nodes.append(0)

            def counted(t):
                nodes[-1] += t.shape[-1]
                return kernel(t)
            return tabulated(counted, table, tol)

        monkeypatch.setattr(quad, "integrate_tabulated", spy_tabulated)
        rep = verify_ramanujan_bose(KernelParams(2.0, 0.0), 1e-8)
        assert rep.passed
        assert tables == [I._PHI_BOSE, I._XI_BOSE, I._PHI_BOSE]
        assert nodes == [START_NODES] * 3
        d = rep.diagnostics
        assert d["invariant_beta"] == {"path": "weighted_integral"}
        assert rep.sides["invariant_beta"] == 2.0 * rep.sides[
            "weighted_integral"]
        evaluations = [d[name]["evaluations"] for name in
                       ("weighted_integral", "xi_integral", "invariant_alpha")]
        assert evaluations == nodes

    @pytest.mark.parametrize("alpha", [1e3, 1e4, 1e5])
    def test_narrow_gaussian_weighted_side_covers_its_error(self, alpha):
        # e^(-pi alpha^2 t^2) is gone by t = 1e-3; the double-exponential
        # nodes cluster at 0, where it lives.  Either the cell passes, or
        # the two sides' abs_error, each in its side's units, cover their
        # distance
        rep = verify_ramanujan_bose(KernelParams(alpha, 0.0), 1e-8)
        d = rep.diagnostics
        gap = abs(rep.sides["weighted_integral"] - rep.sides["xi_integral"])
        assert rep.passed or gap <= (d["weighted_integral"]["abs_error"]
                                     + d["xi_integral"]["abs_error"])
        assert d["weighted_integral"]["path"] == "quad.tabulated"
        # lhs = alpha^(-3/2) (1 - (pi/6)/alpha + ...) as alpha grows
        lead = rep.sides["xi_integral"] * alpha ** 1.5
        assert abs(lead - 1.0) <= 1.0 / alpha

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


# the box anchors of the benchmark grids: alpha at its ends, Im z = +-2,
# Re z in {-1, 0, 1}
ANCHORS = [(a, complex(re, im)) for a in (0.5, 2.0) for re in (-1.0, 0.0, 1.0)
           for im in (-2.0, 2.0)]
DEFAULT_GRID = [(a, z) for a in (0.5, 0.8, 1.0, 1.25, 2.0)
                for z in (0j, 1 + 0j, 2j, 1 + 0.5j)]

# every family with a quadrature side
QUAD_FAMILIES = [verify_theta, verify_hardy, verify_ferrar,
                 verify_line_integral, verify_ramanujan_bose, digamma_at,
                 aux_battery]


@pytest.mark.parametrize("verify,alpha,z", [
    (verify_theta, 1.25, 1.0 + 0.5j), (verify_hardy, 0.8, 2j),
    (verify_ferrar, 2.0, 1.0 + 0.5j), (verify_ferrar, 0.8, 0j),
    (verify_line_integral, 0.8, 1.0 + 0.5j),
    (verify_ramanujan_bose, 1.25, 1.0 + 0.5j),
    (verify_ramanujan_bose, 2.0, 0j), (digamma_at, 2.0, 0j),
    (aux_battery, 1.0, 0j)])
def test_abs_error_is_the_estimate_in_side_units(verify, alpha, z,
                                                 monkeypatch):
    # every quadrature side is affine in one integral.  Moving integral i
    # by delta moves its side by slope delta, and the side's abs_error is
    # |slope| times integral i's estimate; the slope is measured, so no
    # prefactor is written here
    real = quad.integrate_tabulated
    results, shift = [], {}

    def shifted(kernel, table, tol):
        r = real(kernel, table, tol)
        results.append(r)
        return quad.QuadratureResult(
            r.value + shift.get(len(results) - 1, 0.0), r.abs_error,
            r.evaluations, r.truncation_T)

    monkeypatch.setattr(quad, "integrate_tabulated", shifted)
    base = _reports(verify, alpha, z)
    raw = list(results)
    owner = {}
    for i, r in enumerate(raw):
        delta = 1e-4 * (1.0 + abs(r.value))
        results.clear()
        shift = {i: delta}
        for k, (rep, moved) in enumerate(zip(base, _reports(verify, alpha,
                                                              z))):
            for name in _quad_sides(rep):
                slope = abs(moved.sides[name] - rep.sides[name]) / delta
                if slope == 0.0:
                    continue
                assert (k, name) not in owner
                owner[k, name] = i
                assert math.isclose(rep.diagnostics[name]["abs_error"],
                                    slope * r.abs_error, rel_tol=1e-8)
    # each quadrature side moves with exactly one integral
    assert set(owner) == {(k, name) for k, rep in enumerate(base)
                          for name in _quad_sides(rep)}


# The reference rule: 48-point Gauss-Legendre on [0, 1e-12] and on 40
# geometric panels over [1e-12, 250], nodes the double-exponential rule
# does not share.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(48)
_GL_EDGES = np.concatenate([[0.0], np.geomspace(1e-12, 250.0, 41)])
_GL_HALF = 0.5 * np.diff(_GL_EDGES)
GL_NODES = ((_GL_EDGES[:-1] + _GL_HALF)[:, None]
            + _GL_HALF[:, None] * _GL_X).ravel()


def gauss_legendre(values):
    """int_0^250 f(t) dt from f at GL_NODES, its rows summed."""
    y = np.asarray(values).reshape(-1, _GL_HALF.size, _GL_X.size).sum(0)
    return _GL_HALF @ (y @ _GL_W)


def _seeded_box(n, seed=1):
    """The anchors and n points drawn log-uniformly in alpha over
    [0.5, 2] and uniformly in Re z over [-1, 1] and Im z over [-2, 2]."""
    rng = np.random.default_rng(seed)
    a = np.exp(rng.uniform(np.log(0.5), np.log(2.0), n))
    z = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-2.0, 2.0, n)
    return ANCHORS + list(zip(a.tolist(), z.tolist()))


class TestTabulatedXiSides:
    """Every Xi side integrates a shared, once-tabulated weight."""

    @pytest.mark.parametrize("verify", [
        verify_theta, verify_hardy, verify_ramanujan_bose,
        verify_line_integral, digamma_at])
    def test_xi_points_do_not_grow_with_cells(self, verify, monkeypatch,
                                              fresh_caches):
        # Xi is evaluated once per process, one batch per level: a spy on
        # xi_cap and xi_small sees the same points for 1 cell and for 48
        from xiverify import identities
        seen = {"xi_cap": 0, "xi_small": 0}
        for name in seen:
            real = getattr(identities, name)

            def spy(s, real=real, name=name):
                seen[name] += np.size(s)
                return real(s)

            monkeypatch.setattr(identities, name, spy)
        counts = []
        for cells in (_seeded_box(0)[:1], _seeded_box(36)):
            fresh_caches()
            for key in seen:
                seen[key] = 0
            for alpha, z in cells:
                assert verify(KernelParams(alpha, z), 1e-8).passed
            counts.append(dict(seen))
        assert counts[0] == counts[1]
        # 321 ordinates; the contour's xi_small takes u alone, its -u row
        # being the conjugate
        contour = verify is verify_line_integral
        assert counts[0] == {"xi_cap": START_NODES,
                             "xi_small": START_NODES if contour else 0}

    def test_tables_come_out_the_same_in_any_order(self, fresh_caches):
        from xiverify import identities, quad
        tables = {name: t for name, t in vars(identities).items()
                  if isinstance(t, quad.NodeTable)}
        runs = [(verify_theta, KernelParams(0.5, -1.0 + 2.0j)),
                (digamma_at, KernelParams(2.0, 0.0)),
                (verify_ramanujan_bose, KernelParams(2.0, 1.0 - 2.0j)),
                (verify_line_integral, KernelParams(0.8, 1.0)),
                (verify_ferrar, KernelParams(1.25, 2.0j)),
                (verify_hardy, KernelParams(0.5, 1.0 + 0.5j))]
        snapshots = []
        for order in (runs, runs[::-1]):
            fresh_caches()
            sides = {}
            for verify, params in order:
                sides[verify] = verify(params, 1e-8).sides
            bits = {name: [t.batch(L)[2].tobytes() for L in range(t.levels)]
                    for name, t in tables.items()}
            snapshots.append((sides, bits))
        assert snapshots[0] == snapshots[1]
        # only the auxiliary checks use the log and ones tables
        assert {name: len(b) for name, b in snapshots[0][1].items()} == {
            name: 0 if name in ("_LOG", "_ONES") else 2 for name in tables}

    @pytest.mark.parametrize("verify", QUAD_FAMILIES)
    def test_abs_error_covers_the_next_finer_step(self, verify, monkeypatch):
        # every quadrature side, Xi, physical or auxiliary: its abs_error,
        # in the side's units, covers the side's move to h = 1/64
        grid = ANCHORS + DEFAULT_GRID
        if verify is digamma_at:
            grid = [(a, 0j) for a in dict.fromkeys(a for a, _ in grid)]
        elif verify is aux_battery:
            grid = grid[:1]

        def run():
            return [rep for a, z in grid for rep in _reports(verify, a, z)]

        reps = run()
        monkeypatch.setattr(quad, "_DE_START", quad._DE_START + 1)
        for rep, fine in zip(reps, run()):
            for side in _quad_sides(rep):
                d = rep.diagnostics[side]
                assert d["evaluations"] == START_NODES
                assert fine.diagnostics[side]["evaluations"] == 641
                gap = abs(rep.sides[side] - fine.sides[side])
                assert gap <= d["abs_error"]

    def test_tabulated_and_adaptive_rules_agree_on_the_anchors(self):
        # every tabulated integral, Xi or physical side, by the
        # double-exponential rule at the sides' tolerance and by the
        # reference rule on the same weight and kernel
        from xiverify import identities as I
        tables = (I._XI_NABLA, I._XI_HARDY, I._XI_FERRAR,
                  I._XI_DIGAMMA, I._XI_BOSE, I._XI_CONTOUR, I._PHI_HARDY,
                  I._PHI_FERRAR, I._PHI_BOSE)
        weights = {table: table(GL_NODES) for table in tables}
        worst = 0.0
        for alpha, z in ANCHORS:
            p = KernelParams(alpha, z)

            def pair(c, k, z=z):
                # the reference's rho pair at c +- ikt
                return lambda t: rho_rows(alpha, z, c, k, t).sum(axis=0)

            def contour(t):
                return rho_rows(alpha, z, 0.5, 1.0, t)

            xi_sides = [(0.5, 0.5, p, pair(0.5, 0.5), table) for table in (
                I._XI_NABLA, I._XI_HARDY, I._XI_FERRAR)]
            xi_sides += [
                (0.5, 0.5, KernelParams(alpha, 0.0), pair(0.5, 0.5, 0.0),
                 I._XI_DIGAMMA),
                (1.5, 0.5, p, pair(1.5, 0.5), I._XI_BOSE),
                (0.5, 1.0, p, contour, I._XI_CONTOUR)]
            for c, k, params, kernel, table in xi_sides:
                tab = I._xi_side(params, c, k, table, 2.5e-9)
                ref = gauss_legendre(weights[table] * kernel(GL_NODES))
                worst = max(worst, abs(tab.value - ref))
            k = 0.5 / np.pi
            for kernel, table in (
                    (I._gaussian_cosine(alpha, z), I._PHI_HARDY),
                    (I._gaussian_cosine(1.0 / alpha, 1j * z), I._PHI_HARDY),
                    (I._gaussian_cosine(k * alpha, z), I._PHI_FERRAR),
                    (I._gaussian_cosine(k / alpha, 1j * z), I._PHI_FERRAR),
                    (I._gaussian_cosine(alpha, z), I._PHI_BOSE)):
                tab = quad.integrate_tabulated(kernel, table, 2.5e-9)
                ref = gauss_legendre(weights[table] * kernel(GL_NODES))
                worst = max(worst, abs(tab.value - ref))
        assert worst <= 1e-12

    @pytest.mark.parametrize("verify", [
        verify_theta, verify_line_integral, verify_ramanujan_bose])
    def test_edge_cell_fails_fast_at_the_finest_step(self, verify,
                                                     monkeypatch):
        # at (1, 10+10i) the Xi sides cancel: their estimates (4.2e5 for
        # theta and for lineint, whose real-axis side is 4 times theta's
        # integral, 2.7e3 for Bose) stay above the
        # relative target tol/4 (1 + |value|), and the rule stops after
        # 1281 kernel nodes.  Bose's weighted side runs first, and passes
        # one step finer than the start
        real = quad.integrate_tabulated
        nodes = []

        def spy(kernel, table, tol):
            def counted(t):
                nodes.append(t.size)
                return kernel(t)
            return real(counted, table, tol)

        monkeypatch.setattr(quad, "integrate_tabulated", spy)
        with pytest.raises(ValueError, match=(
                r"^quad: double-exponential rule at its finest step "
                r"h = 1/128 \(1281 nodes\) estimates error \S+ \(target "
                r"\S+ = tol 2\.500e-09 \(1 \+ \|value\|\)\)$")):
            verify(KernelParams(1.0, 10.0 + 10.0j), 1e-8)
        weighted = ([START_NODES, 320] if verify is verify_ramanujan_bose
                    else [])
        assert nodes == weighted + [START_NODES, 320, 640]


class TestNodeOnlyWork:
    """What depends on the nodes and the line alone is formed once per
    process: the start level's nodes, each table's w dt/du, the exponents
    1/2 - s of rho's power and the contour weight's conjugate row."""

    FAMILIES = (verify_theta, verify_hardy, verify_ferrar,
                verify_ramanujan_bose, verify_line_integral)

    def test_contour_weight_rows_are_xi_small_to_the_bit(self):
        # the -u row is the u row's conjugate, and xi_small gives those
        # bits at 1/2 - iu itself: a complex exp or log that is not
        # conjugate-symmetric fails here rather than moving the bytes
        from xiverify import identities as I
        from xiverify.xikernel import xi_small
        for level in range(quad._DE_FINEST + 1):
            u = quad._de_batch(level)[0]
            got = I._contour_weight(u)
            s = 0.5 - 1j * u
            direct = xi_small(s) / (s * (1.0 - s))
            assert got[1].tobytes() == direct.tobytes()
            both = 0.5 + 1j * np.stack([u, -u])
            assert got.tobytes() == (
                xi_small(both) / (both * (1.0 - both))).tobytes()

    def _bits(self, grid):
        return [(np.array(list(rep.sides.values())).tobytes(),
                 np.array([d.get("abs_error", 0.0) for d in
                           rep.diagnostics.values()]).tobytes())
                for verify in self.FAMILIES for a, z in grid
                for rep in _reports(verify, a, z)]

    def test_warm_equals_cold_at_either_start_level(self, monkeypatch,
                                                    fresh_caches):
        # the start nodes are kept per start level, and each table's
        # levels and the exponents per node batch: a warm pass writes the
        # cold pass's bits, at the rule's start and one step finer, and
        # neither start level sees the other's nodes
        grid = ANCHORS[::3]
        start = quad._DE_START
        runs = {}
        for level in (start, start + 1, start):
            monkeypatch.setattr(quad, "_DE_START", level)
            if level not in runs:
                fresh_caches()
                runs[level] = self._bits(grid)
            assert self._bits(grid) == runs[level]
        assert runs[start] != runs[start + 1]

    def test_warm_pass_forms_no_line_and_joins_no_nodes(self, monkeypatch,
                                                       fresh_caches):
        from xiverify import xikernel
        counts = {"_line": 0, "concatenate": 0}
        line, concatenate = xikernel._line, np.concatenate

        def counted_line(*args):
            counts["_line"] += 1
            return line(*args)

        def counted_concatenate(*args, **kwargs):
            counts["concatenate"] += 1
            return concatenate(*args, **kwargs)

        monkeypatch.setattr(xikernel, "_line", counted_line)
        monkeypatch.setattr(np, "concatenate", counted_concatenate)
        fresh_caches()
        passes = []
        for _ in range(2):
            counts.update(_line=0, concatenate=0)
            self._bits(ANCHORS)
            passes.append(dict(counts))
        # cold: one start-node array, and per (w, line, batch) the 1F1
        # rows, per (line, batch) the exponents
        assert passes[0]["concatenate"] == 1 and passes[0]["_line"] > 0
        assert passes[1] == {"_line": 0, "concatenate": 0}


class TestRhoRowCache:
    """rho's 1F1 rows, cached per (z^2/4, c, k, node batch) and shared by
    every Xi side on one line."""

    @staticmethod
    def _sides():
        # every line a Xi side takes rho on, and two families on (1/2, 1/2)
        from xiverify import identities as I
        return [(0.5, 0.5, I._XI_NABLA), (0.5, 0.5, I._XI_HARDY),
                (1.5, 0.5, I._XI_BOSE), (0.5, 1.0, I._XI_CONTOUR)]

    def test_warm_equals_cold(self):
        # z and -z share rows; z = 14 refines to 641 nodes at alpha 0.5
        # and to 1281 at alpha 2, so every batch of the rule is cached
        from xiverify import identities as I
        from xiverify import xikernel
        zs = (1.0 + 0.5j, -1.0 - 0.5j, 2j, 1.0, -1.0, 14.0, -14.0)

        def bits(r):
            return (np.array([r.value]).tobytes(),
                    np.array([r.abs_error]).tobytes(), r.evaluations)

        def run(alpha, z, c, k, table):
            return bits(I._xi_side(KernelParams(alpha, z), c, k, table,
                                   2.5e-9))

        cold = {}
        for alpha in (0.5, 2.0):
            for z in zs:
                for side in self._sides():
                    xikernel._rho_series_rows.cache_clear()
                    cold[alpha, z, side] = run(alpha, z, *side)
        for sides in (self._sides(), self._sides()[::-1]):
            for alphas in ((0.5, 2.0), (2.0, 0.5)):
                xikernel._rho_series_rows.cache_clear()
                for alpha in alphas:
                    for side in sides:
                        for z in zs:
                            assert run(alpha, z, *side) == cold[
                                alpha, z, side], (alpha, z, side[:2])
                assert xikernel._rho_series_rows.cache_info().hits > 0

    def test_z_and_minus_z_share_one_entry(self):
        from xiverify import identities as I
        from xiverify import xikernel
        rows = xikernel._rho_series_rows
        rows.cache_clear()
        for z in (1.0 + 0.5j, -1.0 - 0.5j):
            I._xi_side(KernelParams(0.8, z), 0.5, 0.5, I._XI_NABLA, 2.5e-9)
        info = rows.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_cache_holds_at_most_its_bound(self):
        from xiverify import identities as I
        from xiverify import xikernel
        rows = xikernel._rho_series_rows
        rows.cache_clear()
        n = xikernel._RHO_ROW_KEYS + 8
        for z in np.linspace(0.1, 3.0, n):
            I._xi_side(KernelParams(1.0, z), 0.5, 0.5, I._XI_NABLA, 2.5e-9)
        info = rows.cache_info()
        assert info.maxsize == xikernel._RHO_ROW_KEYS
        assert (info.misses, info.currsize) == (n, xikernel._RHO_ROW_KEYS)

    def test_default_grid_runs_one_series_per_w_and_line(self, monkeypatch):
        # 125 Xi sides (20 cells each for theta, hardy, ferrar, Bose and
        # lineint's two sides, 5 alphas for digamma) take rho on 4
        # distinct z^2/4 and 3 lines: 12 series, one per (w, line)
        from xiverify import cli, identities, xikernel
        counts = {"sides": 0, "series": 0}
        rows, series = identities.rho_rows, xikernel._hyp_series

        def counted_rows(*args):
            counts["sides"] += 1
            return rows(*args)

        def counted_series(*args):
            counts["series"] += 1
            return series(*args)

        monkeypatch.setattr(identities, "rho_rows", counted_rows)
        monkeypatch.setattr(xikernel, "_hyp_series", counted_series)
        xikernel._rho_series_rows.cache_clear()
        grid = cli.default_grid()
        for verify in (verify_theta, verify_hardy, verify_ferrar,
                       verify_ramanujan_bose, verify_line_integral):
            for alpha, z in grid:
                assert verify(KernelParams(alpha, z), 1e-8).passed
        for alpha in dict.fromkeys(a for a, _ in grid):
            assert verify_ramanujan_digamma(alpha, 1e-8).passed
        assert counts == {"sides": 125, "series": 12}

    def test_families_in_one_process_sum_each_row_once(self, tmp_path,
                                                        summed_rows,
                                                        fresh_caches,
                                                        monkeypatch):
        # the benchmark box's 12 anchors and 36 seeded points (xi_sweep's
        # grid at seed 1): 39 distinct z^2/4 on 3 lines (theta's and
        # hardy's, Bose's, the contour's).  theta, hardy, ramanujan and
        # lineint in turn in one fresh process sum each (series argument,
        # line, batch) once, in 4 Taylor loops: one grouped series per
        # line from the prepare steps, two on Bose's line, whose rows at
        # Re w < 0 take 1/2 - a.  Every family writes the bytes it writes
        # from a cold cache
        from xiverify import cli, xikernel
        loops = []
        series = xikernel._hyp_series

        def counted(*args):
            loops.append(np.shape(args[3]))
            return series(*args)

        monkeypatch.setattr(xikernel, "_hyp_series", counted)
        grid = tmp_path / "grid.txt"
        grid.write_text("".join(
            "%r %r %r\n" % (a, re, im) for a in (0.5, 2.0)
            for re in (-1.0, 0.0, 1.0) for im in (-2.0, 2.0)) + """\
0.602373 0.694867 1.055098
0.712093 -0.00913 -0.202036
1.233866 0.577447 -1.624562
0.52004 0.67153 -0.268932
1.438495 -0.995788 -0.218451
1.359504 -0.542476 1.781083
1.74455 -0.93882 -1.898217
1.05909 0.878298 -0.475183
0.675112 -0.155767 -1.883837
0.679895 -0.124225 -0.016751
0.690718 -0.538267 -1.124876
0.945538 -0.420437 -1.914041
1.596769 0.112909 0.569177
0.646989 0.985087 1.439786
0.591225 -0.33461 0.885938
1.34014 0.872881 -0.311572
1.580161 0.340611 -0.786526
1.129091 0.764958 1.38479
1.007352 0.178005 -1.861897
0.700026 0.594808 -0.342744
0.635522 0.097598 0.812163
1.273652 -0.250594 -0.244153
1.01175 0.556885 0.083754
0.862448 -0.020613 -1.8817
0.53107 0.406764 1.932751
1.137895 -0.212801 -1.318603
1.003108 0.964153 1.082093
1.056458 0.72058 -1.071295
1.019275 0.904935 0.311179
0.94492 -0.461441 0.191985
1.884566 -0.988582 1.134621
1.559379 0.772359 0.962014
1.535044 0.037357 0.245431
0.902614 -0.887753 1.480041
1.101904 -0.600321 0.018882
0.979319 -0.28642 -0.615688
""")
        families = ("theta", "hardy", "ramanujan", "lineint")

        def run(family, name):
            out = tmp_path / ("%s_%s.json" % (family, name))
            cli.main(["--identity", family, "--grid", "file:%s" % grid,
                      "--out", str(out)])
            return out.read_bytes()

        warm = {f: run(f, "warm") for f in families}
        assert len(summed_rows) == 117 and set(summed_rows.values()) == {1}
        assert len({w for w, _ in summed_rows}) == 39
        assert len(loops) == 4 and sum(n for n, *_ in loops) == 117
        for f in families:
            xikernel._rho_series_rows.cache_clear()
            assert run(f, "cold") == warm[f], f


# cells whose sides reach 1e4 to 1e10, where an absolute quadrature
# target tol/4 lay below the sides' own rounding; the relative target
# tol/4 (1 + |value|) passes each (worst residual 1.2e-13, theta at 14)
LARGE_SIDE_CELLS = [
    (verify_ramanujan_bose, 10j), (verify_hardy, 10.0), (verify_ferrar, 10.0),
    (verify_theta, 14.0), (verify_line_integral, 14.0),
    (verify_ramanujan_bose, 14.0), (verify_theta, 14j), (verify_hardy, 14j),
    (verify_ferrar, 14j)]


@pytest.mark.parametrize("verify,z", LARGE_SIDE_CELLS)
def test_large_sides_meet_a_relative_target(verify, z):
    rep = verify(KernelParams(1.0, z), 1e-8)
    assert rep.passed
    assert max(rep.residuals.values()) <= 1e-12


class TestTabulatedPhysicalSides:
    """hardy's, ferrar's and Bose's phi, tabulated like the Xi weights."""

    @pytest.mark.parametrize("verify,alpha,z", [
        (verify_hardy, 10.0, 2j), (verify_hardy, 5.0, 4j),
        (verify_ramanujan_bose, 10.0, 2j)])
    def test_no_overflow_past_alpha_times_imaginary_z_of_16(self, verify,
                                                           alpha, z):
        # e^(-pi x^2 t^2) cos(sqrt(pi) x t w), taken as a product, overflowed
        # cos here; as two exponentials each stays below e^(|Im w|^2/4)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            rep = verify(KernelParams(alpha, z), 1e-8)
        assert rep.passed
        assert max(rep.residuals.values()) <= 1e-14

    @pytest.mark.parametrize("verify", [verify_hardy, verify_ferrar])
    def test_physical_sides_match_the_xi_side(self, verify):
        worst = 0.0
        for alpha, z in DEFAULT_GRID:
            rep = verify(KernelParams(alpha, z), 1e-8)
            worst = max(worst, rep.residuals["alpha_integral|xi_integral"],
                        rep.residuals["beta_integral|xi_integral"])
        assert worst <= 1e-13

    # nodes of the level-0 batch, t = exp(u - e^(-u)) at u = -4.5 + k/16:
    # the first and last (8.9e-42 and 243.7) and some between
    NODES = (0, 24, 70, 81, 97, 99, 127, 160)
    # sum_n K0(n t) - pi/(2t) by 30-digit mpmath sums of besselk at the
    # nodes from k = 70 on
    K0_SUMS = {70: -1.606592445279515394461634,
               81: -0.9879289795606315401577645,
               97: -0.3929119153524228483842012,
               99: -0.3431086153969028128314396,
               127: -0.05214263434060306316094331,
               160: -0.006445774215508534942011229}

    def test_phi_across_the_node_range(self):
        import mpmath
        from xiverify import identities as I
        t = quad._de_batch(0)[0][list(self.NODES)]
        assert (t[0], t[-1]) == (pytest.approx(8.948e-42, rel=1e-3, abs=0.0),
                                 pytest.approx(243.694, rel=1e-5))
        hardy, ferrar = I._PHI_HARDY(t), I._PHI_FERRAR(t)
        for k, tk, h, f in zip(self.NODES, t, hardy, ferrar):
            with mpmath.workdps(30):
                want = mpmath.digamma(tk + 1) - mpmath.log(tk)
            assert abs(h - float(want)) <= 1e-15 * max(1.0, abs(h))
            # below t = 1e-8 the small-t form, whose next term is O(t^2)
            want = self.K0_SUMS.get(
                k, 0.5 * (EULER_GAMMA + np.log(tk / (4.0 * np.pi))))
            assert abs(f - want) <= 1e-15 * max(1.0, abs(f))


class TestRhl:
    def test_trend_at_reference_points(self, zero_records, mobius_10k):
        rep = verify_rhl(KernelParams(2.0, 0.0), zero_records, 1e-8)
        assert rep.passed
        seq = rep.diagnostics["residual_sequence"]
        assert rep.diagnostics["zero_counts"] == [1, 2, 3, 5, 10]
        assert seq[-1] <= 1e-8
        assert rep.diagnostics["descending"]
        for side in ("alpha_side", "beta_side"):
            assert rep.diagnostics[side]["mobius_terms"] == 10000
            assert 0.0 < rep.diagnostics[side]["mobius_tail_bound"] <= 1e-8

    def test_one_moebius_sum_per_side(self, zero_records, monkeypatch,
                                      fresh_caches):
        # one Moebius sum per side and one zero-sum pass per side, each
        # over the first 10 zeros only, whatever the number of zero counts
        from xiverify import numseries as ns
        from xiverify import xikernel
        sums, passes = [], []
        mobius = ns.mobius_theta_sum

        def counted_mobius(alpha, z, *args):
            sums.append((alpha, complex(z)))
            return mobius(alpha, z, *args)

        series = xikernel._hyp_series

        def counted_series(name, num, den, z):
            passes.append(np.size(num[0]))
            return series(name, num, den, z)

        monkeypatch.setattr(ns, "mobius_theta_sum", counted_mobius)
        monkeypatch.setattr(xikernel, "_hyp_series", counted_series)
        rep = verify_rhl(KernelParams(2.0, 1.0), zero_records, 1e-8)
        assert rep.diagnostics["zero_counts"] == [1, 2, 3, 5, 10]
        assert sums == [(2.0, 1.0), (0.5, 1.0j)]
        # one 1F1 series, rho and its conjugate as two rows: the alpha
        # side's rows at -1/4 are Kummer's fold of the series at 1/4,
        # whose rows the cache keeps, and the beta side's rows are those
        # at -(i z)^2/4 = 1/4
        assert passes == [20]
        # the rows do not depend on alpha: a second alpha at the same z
        # takes both from the cache
        verify_rhl(KernelParams(0.8, 1.0), zero_records, 1e-8)
        assert passes == [20]

    def test_warm_caches_give_cold_report(self, zero_records, fresh_caches):
        # the zero sums' per-process factors and 1F1 rows, filled at other
        # alphas and at -z, leave every byte of the report as cold

        def cold(params):
            fresh_caches()
            return repr(verify_rhl(params, zero_records, 1e-8))

        for z in (1.0, 1.0 + 0.5j):
            z = complex(z)
            want = {w: cold(KernelParams(0.8, w)) for w in (z, -z)}
            cold(KernelParams(0.5, -z))
            verify_rhl(KernelParams(2.0, z), zero_records, 1e-8)
            for w in (z, -z):
                got = repr(verify_rhl(KernelParams(0.8, w), zero_records,
                                      1e-8))
                assert got == want[w]

    def test_prepared_rows_serve_both_sides(self, zero_records,
                                            fresh_caches, summed_rows):
        # prepare_rhl sums the rows at -z^2/4 and -(iz)^2/4 = z^2/4 of
        # every point, both from the one series at whichever of the two
        # has Re >= 0; the reports then sum none and keep their cold bytes
        from xiverify import identities as I
        from xiverify import xikernel
        points = [(2.0, 1.0), (0.5, 2j), (1.25, 1.0 + 0.5j), (0.8, -1.0)]

        def report(alpha, z):
            return repr(verify_rhl(KernelParams(alpha, z), zero_records,
                                   1e-8))

        cold = {}
        for p in points:
            fresh_caches()
            cold[p] = report(*p)
        fresh_caches()
        summed_rows.clear()
        I.prepare_rhl(points, zero_records)
        assert len(summed_rows) == 3
        assert xikernel._rho_series_rows.cache_info().currsize == 6
        assert [report(*p) for p in points] == [cold[p] for p in points]
        assert len(summed_rows) == 3 and set(summed_rows.values()) == {1}

    def test_rejects_empty_zeros(self):
        with pytest.raises(ValueError, match="at least one zero"):
            verify_rhl(KernelParams(2.0, 0.0), [], 1e-8)

    def test_requires_mobius_depth(self, zero_records, monkeypatch):
        # ten Moebius terms leave a tail the gate cannot certify
        from xiverify import identities as I
        monkeypatch.setattr(I, "RHL_MOBIUS_LIMIT", 10)
        rep = verify_rhl(KernelParams(2.0, 0.0), zero_records, 1e-8)
        assert not rep.passed
        assert rep.diagnostics["alpha_side"]["mobius_tail_bound"] > 1e-8

    def test_no_overflow_at_large_alpha_times_imaginary_z(self, zero_records):
        # cos(sqrt(pi) alpha z / n) alone overflows here (RuntimeWarning,
        # an error under this suite); the sum's terms stay finite
        rep = verify_rhl(KernelParams(100.0, 5.0j), zero_records, 1e-8)
        assert all(np.isfinite(v) for v in rep.sides.values())

    def test_overflowing_tail_bound_says_why(self, zero_records):
        with pytest.raises(ValueError, match="tail bound"):
            verify_rhl(KernelParams(1e6, 0.0), zero_records, 1e-8)


class TestAuxiliaryForms:
    def test_battery_passes(self):
        reports = aux_checks(1e-9)
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
        (got, _), closed = log_gaussian_check(a, 0.0)
        assert closed == log_gaussian_closed_form(a, 0.0)
        assert abs(got - want) <= 1e-11

    def test_log_gaussian_complex_z(self):
        z = 0.5j
        (got, _), _ = log_gaussian_check(1.0, z)
        want = log_gaussian_closed_form(1.0, z)
        assert abs(got - want) <= 1e-11

    def test_log_gaussian_validates_alpha(self):
        with pytest.raises(ValueError):
            log_gaussian_check(-1.0, 0.0)

    @pytest.mark.parametrize("t", [1e-3, 0.37, 1.0, 10.0])
    def test_cotangent_partial_fraction(self, t):
        (series, _), closed = cotangent_partial_fraction_check(t)
        assert abs(series - closed) <= 1e-9

    def test_cotangent_small_t_has_no_cancellation(self):
        # the closed form's bracket at x = 2 pi t is x/12 - x^3/720 + ...;
        # taken as 1/expm1(x) - 1/x + 1/2 it cost 5.3e-11 here
        (series, _), closed = cotangent_partial_fraction_check(1e-3)
        assert abs(series - closed) <= 1e-14

    def test_cotangent_validates_t(self):
        with pytest.raises(ValueError):
            cotangent_partial_fraction_check(0.0)

    @pytest.mark.parametrize("alpha,n", [(1.0, 1), (1.0, 3), (0.5, 1),
                                         (2.0, 2)])
    def test_gaussian_bessel_laplace(self, alpha, n):
        (value, _), closed = ferrar_gaussian_bessel_check(alpha, n)
        assert abs(value - closed) <= 1e-9

    def test_gaussian_bessel_validates(self):
        with pytest.raises(ValueError):
            ferrar_gaussian_bessel_check(1.0, 0)

    def test_watson_lattice(self):
        for t in (1.0, 2.5):
            (direct, _), lattice = watson_lattice_check(t)
            assert abs(direct - lattice) <= 1e-12
        with pytest.raises(ValueError):
            watson_lattice_check(0.05)

    def test_watson_lattice_spans_both_routes(self, monkeypatch):
        # the Bessel side must come from the direct sum even where
        # k0_sum_minus_pole takes the lattice route, or the check compares a route with itself
        from xiverify import numseries as ns
        direct = ns.k0_sum_direct
        monkeypatch.setattr(ns, "k0_sum_direct", lambda t: direct(t) + 1e-6)
        (direct, _), lattice = watson_lattice_check(1.0)
        assert abs(direct - lattice) >= 1e-6

    def test_inverse_mellin_recoveries(self):
        # the battery's two lines and two more: a real and a complex z, a
        # line left of the battery's and one right of it
        for x, z, c in ((2.0, 1.0, 1.0), (np.sqrt(np.pi), 1.0, 1.5),
                        (1.0, 0.5j, 0.7), (0.5, 2.0, 2.0)):
            (got, diag), want = inverse_mellin_check(x, z, c)
            assert want == np.exp(-x * x) * np.cos(x * z)
            assert abs(got - want) <= 1e-12, (x, z, c)
            assert diag["path"] == "quad.tabulated"

    def test_inverse_mellin_takes_the_product_rho(self, monkeypatch):
        # the check integrates the same rho as the Xi sides: a fault in
        # rho_rows shows in it
        from xiverify import identities as I
        real = I.rho_rows
        monkeypatch.setattr(I, "rho_rows",
                            lambda *args: real(*args) * (1.0 + 1e-6))
        (got, _), _ = inverse_mellin_check(2.0, 1.0, 1.0)
        assert abs(got - np.exp(-4.0) * np.cos(2.0)) >= 1e-9
