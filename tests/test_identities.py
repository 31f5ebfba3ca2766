"""End-to-end identity verification: each side by its own route.

Frozen side values are 25-30 digit mpmath evaluations of one side only;
the package must then agree with itself across all sides and with the
reference where one is pinned.
"""

import functools
import math
import pathlib

import numpy as np
import pytest

import xiverify

from xiverify.identities import (VerificationReport, aux_checks,
                                 cotangent_partial_fraction_check,
                                 ferrar_bessel_closed_form,
                                 ferrar_gaussian_bessel_check,
                                 inverse_mellin_check,
                                 log_gaussian_closed_form,
                                 log_gaussian_integral, residual,
                                 verify_ferrar, verify_hardy,
                                 verify_line_integral, verify_ramanujan_bose,
                                 verify_ramanujan_digamma, verify_rhl,
                                 verify_theta, watson_lattice_residual)
from xiverify.xikernel import KernelParams, rho_kernel
from xiverify.zeros import prepare_zeros

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
    return aux_checks(tol)


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
    reps = verify(KernelParams(1.25, 1.0), 1e-8)
    for rep in (reps if isinstance(reps, list) else [reps]):
        quad_sides = [name for name, d in rep.diagnostics.items()
                      if d["path"].startswith("quad")]
        assert quad_sides or rep.identity_id in ("aux:cotangent",
                                                 "aux:k0_lattice")
        for name in quad_sides:
            d = rep.diagnostics[name]
            assert d["path"] == "quad.tabulated"
            assert d["evaluations"] == START_NODES
            assert set(d) == {"path", "evaluations", "abs_error"}
            assert 0.0 < d["abs_error"] < 1e-8


def digamma_at(params, tol):
    return verify_ramanujan_digamma(params.alpha, tol)


@functools.lru_cache(maxsize=1)
def _ten_zeros():
    path = pathlib.Path(xiverify.__file__).parent / "data" / "zeros_sample.txt"
    return prepare_zeros(str(path), max_count=10)


def rhl_at(params, tol):
    return verify_rhl(params, _ten_zeros(), 10000, tol)


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


    def test_default_grid_work_counts(self, monkeypatch):
        # one 1F1 series per nabla, and one nabla per cell on the shared
        # nodes, one kernel call at the starting step; before, 260 series
        # and 70 truncation calls over the default grid, then at most 100
        # and 40 with an adaptive Xi side
        from xiverify import cli, quad, specfun
        calls = {"series": 0, "kernel": 0}
        series = specfun._hyp_series
        tabulated = quad.integrate_tabulated

        def counted_series(*args):
            calls["series"] += 1
            return series(*args)

        def counted_tabulated(kernel, table, tol):
            def counted_kernel(t):
                calls["kernel"] += 1
                return kernel(t)
            return tabulated(counted_kernel, table, tol)

        monkeypatch.setattr(specfun, "_hyp_series", counted_series)
        monkeypatch.setattr(quad, "integrate_tabulated", counted_tabulated)
        for alpha, z in cli.default_grid():
            assert verify_theta(KernelParams(alpha, z), 1e-8).passed
        assert calls["series"] == 20
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

    def test_default_grid_work_counts(self, monkeypatch):
        # Over the CLI's default grid at its default tol, in a fresh
        # process, K0 takes 1,449 points: the K0-sum table on the 321
        # nodes of the starting step, once, and the z = 0 Bessel series.
        # The adaptive bracket integrals took 67,946 (1,791,265 with the
        # direct Bessel sum running from t = 0.2).
        from xiverify import cli, specfun
        from xiverify import numseries as ns
        _clear_tables(monkeypatch)
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
        from xiverify import quad
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
        # the weighted side's abs_error, scaled by its prefactor
        # 4 pi sqrt(alpha), covers its distance from the Xi side
        rep = verify_ramanujan_bose(KernelParams(alpha, 0.0), 1e-8)
        d = rep.diagnostics
        gap = abs(rep.sides["weighted_integral"] - rep.sides["xi_integral"])
        assert rep.passed or gap <= (
            4.0 * np.pi * np.sqrt(alpha) * d["weighted_integral"]["abs_error"]
            + d["xi_integral"]["abs_error"] / (8.0 * np.pi ** 1.5))
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

# family -> its Xi sides and the factor each side's quadrature value is
# divided by to give the side (abs_error is the quadrature's)
XI_SIDE_SCALES = {
    verify_theta: {"xi_integral": np.pi},
    verify_hardy: {"xi_integral": 1.0},
    verify_ferrar: {"xi_integral": -2.0 * np.sqrt(np.pi)},
    verify_line_integral: {"real_axis": 1.0, "contour": 0.5},
    verify_ramanujan_bose: {"xi_integral": 8.0 * np.pi ** 1.5},
    # the digamma Xi side's kernel is the rho pair, 2 cos((t/2) log alpha)
    digamma_at: {"xi_integral": -2.0 * np.pi ** 1.5},
}


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


def _clear_tables(monkeypatch):
    """Empty every weight table, Xi or phi, as in a fresh process."""
    from xiverify import identities, quad
    for name, table in vars(identities).items():
        if isinstance(table, quad.NodeTable):
            monkeypatch.setattr(table, "_batches", [])


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
    def test_xi_points_do_not_grow_with_cells(self, verify, monkeypatch):
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
            _clear_tables(monkeypatch)
            for key in seen:
                seen[key] = 0
            for alpha, z in cells:
                assert verify(KernelParams(alpha, z), 1e-8).passed
            counts.append(dict(seen))
        assert counts[0] == counts[1]
        # 321 ordinates; the contour's xi_small takes u and -u as rows
        contour = verify is verify_line_integral
        assert counts[0] == {"xi_cap": START_NODES,
                             "xi_small": 2 * START_NODES if contour else 0}

    def test_tables_come_out_the_same_in_any_order(self, monkeypatch):
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
            _clear_tables(monkeypatch)
            sides = {}
            for verify, params in order:
                sides[verify] = verify(params, 1e-8).sides
            bits = {name: [w.tobytes() for _, _, w in t._batches]
                    for name, t in tables.items()}
            snapshots.append((sides, bits))
        assert snapshots[0] == snapshots[1]
        # only the auxiliary checks use the log and ones tables
        assert {name: len(b) for name, b in snapshots[0][1].items()} == {
            name: 0 if name in ("_LOG", "_ONES") else 2 for name in tables}

    @pytest.mark.parametrize("verify", list(XI_SIDE_SCALES))
    def test_abs_error_covers_the_next_finer_step(self, verify, monkeypatch):
        from xiverify import quad
        grid = ANCHORS + DEFAULT_GRID
        if verify is digamma_at:
            grid = [(a, 0j) for a in dict.fromkeys(a for a, _ in grid)]
        reps = [verify(KernelParams(a, z), 1e-8) for a, z in grid]
        monkeypatch.setattr(quad, "_DE_START", quad._DE_START + 1)
        finer = [verify(KernelParams(a, z), 1e-8) for a, z in grid]
        for rep, fine in zip(reps, finer):
            for side, scale in XI_SIDE_SCALES[verify].items():
                d = rep.diagnostics[side]
                assert d["evaluations"] == START_NODES
                assert fine.diagnostics[side]["evaluations"] == 641
                gap = abs(rep.sides[side] - fine.sides[side]) * abs(scale)
                assert gap <= d["abs_error"]

    def test_tabulated_and_adaptive_rules_agree_on_the_anchors(self):
        # every tabulated integral, Xi or physical side, by the
        # double-exponential rule at the sides' tolerance and by the
        # reference rule on the same weight and kernel
        from xiverify import identities as I
        from xiverify import quad
        tables = (I._XI_NABLA, I._XI_HARDY, I._XI_FERRAR, I._XI_AXIS,
                  I._XI_DIGAMMA, I._XI_BOSE, I._XI_CONTOUR, I._PHI_HARDY,
                  I._PHI_FERRAR, I._PHI_BOSE)
        weights = {table: table(GL_NODES) for table in tables}
        worst = 0.0
        for alpha, z in ANCHORS:
            p = KernelParams(alpha, z)

            def pair(c, k, z=z):
                # the reference's own rho pair at c +- ikt
                return lambda t: (rho_kernel(alpha, z, c + 1j * k * t)
                                  + rho_kernel(alpha, z, c - 1j * k * t))

            def contour(t):
                return np.stack([rho_kernel(alpha, z, 0.5 + 1j * t),
                                 rho_kernel(alpha, z, 0.5 - 1j * t)])

            xi_sides = [(0.5, 0.5, p, pair(0.5, 0.5), table) for table in (
                I._XI_NABLA, I._XI_HARDY, I._XI_FERRAR, I._XI_AXIS)]
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
        # theta, 1.7e6 for lineint, 2.7e3 for Bose) stay above the
        # relative target tol/4 (1 + |value|), and the rule stops after
        # 1281 kernel nodes.  Bose's weighted side runs first, and passes
        # one step finer than the start
        from xiverify import quad
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
        from xiverify import quad
        t = quad._de_batch(0)[0][list(self.NODES)]
        assert (t[0], t[-1]) == (pytest.approx(8.948e-42, rel=1e-3),
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
        rep = verify_rhl(KernelParams(2.0, 0.0), zero_records, 10000, 1e-8)
        assert rep.passed
        seq = rep.diagnostics["residual_sequence"]
        assert rep.diagnostics["zero_counts"] == [1, 2, 3, 5, 10]
        assert seq[-1] <= 1e-8
        assert rep.diagnostics["descending"]
        for side in ("alpha_side", "beta_side"):
            assert rep.diagnostics[side]["mobius_terms"] == 10000
            assert 0.0 < rep.diagnostics[side]["mobius_tail_bound"] <= 1e-8

    def test_one_moebius_sum_per_side(self, zero_records, monkeypatch):
        # one Moebius sum per side and one zero-sum pass per side, each
        # over the first 10 zeros only, whatever the number of zero counts
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
        rep = verify_rhl(KernelParams(2.0, 1.0), zero_records, 10000, 1e-8)
        assert rep.diagnostics["zero_counts"] == [1, 2, 3, 5, 10]
        assert sums == [(2.0, 1.0), (0.5, 1.0j)]
        # z^2 is real at both sides, so a pass is one 1F1 call
        assert passes == [10, 10]

    def test_rejects_empty_zeros(self):
        with pytest.raises(ValueError, match="at least one zero"):
            verify_rhl(KernelParams(2.0, 0.0), [], 10000, 1e-8)

    def test_requires_mobius_depth(self, zero_records):
        with pytest.raises(ValueError, match="N must be >= 1"):
            verify_rhl(KernelParams(2.0, 0.0), zero_records, 0, 1e-8)
        # ten Moebius terms leave a tail the gate cannot certify
        rep = verify_rhl(KernelParams(2.0, 0.0), zero_records, 10, 1e-8)
        assert not rep.passed
        assert rep.diagnostics["alpha_side"]["mobius_tail_bound"] > 1e-8

    def test_no_overflow_at_large_alpha_times_imaginary_z(self, zero_records):
        # cos(sqrt(pi) alpha z / n) alone overflows here (RuntimeWarning,
        # an error under this suite); the sum's terms stay finite
        rep = verify_rhl(KernelParams(100.0, 5.0j), zero_records, 10000,
                         1e-8)
        assert all(np.isfinite(v) for v in rep.sides.values())

    def test_overflowing_tail_bound_says_why(self, zero_records):
        with pytest.raises(ValueError, match="tail bound"):
            verify_rhl(KernelParams(1e6, 0.0), zero_records, 10000, 1e-8)


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
        series, closed = cotangent_partial_fraction_check(t)
        assert abs(series - closed) <= 1e-9

    def test_cotangent_small_t_has_no_cancellation(self):
        # the closed form's bracket at x = 2 pi t is x/12 - x^3/720 + ...;
        # taken as 1/expm1(x) - 1/x + 1/2 it cost 5.3e-11 here
        series, closed = cotangent_partial_fraction_check(1e-3)
        assert abs(series - closed) <= 1e-14

    def test_cotangent_validates_t(self):
        with pytest.raises(ValueError):
            cotangent_partial_fraction_check(0.0)

    @pytest.mark.parametrize("alpha,n", [(1.0, 1), (1.0, 3), (0.5, 1),
                                         (2.0, 2)])
    def test_gaussian_bessel_laplace(self, alpha, n):
        value, closed, _ = ferrar_gaussian_bessel_check(alpha, n)
        assert abs(value - closed) <= 1e-9

    def test_gaussian_bessel_validates(self):
        with pytest.raises(ValueError):
            ferrar_gaussian_bessel_check(1.0, 0)

    def test_watson_lattice(self):
        for t in (1.0, 2.5):
            direct, lattice = watson_lattice_residual(t)
            assert abs(direct - lattice) <= 1e-12
        with pytest.raises(ValueError):
            watson_lattice_residual(0.05)

    def test_watson_lattice_spans_both_routes(self, monkeypatch):
        # the Bessel side must come from the direct sum even where
        # k0_sum_minus_pole takes the lattice route, or the check compares a route with itself
        from xiverify import numseries as ns
        direct = ns.k0_sum_direct
        monkeypatch.setattr(ns, "k0_sum_direct", lambda t: direct(t) + 1e-6)
        direct, lattice = watson_lattice_residual(1.0)
        assert abs(direct - lattice) >= 1e-6

    def test_inverse_mellin_recoveries(self):
        # the battery's two lines and two more: a real and a complex z, a
        # line left of the battery's and one right of it
        for x, z, c in ((2.0, 1.0, 1.0), (np.sqrt(np.pi), 1.0, 1.5),
                        (1.0, 0.5j, 0.7), (0.5, 2.0, 2.0)):
            got, diag = inverse_mellin_check(x, z, c)
            want = np.exp(-x * x) * np.cos(x * z)
            assert abs(got - want) <= 1e-12, (x, z, c)
            assert diag["path"] == "quad.tabulated"

    def test_inverse_mellin_takes_the_product_rho(self, monkeypatch):
        # the check integrates the same rho as the Xi sides: a fault in
        # rho_kernel shows in it
        from xiverify import identities as I
        real = I.rho_kernel
        monkeypatch.setattr(I, "rho_kernel",
                            lambda x, z, s: real(x, z, s) * (1.0 + 1e-6))
        got, _ = inverse_mellin_check(2.0, 1.0, 1.0)
        assert abs(got - np.exp(-4.0) * np.cos(2.0)) >= 1e-9
