"""Identity verification: every side computed independently, then compared.

Each verify_* operation evaluates all sides of one transformation formula
by disjoint routes (series vs quadrature vs contour), forms normalized
pairwise residuals |a - b| / (1 + max(|a|, |b|)), and returns a
VerificationReport.  A report passes when every residual is within the
requested tolerance.

The family shares one shape.  Twin sides sqrt(x) e^(w^2/8) X(x, w),
X a weighted series or integral, agree at (x, w) = (alpha, z) and at
(beta, iz) with beta = 1/alpha, and both equal one member of the main
theorem's integral class

    int_0^inf Xi(t/2)/(1+t^2) nabla(alpha, z, (1+it)/2) w(t) dt,

nabla(alpha, z, s) = rho(alpha, z, s) + rho(alpha, z, 1-s): one
whole-line rho integral folded onto the half line.  Every Xi side is such
a rho integral, written once here as _xi_side; a family supplies its
weight (theta 1, hardy 1/cosh(pi t/2), ferrar |Gamma((1+it)/4)|^2, the
line integral's real-axis side 4) and the line c + ikt of its rho.  The
twin integral sides are transforms against one physical-side kernel,
int_0^inf phi(t) e^(-pi x^2 t^2) cos(sqrt(pi) x t w) dt, which
_gaussian_cosine builds and _gaussian_twin takes at both points (phi:
hardy psi(t+1) - log t, ferrar the pole-subtracted K0 sum at
x = alpha/(2 pi), Bose t/(e^(2 pi t) - 1)).
Every integral, Xi side, physical side or auxiliary check, integrates a
weight that does not depend on (alpha, z), tabulated once per process on
shared double-exponential nodes (quad.NodeTable), against a kernel that
does, one kernel call per level of the rule (quad.integrate_tabulated).
A Xi side's kernel is xikernel.rho_rows, whose 1F1 rows do not depend
on alpha and are cached per process by (z^2/4, line, node batch); a
family's prepare step sums the start batch's rows of all its cells in
one grouped series per line (prepare_xi_sides).
Physical and Xi sides share that rule and nothing else.
Every verifier hands _report one (value, diagnostics) record per side.
A quadrature side's record comes from _quad_side, and its abs_error is
in the side's own units: the integral's estimate times |d side/d
integral|, the prefactor that turns the integral into the side.

The solitary exception is the Bose-type formula, whose kernel
rho(alpha, z, (3+it)/2) breaks the alpha <-> beta swap; there only the
two-sided equality and the realness of the integral are claimed, plus a
separate z = 0 invariance, alpha lhs(alpha, 0) = beta lhs(beta, 0).
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import numseries as ns
from . import quad, specfun, xikernel
from .specfun import (EULER_GAMMA, besselk0_scaled, digamma, hyp1f1,
                      hyp2f2_11, lngamma, mobius_sieve)
from .xikernel import KernelParams, rho_rows, xi_cap, xi_small

_SQRT_PI = np.sqrt(np.pi)

# B_2k/(2k)! for k = 10 down to 1: 1/expm1(x) - 1/x + 1/2 is the sum of
# B_2k x^(2k-1)/(2k)!, whose first omitted term is below 6e-18 at x < 1
_COT_SERIES = np.array([b / math.factorial(2 * k) for k, b in enumerate(
    (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
     -3617 / 510, 43867 / 798, -174611 / 330), start=1)])[::-1]


# eq=False: reports hold dicts, so they compare and hash by identity
@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Outcome of one identity check.

    sides maps a side name to its computed complex value; residuals maps
    "name_a|name_b" to the normalized difference.  passed is True iff all
    residuals (including any imaginary-part residuals added by the
    operation) are within tolerance.  diagnostics carries per-side
    provenance: evaluation counts and error estimates for quadrature
    sides, term/zero counts for series sides, or, when a check could not
    be evaluated, the reason under "error" (with no sides or residuals).
    """

    identity_id: str
    params: KernelParams
    sides: dict
    residuals: dict
    tolerance: float
    passed: bool
    diagnostics: dict

    def __repr__(self):
        worst = max(self.residuals.values()) if self.residuals else 0.0
        return ("VerificationReport(%s, alpha=%g, z=%s, worst=%.3e, %s)"
                % (self.identity_id, self.params.alpha, self.params.z,
                   worst, "pass" if self.passed else "FAIL"))


def residual(a, b):
    """Normalized difference |a - b| / (1 + max(|a|, |b|))."""
    a, b = complex(a), complex(b)
    return abs(a - b) / (1.0 + max(abs(a), abs(b)))


def _report(identity_id, params, sides, tol, pairs=None,
            extra_residuals=None):
    """Build a report from sides, name -> (value, diagnostics); a side
    whose diagnostics are None gets no diagnostics entry.  Every pair of
    sides is compared unless pairs names the ones to compare."""
    values = {name: complex(v) for name, (v, _) in sides.items()}
    diagnostics = {name: d for name, (_, d) in sides.items()
                   if d is not None}
    names = list(values)
    if pairs is None:
        pairs = [(names[i], names[j]) for i in range(len(names))
                 for j in range(i + 1, len(names))]
    residuals = {}
    for a, b in pairs:
        residuals["%s|%s" % (a, b)] = residual(values[a], values[b])
    if extra_residuals:
        residuals.update(extra_residuals)
    passed = all(r <= tol for r in residuals.values())
    return VerificationReport(identity_id, params, values, residuals, tol,
                              passed, diagnostics)


def _quad_side(value, res, slope=1.0):
    """The (value, diagnostics) record of a side that is an affine
    function of the quadrature result res, slope its derivative with
    respect to res.value: the side's abs_error is res's estimate times
    |slope|, in the side's own units."""
    return value, {"path": "quad.tabulated", "evaluations": res.evaluations,
                   "abs_error": float(abs(slope) * res.abs_error)}


def _abs_gamma_sq(s):
    """|Gamma(s)|^2 from the real part of lngamma."""
    return np.exp(2.0 * np.real(lngamma(s)))


def _sech(x):
    """1/cosh(x) for x >= 0, without overflow far out."""
    e = np.exp(-x)
    return 2.0 * e / (1.0 + e * e)


# The Xi-side weights, each tabulated once per process on the shared
# double-exponential nodes (quad.NodeTable), so a Xi side costs one kernel
# call per level; all but the contour's derive from one table of Xi(t/2).
_XI_HALF = quad.NodeTable(lambda t: xi_cap(0.5 * t))
# Xi(t/2)/(1+t^2) times theta's weight 1 (the line integral's real-axis
# side takes 4 times its integral), hardy's and ferrar's
_XI_NABLA = _XI_HALF.derive(lambda t, xi: xi / (1.0 + t * t))
_XI_HARDY = _XI_NABLA.derive(lambda t, w: w * _sech(0.5 * np.pi * t))
_XI_FERRAR = _XI_NABLA.derive(
    lambda t, w: w * _abs_gamma_sq(0.25 * (1.0 + 1j * t)))
_XI_DIGAMMA = _XI_HALF.derive(
    lambda t, xi: xi * xi * _abs_gamma_sq(0.25 * (-1.0 + 1j * t))
    / (1.0 + t * t))
_XI_BOSE = _XI_HALF.derive(
    lambda t, xi: _abs_gamma_sq(0.25 * (-1.0 + 1j * t)) * xi)


def _contour_weight(u):
    """xi(s)/(s(1-s)) at s = 1/2 + iu and 1/2 - iu, one row each.

    xi is real on the real axis, so xi(conj s) = conj xi(s): the second
    row's xi is taken as the conjugate of the first's, which on every
    level of the rule are the bits xi_small gives at 1/2 - iu."""
    s = 0.5 + 1j * np.stack([u, -u])
    xi = xi_small(s[0])
    return np.stack([xi, np.conj(xi)]) / (s * (1.0 - s))


_XI_CONTOUR = quad.NodeTable(_contour_weight)

# The physical sides' phi and the aux checks' weights, tabulated the same
# way.  Bose's t/(e^(2 pi t) - 1) is taken through e^(-2 pi t), because
# e^(2 pi t) overflows at the last node.  Each weight looks its functions
# up when a batch is built, so a rebound module attribute is seen.
_PHI_HARDY = quad.NodeTable(lambda t: digamma(t + 1.0) - np.log(t))
_PHI_FERRAR = quad.NodeTable(lambda t: ns.k0_sum_minus_pole(t))
_PHI_BOSE = quad.NodeTable(
    lambda t: t * np.exp(-2.0 * np.pi * t) / -np.expm1(-2.0 * np.pi * t))
_LOG = quad.NodeTable(np.log)
_ONES = quad.NodeTable(np.ones_like)


def reset_caches():
    """Empty every per-process cache, as in a fresh process: each cache
    of specfun, xikernel, numseries and quad with functools' cache_clear,
    and each weight table here.  They are found by what they are, not from a
    list, so a cache added to those modules is emptied too."""
    for module in (specfun, xikernel, ns, quad):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    for obj in globals().values():
        if isinstance(obj, quad.NodeTable):
            obj.clear()


# the lines c +- ikt the Xi sides take rho on: s = (1 +- it)/2 (theta,
# digamma, hardy, ferrar, the line integral's real axis), Bose's
# (3 +- it)/2 and the contour's 1/2 +- it
CRITICAL_LINE = (0.5, 0.5)
BOSE_LINE = (1.5, 0.5)
CONTOUR_LINE = (0.5, 1.0)


def prepare_xi_sides(points, lines):
    """Sum the 1F1 rows the Xi sides on lines take on their rule's
    start batch at each (alpha, z) of points, in grouped series, into
    xikernel's row cache (xikernel.prepare_rho_series), each w formed
    as rho_rows forms it.  The reports keep their bits."""
    xikernel.prepare_rho_series(
        [xikernel._rho_argument(z) for _alpha, z in points], lines,
        quad.start_nodes())


def _xi_side(params, c, k, table, tol):
    """int_{-inf}^{inf} W(t) rho(alpha, z, c + ikt) dt, folded onto the
    half line: W is tabulated in table, one row if it is even, else W(t)
    and W(-t), and rho at c +- ikt are the two rows of one rho_rows
    call, one 1F1 series that stops when both rows have converged.  At
    c = 1/2 the rows are s and 1 - s and sum to nabla(alpha, z, s).
    Sides at other alphas, in other families on the same line or at -z
    reuse the series rows.
    """
    a, z = params.alpha, params.z
    return quad.integrate_tabulated(lambda t: rho_rows(a, z, c, k, t),
                                    table, tol)


def _gaussian_cosine(x, w):
    """The kernel t -> e^(-pi x^2 t^2) cos(sqrt(pi) x t w) as its two
    rows e^(-pi x^2 t^2 +- i sqrt(pi) x t w)/2: one exponential each, so
    no factor overflows where the product would not (the real part of
    the exponent is at most (Im w)^2/4)."""
    def kernel(t):
        gauss = -np.pi * x * x * t * t
        phase = 1j * _SQRT_PI * x * w * t
        return 0.5 * np.exp(np.stack([gauss + phase, gauss - phase]))

    return kernel


def _gaussian_twin(params, phi, scale, tol):
    """The twin sides sqrt(x) e^(w^2/8) int_0^inf phi(t) e^(-pi y^2 t^2)
    cos(sqrt(pi) y t w) dt, y = x/scale, phi a table, as (value,
    diagnostics) records at (x, w) = (alpha, z) and (beta, iz)."""
    def side(x, w):
        r = quad.integrate_tabulated(_gaussian_cosine(x / scale, w), phi,
                                     tol)
        prefactor = np.sqrt(x) * np.exp(w * w / 8.0)
        return _quad_side(prefactor * r.value, r, prefactor)

    return side(params.alpha, params.z), side(params.beta, 1j * params.z)


# ---------------------------------------------------------------------------
# theta transformation


def verify_theta(params, tol):
    """Three-way check of the Gaussian theta transformation.

    alpha series:  sqrt(a) (e^(-z^2/8)/(2a) - e^(z^2/8) theta_sum(a, z))
    beta series:   sqrt(b) (e^(z^2/8)/(2b) - e^(-z^2/8) cosh_theta_sum(b, z))
    Xi integral:   (1/pi) int_0^inf Xi(t/2)/(1+t^2) nabla(a, z, (1+it)/2) dt
    """
    a, z = params.alpha, params.z
    b = params.beta
    qtol = 0.25 * tol
    # sums first: their term ceiling must speak before a prefactor overflows
    sum_a, sum_b = ns.theta_sum(a, z), ns.cosh_theta_sum(b, z)
    side_alpha = np.sqrt(a) * (np.exp(-z * z / 8.0) / (2.0 * a)
                               - np.exp(z * z / 8.0) * sum_a)
    side_beta = np.sqrt(b) * (np.exp(z * z / 8.0) / (2.0 * b)
                              - np.exp(-z * z / 8.0) * sum_b)
    res = _xi_side(params, *CRITICAL_LINE, _XI_NABLA, qtol)
    return _report("theta", params, {
        "alpha_series": (side_alpha, {"path": "numseries.theta_sum"}),
        "beta_series": (side_beta, {"path": "numseries.cosh_theta_sum"}),
        "xi_integral": _quad_side(res.value / np.pi, res, 1.0 / np.pi)}, tol)


# ---------------------------------------------------------------------------
# digamma-remainder identity


def verify_ramanujan_digamma(alpha, tol):
    """Three-way check of the digamma-remainder transformation (no z).

    series(x) = sqrt(x) ((gamma - log(2 pi x))/(2x) + lambda_sum(x)),
    evaluated at alpha and at 1/alpha, against
    -(1/pi^(3/2)) int_0^inf Xi(t/2)^2 |Gamma((-1+it)/4)|^2
                             cos((t/2) log alpha) / (1+t^2) dt.
    The integral is half the Xi side at z = 0, whose rho pair at
    (1 +- it)/2 is 2 cos((t/2) log alpha); its target doubles with it.
    """
    a = float(alpha)
    params = KernelParams(a, 0.0)
    b = params.beta
    qtol = 0.25 * tol

    def series_side(x):
        s = ns.lambda_sum(x)  # before 1/(2x) can overflow, as in theta
        return np.sqrt(x) * ((EULER_GAMMA - np.log(2.0 * np.pi * x))
                             / (2.0 * x) + s)

    side_alpha, side_beta = series_side(a), series_side(b)
    res = _xi_side(params, *CRITICAL_LINE, _XI_DIGAMMA, 2.0 * qtol)
    return _report("digamma", params, {
        "alpha_series": (side_alpha, {"path": "numseries.lambda_sum"}),
        "beta_series": (side_beta, {"path": "numseries.lambda_sum"}),
        "xi_integral": _quad_side(-0.5 * res.value / np.pi ** 1.5, res,
                                  0.5 / np.pi ** 1.5)}, tol)


# ---------------------------------------------------------------------------
# Hardy-type integral transformation


def verify_hardy(params, tol):
    """Three-way check of the digamma-Gaussian integral transformation.

    sqrt(a) e^(z^2/8) X(a, z) = sqrt(b) e^(-z^2/8) X(b, iz)
      = int_0^inf Xi(t/2)/(1+t^2) nabla(a,z,(1+it)/2) / cosh(pi t/2) dt,
    X(x, w) = int_0^inf (psi(t+1) - log t) e^(-pi x^2 t^2)
    cos(sqrt(pi) x t w) dt, log-singular at t = 0.
    """
    qtol = 0.25 * tol
    side_a, side_b = _gaussian_twin(params, _PHI_HARDY, 1.0, qtol)
    res = _xi_side(params, *CRITICAL_LINE, _XI_HARDY, qtol)
    return _report("hardy", params, {
        "alpha_integral": side_a, "beta_integral": side_b,
        "xi_integral": _quad_side(res.value, res)}, tol)


# ---------------------------------------------------------------------------
# Ferrar-type Bessel-sum transformation


def ferrar_bessel_closed_form(alpha):
    """The z = 0 value of the Ferrar side via the Bessel-difference series:

    -(pi/4) sqrt(a) [ (-gamma + log(16 pi) + 2 log a)/a
                      - 2 sum_n (e^(x_n) K0(x_n) - 1/(n a)) ].
    """
    a = float(alpha)
    return -(np.pi / 4.0) * np.sqrt(a) * (
        (-EULER_GAMMA + np.log(16.0 * np.pi) + 2.0 * np.log(a)) / a
        - 2.0 * ns.ferrar_bessel_sum(a))


def verify_ferrar(params, tol):
    """Three-way check of the K0-sum transformation; four-way at z = 0.

    sqrt(a) e^(z^2/8) B(a, z) = sqrt(b) e^(-z^2/8) B(b, iz)
      = -(1/(2 sqrt(pi))) int_0^inf Gamma((1+it)/4) Gamma((1-it)/4)
            Xi(t/2)/(1+t^2) nabla(a,z,(1+it)/2) dt,
    and at z = 0 also the closed Bessel-difference series form.  B is the
    Gaussian-cosine transform at width x/(2 pi) of sum_n K0(n t) - pi/(2t),
    which is (gamma + log(t/(4 pi)))/2 + O(t^2) near 0: log-singular.
    """
    qtol = 0.25 * tol
    side_a, side_b = _gaussian_twin(params, _PHI_FERRAR, 2.0 * np.pi, qtol)
    res = _xi_side(params, *CRITICAL_LINE, _XI_FERRAR, qtol)
    sides = {"alpha_integral": side_a, "beta_integral": side_b,
             "xi_integral": _quad_side(-res.value / (2.0 * _SQRT_PI), res,
                                       0.5 / _SQRT_PI)}
    if params.z == 0.0:
        sides["bessel_series"] = (ferrar_bessel_closed_form(params.alpha),
                                  {"path": "numseries.ferrar_bessel_sum"})
    return _report("ferrar", params, sides, tol)


# ---------------------------------------------------------------------------
# Bose-type formula (no beta twin)


def _bose_left_side(a, z, tol):
    """a^(-1/2) e^(-z^2/8) - 4 pi a^(1/2) e^(z^2/8)
    int_0^inf t e^(-pi a^2 t^2) cos(sqrt(pi) a t z)/(e^(2 pi t) - 1) dt,
    with the quadrature result and the integral's prefactor
    4 pi a^(1/2) e^(z^2/8)."""
    r = quad.integrate_tabulated(_gaussian_cosine(a, z), _PHI_BOSE, tol)
    prefactor = 4.0 * np.pi * np.sqrt(a) * np.exp(z * z / 8.0)
    return (np.exp(-z * z / 8.0) / np.sqrt(a) - prefactor * r.value, r,
            prefactor)


def verify_ramanujan_bose(params, tol):
    """Two-way check of the Bose-kernel formula.

    Left side as above; right side
    (1/(8 pi^(3/2))) int_{-inf}^{inf} Gamma((-1+it)/4) Gamma((-1-it)/4)
        Xi(t/2) rho(a, z, (3+it)/2) dt.
    The 3/2 in rho destroys the alpha <-> beta swap, so no twin side; the
    integral must be real (conjugate-symmetric integrand) when z^2 is
    real.  At z = 0 the left side is checked for the invariance
    alpha lhs(alpha, 0) = beta lhs(beta, 0): invariant_beta is alpha times
    the weighted side already computed, so only invariant_alpha costs a
    quadrature.
    """
    a, z = params.alpha, params.z
    qtol = 0.25 * tol
    lhs, rl, pl = _bose_left_side(a, z, qtol)
    res = _xi_side(params, *BOSE_LINE, _XI_BOSE, qtol)
    rhs = res.value / (8.0 * np.pi ** 1.5)
    sides = {"weighted_integral": _quad_side(lhs, rl, pl),
             "xi_integral": _quad_side(rhs, res, 1.0 / (8.0 * np.pi ** 1.5))}
    pairs = [("weighted_integral", "xi_integral")]
    extra = {}
    if (z * z).imag == 0.0:
        extra["xi_integral_imag"] = abs(rhs.imag) / (1.0 + abs(rhs))
    if z == 0.0:
        b = params.beta
        lb, rb, pb = _bose_left_side(b, 0.0, qtol)
        sides["invariant_alpha"] = _quad_side(b * lb, rb, b * pb)
        sides["invariant_beta"] = (a * lhs, {"path": "weighted_integral"})
        pairs.append(("invariant_alpha", "invariant_beta"))
    return _report("ramanujan", params, sides, tol, pairs=pairs,
                   extra_residuals=extra)


# ---------------------------------------------------------------------------
# Moebius / zero-sum transformation (Ramanujan-Hardy-Littlewood)

# the zero counts at which the rhl residual is recorded (verify_rhl uses
# only the first max(RHL_COUNTS) zeros), and the Moebius sums' cutoff N
RHL_COUNTS = (1, 2, 3, 5, 10)
RHL_MOBIUS_LIMIT = 10 ** 4


def _rhl_side(x, w, table, zeros, counts, path):
    """The side at (x, w) at every zero count, and its diagnostics."""
    mob, tail = ns.mobius_theta_sum(x, w, table)
    scale = np.exp(w * w / 8.0)
    values = [np.sqrt(x) * scale * mob
              - scale / (4.0 * _SQRT_PI * np.sqrt(x)) * zs
              for zs in ns.zero_sum_bracketed(zeros, x, w, counts)]
    return values, {"path": path, "mobius_terms": table.limit,
                    "mobius_tail_bound": float(np.sqrt(x) * abs(scale) * tail)}


def prepare_rhl(points, zeros):
    """Sum the zero-sum 1F1 rows verify_rhl(KernelParams(alpha, z), zeros,
    tol) takes at each (alpha, z) of points, at -z^2/4 on its alpha side
    and -(iz)^2/4 = z^2/4 on its beta side, in point order, as one
    grouped series (numseries.prepare_zero_sums), in which the two are
    one group.  The reports keep their bits."""
    zs = [complex(z) for _alpha, z in points]
    ns.prepare_zero_sums(zeros[:max(RHL_COUNTS)],
                         [w for z in zs for w in (z, 1j * z)])


def verify_rhl(params, zeros, tol):
    """Check of the Moebius/zero-sum transformation.

    Both sides are the same expression at (alpha, z) and (1/alpha, iz):
    sqrt(x) e^(w^2/8) mobius_theta_sum - e^(w^2/8)/(4 sqrt(pi x)) zero_sum.
    The Moebius sum to N = RHL_MOBIUS_LIMIT carries a tail bound, so the
    zero count limits the residual; it is recorded at each count of
    RHL_COUNTS.  A report passes when every residual falls below the one
    before until it reaches 1e-3 tol, the final one is within tol, and
    each side's tail bound, scaled by its prefactor sqrt(x) |e^(w^2/8)|,
    is within tol.
    Each side is one mobius_theta_sum call and one zero_sum_bracketed
    pass that yields the sum at every count.  Raises ValueError on an
    empty zeros list.
    """
    if len(zeros) == 0:
        raise ValueError("verify_rhl: need at least one zero")
    zeros = zeros[:max(RHL_COUNTS)]
    a, z = params.alpha, params.z
    table = mobius_sieve(RHL_MOBIUS_LIMIT)
    counts = [c for c in RHL_COUNTS if c <= len(zeros)]
    sides_a, diag_a = _rhl_side(a, z, table, zeros, counts, "numseries@alpha")
    sides_b, diag_b = _rhl_side(params.beta, 1j * z, table, zeros, counts,
                                "numseries@beta")
    seq = [residual(sa, sb) for sa, sb in zip(sides_a, sides_b)]
    descending = all(q < p or p <= 1e-3 * tol for p, q in zip(seq, seq[1:]))
    bounded = all(d["mobius_tail_bound"] <= tol for d in (diag_a, diag_b))
    report = _report("rhl", params, {"alpha_side": (sides_a[-1], diag_a),
                                     "beta_side": (sides_b[-1], diag_b)}, tol)
    diag = {"zero_counts": counts, "residual_sequence": seq,
            "descending": descending, **report.diagnostics}
    return replace(report, passed=report.passed and descending and bounded,
                   diagnostics=diag)


# ---------------------------------------------------------------------------
# real-axis vs contour representation


def verify_line_integral(params, tol):
    """The Xi-weighted real-axis integral against its vertical-contour form.

    int_0^inf (4/(1+t^2)) Xi(t/2) nabla(a,z,(1+it)/2) dt
      = (2/i) int_{1/2-i inf}^{1/2+i inf} xi(s) rho(a,z,s)/(s(1-s)) ds.
    The weight 4/(1+t^2) is f(t/2) for f(t) = 1/(t^2 + 1/4), which is the
    (s(1-s))^(-1) factor restricted to s = (1+it)/2.  The two sides take
    their own nodes (t on the real axis, u = Im s on the contour), their
    own Xi (xi_cap, xi_small) and their own rho pair ((1 +- it)/2 and
    1/2 +- iu).
    """
    qtol = 0.25 * tol
    # 4 times theta's Xi integral, and 2 times the contour's, where
    # s = 1/2 + iu with u and -u as rows, and ds = i du
    axis = _xi_side(params, *CRITICAL_LINE, _XI_NABLA, qtol)
    line = _xi_side(params, *CONTOUR_LINE, _XI_CONTOUR, qtol)
    return _report("lineint", params, {
        "real_axis": _quad_side(4.0 * axis.value, axis, 4.0),
        "contour": _quad_side(2.0 * line.value, line, 2.0)}, tol)


# ---------------------------------------------------------------------------
# auxiliary closed forms: each check returns (record, closed form), the
# record the computed side's (value, diagnostics)


def gaussian_cosine_check(alpha, z):
    """int_0^inf e^(-pi a^2 t^2) cos(sqrt(pi) a t z) dt by quadrature, and
    its closed form e^(-z^2/4)/(2a)."""
    r = quad.integrate_tabulated(_gaussian_cosine(alpha, z), _ONES, 1e-12)
    return _quad_side(r.value, r), np.exp(-z * z / 4.0) / (2.0 * alpha)


def gaussian_cosine_moment_check(alpha, z):
    """The first moment int_0^inf t e^(-pi a^2 t^2) cos(sqrt(pi) a t z) dt
    by quadrature, and its closed form
    (e^(-z^2/4)/(2 pi a^2)) 1F1(-1/2; 1/2; z^2/4)."""
    gauss = _gaussian_cosine(alpha, z)
    r = quad.integrate_tabulated(lambda t: t * gauss(t), _ONES, 1e-12)
    return _quad_side(r.value, r), (
        np.exp(-z * z / 4.0) / (2.0 * np.pi * alpha * alpha)
        * complex(hyp1f1(-0.5, 0.5, z * z / 4.0)))


def log_gaussian_check(alpha, z):
    """int_0^inf e^(-pi a^2 x^2) cos(sqrt(pi) a x z) log x dx by
    quadrature, and log_gaussian_closed_form(alpha, z).

    Log-singular at 0, where the double-exponential nodes cluster.
    """
    a = float(alpha)
    if a <= 0.0:
        raise ValueError("log_gaussian_check: alpha must be positive")
    r = quad.integrate_tabulated(_gaussian_cosine(a, complex(z)), _LOG,
                                 1e-12)
    return _quad_side(r.value, r), log_gaussian_closed_form(alpha, z)


def log_gaussian_closed_form(alpha, z):
    """-(e^(-z^2/4)/(4a)) (gamma + log(4 pi a^2) + (z^2/2) 2F2(1,1;3/2,2;z^2/4))."""
    a = float(alpha)
    z = complex(z)
    w = 0.25 * z * z
    return complex(-(np.exp(-z * z / 4.0) / (4.0 * a))
                   * (EULER_GAMMA + np.log(4.0 * np.pi * a * a)
                      + 2.0 * w * hyp2f2_11(w)))


def cotangent_partial_fraction_check(t):
    """sum_n 1/(t^2+n^2) and its closed form
    (pi/t)(1/(e^(2 pi t)-1) - 1/(2 pi t) + 1/2).

    The series is summed directly to N ~ max(1000, 50 t) and completed
    with the Euler-Maclaurin tail int_N^inf dn/(t^2+n^2) - f(N)/2
    - f'(N)/12, whose next omitted term is O(N^-5).  Below x = 2 pi t = 1
    the closed form's bracket is summed as its Bernoulli series, because
    its three terms cancel to O(x).
    """
    t = float(t)
    if t <= 0.0:
        raise ValueError("cotangent_partial_fraction_check: t must be positive")
    N = max(1000, int(np.ceil(50.0 * t)))
    n = np.arange(1.0, N + 1.0)
    head = (1.0 / (t * t + n * n))[::-1].sum()
    q = t * t + N * N
    # the integral is (pi/2 - arctan(N/t))/t, taken without cancellation
    tail = np.arctan(t / N) / t - 0.5 / q + N / (6.0 * q * q)
    x = 2.0 * np.pi * t
    bracket = (x * np.polyval(_COT_SERIES, x * x) if x < 1.0
               else 1.0 / np.expm1(x) - 1.0 / x + 0.5)
    return (head + tail, {"path": "numseries"}), (np.pi / t) * bracket


def ferrar_gaussian_bessel_check(alpha, n):
    """int_0^inf e^(-a^2 t^2/(4 pi)) dt / sqrt(t^2 + 4 pi^2 n^2) by
    quadrature and its closed form (1/2) e^(x) K0(x), x = pi a^2 n^2 / 2."""
    a = float(alpha)
    if a <= 0.0 or n < 1:
        raise ValueError("ferrar_gaussian_bessel_check: need alpha > 0, n >= 1")
    gauss = _gaussian_cosine(a / (2.0 * np.pi), 0.0)
    r = quad.integrate_tabulated(
        lambda t: gauss(t) / np.sqrt(t * t + 4.0 * np.pi * np.pi * n * n),
        _ONES, 1e-12)
    return _quad_side(r.value, r), 0.5 * besselk0_scaled(
        0.5 * np.pi * a * a * n * n)


def watson_lattice_check(t):
    """The two sides of the K0-sum lattice identity at t, the direct
    Bessel route as the computed side and the square-root lattice route
    as the closed form:

    2 sum K0(n t) = pi (1/t + 2 S(t)) + gamma + log(t/2) - log(2 pi),
    S(t) = sum_n (1/sqrt(t^2 + 4 pi^2 n^2) - 1/(2 pi n)).

    The Bessel sum comes from numseries.k0_sum_direct at every t >= 0.2
    (smaller t raises ValueError), not from k0_sum_minus_pole, which
    takes the lattice route itself below t = 4; so the two routes stay
    independent on both sides of that seam.  The two differ by at most
    3.1e-15 at 100 points of [0.2, 4] and 8.9e-16 at 100 points of
    [4, 10].
    """
    t = float(t)
    return ((2.0 * ns.k0_sum_direct(t), {"path": "numseries"}),
            np.pi * (1.0 / t + 2.0 * ns.sqrt_lattice_sum(t)) + EULER_GAMMA
            + np.log(0.5 * t) - np.log(2.0 * np.pi))


def inverse_mellin_check(x, z, c):
    """e^(-x^2) cos(xz) recovered from the Mellin image of rho on the
    vertical line s = c + iu, c > 0, and e^(-x^2) cos(xz) itself:

    (1/(2 pi)) int Gamma(s/2) rho(x, z, s) du = 2 sqrt(x) e^(z^2/8 - x^2)
    cos(xz).  rho is the Xi sides' own, the rows of rho_rows at
    s = c +- iu, so the check covers the product's kernel and row cache.
    The closed form takes z as given, so a real z gives a real value.
    """
    x, zc = float(x), complex(z)

    def kernel(u):
        # u and -u as rows
        s = c + 1j * np.stack([u, -u])
        return np.exp(lngamma(0.5 * s)) * rho_rows(x, zc, c, 1.0, u)

    r = quad.integrate_tabulated(kernel, _ONES, 1e-11)
    scale = 4.0 * np.pi * np.sqrt(x) * np.exp(zc * zc / 8.0)
    return (_quad_side(r.value / scale, r, 1.0 / scale),
            np.exp(-x * x) * np.cos(x * z))


# the auxiliary checks in battery order: (report name, check, the check's
# arguments, the report's (alpha, z))
_AUX_CHECKS = (
    [("aux:gaussian_cosine", gaussian_cosine_check, (1.0, 0.5), (1.0, 0.5)),
     ("aux:gaussian_cosine_moment", gaussian_cosine_moment_check, (1.0, 0.5),
      (1.0, 0.5))]
    + [("aux:log_gaussian", log_gaussian_check, p, p)
       for p in ((1.0, 0.0), (1.0, 1.0), (2.0, 0.5j))]
    + [("aux:cotangent", cotangent_partial_fraction_check, (t,), (1.0, t))
       for t in (1.0, 1e-3, 10.0)]
    + [("aux:gaussian_bessel", ferrar_gaussian_bessel_check, p, p)
       for p in ((1.0, 1), (1.0, 3), (0.5, 1))]
    + [("aux:k0_lattice", watson_lattice_check, (1.0,), (1.0, 1.0))]
    # inverse-Mellin recoveries at z = 1, on the lines Re s = 1 and 3/2
    + [(name, inverse_mellin_check, (x, 1.0, c), (x, 1.0))
       for name, x, c in (("aux:inverse_mellin", 2.0, 1.0),
                          ("aux:inverse_mellin_kernel", _SQRT_PI, 1.5))])


def aux_checks(tol):
    """The battery of auxiliary closed-form checks, one report each, its
    computed side against the closed form."""
    reports = []
    for name, check, args, (alpha, z) in _AUX_CHECKS:
        computed, closed = check(*args)
        reports.append(_report(name, KernelParams(alpha, z), {
            "computed": computed, "closed_form": (closed, None)}, tol))
    return reports
