"""Adaptive Gauss-Kronrod quadrature for decaying integrands.

Panel rule: the classical 15-point Kronrod extension of 7-point Gauss.
The embedded pair gives a per-panel error estimate |K15 - G7|; panels
whose estimate exceeds their share of the global budget are bisected,
all pending panels being evaluated in one vectorized call so integrands
written on numpy arrays stay fast.

A semi-infinite integral truncates at a point T where a sampled
exponential-decay model bounds the discarded tail below a hundredth of
the requested tolerance, sampling up to three steps of its T ladder per
integrand call; T is then reported so callers can audit it.  A result's
evaluations count every point passed to the integrand, ladder steps past
the chosen T included.  Other ranges reduce to the half line: the whole
line folds onto it as f(t) + f(-t) (as QUADPACK's QAGI does), a vertical
line is a whole line, and a log singularity at 0 is split off at 1 and
taken through x = e^(-u) (integrate_log_singular).
Integrands must accept a 1-d numpy array and return an array of values.
"""

from dataclasses import dataclass, fields, replace

import numpy as np

# 15-point Kronrod abscissae (positive half, descending; last entry 0)
# and weights, with the embedded 7-point Gauss weights.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# full 15-node layout: [-x0 .. -x6, 0, x6 .. x0]
_NODES = np.concatenate([-_XGK[:7], [0.0], _XGK[6::-1]])
_KRONROD_W = np.concatenate([_WGK[:7], [_WGK[7]], _WGK[6::-1]])
_GAUSS_W = np.zeros(15)
for _i, _w in zip((1, 3, 5), _WG[:3]):
    _GAUSS_W[_i] = _w
    _GAUSS_W[14 - _i] = _w
_GAUSS_W[7] = _WG[3]

_EVAL_BUDGET = 100000
_T_CAP = 1000.0
# share of the tolerance the discarded tail may take.  At 1/10 the hardy
# Xi side at (alpha, z) = (2, -1-2i), tol 1e-8, stopped at T = 13.9 with a
# residual of 4.6e-12; at 1/100 the worst Xi-side residual over the
# benchmark's box anchors is 1.8e-12.
_TAIL_SHARE = 0.01
# the ladder steps whose tail points share one integrand call, and where
# each step samples its tail, as fractions of its T
_LADDER_STEPS = 3
_TAIL_FRACTIONS = np.array([0.92, 0.96, 1.0])


@dataclass(frozen=True)
class QuadratureResult:
    """Value, absolute error estimate, evaluation count, truncation point,
    each coerced to its annotated type so reports stay JSON-ready."""

    value: complex
    abs_error: float
    evaluations: int
    truncation_T: float

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, f.type(getattr(self, f.name)))


def _panel_rule(f, lo, hi):
    """Evaluate K15 and the G7-K15 error estimate on a batch of panels."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    pts = mid[:, None] + half[:, None] * _NODES[None, :]
    y = np.asarray(f(pts.ravel()), dtype=np.complex128).reshape(pts.shape)
    # row sums, not `@`: BLAS would leave a helper thread spinning on the
    # other core between calls (see specfun._eta_powers)
    k15 = half * (y * _KRONROD_W).sum(axis=1)
    g7 = half * (y * _GAUSS_W).sum(axis=1)
    return k15, np.abs(k15 - g7)


def _adaptive_finite(f, a, b, tol):
    """Globally adaptive bisection on [a, b]; returns (value, err, evals)."""
    n0 = int(np.clip(np.ceil((b - a) / 4.0), 8, 64))
    edges = np.linspace(a, b, n0 + 1)
    lo, hi = edges[:-1], edges[1:]
    vals, errs = _panel_rule(f, lo, hi)
    evals = 15 * n0
    width_floor = 1e-10 * (b - a)
    while True:
        total = errs.sum()
        if total <= tol:
            break
        splittable = (errs > tol / (2.0 * len(lo))) & (hi - lo > width_floor)
        if not splittable.any():
            break  # refinement exhausted; report the honest remainder
        if evals + 30 * int(splittable.sum()) > _EVAL_BUDGET:
            raise ValueError(
                "quadrature: evaluation budget (%d) exhausted at "
                "estimated error %.3e (tol %.3e)" % (_EVAL_BUDGET, total, tol))
        slo, shi = lo[splittable], hi[splittable]
        smid = 0.5 * (slo + shi)
        nlo = np.concatenate([lo[~splittable], slo, smid])
        nhi = np.concatenate([hi[~splittable], smid, shi])
        nvals, nerrs = _panel_rule(f, np.concatenate([slo, smid]),
                                   np.concatenate([smid, shi]))
        vals = np.concatenate([vals[~splittable], nvals])
        errs = np.concatenate([errs[~splittable], nerrs])
        lo, hi = nlo, nhi
        evals += 30 * len(slo)
    order = np.argsort(lo, kind="stable")
    return complex(vals[order].sum()), float(errs.sum()), evals


def _truncation_point(f, tol, rate):
    """Probe |f| on (0, 25], seed T, then grow T until the tail fits.

    The seed is where the model m e^(-rate (T - t_m)) / rate, built from
    the largest probe m (at t_m), falls to tol/10.  The decay hint
    undershoots the true decay of most integrands, so the probes at the
    seed usually show the tail already within the target (202 of 328
    truncations in the default battery).  T starts at 10 or more and
    grows by 25% until the sampled tail max |f(T [0.92, 0.96, 1])| / rate
    is at most _TAIL_SHARE * tol.  The tail points of up to
    _LADDER_STEPS steps of that ladder (T, 1.25 T, 1.5625 T, capped at
    _T_CAP) go to f in one call and the first step that fits is taken,
    so T and the tail are those of the step-by-step rule.  No truncation
    in the default battery or the benchmark's xi_sweep grid needs more
    than three steps, so each makes two f calls.  Returns (T, tail,
    number of points passed to f, steps past T included).
    """
    probe_t = np.linspace(0.25, 25.0, 24)
    probe = np.abs(f(probe_t))
    m = float(probe.max())
    T = 10.0
    if m > 0.0:
        t_at = float(probe_t[int(probe.argmax())])
        T = t_at + np.log(max(10.0 * m / (tol * rate), 2.0)) / rate
    T = min(max(T, 10.0), _T_CAP)
    points = len(probe_t)
    while True:
        ladder = [T]
        while len(ladder) < _LADDER_STEPS and ladder[-1] < _T_CAP:
            ladder.append(min(1.25 * ladder[-1], _T_CAP))
        vals = np.abs(f(np.concatenate([t * _TAIL_FRACTIONS
                                        for t in ladder])))
        points += vals.size
        for T, top in zip(ladder, vals.reshape(len(ladder), -1).max(axis=1)):
            tail = float(top) / rate
            if tail <= _TAIL_SHARE * tol:
                return T, tail, points
        if T >= _T_CAP:
            raise ValueError(
                "quadrature: integrand tail still %.3e at T = %g "
                "(needs <= %.3e); decay hint %.3g looks wrong"
                % (tail, T, _TAIL_SHARE * tol, rate))
        T = min(1.25 * T, _T_CAP)


def integrate_semi_infinite(f, tol, decay_hint):
    """Integrate f over [0, infinity).

    decay_hint is the eventual exponential decay rate r with
    |f(t)| <~ M e^(-r t); it seeds the truncation point, which a sampling
    pass then extends until the modeled tail max|f|/r is below tol/100.
    """
    rate = float(decay_hint)
    if rate <= 0.0:
        raise ValueError("integrate_semi_infinite: decay_hint must be > 0")
    T, tail, evals = _truncation_point(f, tol, rate)
    value, err, ev = _adaptive_finite(f, 0.0, T, 0.9 * tol)
    return QuadratureResult(value, err + tail, evals + ev, T)


def integrate_real_line(f, tol, decay_hint):
    """Integrate f over the whole line as the half-line integral of
    f(t) + f(-t); each batch is one f call on the stacked [t, -t], and
    evaluations count both halves."""
    def folded(t):
        y = f(np.concatenate([t, -t]))
        return y[:len(t)] + y[len(t):]

    res = integrate_semi_infinite(folded, tol, decay_hint)
    return replace(res, evaluations=2 * res.evaluations)


def integrate_vertical_line(g, c, tol, decay_hint=0.5):
    """Integrate g(s) ds along the vertical line Re s = c, upward.

    Parametrizing s = c + iu turns the contour integral into
    i * integral of g(c + iu) du over the real u-line.
    """
    res = integrate_real_line(lambda u: g(c + 1j * u), tol, decay_hint)
    return replace(res, value=1j * res.value)


def integrate_zero_one_logsafe(g, tol):
    """Integrate g over (0, 1] when g carries an integrable log singularity.

    The substitution x = e^(-u) maps the interval to [0, infinity) and
    turns log-type growth at 0 into polynomial growth damped by e^(-u),
    which the standard panels then handle without clustering.
    """
    return integrate_semi_infinite(
        lambda u: g(np.exp(-u)) * np.exp(-u), tol, 0.9)


def integrate_log_singular(g, tol, decay_hint):
    """Integrate g over (0, infinity) when g carries an integrable log
    singularity at 0.

    Split at x = 1: (0, 1] by integrate_zero_one_logsafe, [1, infinity)
    by integrate_semi_infinite with decay_hint, each to tol/2.  Values,
    errors and evaluations are summed; truncation_T is 1 + T of the
    second piece.
    """
    near = integrate_zero_one_logsafe(g, 0.5 * tol)
    far = integrate_semi_infinite(lambda u: g(u + 1.0), 0.5 * tol,
                                  decay_hint)
    return QuadratureResult(near.value + far.value,
                            near.abs_error + far.abs_error,
                            near.evaluations + far.evaluations,
                            1.0 + far.truncation_T)
