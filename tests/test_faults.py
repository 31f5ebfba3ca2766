"""Fault injection: a small error planted in one primitive must make the
identities built on it fail.

Each case multiplies one function, at the module attribute its caller
looks up, by (1 + DELTA cos|x0|), x0 its first numeric argument, and runs
every family at three points.  The fault depends on the argument: a
uniform factor on both sides of a self-dual identity cancels (a uniform
1e-5 in mobius_theta_sum left rhl passing, at residuals up to 1.6e-9).
The Xi weights are tabulated once per process, and rho's 1F1 rows,
which the Xi sides and the zero sums share, and the zero sums'
log-Gamma factors are cached per process, so every per-process cache is
emptied (identities.reset_caches, through the fresh_caches fixture)
before and after a case and rebuilt from the faulty primitive.

Blind spots, not gated here: lineint's two sides are one integral in two
parametrizations, so a pointwise fault in zeta or 1F1 moves both alike;
and rhl's zero sums are a small part of each side, so a fault in
zeta'(rho) stays far below the tolerance.
"""

import numpy as np
import pytest

from xiverify import identities, numseries, xikernel
from xiverify.xikernel import KernelParams

DELTA = 1e-5
TOL = 1e-8
POINTS = [(0.8, 1.0 + 0.5j), (1.25, 2.0j), (2.0, 0.0j)]

XI_FAMILIES = {"theta", "hardy", "ferrar", "ramanujan", "digamma",
               "lineint"}
# (module, attribute, the families that must fail)
CASES = [
    (xikernel, "zeta", XI_FAMILIES - {"lineint"}),
    (xikernel, "_hyp_series", (XI_FAMILIES - {"lineint"}) | {"rhl"}),
    (identities, "xi_cap", XI_FAMILIES),
    (xikernel, "lngamma", XI_FAMILIES),
    (identities, "xi_small", {"lineint"}),
    (identities, "lngamma", {"ferrar", "ramanujan", "digamma"}),
    (identities, "digamma", {"hardy"}),
    (xikernel, "digamma", {"digamma"}),
    (numseries, "k0_sum_minus_pole", {"ferrar"}),
    (numseries, "lambda_sum", {"digamma"}),
    (numseries, "lngamma", {"rhl"}),
    (numseries, "mobius_theta_sum", {"rhl"}),
    (numseries, "zero_sum_bracketed", {"rhl"}),
]


def _run(family, params, zeros):
    if family == "theta":
        return identities.verify_theta(params, TOL)
    if family == "hardy":
        return identities.verify_hardy(params, TOL)
    if family == "ferrar":
        return identities.verify_ferrar(params, TOL)
    if family == "ramanujan":
        return identities.verify_ramanujan_bose(params, TOL)
    if family == "digamma":
        return identities.verify_ramanujan_digamma(params.alpha, TOL)
    if family == "lineint":
        return identities.verify_line_integral(params, TOL)
    return identities.verify_rhl(params, zeros, TOL)


def _failing(zeros):
    """The families that fail at one of POINTS or more."""
    return {family for family in XI_FAMILIES | {"rhl"}
            if not all(_run(family, KernelParams(a, z), zeros).passed
                       for a, z in POINTS)}


def _faulty(fn):
    """fn times (1 + DELTA cos|x0|); a (value, bound) pair has its value
    scaled and a list each entry."""
    def wrapper(*args, **kwargs):
        x0 = next(a for a in map(np.asarray, args) if a.dtype.kind in "iufc")
        factor = 1.0 + DELTA * np.cos(np.abs(x0))
        out = fn(*args, **kwargs)
        if isinstance(out, tuple):
            return (out[0] * factor,) + out[1:]
        if isinstance(out, list):
            return [v * factor for v in out]
        return out * factor
    return wrapper


def test_every_family_passes_without_a_fault(zero_records):
    assert _failing(zero_records) == set()


@pytest.mark.parametrize("module,name,families", CASES,
                         ids=["%s.%s" % (m.__name__.split(".")[-1], n)
                              for m, n, _ in CASES])
def test_fault_is_seen(module, name, families, zero_records, monkeypatch,
                       fresh_caches):
    monkeypatch.setattr(module, name, _faulty(getattr(module, name)))
    assert families <= _failing(zero_records)


def test_fault_in_1f1_is_seen_after_a_warm_row_cache(zero_records,
                                                    monkeypatch,
                                                    fresh_caches):
    # rows cached at POINTS before the fault would hide it from every
    # family; emptying the caches makes the fault count
    assert _failing(zero_records) == set()
    assert xikernel._rho_series_rows.cache_info().currsize > 0
    fresh_caches()
    monkeypatch.setattr(xikernel, "_hyp_series",
                        _faulty(xikernel._hyp_series))
    assert XI_FAMILIES - {"lineint"} <= _failing(zero_records)


@pytest.mark.parametrize("module,name", [(numseries, "lngamma"),
                                         (xikernel, "_hyp_series")],
                         ids=["lngamma", "hyp1f1"])
def test_fault_in_zero_sums_is_seen_after_warm_caches(module, name,
                                                      zero_records,
                                                      monkeypatch,
                                                      fresh_caches):
    # the zero sums' log-Gamma factors and 1F1 rows, cached at POINTS
    # before the fault, would hide it from rhl
    assert _failing(zero_records) == set()
    assert numseries._zero_factors.cache_info().currsize > 0
    assert xikernel._rho_series_rows.cache_info().currsize > 0
    fresh_caches()
    monkeypatch.setattr(module, name, _faulty(getattr(module, name)))
    assert "rhl" in _failing(zero_records)
