"""Per-layer metrics from the spans of one traced CLI invocation.

Names follow the modules: `<layer>.<function group>.<measure>`.  `points`
counts argument values passed in (a deterministic work count), `calls`
counts calls, `s` is inclusive span time and `self_s` is span time minus
child spans.  Points of a group count only its outermost calls, so a
function that calls a sibling of its group (``zeta`` -> ``zeta_eta``) is
not counted twice; its self time is the sum over all of the group's spans.
"""

import statistics

from tracing import LAYERS, self_times

FAMILIES = {
    "theta": "verify_theta",
    "hardy": "verify_hardy",
    "ferrar": "verify_ferrar",
    "ramanujan": "verify_ramanujan_bose",
    "digamma": "verify_ramanujan_digamma",
    "lineint": "verify_line_integral",
    "rhl": "verify_rhl",
    "aux": "aux_checks",
}

# metric prefix -> the functions (module.name) whose spans form the group
GROUPS = {
    "xikernel.xi_cap": ("xikernel.xi_cap",),
    "xikernel.xi_small": ("xikernel.xi_small",),
    "xikernel.rho_kernel": ("xikernel.rho_kernel",),
    "specfun.zeta": ("specfun.zeta", "specfun.zeta_eta"),
    "specfun.hyp1f1": ("specfun.hyp1f1",),
    "specfun.lngamma": ("specfun.lngamma", "specfun.gamma_fn"),
    "specfun.digamma": ("specfun.digamma",),
    "specfun.besselk0": ("specfun.besselk0", "specfun.besselk0_scaled"),
    "numseries.k0_sum": ("numseries.k0_sum", "numseries.k0_sum_minus_pole",
                         "numseries.sqrt_lattice_sum"),
}

CALL_GROUPS = {
    "specfun.mobius_sieve": ("specfun.mobius_sieve",),
    "numseries.mobius": ("numseries.mobius_theta_sum",
                         "numseries.mobius_partial_oscillation"),
    "numseries.zero_sum": ("numseries.zero_sum_bracketed",),
}

_QUAD = "quad.integrate_"

# Each layer's self time; together they account for the traced run_s.
SELF_KEYS = tuple("numseries.series.self_s" if layer == "numseries"
                  else layer + ".self_s" for layer in LAYERS)


def _per_layer():
    """name -> (unit, better) for every per-layer metric, in report order."""
    out = {"cli.cells": ("count", "higher"), "cli.render_s": ("s", "lower"),
           "cli.cpu_s": ("s", "lower"), "cli.cpu_per_wall": ("ratio", "lower")}
    for family in FAMILIES:
        out["identities.%s.calls" % family] = ("count", "lower")
        out["identities.%s.s" % family] = ("s", "lower")
    out["identities.xi_truncation_point.s"] = ("s", "lower")
    out["identities.resid_over_err"] = ("ratio", "higher")
    out["quad.calls"] = ("count", "lower")
    out["quad.evals"] = ("count", "lower")
    out["quad.evals_per_call"] = ("count", "lower")
    out["quad.truncation_T_max"] = ("abscissa", "lower")
    for prefix in GROUPS:
        out[prefix + ".points"] = ("count", "lower")
        out[prefix + ".self_s"] = ("s", "lower")
    for prefix in CALL_GROUPS:
        out[prefix + ".calls"] = ("count", "lower")
        out[prefix + ".self_s"] = ("s", "lower")
    out["xikernel.fit_decay_envelope.calls"] = ("count", "lower")
    out["xikernel.fit_decay_envelope.s"] = ("s", "lower")
    out["xikernel.envelope_share"] = ("ratio", "lower")
    out["zeros.prepare_zeros.s"] = ("s", "lower")
    out["zeros.refine_zero.calls"] = ("count", "lower")
    out["zeros.zeta_derivative.calls"] = ("count", "lower")
    out["zeros.xi_cap.points"] = ("count", "lower")
    for key in SELF_KEYS:
        out[key] = ("s", "lower")
    out["trace.run_s"] = ("s", "lower")
    out["trace.overhead_s"] = ("s", "lower")
    out["trace.unaccounted_s"] = ("s", "lower")
    out["trace.spans"] = ("count", "lower")
    return out


def _layer(name):
    return name.split(".", 1)[0]


def _under(spans, pred):
    """For each span, whether some ancestor's name satisfies `pred`.

    Parents are recorded before their children, so one forward pass does.
    """
    out = []
    for s in spans:
        p = s[3]
        out.append(p >= 0 and (out[p] or pred(spans[p][0])))
    return out


def _outermost(spans, members):
    """Indices of spans in `members` with no ancestor in `members`."""
    under = _under(spans, members.__contains__)
    return [i for i, s in enumerate(spans) if s[0] in members and not under[i]]


def span_metrics(spans):
    """Per-layer metrics computable from spans alone."""
    selfs = self_times(spans)
    m = {}

    def total_self(members):
        return sum(t for s, t in zip(spans, selfs) if s[0] in members)

    def total_incl(members):
        return sum(s[2] - s[1] for s in spans if s[0] in members)

    for layer in LAYERS:
        m["%s.self_s" % layer] = sum(t for s, t in zip(spans, selfs)
                                     if _layer(s[0]) == layer)
    m["numseries.series.self_s"] = m.pop("numseries.self_s")
    m["cli.render_s"] = total_incl({"cli.render_json", "cli.render_csv"})

    for family, fn in FAMILIES.items():
        name = "identities." + fn
        m["identities.%s.calls" % family] = sum(1 for s in spans
                                                if s[0] == name)
        m["identities.%s.s" % family] = total_incl({name})
    m["identities.xi_truncation_point.s"] = total_incl(
        {"identities.xi_truncation_point"})

    quad_members = {s[0] for s in spans if s[0].startswith(_QUAD)}
    top = _outermost(spans, quad_members)
    m["quad.calls"] = len(top)
    m["quad.evals"] = sum(spans[i][6] or 0 for i in top)
    m["quad.evals_per_call"] = m["quad.evals"] / len(top) if top else 0.0
    m["quad.truncation_T_max"] = max((spans[i][7] or 0.0 for i in top),
                                     default=0.0)

    for prefix, members in GROUPS.items():
        members = set(members)
        m[prefix + ".points"] = sum(spans[i][5]
                                    for i in _outermost(spans, members))
        m[prefix + ".self_s"] = total_self(members)
    for prefix, members in CALL_GROUPS.items():
        members = set(members)
        m[prefix + ".calls"] = len(_outermost(spans, members))
        m[prefix + ".self_s"] = total_self(members)

    envelope = {"xikernel.fit_decay_envelope"}
    m["xikernel.fit_decay_envelope.calls"] = sum(1 for s in spans
                                                 if s[0] in envelope)
    m["xikernel.fit_decay_envelope.s"] = total_incl(envelope)
    xi = {"xikernel.xi_cap", "xikernel.xi_small"}
    xi_top = _outermost(spans, xi)
    xi_points = sum(spans[i][5] for i in xi_top)
    under_envelope = _under(spans, envelope.__contains__)
    in_envelope = sum(spans[i][5] for i in xi_top if under_envelope[i])
    m["xikernel.envelope_share"] = (in_envelope / xi_points if xi_points
                                    else 0.0)

    m["zeros.prepare_zeros.s"] = total_incl({"zeros.prepare_zeros"})
    m["zeros.refine_zero.calls"] = sum(1 for s in spans
                                       if s[0] == "zeros.refine_zero")
    m["zeros.zeta_derivative.calls"] = sum(
        1 for s in spans if s[0] == "zeros.zeta_derivative")
    under_zeros = _under(spans, lambda name: _layer(name) == "zeros")
    m["zeros.xi_cap.points"] = sum(
        spans[i][5] for i in _outermost(spans, {"xikernel.xi_cap"})
        if under_zeros[i])
    return m


PER_LAYER = _per_layer()


def resid_over_err(reports):
    """Median over reports of worst residual / summed side abs_error.

    The residual is the observed disagreement, the summed abs_error what
    the quadrature routes claimed; values far below 1 mean the estimates
    are pessimistic.  Reports without any abs_error are skipped.
    """
    ratios = []
    for r in reports:
        budget = sum(d.get("abs_error", 0.0)
                     for d in r["diagnostics"].values() if isinstance(d, dict))
        if budget > 0.0 and r["residuals"]:
            ratios.append(max(r["residuals"].values()) / budget)
    return statistics.median(ratios) if ratios else 0.0


def median_dict(dicts):
    """Key-wise median of metric dicts that share their keys."""
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}
