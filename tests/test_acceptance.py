"""Acceptance battery.

Each test exercises one deliverable end to end at its contract tolerance
and prints a single PASS/FAIL summary line (visible under pytest -s).
Time limits are generous sandbox-level guards, not benchmarks.
"""

import json
import math
import time

import numpy as np

from xiverify import cli
from xiverify.cli import default_grid, main, report_to_dict
from xiverify.identities import (aux_checks, verify_ferrar, verify_hardy,
                                 verify_line_integral, verify_ramanujan_bose,
                                 verify_ramanujan_digamma, verify_rhl,
                                 verify_theta)
from xiverify.specfun import hyp1f1, lngamma, zeta
from xiverify.xikernel import KernelParams
from xiverify.zeros import prepare_zeros


def _line(tag, ok, detail, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    print(f"[{tag}] {status}: {detail} ({elapsed:.1f}s, limit {limit}s)")


def _rel(got, want):
    return abs(got - want) / max(1.0, abs(want))


def test_special_function_identities():
    t0 = time.perf_counter()
    worst = 0.0
    # gamma reflection and duplication via lngamma
    for s in [0.3 + 0.7j, 1.9 - 2.4j, 0.5 + 11.0j, -1.3 + 0.25j]:
        lhs = np.exp(lngamma(s) + lngamma(1.0 - s))
        rhs = np.pi / np.sin(np.pi * s)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
        lhs = np.exp(lngamma(2.0 * s))
        rhs = np.exp((2.0 * s - 1.0) * np.log(2.0) + lngamma(s)
                     + lngamma(s + 0.5)) / np.sqrt(np.pi)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    # Kummer transformation of 1F1
    for a, c, w in [(0.25, 0.5, 1.0), (-0.75, 0.5, 2.5 + 1.0j),
                    (1.5 - 3.0j, 0.5, -0.8)]:
        lhs = hyp1f1(a, c, w)
        rhs = np.exp(w) * hyp1f1(c - a, c, -w)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    # zeta functional equation on the critical line, zeta(s) = chi(s)
    # zeta(1 - s): both sides from the eta series, at +t and -t
    for t in [3.0, 8.0, 14.134725141734694, 40.0]:
        s = 0.5 + 1j * t
        lhs = zeta(s)
        rhs = (2.0 ** s * np.pi ** (s - 1.0) * np.sin(np.pi * s / 2.0)
               * np.exp(lngamma(1.0 - s)) * zeta(1.0 - s))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    _line("special-functions", ok, f"max rel err {worst:.2e}", elapsed, 5)
    assert ok


def test_theta_transformation_grid():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha, z in default_grid():
        rep = verify_theta(KernelParams(alpha, z), 1e-8)
        worst = max(worst, max(rep.residuals.values()))
        if not rep.passed:
            worst = max(worst, 1.0)
    # classical theta constant at alpha = 1, z = 0
    rep = verify_theta(KernelParams(1.0, 0.0), 1e-8)
    want = 0.5 - (math.pi ** 0.25 / math.gamma(0.75) - 1.0) / 2.0
    classical = abs(rep.sides["alpha_series"] - want)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and classical <= 1e-10 and elapsed < 60.0
    _line("theta", ok,
          f"max residual {worst:.2e}, theta-constant err {classical:.2e}",
          elapsed, 60)
    assert ok


def test_hardy_integral_grid():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha, z in default_grid():
        rep = verify_hardy(KernelParams(alpha, z), 1e-7)
        worst = max(worst, max(rep.residuals.values()))
        if not rep.passed:
            worst = max(worst, 1.0)
    rep = verify_hardy(KernelParams(1.0, 0.0), 1e-7)
    pinned = abs(rep.sides["alpha_integral"] - 0.68740406613526977)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and pinned <= 1e-9 and elapsed < 300.0
    _line("hardy", ok,
          f"max residual {worst:.2e}, pinned-value err {pinned:.2e}",
          elapsed, 300)
    assert ok


def test_ferrar_transformation_grid():
    t0 = time.perf_counter()
    worst = 0.0
    series_worst = 0.0
    for alpha, z in default_grid():
        rep = verify_ferrar(KernelParams(alpha, z), 1e-7)
        worst = max(worst, max(rep.residuals.values()))
        if not rep.passed:
            worst = max(worst, 1.0)
        if z == 0.0:
            assert "bessel_series" in rep.sides
            series_worst = max(series_worst,
                               *(v for k, v in rep.residuals.items()
                                 if "bessel_series" in k))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and series_worst <= 1e-7 and elapsed < 300.0
    _line("ferrar", ok,
          f"max residual {worst:.2e}, series-side {series_worst:.2e}",
          elapsed, 300)
    assert ok


def test_bose_weighted_integral_grid():
    t0 = time.perf_counter()
    worst = 0.0
    imag_worst = 0.0
    invariance_worst = 0.0
    for alpha, z in default_grid():
        rep = verify_ramanujan_bose(KernelParams(alpha, z), 1e-8)
        worst = max(worst,
                    rep.residuals["weighted_integral|xi_integral"])
        if not rep.passed:
            worst = max(worst, 1.0)
        if "xi_integral_imag" in rep.residuals:
            imag_worst = max(imag_worst, rep.residuals["xi_integral_imag"])
        if z == 0.0:
            invariance_worst = max(
                invariance_worst,
                rep.residuals["invariant_alpha|invariant_beta"])
    elapsed = time.perf_counter() - t0
    ok = (worst <= 1e-8 and imag_worst <= 1e-8
          and invariance_worst <= 1e-8 and elapsed < 120.0)
    _line("bose", ok,
          f"max residual {worst:.2e}, imag {imag_worst:.2e}, "
          f"invariance {invariance_worst:.2e}", elapsed, 120)
    assert ok


def test_digamma_series_alphas():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in (1.0, 1.5, 2.0):
        rep = verify_ramanujan_digamma(alpha, 1e-8)
        worst = max(worst, max(rep.residuals.values()))
        if not rep.passed:
            worst = max(worst, 1.0)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 120.0
    _line("digamma", ok, f"max residual {worst:.2e}", elapsed, 120)
    assert ok


def test_line_integral_points():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha, z in [(1.0, 0.0), (2.0, 1.0), (0.8, 2.0j)]:
        rep = verify_line_integral(KernelParams(alpha, z), 1e-8)
        worst = max(worst, max(rep.residuals.values()))
        if not rep.passed:
            worst = max(worst, 1.0)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 120.0
    _line("line-integral", ok, f"max residual {worst:.2e}", elapsed, 120)
    assert ok


def test_auxiliary_battery():
    t0 = time.perf_counter()
    reports = aux_checks(tol=1e-9)
    worst = max(max(r.residuals.values()) for r in reports)
    all_pass = all(r.passed for r in reports)
    elapsed = time.perf_counter() - t0
    ok = all_pass and worst <= 1e-9 and elapsed < 60.0
    _line("auxiliary", ok,
          f"{len(reports)} checks, max residual {worst:.2e}", elapsed, 60)
    assert ok


def test_zero_sum_trend(sample_zeros_path):
    t0 = time.perf_counter()
    zeros = prepare_zeros(sample_zeros_path, max_count=10)
    lines = []
    trend_ok = True
    for z in (0.0, 1.0):
        rep = verify_rhl(KernelParams(2.0, z), zeros, 1e-8)
        diag = rep.diagnostics
        final = diag["residual_sequence"][-1]
        bound = "met" if final <= 1e-8 else "missed"
        # the falling residuals and the 1e-8 bound are both required
        trend_ok = (trend_ok and rep.passed and diag["descending"]
                    and final <= 1e-8)
        lines.append(f"z={z:g} final {final:.2e} (1e-8 {bound})")
    elapsed = time.perf_counter() - t0
    ok = trend_ok and elapsed < 600.0
    _line("zero-sum", ok, "; ".join(lines), elapsed, 600)
    assert ok


def test_deterministic_output(tmp_path, capsys):
    t0 = time.perf_counter()
    # in-process: same reports render to identical text
    rep = verify_theta(KernelParams(2.0, 1.0), 1e-8)
    text_a = cli.render_json([report_to_dict(rep)])
    rep = verify_theta(KernelParams(2.0, 1.0), 1e-8)
    text_b = cli.render_json([report_to_dict(rep)])
    # full CLI runs: byte-identical files
    argv = ["--identity", "digamma", "--out"]
    f1, f2 = tmp_path / "one.json", tmp_path / "two.json"
    code1 = main(argv + [str(f1)])
    code2 = main(argv + [str(f2)])
    capsys.readouterr()
    same_files = f1.read_bytes() == f2.read_bytes()
    json.loads(f1.read_text())
    elapsed = time.perf_counter() - t0
    ok = (text_a == text_b and same_files and code1 == 0 and code2 == 0)
    with capsys.disabled():
        _line("determinism", ok,
              f"in-process {'equal' if text_a == text_b else 'DIFFER'}, "
              f"cli files {'equal' if same_files else 'DIFFER'}",
              elapsed, 60)
    assert ok
