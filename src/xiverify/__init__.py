"""Numerical verification of modular-type transformation formulas.

The package computes each side of a family of alpha <-> 1/alpha
transformation identities by independent routes (special-function series,
adaptive quadrature, contour integrals against the completed zeta
function) and reports normalized residuals.  Everything numerical is
built on numpy alone; no special-function library is used at runtime.
"""

from .identities import (VerificationReport, aux_checks,
                         cotangent_partial_fraction_check,
                         ferrar_bessel_closed_form,
                         ferrar_gaussian_bessel_check,
                         inverse_mellin_gaussian_check,
                         inverse_mellin_kernel_check, log_gaussian_closed_form,
                         log_gaussian_integral, residual, verify_ferrar,
                         verify_hardy, verify_line_integral,
                         verify_ramanujan_bose, verify_ramanujan_digamma,
                         verify_rhl, verify_theta, watson_lattice_residual)
from .numseries import (cosh_theta_sum, ferrar_bessel_sum, k0_sum,
                        k0_sum_minus_pole, lambda_sum, mobius_theta_sum,
                        mobius_partial_oscillation, sqrt_lattice_sum,
                        theta_sum, zero_sum_bracketed)
from .quad import (QuadratureResult, integrate_real_line,
                   integrate_semi_infinite, integrate_vertical_line,
                   integrate_zero_one_logsafe)
from .specfun import (EULER_GAMMA, MobiusTable, besselk0, besselk0_scaled,
                      digamma, gamma_fn, hyp1f1, hyp2f2_11, lngamma,
                      mobius_sieve, zeta, zeta_eta)
from .xikernel import (KernelParams, lambda_kernel, nabla_kernel,
                       rho_kernel, xi_cap, xi_small)
from .zeros import (ZeroRecord, load_zeros, prepare_zeros, refine_zero,
                    scan_zero_brackets, zeta_derivative)

__version__ = "0.1.0"

__all__ = [
    "EULER_GAMMA", "KernelParams", "MobiusTable", "QuadratureResult",
    "VerificationReport", "ZeroRecord", "aux_checks", "besselk0",
    "besselk0_scaled", "cosh_theta_sum", "cotangent_partial_fraction_check",
    "digamma", "ferrar_bessel_closed_form", "ferrar_bessel_sum",
    "ferrar_gaussian_bessel_check", "gamma_fn",
    "hyp1f1", "hyp2f2_11", "integrate_real_line", "integrate_semi_infinite",
    "integrate_vertical_line", "integrate_zero_one_logsafe",
    "inverse_mellin_gaussian_check", "inverse_mellin_kernel_check",
    "k0_sum", "k0_sum_minus_pole", "lambda_kernel", "lambda_sum",
    "lngamma", "load_zeros", "log_gaussian_closed_form",
    "log_gaussian_integral", "mobius_partial_oscillation", "mobius_sieve",
    "mobius_theta_sum", "nabla_kernel", "prepare_zeros", "refine_zero",
    "residual", "rho_kernel", "scan_zero_brackets", "sqrt_lattice_sum",
    "theta_sum", "verify_ferrar", "verify_hardy", "verify_line_integral",
    "verify_ramanujan_bose", "verify_ramanujan_digamma", "verify_rhl",
    "verify_theta", "watson_lattice_residual", "xi_cap", "xi_small",
    "zero_sum_bracketed", "zeta", "zeta_derivative", "zeta_eta",
]
