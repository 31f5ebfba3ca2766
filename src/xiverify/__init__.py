"""Numerical verification of modular-type transformation formulas.

The package computes each side of a family of alpha <-> 1/alpha
transformation identities by independent routes (special-function series,
quadrature of elementary and special functions, contour integrals against
the completed zeta function, all integrals on one double-exponential
rule) and reports normalized residuals.  Everything numerical is
built on numpy alone; no special-function library is used at runtime.
The package root exports the verifier API only; import anything else from
its own module.
"""

from .identities import (VerificationReport, aux_checks, verify_ferrar,
                         verify_hardy, verify_line_integral,
                         verify_ramanujan_bose, verify_ramanujan_digamma,
                         verify_rhl, verify_theta)
from .xikernel import KernelParams
from .zeros import prepare_zeros

__version__ = "0.1.0"

__all__ = [
    "KernelParams", "VerificationReport", "aux_checks", "prepare_zeros",
    "verify_ferrar", "verify_hardy", "verify_line_integral",
    "verify_ramanujan_bose", "verify_ramanujan_digamma", "verify_rhl",
    "verify_theta",
]
