"""Numerical verification of modular-type transformation formulas.

The package computes each side of a family of alpha <-> 1/alpha
transformation identities by independent routes (special-function series,
quadrature of elementary and special functions, contour integrals against
the completed zeta function, all integrals on one double-exponential
rule) and reports normalized residuals.  Everything numerical is
built on numpy alone; no special-function library is used at runtime.
The package root exports the verifier API only; import anything else from
its own module.

The root's API loads lazily (PEP 562): `import xiverify` imports no
numpy, and the first use of a name imports the module that defines it.
So `import xiverify.cli` runs cli's first lines before numpy is
imported, while a library `import xiverify` leaves the environment as it
found it.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the module that defines it
_API = {
    "KernelParams": "xikernel",
    "VerificationReport": "identities",
    "aux_checks": "identities",
    "prepare_zeros": "zeros",
    "verify_ferrar": "identities",
    "verify_hardy": "identities",
    "verify_line_integral": "identities",
    "verify_ramanujan_bose": "identities",
    "verify_ramanujan_digamma": "identities",
    "verify_rhl": "identities",
    "verify_theta": "identities",
}

__all__ = list(_API)


def __getattr__(name):
    if name not in _API:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(importlib.import_module("." + _API[name], __name__),
                    name)
    globals()[name] = value
    return value
