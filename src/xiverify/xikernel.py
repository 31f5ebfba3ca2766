"""Composite kernels built from the special functions.

This module assembles the completed zeta function xi(s) and its
critical-line restriction Xi(t), the hypergeometric kernel
rho(x, z, s) = x^(1/2-s) e^(-z^2/8) 1F1((1-s)/2; 1/2; z^2/4) and the
digamma remainder lambda(x) = psi(x) + 1/(2x) - log x.

Every Xi side integrates rho at a pair c +- ikt (identities._xi_side).
On the critical line the pair is s, 1 - s, and rho(x, z, s) +
rho(x, z, 1-s) generalizes 2 cos((t/2) log x): at z = 0 and
s = (1+it)/2 the terms are x^(-it/2) and x^(it/2).  Kummer's
transformation of 1F1 makes the sum invariant under (x, z) -> (1/x, iz)
on the critical line, the engine behind every verified identity here.
"""

from dataclasses import dataclass

import numpy as np

from .specfun import (EULER_GAMMA, _merge, _require_finite, _split,
                      digamma, hyp1f1, lngamma, zeta)

_QUARTER_LOG_PI = 0.28618247146235004  # log(pi) / 4

# Stieltjes constants gamma_1, gamma_2 for the zeta Laurent expansion
# zeta(w) = 1/(w-1) + gamma_0 - gamma_1 (w-1) + gamma_2 (w-1)^2 / 2 - ...
_STIELTJES_1 = -0.07281584548367672486
_STIELTJES_2 = -0.00969036319287231848


@dataclass(frozen=True)
class KernelParams:
    """Parameter pair (alpha, z) with beta always derived as 1/alpha;
    alpha must be a positive finite float and z a finite complex."""

    alpha: float
    z: complex = 0.0

    def __post_init__(self):
        alpha, z = float(self.alpha), complex(self.z)
        if not 0.0 < alpha < np.inf:
            raise ValueError("KernelParams: need 0 < alpha < inf, got %r"
                             % alpha)
        if not np.isfinite(z):
            raise ValueError("KernelParams: z must be finite, got %r" % z)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "z", z)

    @property
    def beta(self):
        return 1.0 / self.alpha


def xi_small(s):
    """Completed zeta xi(s) = (1/2) s (s-1) pi^(-s/2) Gamma(s/2) zeta(s).

    Entire; the zeta pole at s = 1 is cancelled by the (s-1) factor.
    At |s-1| < 2e-3, where the eta series loses digits to the pole, the
    truncated Laurent product (s-1) zeta(s) = 1 + g0 (s-1) - g1 (s-1)^2
    + g2 (s-1)^3 / 2 stands in for the pair (within 5.6e-15 of it at
    |s-1| = 2e-3).
    Arguments with Re s < 1/2 are reflected first through xi(s) = xi(1-s),
    so the Gamma factor never meets its poles.
    """
    w, scalar = _split(s, np.complex128)
    w = np.where(w.real < 0.5, 1.0 - w, w)
    out = np.empty_like(w)
    near1 = np.abs(w - 1.0) < 2e-3
    if np.any(~near1):
        v = w[~near1]
        out[~near1] = (0.5 * v * (v - 1.0)
                       * np.exp(-0.5 * v * np.log(np.pi) + lngamma(0.5 * v))
                       * zeta(v))
    if np.any(near1):
        v = w[near1]
        u = v - 1.0
        pole_product = (1.0 + EULER_GAMMA * u - _STIELTJES_1 * u * u
                        + 0.5 * _STIELTJES_2 * u ** 3)
        out[near1] = (0.5 * v
                      * np.exp(-0.5 * v * np.log(np.pi) + lngamma(0.5 * v))
                      * pole_product)
    return _merge(out, scalar)


def xi_cap(t):
    """Xi(t) = xi(1/2 + it).

    For real t the value is computed in explicitly real form and returned
    as a real float or float array: with theta(t) the phase of
    pi^(-it/2) Gamma(1/4 + it/2),

        Xi(t) = -(1/2) (t^2 + 1/4) pi^(-1/4) |Gamma(1/4 + it/2)|
                * Re[e^(i theta(t)) zeta(1/2 + it)],

    where the bracket is the classical real-valued combination of zeta
    with its critical-line phase.  Non-finite t raises ValueError, and so
    does t off the real axis (xi_small takes xi there).
    """
    w, scalar = _split(t, np.complex128)
    _require_finite("xi_cap", w)
    if np.any(w.imag != 0.0):
        raise ValueError("xi_cap: argument must be real")
    tv = w.real
    lg = lngamma(0.25 + 0.5j * tv)
    theta = lg.imag - 0.5 * tv * np.log(np.pi)
    zval = zeta(0.5 + 1j * tv)
    hardy_z = (np.exp(1j * theta) * zval).real
    mag = np.exp(lg.real - _QUARTER_LOG_PI)
    return _merge(-0.5 * (tv * tv + 0.25) * mag * hardy_z, scalar)


def rho_kernel(x, z, s):
    """rho(x, z, s) = x^(1/2 - s) e^(-z^2/8) 1F1((1-s)/2; 1/2; z^2/4), x > 0."""
    xv, scalar_x = _split(x, np.float64)
    if np.any(xv <= 0.0):
        raise ValueError("rho_kernel: x must be positive")
    sv, scalar_s = _split(s, np.complex128)
    zc = complex(z)
    w = 0.25 * zc * zc
    power = np.exp((0.5 - sv) * np.log(xv))
    out = power * np.exp(-0.5 * w) * hyp1f1(0.5 * (1.0 - sv), 0.5, w)
    return _merge(out, scalar_x and scalar_s)


def lambda_kernel(x):
    """lambda(x) = psi(x) + 1/(2x) - log x; decays like -1/(12 x^2)."""
    xv, scalar = _split(x, np.float64)
    if np.any(xv <= 0.0):
        raise ValueError("lambda_kernel: x must be positive")
    return _merge(digamma(xv) + 0.5 / xv - np.log(xv), scalar)

