"""Special functions backing every closed form in the package.

The hypergeometric, Hermite and J0-integral functions are thin validating
wrappers over the scalar kernel backend (compiled extension when built,
pure Python otherwise; see :mod:`weberosc._backend`).  J0, J1 and the J0
zeros come from :mod:`scipy.special`, imported on first use so that the
closed-form transient path never loads scipy.  All functions are pure
and thread-safe.
"""

from dataclasses import dataclass
import math

from ._backend import BACKEND, kernels as _k
from .errors import DomainError, PoleError

__all__ = [
    "BACKEND",
    "SeriesControl",
    "DEFAULT_CONTROL",
    "ln_gamma",
    "reciprocal_gamma",
    "kummer_1f1",
    "kummer_1f1_dz",
    "hermite_h",
    "hermite_h_dz",
    "hyp_1f2",
    "bessel_j0",
    "bessel_j1",
    "bessel_j0_zero",
    "bessel_j0_zeros",
    "bessel_j0_integral",
]


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for the hypergeometric series.

    A series stops once the term magnitude stays below ``rel_tol`` times
    the partial sum for three consecutive terms.
    """

    max_terms: int = 500
    rel_tol: float = 1e-14

    def __post_init__(self):
        if self.max_terms < 1:
            raise DomainError("max_terms must be >= 1")
        if not 0.0 < self.rel_tol < 1.0:
            raise DomainError("rel_tol must be in (0, 1)")


DEFAULT_CONTROL = SeriesControl()


def _is_nonpositive_integer(x):
    return x <= 0.0 and x == math.floor(x)


def ln_gamma(x):
    """Natural log of Gamma(x) for x > 0."""
    if x <= 0.0:
        raise DomainError("ln_gamma requires x > 0, got %g" % x)
    return math.lgamma(x)


def reciprocal_gamma(x):
    """1/Gamma(x) as a total function: exactly 0 at x = 0, -1, -2, ..."""
    return _k.rgamma(x)


def kummer_1f1(a, b, z, control=DEFAULT_CONTROL):
    """Kummer confluent hypergeometric 1F1(a; b; z) for real arguments."""
    if _is_nonpositive_integer(b):
        raise PoleError("1F1 pole: b = %g is a non-positive integer" % b)
    return _k.hyp1f1(a, b, z, control.max_terms, control.rel_tol)


def kummer_1f1_dz(a, b, z, control=DEFAULT_CONTROL):
    """d/dz 1F1(a; b; z) = (a/b) * 1F1(a+1; b+1; z)."""
    if _is_nonpositive_integer(b):
        raise PoleError("1F1 pole: b = %g is a non-positive integer" % b)
    return (a / b) * _k.hyp1f1(a + 1.0, b + 1.0, z, control.max_terms, control.rel_tol)


def hermite_h(nu, z, control=DEFAULT_CONTROL):
    """Hermite function H_nu(z) of arbitrary real order nu."""
    return _k.hermite(nu, z, control.max_terms, control.rel_tol)


def hermite_h_dz(nu, z, control=DEFAULT_CONTROL):
    """d/dz H_nu(z) = 2 nu H_{nu-1}(z)."""
    return 2.0 * nu * _k.hermite(nu - 1.0, z, control.max_terms, control.rel_tol)


def hyp_1f2(a, b1, b2, z, control=DEFAULT_CONTROL):
    """Generalized hypergeometric 1F2(a; b1, b2; z) for real arguments."""
    if _is_nonpositive_integer(b1) or _is_nonpositive_integer(b2):
        raise PoleError("1F2 pole: lower parameter is a non-positive integer")
    return _k.hyp1f2(a, b1, b2, z, control.max_terms, control.rel_tol)


def _float_if_scalar(r):
    # scipy hands back numpy scalars; callers print these with %r
    return float(r) if r.ndim == 0 else r


def bessel_j0(z):
    """Bessel function of the first kind, order 0.

    A float for a scalar ``z``, an ndarray for an array.
    """
    from scipy.special import j0
    return _float_if_scalar(j0(z))


def bessel_j1(z):
    """Bessel function of the first kind, order 1 (same shapes as J0)."""
    from scipy.special import j1
    return _float_if_scalar(j1(z))


def bessel_j0_zeros(n):
    """ndarray of the first n positive zeros of J0 (n >= 1), within a few
    ulp of the exact zeros.

    Entry k is bit-identical for every n >= k, so one call serves a
    whole expansion.
    """
    if n < 1:
        raise DomainError("J0 zeros: need n >= 1, got %r" % (n,))
    from scipy.special import jn_zeros
    return jn_zeros(0, int(n))


def bessel_j0_zero(k):
    """k-th positive zero of J0 (k >= 1): entry k of ``bessel_j0_zeros``."""
    return float(bessel_j0_zeros(k)[-1])


def bessel_j0_integral(x):
    """Integral of J0 over [0, x]; equals x * 1F2(1/2; 1, 3/2; -x^2/4).

    Stable for any |x| <= 700: the 1F2 series form is used only where
    double precision can afford its cancellation, a Bessel-sum identity
    elsewhere.
    """
    return _k.j0_integral(x)
