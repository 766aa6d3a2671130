"""Special functions backing every closed form in the package.

The hypergeometric and J0-integral functions are thin validating wrappers
over the scalar kernel backend (compiled extension when built, pure
Python otherwise; see :mod:`weberosc._backend`); the Hermite functions
are Gamma-weighted pairs of its 1F1 series, combined here.  J0, J1 and
the J0 zeros come from :mod:`scipy.special`, imported on first use so
that the closed-form transient path never loads scipy.  All functions
are pure and thread-safe.
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


def _series_in(w, control):
    """s(a, b) = 1F1(a; b; w), summing each distinct (a, b) only once."""
    sums = {}

    def s(a, b):
        v = sums.get((a, b))
        if v is None:
            v = sums[(a, b)] = _k.hyp1f1(a, b, w, control.max_terms,
                                         control.rel_tol)
        return v

    return s


def _hermite(nu, z, series):
    """H_nu(z) = sqrt(pi) 2^nu (g1 F(-nu/2; 1/2) - g2 2z F((1-nu)/2; 3/2))
    with F(a; b) = series(a, b) = 1F1(a; b; z^2), g1 = 1/Gamma((1-nu)/2)
    and g2 = 1/Gamma(-nu/2).

    The 1/Gamma weights make the expression total: a term whose weight
    sits at a pole is exactly zero, and its series is not summed.
    """
    g1 = _k.rgamma(0.5 * (1.0 - nu))
    g2 = _k.rgamma(-0.5 * nu)
    t1 = 0.0
    if g1 != 0.0:
        t1 = g1 * series(-0.5 * nu, 0.5)
    t2 = 0.0
    if g2 != 0.0:
        t2 = g2 * 2.0 * z * series(0.5 * (1.0 - nu), 1.5)
    return math.sqrt(math.pi) * math.pow(2.0, nu) * (t1 - t2)


def hermite_h(nu, z, control=DEFAULT_CONTROL):
    """Hermite function H_nu(z) of arbitrary real order nu."""
    return _hermite(nu, z, _series_in(z * z, control))


def hermite_h_dz(nu, z, control=DEFAULT_CONTROL):
    """d/dz H_nu(z) = 2 nu H_{nu-1}(z)."""
    return 2.0 * nu * _hermite(nu - 1.0, z, _series_in(z * z, control))


def _hermite_kummer(nu, z):
    """(H_nu(z), d/dz H_nu(z), 1F1(k; 1/2; w), d/dw 1F1(k; 1/2; w)) at
    w = z^2, k = -nu/2: the pair behind the Weber basis.

    Each value equals, bit for bit, its own call of ``hermite_h``,
    ``hermite_h_dz``, ``kummer_1f1`` and ``kummer_1f1_dz``, but the
    four functions share their 1F1 series in w: F(k; 1/2) is the Kummer
    function and H_nu's first term, F(k + 1; 3/2) feeds the derivative
    and H_{nu-1}'s second term, so four series are summed instead of six
    (five for some |nu| < 1/2, where k + 1 and (1 - (nu - 1))/2 round
    to neighbouring doubles).
    """
    series = _series_in(z * z, DEFAULT_CONTROL)
    k = -0.5 * nu
    return (_hermite(nu, z, series),
            2.0 * nu * _hermite(nu - 1.0, z, series),
            series(k, 0.5),
            (k / 0.5) * series(k + 1.0, 1.5))


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
