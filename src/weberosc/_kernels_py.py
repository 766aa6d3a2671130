"""Pure-Python scalar kernels for the special-function layer.

This module is the fallback twin of the compiled ``_kernels`` extension:
both expose the same functions (reciprocal gamma, 1F1, 1F2, Hermite and
the J0 integral) with identical semantics, and the public API in
:mod:`weberosc.specfun` picks whichever is importable.  Keep the two in
sync; the test suite cross-checks them when the extension built.  J0, J1
and the J0 zeros are not kernels: :mod:`weberosc.specfun` takes them
from :mod:`scipy.special`.

All series use Kahan-compensated summation and stop once the term
magnitude stays below ``rel_tol`` times the partial sum for three
consecutive terms (single-term tests are unsafe at the argument sizes
this problem reaches, |z| ~ 40 and beyond).
"""

import math

from .errors import ConvergenceError

# Cancellation guard for the 1F2 series: raise instead of returning a sum
# whose leading digits were all lost to alternating-term cancellation.
_EPS = 2.220446049250313e-16
_MAX_CANCEL = 1e-6


def rgamma(x):
    """Reciprocal gamma 1/Gamma(x) as a total function (0 at the poles)."""
    if x > 0.0:
        return math.exp(-math.lgamma(x))
    if x == math.floor(x):
        return 0.0
    # reflection: 1/Gamma(x) = sin(pi x) * Gamma(1 - x) / pi
    return math.sin(math.pi * x) * math.exp(math.lgamma(1.0 - x)) / math.pi


# A plain double summation keeps ~eps * (largest term / sum) relative
# accuracy; beyond this magnitude ratio the series is re-summed in
# double-double arithmetic.
_DD_CANCEL = 1e4


def _hyp1f1_series(a, b, z, max_terms, rel_tol):
    term = 1.0
    s = 1.0
    comp = 0.0
    max_mag = 1.0
    below = 0
    for n in range(max_terms):
        term *= (a + n) * z / ((b + n) * (n + 1.0))
        if abs(term) > max_mag:
            max_mag = abs(term)
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        if abs(term) <= rel_tol * abs(s):
            below += 1
            if below == 3:
                if max_mag > _DD_CANCEL * abs(s):
                    return _hyp1f1_series_dd(a, b, z, max_terms, rel_tol)
                return s
        else:
            below = 0
    raise ConvergenceError(
        "1F1 series: tolerance %g not met within %d terms at "
        "(a=%g, b=%g, z=%g)" % (rel_tol, max_terms, a, b, z)
    )


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a, b):
    # Dekker split; exact for |a|, |b| < ~1e292 (far beyond series terms
    # that survive without overflowing the final sum anyway)
    p = a * b
    c = 134217729.0 * a
    ah = c - (c - a)
    al = a - ah
    c = 134217729.0 * b
    bh = c - (c - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_add(xh, xl, yh, yl):
    s, e = _two_sum(xh, yh)
    e += xl + yl
    return _two_sum(s, e)


def _dd_mul(xh, xl, yh, yl):
    p, e = _two_prod(xh, yh)
    e += xh * yl + xl * yh
    return _two_sum(p, e)


def _dd_div_d(xh, xl, d):
    q1 = xh / d
    ph, pl = _two_prod(q1, d)
    rh, rl = _dd_add(xh, xl, -ph, -pl)
    return _two_sum(q1, (rh + rl) / d)


def _hyp1f1_series_dd(a, b, z, max_terms, rel_tol):
    """Double-double twin of the 1F1 series for cancellation-heavy cases.

    The alternating regime (very negative a, large z) can lose up to
    ~1e14 of relative magnitude between the largest term and the sum;
    ~32 significant digits absorb that with room to spare.
    """
    th, tl = 1.0, 0.0
    sh, sl = 1.0, 0.0
    below = 0
    for n in range(max_terms):
        nh, nl = _two_prod(a + n, z)
        th, tl = _dd_mul(th, tl, nh, nl)
        th, tl = _dd_div_d(th, tl, b + n)
        th, tl = _dd_div_d(th, tl, n + 1.0)
        sh, sl = _dd_add(sh, sl, th, tl)
        if abs(th) <= rel_tol * abs(sh):
            below += 1
            if below == 3:
                return sh + sl
        else:
            below = 0
    raise ConvergenceError(
        "1F1 series: tolerance %g not met within %d terms at "
        "(a=%g, b=%g, z=%g)" % (rel_tol, max_terms, a, b, z))


def hyp1f1(a, b, z, max_terms, rel_tol):
    """Kummer 1F1(a; b; z) for real arguments, b not a non-positive integer.

    Negative z is routed through the Kummer transformation
    1F1(a;b;z) = e^z 1F1(b-a;b;-z) so the summed tail never alternates.
    """
    if z < 0.0:
        return math.exp(z) * _hyp1f1_series(b - a, b, -z, max_terms, rel_tol)
    return _hyp1f1_series(a, b, z, max_terms, rel_tol)


def hyp1f2(a, b1, b2, z, max_terms, rel_tol):
    """Generalized 1F2(a; b1, b2; z), entire in z but cancellation-limited.

    For large negative z the alternating terms grow far beyond the sum
    before decaying; once the lost digits exceed what double precision
    can pay for, a ConvergenceError is raised rather than garbage
    returned (callers needing 1F2(1/2;1,3/2;-y^2/4) at large y should go
    through ``j0_integral``).
    """
    term = 1.0
    s = 1.0
    comp = 0.0
    below = 0
    max_mag = 1.0
    for n in range(max_terms):
        term *= (a + n) * z / ((b1 + n) * (b2 + n) * (n + 1.0))
        if abs(term) > max_mag:
            max_mag = abs(term)
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        if abs(term) <= rel_tol * abs(s):
            below += 1
            if below == 3:
                if _EPS * max_mag > _MAX_CANCEL * abs(s):
                    raise ConvergenceError(
                        "1F2 series: cancellation beyond double precision at "
                        "(a=%g, b1=%g, b2=%g, z=%g)" % (a, b1, b2, z)
                    )
                return s
        else:
            below = 0
    raise ConvergenceError(
        "1F2 series: tolerance %g not met within %d terms at "
        "(a=%g, b1=%g, b2=%g, z=%g)" % (rel_tol, max_terms, a, b1, b2, z)
    )


def hermite(nu, z, max_terms, rel_tol):
    """Hermite function H_nu(z) of arbitrary real order.

    Combination of two Kummer functions with reciprocal-gamma weights;
    the 1/Gamma factors make the expression total (a term with its
    weight at a pole is exactly zero).
    """
    z2 = z * z
    g1 = rgamma(0.5 * (1.0 - nu))
    g2 = rgamma(-0.5 * nu)
    t1 = 0.0
    if g1 != 0.0:
        t1 = g1 * hyp1f1(-0.5 * nu, 0.5, z2, max_terms, rel_tol)
    t2 = 0.0
    if g2 != 0.0:
        t2 = g2 * 2.0 * z * hyp1f1(0.5 * (1.0 - nu), 1.5, z2, max_terms, rel_tol)
    return math.sqrt(math.pi) * math.pow(2.0, nu) * (t1 - t2)


def j0_integral(x):
    """Integral of J0 from 0 to x, odd in x.

    Small |x| sums the entire-series form x * 1F2(1/2; 1, 3/2; -x^2/4);
    past the cancellation limit of that series the identity
    int_0^x J0 = 2 * (J1 + J3 + J5 + ...) is evaluated with Miller's
    backward recurrence (normalized by J0 + 2*sum J_{2k} = 1).
    """
    sign = -1.0 if x < 0.0 else 1.0
    x = abs(x)
    if x == 0.0:
        return 0.0
    if x <= 12.0:
        return sign * x * hyp1f2(0.5, 1.0, 1.5, -0.25 * x * x, 500, 1e-15)
    n_max = int(x + 12.0 * x ** (1.0 / 3.0)) + 12
    m = n_max + int(math.sqrt(40.0 * n_max))
    if m % 2 == 1:
        m += 1
    jp1 = 0.0
    jc = 1e-30
    norm = 0.0
    odd_sum = 0.0
    for n in range(m, 0, -1):
        jm1 = (2.0 * n / x) * jc - jp1
        jp1 = jc
        jc = jm1
        if n % 2 == 1:  # jp1 now holds J_n with n odd
            odd_sum += jp1
        else:
            norm += 2.0 * jp1
        if abs(jc) > 1e250:  # rescale to avoid overflow of the recurrence
            jc *= 1e-250
            jp1 *= 1e-250
            norm *= 1e-250
            odd_sum *= 1e-250
    norm += jc  # jc is the unnormalized J_0
    return sign * 2.0 * odd_sum / norm
