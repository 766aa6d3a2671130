# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled scalar kernels; twin of ``weberosc._kernels_py``.

Reciprocal gamma, 1F1, 1F2 and the J0 integral.  Keep semantics
identical to the pure-Python module: same algorithms, same stopping
rules, same raised exceptions.
"""

from libc.math cimport exp, fabs, floor, fma, lgamma, pow, sin, sqrt, M_PI

from .errors import ConvergenceError

cdef double _EPS = 2.220446049250313e-16
cdef double _MAX_CANCEL = 1e-6
cdef double _DD_CANCEL = 1e4


cdef struct dd:
    double hi
    double lo


cdef inline dd _two_sum(double a, double b) noexcept:
    cdef dd r
    cdef double bb
    r.hi = a + b
    bb = r.hi - a
    r.lo = (a - (r.hi - bb)) + (b - bb)
    return r


cdef inline dd _two_prod(double a, double b) noexcept:
    cdef dd r
    r.hi = a * b
    r.lo = fma(a, b, -r.hi)
    return r


cdef inline dd _dd_add(dd x, dd y) noexcept:
    cdef dd s = _two_sum(x.hi, y.hi)
    return _two_sum(s.hi, s.lo + x.lo + y.lo)


cdef inline dd _dd_mul(dd x, dd y) noexcept:
    cdef dd p = _two_prod(x.hi, y.hi)
    return _two_sum(p.hi, p.lo + x.hi * y.lo + x.lo * y.hi)


cdef inline dd _dd_div_d(dd x, double d) noexcept:
    cdef double q1 = x.hi / d
    cdef dd p = _two_prod(q1, d)
    cdef dd neg
    neg.hi = -p.hi
    neg.lo = -p.lo
    cdef dd r = _dd_add(x, neg)
    return _two_sum(q1, (r.hi + r.lo) / d)


cdef double _hyp1f1_series_dd(double a, double b, double z, int max_terms,
                              double rel_tol) except? -1e308:
    # Double-double re-summation for cancellation-heavy alternating cases
    # (very negative a with large positive z loses up to ~1e14 between the
    # largest term and the sum; ~32 digits absorb that with margin).
    cdef dd term, s, num
    term.hi = 1.0; term.lo = 0.0
    s.hi = 1.0; s.lo = 0.0
    cdef int below = 0, n
    for n in range(max_terms):
        num = _two_prod(a + n, z)
        term = _dd_mul(term, num)
        term = _dd_div_d(term, b + n)
        term = _dd_div_d(term, n + 1.0)
        s = _dd_add(s, term)
        if fabs(term.hi) <= rel_tol * fabs(s.hi):
            below += 1
            if below == 3:
                return s.hi + s.lo
        else:
            below = 0
    raise ConvergenceError(
        "1F1 series: tolerance %g not met within %d terms at "
        "(a=%g, b=%g, z=%g)" % (rel_tol, max_terms, a, b, z))


cpdef double rgamma(double x):
    """Reciprocal gamma 1/Gamma(x) as a total function (0 at the poles)."""
    if x > 0.0:
        return exp(-lgamma(x))
    if x == floor(x):
        return 0.0
    return sin(M_PI * x) * exp(lgamma(1.0 - x)) / M_PI


cdef double _hyp1f1_series(double a, double b, double z, int max_terms,
                           double rel_tol) except? -1e308:
    cdef double term = 1.0, s = 1.0, comp = 0.0, max_mag = 1.0, y, t
    cdef int below = 0, n
    for n in range(max_terms):
        term *= (a + n) * z / ((b + n) * (n + 1.0))
        if fabs(term) > max_mag:
            max_mag = fabs(term)
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        if fabs(term) <= rel_tol * fabs(s):
            below += 1
            if below == 3:
                if max_mag > _DD_CANCEL * fabs(s):
                    return _hyp1f1_series_dd(a, b, z, max_terms, rel_tol)
                return s
        else:
            below = 0
    raise ConvergenceError(
        "1F1 series: tolerance %g not met within %d terms at "
        "(a=%g, b=%g, z=%g)" % (rel_tol, max_terms, a, b, z))


cpdef double hyp1f1(double a, double b, double z, int max_terms,
                    double rel_tol) except? -1e308:
    """Kummer 1F1(a; b; z); z < 0 routed through the Kummer transformation."""
    if z < 0.0:
        return exp(z) * _hyp1f1_series(b - a, b, -z, max_terms, rel_tol)
    return _hyp1f1_series(a, b, z, max_terms, rel_tol)


cpdef double hyp1f2(double a, double b1, double b2, double z, int max_terms,
                    double rel_tol) except? -1e308:
    """Generalized 1F2(a; b1, b2; z) with a cancellation guard."""
    cdef double term = 1.0, s = 1.0, comp = 0.0, max_mag = 1.0, y, t
    cdef int below = 0, n
    for n in range(max_terms):
        term *= (a + n) * z / ((b1 + n) * (b2 + n) * (n + 1.0))
        if fabs(term) > max_mag:
            max_mag = fabs(term)
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        if fabs(term) <= rel_tol * fabs(s):
            below += 1
            if below == 3:
                if _EPS * max_mag > _MAX_CANCEL * fabs(s):
                    raise ConvergenceError(
                        "1F2 series: cancellation beyond double precision at "
                        "(a=%g, b1=%g, b2=%g, z=%g)" % (a, b1, b2, z))
                return s
        else:
            below = 0
    raise ConvergenceError(
        "1F2 series: tolerance %g not met within %d terms at "
        "(a=%g, b1=%g, b2=%g, z=%g)" % (rel_tol, max_terms, a, b1, b2, z))


cpdef double j0_integral(double x) except? -1e308:
    """Integral of J0 over [0, x], odd in x; stable at any |x| <= 700."""
    cdef double sign = -1.0 if x < 0.0 else 1.0
    x = fabs(x)
    if x == 0.0:
        return 0.0
    if x <= 12.0:
        return sign * x * hyp1f2(0.5, 1.0, 1.5, -0.25 * x * x, 500, 1e-15)
    cdef int n_max = <int>(x + 12.0 * pow(x, 1.0 / 3.0)) + 12
    cdef int m = n_max + <int>sqrt(40.0 * n_max)
    if m % 2 == 1:
        m += 1
    cdef double jp1 = 0.0, jc = 1e-30, jm1
    cdef double norm = 0.0, odd_sum = 0.0
    cdef int n
    for n in range(m, 0, -1):
        jm1 = (2.0 * n / x) * jc - jp1
        jp1 = jc
        jc = jm1
        if n % 2 == 1:
            odd_sum += jp1
        else:
            norm += 2.0 * jp1
        if fabs(jc) > 1e250:
            jc *= 1e-250
            jp1 *= 1e-250
            norm *= 1e-250
            odd_sum *= 1e-250
    norm += jc
    return sign * 2.0 * odd_sum / norm
