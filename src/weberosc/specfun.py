"""Special functions backing every closed form in the package.

Kummer's 1F1 is one pure-Python chain: one Kahan-compensated sum over
the terms of its series, stopped by a geometric tail bound, summed again
exactly in integer fixed point where it cancels by more than
``_WIDE_CANCEL``.  A Hermite function of argument z < 0 is a
Gamma-weighted pair of 1F1 series; for z >= 0, where that pair cancels
completely, H_nu comes from an exp-sinh quadrature of its integral
representation at two orders below -1, recurred upward in the order.  A
derivative is a value of its own: d/dz 1F1(a; b; z) =
(a/b) 1F1(a+1; b+1; z) (DLMF 13.3.15) and d/dz H_nu = 2 nu H_{nu-1}.
J0, J1 and the J0 zeros come from :mod:`scipy.special`, and the J0
integral is a Gauss-Legendre panel sum on its ``j0``; scipy is imported
on first use so that the transient path never loads numpy or scipy.
All functions are pure and thread-safe.  The public 1F1, Hermite and
1/Gamma functions raise ``DomainError`` for a non-finite argument and
``OverflowRangeError`` for a result beyond the double range; the
kernels behind them do not.
"""

import functools
import math
import numbers

from .errors import (ConvergenceError, DomainError, OverflowRangeError,
                     PoleError)

__all__ = ["reciprocal_gamma", "kummer_1f1", "kummer_1f1_dz", "hermite_h",
           "hermite_h_dz", "bessel_j0", "bessel_j1", "bessel_j0_zero",
           "bessel_j0_zeros", "bessel_j0_integral"]

_MAX_TERMS = 500
_REL_TOL = 1e-15

# A plain double summation keeps ~eps * (largest term / sum) relative
# accuracy; beyond this magnitude ratio a 1F1 sum is summed again in
# integers, each term floored to a multiple of 2^-_FIX_BITS (~7.5e-37):
# with t_0 = 1, those floors stay far below an ulp of the sums that
# reach the rerun
_WIDE_CANCEL = 1e4
_FIX_BITS = 120


def _exp_sinh_sides():
    """Nodes x_j = j/20, |x_j| <= 4, of the exp-sinh rule
    t = c exp((pi/2) sinh x), as (log of the weight h (pi/2) cosh x,
    y = (pi/2) sinh x, e^y): x >= 0 rising from 0, then x < 0 falling
    from -1/20, so that each side is marched away from the peak at x = 0.
    """
    h = 1.0 / 20.0
    nodes = []
    for j in range(81):
        x = j * h
        y = 0.5 * math.pi * math.sinh(x)
        lw = math.log(h * 0.5 * math.pi * math.cosh(x))
        nodes.append((lw, y, math.exp(y)))
    left = [(lw, -y, math.exp(-y)) for lw, y, _ in nodes[1:]]
    return tuple(nodes), tuple(left)


_EXP_SINH_SIDES = _exp_sinh_sides()

# int_0^x J0 is summed on panels of this width; |x| beyond the cap, just
# above the zero alpha_3183 = 9998.9 of J0, is refused
_J0_PANEL = 2.0
_J0_INTEGRAL_CAP = 1.0e4

# a node whose term falls below this fraction of its side's running sum
# ends that side: past it the integrand decays double-exponentially
_NODE_CUT = 1e-17

# the integrand's peak in y = ln(t/c) has curvature m + 2c^2; above this
# value (reached only for nu < -20) the rule is narrowed in y to keep
# several nodes across the peak
_PEAK_CURVATURE = 20.0


def _public(fn):
    """fn with the checks of a public scalar function (see above)."""
    @functools.wraps(fn)
    def checked(*args):
        if not all(map(math.isfinite, args)):
            raise _error(DomainError, fn, args, "needs finite arguments")
        try:
            r = fn(*args)
        except OverflowError as exc:
            raise _error(OverflowRangeError, fn, args,
                         "leaves the double range") from exc
        if not math.isfinite(r):
            raise _error(OverflowRangeError, fn, args,
                         "leaves the double range")
        return r
    return checked


def _error(cls, fn, args, what):
    return cls("%s(%s) %s" % (fn.__name__, ", ".join(map(repr, args)), what))


@_public
def reciprocal_gamma(x):
    """1/Gamma(x), total across the poles: exactly 0 at x = 0, -1, -2, ..."""
    if x > 0.0:
        return math.exp(-math.lgamma(x))
    if x == math.floor(x):
        return 0.0
    # reflection: 1/Gamma(x) = sin(pi x) Gamma(1 - x) / pi, the sine as
    # (-1)^k sin(pi (x - k)) on the exact x - k to keep it near the zeros
    k = round(x)
    s = math.sin(math.pi * (x - k))
    if k % 2:
        s = -s
    return s * math.exp(math.lgamma(1.0 - x)) / math.pi


# unchecked, for the Hermite weights on the basis path
_reciprocal_gamma = reciprocal_gamma.__wrapped__


def _not_converged(a, b, z):
    return ConvergenceError(
        "1F1 series: tolerance %g not met within %d terms at "
        "(a=%g, b=%g, z=%g)" % (_REL_TOL, _MAX_TERMS, a, b, z))


def _hyp1f1_chain(a, b, z):
    """The sum s of the terms t_n of the series of 1F1(a; b; z), stopped
    at its first t_n that is 0, or where |t_n| <= _REL_TOL |s| and the
    next two ratios r, r2 bound the tail, |t_n| |r| <= (1 - |r|) _REL_TOL
    |s| with |r2| <= |r|.  For a a few ulp from -m the terms just past
    n = m are tiny while |r| climbs above 1 again, and the tail regrows to
    about (a + m) e^z.  A sum that cancels is summed again exactly."""
    rel_tol = _REL_TOL
    term = s = top = 1.0
    comp = 0.0
    r, r2 = a * z / b, (a + 1) * z / ((b + 1) * 2.0)
    # step k sums t_{k-1}, and r2 becomes t_{k+1} / t_k
    for k in range(2, _MAX_TERMS + 2):
        term *= r
        r, r2 = r2, (a + k) * z / ((b + k) * (k + 1.0))
        mag = abs(term)
        if mag > top:
            top = mag
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        if mag <= rel_tol * abs(s) and (mag == 0.0 or (
                mag * abs(r) <= (1.0 - abs(r)) * rel_tol * abs(s)
                and abs(r2) <= abs(r))):
            break
    else:
        raise _not_converged(a, b, z)
    if top > _WIDE_CANCEL * abs(s):
        return _hyp1f1_chain_exact(a, b, z)
    return s


def _hyp1f1_chain_exact(a, b, z):
    """The sum of ``_hyp1f1_chain`` in integer fixed point, from the exact
    rationals of a, b and z; each term, scaled by 2^_FIX_BITS, is
    floor-divided once per step; the sum stops by the float rule in
    integers, with _REL_TOL = num / den and r = p / q:
    |t| |p| den <= num |s| (|q| - |p|), and is rounded once by int / int."""
    pa, qa = a.as_integer_ratio()
    pb, qb = b.as_integer_ratio()
    pz, qz = z.as_integer_ratio()
    num, den = _REL_TOL.as_integer_ratio()
    # t_{k+1} / t_k = (pa + k qa) pz qb / ((pb + k qb) (k + 1) qa qz),
    # carried ahead as p / q and p2 / q2 as in the float chain
    zq = pz * qb
    dq = qa * qz
    one = 1 << _FIX_BITS
    term = s = one
    p, q = pa * zq, pb * dq
    p2, q2 = (pa + qa) * zq, (pb + qb) * 2 * dq
    for k in range(2, _MAX_TERMS + 2):
        term = term * p // q
        p, q = p2, q2
        p2, q2 = (pa + k * qa) * zq, (pb + k * qb) * (k + 1) * dq
        s += term
        mag = abs(term)
        if mag * den <= num * abs(s) and (mag == 0 or (
                mag * abs(p) * den <= num * abs(s) * (abs(q) - abs(p))
                and abs(p2 * q) <= abs(p * q2))):
            return s / one
    raise _not_converged(a, b, z)


def _hyp1f1(a, b, z):
    """1F1(a; b; z), b not a non-positive integer; negative z goes through
    1F1(a;b;z) = e^z 1F1(b-a;b;-z), so the summed tail never alternates."""
    if z < 0.0:
        return math.exp(z) * _hyp1f1_chain(b - a, b, -z)
    return _hyp1f1_chain(a, b, z)


def _check_pole(b):
    if b <= 0.0 and b == math.floor(b):
        raise PoleError("1F1 pole: b = %g is a non-positive integer" % b)


@_public
def kummer_1f1(a, b, z):
    """Kummer confluent hypergeometric 1F1(a; b; z) for real arguments."""
    _check_pole(b)
    return _hyp1f1(a, b, z)


@_public
def kummer_1f1_dz(a, b, z):
    """d/dz 1F1(a; b; z) = (a/b) * 1F1(a+1; b+1; z); exactly a/b at 0."""
    _check_pole(b)
    return (a / b) * _hyp1f1(a + 1.0, b + 1.0, z)


def _hermite_weights(nu):
    """(g1, g2, sqrt(pi) 2^nu) with g1 = 1/Gamma((1-nu)/2) and
    g2 = 1/Gamma(-nu/2), the weights of H_nu's two Kummer members."""
    return (_reciprocal_gamma(0.5 * (1.0 - nu)),
            _reciprocal_gamma(-0.5 * nu),
            math.sqrt(math.pi) * math.pow(2.0, nu))


def _hermite(nu, z):
    """H_nu(z) = sqrt(pi) 2^nu (g1 F(-nu/2; 1/2) - g2 2z F((1-nu)/2; 3/2))
    with F(a; b) = 1F1(a; b; z^2), for z < 0; a term whose 1/Gamma weight
    sits at a pole is exactly zero, and its series is not summed."""
    g1, g2, scale = _hermite_weights(nu)
    w = z * z
    t1 = 0.0
    if g1 != 0.0:
        t1 = g1 * _hyp1f1_chain(-0.5 * nu, 0.5, w)
    t2 = 0.0
    if g2 != 0.0:
        t2 = g2 * 2.0 * z * _hyp1f1_chain(0.5 * (1.0 - nu), 1.5, w)
    return scale * (t1 - t2)


def _hermite_recessive(nu, u):
    """(H_nu(u), H_{nu-1}(u)) for u >= 0, with no cancellation.

    H_s(u) = (1/Gamma(m)) int_0^inf e^{-t^2 - 2ut} t^{m-1} dt with m = -s
    (DLMF 12.5.1 carried over by 12.7) is taken at s = nu - floor(nu) - 2
    in [-2, -1) and at s - 1, or at nu and nu - 1 when nu < -1, by the
    exp-sinh rule centred on c = (sqrt(u^2 + 2m) - u)/2, the peak of
    t^m e^{-t^2 - 2ut}.  The two integrands differ by a factor t, so one
    exp per node serves both; t^m sits inside that exp.  The pair is
    then recurred upward, H_{k+1} = 2u H_k - 2k H_{k-1}, which H_nu
    dominates for u >= 0.  Raises OverflowRangeError when the result
    leaves the double range.
    """
    if nu < -1.0:
        n = 0
        s = nu
    else:
        n = math.floor(nu) + 2
        s = nu - n
    m = -s
    c = 0.5 * (math.sqrt(u * u + 2.0 * m) - u)
    cc = c * c
    cu = 2.0 * c * u
    peak = cc + cu
    exp = math.exp
    cut = _NODE_CUT
    s0 = s1 = 0.0
    right, left = _EXP_SINH_SIDES
    if m + 2.0 * cc > _PEAK_CURVATURE:
        # t = c exp(r y): the same rule with y and its weight scaled by r
        r = math.sqrt(_PEAK_CURVATURE / (m + 2.0 * cc))
        lr = math.log(r)
        right = [(lw + lr, r * y, exp(r * y)) for lw, y, _ in right]
        left = [(lw + lr, r * y, exp(r * y)) for lw, y, _ in left]
    # ln(t^m e^{-t^2 - 2ut}) - ln(c^m e^{-peak}) at t = c e^y is
    # m y + peak - e^y (c^2 e^y + 2uc); the s - 1 term carries t/c = e^y
    # more, so it decays last on the right and first on the left
    for lw, y, e in right:
        v = exp(lw + m * y + peak - e * (cc * e + cu))
        s0 += v
        ve = v * e
        s1 += ve
        if ve < cut * s1:
            break
    for lw, y, e in left:
        v = exp(lw + m * y + peak - e * (cc * e + cu))
        s0 += v
        s1 += v * e
        if v < cut * s0:
            break
    scale = exp(m * math.log(c) - math.lgamma(m) - peak)
    h = scale * s0
    h_prev = scale * c * s1 / m
    u2 = 2.0 * u
    for j in range(n):
        h, h_prev = u2 * h - 2.0 * (s + j) * h_prev, h
    if not (math.isfinite(h) and math.isfinite(h_prev)):
        raise OverflowRangeError("H_%g(%g) leaves the double range"
                                 % (nu, u))
    return h, h_prev


@_public
def hermite_h(nu, z):
    """Hermite function H_nu(z) of arbitrary real order nu."""
    if z >= 0.0:
        return _hermite_recessive(nu, z)[0]
    return _hermite(nu, z)


@_public
def hermite_h_dz(nu, z):
    """d/dz H_nu(z) = 2 nu H_{nu-1}(z)."""
    if z >= 0.0:
        return 2.0 * nu * _hermite_recessive(nu, z)[1]
    return 2.0 * nu * _hermite(nu - 1.0, z)



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
    """Read-only ndarray of the first n positive zeros of J0 (n >= 1),
    within a few ulp of the exact zeros.

    Entry k is bit-identical for every n >= k, so one call serves a
    whole expansion; each n is computed once and then shared.
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise DomainError("J0 zeros: need an integer n >= 1, got %r" % (n,))
    return _j0_zeros(int(n))


# a process uses a few expansion sizes; the bound keeps one that asks
# for many different n from holding every array
@functools.lru_cache(maxsize=16)
def _j0_zeros(n):
    from scipy.special import jn_zeros
    zeros = jn_zeros(0, n)
    zeros.flags.writeable = False
    return zeros


def bessel_j0_zero(k):
    """k-th positive zero of J0 (k >= 1): entry k of ``bessel_j0_zeros``."""
    return float(bessel_j0_zeros(k)[-1])


@functools.cache
def _j0_panel_rule():
    """(nodes, weights, prefix) of the J0 integral: the 8-point
    Gauss-Legendre rule on [-1, 1], and prefix[n] = int_0^{nh} J0 for
    n = 0 .. cap/h, each panel by that rule and the panels summed in
    order.  Built on first use (a concurrent first use builds it twice).
    """
    import numpy as np
    from scipy.special import j0
    nodes, weights = np.polynomial.legendre.leggauss(8)
    h = _J0_PANEL
    starts = h * np.arange(round(_J0_INTEGRAL_CAP / h))
    panels = j0(starts[:, None] + 0.5 * h * (nodes + 1.0)) @ weights
    return nodes, weights, np.concatenate(([0.0],
                                           np.cumsum(0.5 * h * panels)))


def _j0_integral_abs(ax):
    """int_0^ax J0 for an array ax of values in [0, cap]: the prefix sum
    of the full panels below ax plus the rule on the last partial panel.

    Every step is elementwise (the eight weighted nodes are added
    pairwise in a fixed order), so each element is its scalar call.
    """
    import numpy as np
    from scipy.special import j0
    nodes, weights, prefix = _j0_panel_rule()
    n = np.floor(ax / _J0_PANEL)
    start = n * _J0_PANEL
    half = 0.5 * (ax - start)
    f = j0((start + half)[..., None] + half[..., None] * nodes) * weights
    f = f[..., :4] + f[..., 4:]
    f = f[..., :2] + f[..., 2:]
    return prefix[n.astype(np.intp)] + half * (f[..., 0] + f[..., 1])


def bessel_j0_integral(x):
    """Integral of J0 over [0, x]; equals x * 1F2(1/2; 1, 3/2; -x^2/4).

    Summed on panels of width 2 by the 8-point Gauss-Legendre rule on
    ``scipy.special.j0``, at |x| and given the sign of x, so it is
    exactly odd.  Against mpmath, within 1.9e-15 absolute for |x| < 100
    and 2.2e-14 up to |x| = ``_J0_INTEGRAL_CAP``, where the prefix sum
    spans 5,000 panels.  A finite |x| beyond the cap raises DomainError;
    x = +-inf gives the limit +-1, and NaN gives NaN.  A float for a
    scalar ``x``, an ndarray for an array.
    """
    import numpy as np
    ax = np.abs(x)
    inside = ax <= _J0_INTEGRAL_CAP
    if inside.all():
        r = _j0_integral_abs(ax)
    else:
        beyond = ax[np.isfinite(ax) & ~inside]
        if beyond.size:
            raise DomainError("J0 integral: |x| = %r exceeds %r"
                              % (float(beyond[0]), _J0_INTEGRAL_CAP))
        r = np.where(inside, _j0_integral_abs(np.where(inside, ax, 0.0)),
                     np.where(np.isnan(ax), ax, 1.0))
    return _float_if_scalar(np.copysign(r, x))
