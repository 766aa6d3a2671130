"""Closed-form solution of x'' + A x' - (a t^2 + b t + c) x = 0.

For a > 0 the fundamental pair is built from a Hermite function of real
order and a Kummer function, both evaluated at arguments linear in t and
damped by a shared Gaussian-exponential envelope.  The q = 0 case
(a = b = 0) degenerates to a constant-coefficient oscillator whose exact
exponential pair (not a limit of the first) is fitted and evaluated
through the same Wronskian formulas.  x1/W and x2/W, with W in closed
form, are the integrands of the forced case.  ``evaluate_basis`` sums
each member's series at one t; ``basis_table`` serves a whole arm.
"""

from dataclasses import dataclass, fields
from fractions import Fraction
import functools
import math
import numbers

from . import specfun
from .errors import (ConfigError, DegenerateBasisError, DomainError,
                     OverflowRangeError)

# |A^2 + 4c| below this is treated as critical damping in the q = 0 branch
_CRITICAL_TIE = 1e-12

_W_FLOOR = 1e-300

# W(0) below this fraction of |x1 x2'| + |x2 x1'| leaves the fitted
# constants with fewer than ~6 trustworthy digits.  The pair degenerates
# where nu = beta - 1/2 is an even integer 2n: H_2n(u) is then a multiple
# of 1F1(-n; 1/2; u^2), so x1 and x2 are proportional.
_W_REL_FLOOR = 1e-6


@dataclass(frozen=True, kw_only=True)
class PhysicalConfig:
    """Physical inputs of the rotating-arm oscillator (SI units).

    Every instance is valid: construction, and ``dataclasses.replace``,
    raise ``ConfigError`` naming the keyword unless it is a field whose
    value is a finite real number (not a bool, string or None, nor an
    int beyond the double range) that obeys the sign rules below.  The
    fields are keywords only; a positional argument is a ``ConfigError``.
    """

    m: float = 1.0          # bead mass [kg]
    k1: float = 10.0        # vertical spring stiffness [N/m]
    k2: float = 10.0        # radial spring stiffness [N/m]
    omega0: float = 3.0     # initial angular speed [rad/s]
    q: float = 0.1          # angular-speed decay rate [1/s]
    A: float = 0.0          # specific viscous damping [1/s]
    mu: float = 0.0         # dry-friction forcing acceleration [m/s^2]
    L: float = 1.0          # half rod length [m]
    g: float = 9.81         # gravity [m/s^2]
    x0: float = 0.0         # initial radial position [m]
    v0: float = 1.0         # initial radial velocity [m/s]
    z0: float = 0.0         # initial vertical position [m]
    zdot0: float = 0.0      # initial vertical velocity [m/s]
    t_end: float = 10.0     # horizon when 1/q does not apply [s]

    def __new__(cls, *args, **kwargs):
        if args:
            raise ConfigError("fields are keywords only, got %d positional "
                              "argument(s)" % len(args))
        unknown = set(kwargs) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError("unknown keys %s" % sorted(unknown))
        return super().__new__(cls)

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            try:
                ok = (isinstance(v, numbers.Real)
                      and not isinstance(v, bool) and math.isfinite(v))
            except OverflowError:  # an int beyond the double range
                ok = False
            if not ok:
                raise ConfigError("%s must be a finite number, got %r"
                                  % (f.name, v))
        for name in ("m", "k1", "omega0", "L", "t_end"):
            if getattr(self, name) <= 0:
                raise ConfigError("%s must be > 0" % name)
        for name in ("k2", "A"):
            if getattr(self, name) < 0:
                raise ConfigError("%s must be >= 0" % name)


@dataclass(frozen=True)
class WeberCoefficients:
    """Coefficients of x'' + A x' - (a t^2 + b t + c) x = 0."""

    a: float
    b: float
    c: float
    A: float
    beta: float | None  # (b^2 - a(A^2 + 4c)) / (8 a^{3/2}); None when a = 0


def map_params_exact(omega0, q, k2, m):
    """(a, b, c) as exact rationals: a = w0^2 q^2, b = -2 q w0^2,
    c = w0^2 - k2/m.

    Accepts anything ``Fraction`` does (ints, Fractions, decimal
    strings such as "1/10" or "0.1").  ``map_params`` is this map on the
    binary values of its float inputs, rounded once per coefficient.
    """
    w2 = Fraction(omega0) ** 2
    q = Fraction(q)
    return (w2 * q * q, -2 * q * w2, w2 - Fraction(k2) / Fraction(m))


def map_params(config: PhysicalConfig) -> WeberCoefficients:
    """Derive the quadratic-stiffness coefficients from physical inputs.

    Each coefficient is computed exactly in rational arithmetic over the
    binary values of the inputs and rounded once, rather than
    accumulating one rounding per multiply.
    """
    ae, be, ce = map_params_exact(config.omega0, config.q, config.k2,
                                  config.m)
    a, b, c = float(ae), float(be), float(ce)
    if a > 0.0:
        beta = (b * b - a * (config.A * config.A + 4.0 * c)) / (8.0 * a ** 1.5)
    else:
        beta = None
    return WeberCoefficients(a=a, b=b, c=c, A=config.A, beta=beta)


def _u(coeffs: WeberCoefficients, t: float) -> float:
    return (coeffs.b + 2.0 * coeffs.a * t) / (2.0 * coeffs.a ** 0.75)


def _envelope(coeffs: WeberCoefficients, t: float):
    # (E, E', u) at time t, as in evaluate_basis
    a, b, A = coeffs.a, coeffs.b, coeffs.A
    sqa = math.sqrt(a)
    env = math.exp(-(a * t * t + t * (b + sqa * A)) / (2.0 * sqa))
    denv = env * (-(2.0 * a * t + b + sqa * A) / (2.0 * sqa))
    return env, denv, _u(coeffs, t)


def evaluate_basis(coeffs: WeberCoefficients, t: float):
    """Fundamental pair (x1, x2) and derivatives at time t (a > 0 branch).

    x1 = E(t) H_{beta-1/2}(u(t)),  x2 = E(t) 1F1(1/4 - beta/2; 1/2; u(t)^2)
    with envelope E = exp(-(a t^2 + t (b + sqrt(a) A)) / (2 sqrt(a))) and
    u = (b + 2 a t) / (2 a^{3/4}).  Derivatives by exact chain rule; each
    of the four values is its public ``specfun`` function.
    """
    a, b, beta = coeffs.a, coeffs.b, coeffs.beta
    if not a > 0.0:
        raise ConfigError("evaluate_basis requires a > 0 (got a = %g)" % a)
    _finite_t(t)
    nu = beta - 0.5
    # the Kummer parameter -nu/2 equals 1/4 - beta/2 to the last bit:
    # halving commutes with rounding
    k = -0.5 * nu

    try:
        env, denv, u = _envelope(coeffs, t)
        du = a ** 0.25
        w = u * u
        dw = (b + 2.0 * a * t) / math.sqrt(a)
        # M first: where two series fail, M's error is the one raised
        f = specfun.kummer_1f1(k, 0.5, w)
        h = specfun.hermite_h(nu, u)
        dh = specfun.hermite_h_dz(nu, u)
        df = specfun.kummer_1f1_dz(k, 0.5, w)

        x1 = env * h
        x1dot = denv * h + env * dh * du
        x2 = env * f
        x2dot = denv * f + env * df * dw
    except OverflowError as exc:
        raise _overflow(t) from exc
    return _finite((x1, x2, x1dot, x2dot), t)


# table knots lie _KNOT_STEP apart in u; past |u| = 64 every pair overflows
_KNOT_STEP = 0.25
_KNOT_REACH = 64.0


def _hermite_step(nu, u0, y, dy, s):
    """(y, y') at u0 + s from (y, y') at u0 on y'' = 2u y' - 2 nu y, by the
    Taylor series (DLMF 3.7(ii)) y = sum d_n, s y' = sum n d_n, with
    (n+2)(n+1) d_{n+2} = 2 u0 s (n+1) d_{n+1} + 2 s^2 (n - nu) d_n.  The
    sums stop at two terms below 1e-17 of each once the recurrence's
    weights, at most (|2 u0 s| + 2 s^2)/(n+2) + 2 s^2 |nu|/((n+2)(n+1)),
    sum to 1/2 or less, so no later term exceeds half the larger of the
    two before it.  A sum that left the double range gives NaN."""
    if s == 0.0:
        return y, dy
    p, q = 2.0 * u0 * s, 2.0 * s * s
    grow, fall = abs(p) + q, q * abs(nu)
    d0, d1 = y, dy * s
    ys, zs = d0 + d1, d1
    for n in range(1, 200):
        d0, d1 = d1, (p * n * d1 + q * (n - 1 - nu) * d0) / ((n + 1) * n)
        ys += d1
        zs += (n + 1) * d1
        if (abs(d0) + abs(d1) <= 1e-17 * abs(ys)
                and n * abs(d0) + (n + 1) * abs(d1) <= 1e-17 * abs(zs)
                and grow * (n + 1) + fall <= 0.5 * (n + 2) * (n + 1)):
            return ys, zs / s
    return math.nan, math.nan


def _march(knots, nu, u, d, bound):
    # from the knot at u by steps d = +-_KNOT_STEP, while finite, to bound
    y, dy = knots[u]
    while d * u < d * bound:
        y, dy = _hermite_step(nu, u, y, dy, d)
        if not (math.isfinite(y) and math.isfinite(dy)):
            return
        u += d
        knots[u] = y, dy


class _BasisTable:
    """``evaluate_basis`` on [0, t_max] from (y, y') of both members at
    knots u = k _KNOT_STEP, each marched the way it dominates: M outward
    from M(0) = 1; H_nu outward from its closed form at 0 for u < 0, back
    from one ``_hermite_recessive`` value at the top knot for u > 0.  A
    query is one step from its nearest knot, and raises OverflowRangeError
    where a march stopped as a value left the double range."""

    def __init__(self, coeffs: WeberCoefficients, t_max: float):
        self.coeffs, self.t_max, self.du = coeffs, t_max, coeffs.a ** 0.25
        nu = self.nu = coeffs.beta - 0.5
        lo = max(_u(coeffs, 0.0), -_KNOT_REACH)
        hi = min(_u(coeffs, t_max), _KNOT_REACH)
        self.knots_m = m = {0.0: (1.0, 0.0)}
        _march(m, nu, 0.0, _KNOT_STEP, hi)
        _march(m, nu, 0.0, -_KNOT_STEP, lo)
        self.knots_h = h = {}
        top = max(m)
        try:
            g1, g2, scale = specfun._hermite_weights(nu)
            h[0.0] = scale * g1, -2.0 * scale * g2
            _march(h, nu, 0.0, -_KNOT_STEP, lo)
            if top > 0.0:
                hv, h_prev = specfun._hermite_recessive(nu, top)
                h[top] = hv, 2.0 * nu * h_prev
                _march(h, nu, top, -_KNOT_STEP, max(lo, _KNOT_STEP))
        except OverflowError:
            pass

    def __call__(self, t: float):
        _finite_t(t)
        if not 0.0 <= t <= self.t_max:
            raise DomainError("the basis table covers [0, %r], got t = %r"
                              % (self.t_max, t))
        try:
            env, denv, u = _envelope(self.coeffs, t)
            uk = round(u / _KNOT_STEP) * _KNOT_STEP
            h, dh = _hermite_step(self.nu, uk, *self.knots_h[uk], u - uk)
            f, df = _hermite_step(self.nu, uk, *self.knots_m[uk], u - uk)
        except (OverflowError, KeyError) as exc:  # no knot: a march stopped
            raise _overflow(t) from exc
        return _finite((env * h, env * f, denv * h + env * dh * self.du,
                        denv * f + env * df * self.du), t)


def basis_table(coeffs: WeberCoefficients, t_max: float):
    """t -> (x1, x2, x1', x2') on [0, t_max], by a table when a > 0."""
    if coeffs.a > 0.0:
        return _BasisTable(coeffs, t_max)
    return functools.partial(_fundamental_pair, coeffs)


# the only code that turns a computed inf, a NaN or an OverflowError into
# an error; a NaN or infinite input t is a DomainError from _finite_t
def _overflow(t):
    return OverflowRangeError("a value left the double range at t = %g" % t,
                              t=t)


def _finite_t(t):
    if not math.isfinite(t):
        raise DomainError("t must be finite, got %r" % (t,))


def _finite(values, t):
    if not all(map(math.isfinite, values)):
        raise _overflow(t)
    return values


def _fundamental_pair(coeffs: WeberCoefficients, t: float):
    """(x1, x2, x1', x2') at time t: ``evaluate_basis`` for a > 0; for
    a = b = 0, by the sign of A^2 + 4c, e^{r1 t}, e^{r2 t} (overdamped),
    e^{-At/2} (cos, sin)(w t) (oscillatory) or e^{-At/2} (1, t) (critical).
    A value outside the double range raises ``OverflowRangeError``.
    """
    if coeffs.a > 0.0:
        return evaluate_basis(coeffs, t)
    if coeffs.a != 0.0 or coeffs.b != 0.0:
        raise ConfigError("constant branch requires a = b = 0")
    _finite_t(t)
    try:
        return _finite(_constant_pair(coeffs.A, coeffs.c, t), t)
    except OverflowError as exc:
        raise _overflow(t) from exc


def _constant_pair(A, c, t):
    disc = A * A + 4.0 * c
    if disc > _CRITICAL_TIE:
        rt = math.sqrt(disc)
        r1 = 0.5 * (-A + rt)
        r2 = 0.5 * (-A - rt)
        e1 = math.exp(r1 * t)
        e2 = math.exp(r2 * t)
        return e1, e2, r1 * e1, r2 * e2
    lam = -0.5 * A
    e = math.exp(lam * t)
    if disc < -_CRITICAL_TIE:
        om = 0.5 * math.sqrt(-disc)
        cs = e * math.cos(om * t)
        sn = e * math.sin(om * t)
        return cs, sn, lam * cs - om * sn, lam * sn + om * cs
    return e, e * t, lam * e, e * (lam * t + 1.0)


def combine(k1, k2, pair):
    """(k1 x1 + k2 x2, k1 x1' + k2 x2') for pair = (x1, x2, x1', x2')."""
    x1, x2, x1dot, x2dot = pair
    return k1 * x1 + k2 * x2, k1 * x1dot + k2 * x2dot


def wronskian(coeffs: WeberCoefficients, t: float) -> float:
    """W(t) = x1 x2' - x2 x1'; by Abel's identity W(t) = W(0) e^{-A t}."""
    x1, x2, x1dot, x2dot = _fundamental_pair(coeffs, t)
    return _finite((x1 * x2dot - x2 * x1dot,), t)[0]


def envelope_over_wronskian(coeffs: WeberCoefficients, t: float) -> float:
    """E(t) / W(t) for the pair of ``evaluate_basis``, with W in closed form.

    In u, H_nu and M = 1F1(-nu/2; 1/2; u^2) solve y'' - 2u y' + 2 nu y = 0,
    so by Abel's identity their Wronskian is W_u(0) e^{u^2}, with
    W_u(0) = -H_nu'(0) = 2^{nu+1} sqrt(pi) / Gamma(-nu/2) since M(0) = 1
    and M'(0) = 0.  With x_i = E y_i and du/dt = a^{1/4} this gives
    W(t) = a^{1/4} 2^{nu+1} sqrt(pi) e^{b^2/(4 a^{3/2})} e^{-At} / Gamma(-nu/2).
    The quotient is one exp of ln E - ln|W|, so neither E nor
    e^{b^2/(4 a^{3/2})} = e^{omega0/|q|} overflows on its own.  Raises
    ``DegenerateBasisError`` at even nu, where W is identically 0, and
    ``OverflowRangeError`` where the quotient leaves the double range.
    """
    a, b, A, beta = coeffs.a, coeffs.b, coeffs.A, coeffs.beta
    if not a > 0.0:
        raise ConfigError("closed-form Wronskian requires a > 0 (got a = %g)"
                          % a)
    _finite_t(t)
    k = 0.25 - 0.5 * beta  # -nu/2
    if k <= 0.0 and k == math.floor(k):
        raise DegenerateBasisError(
            "Wronskian is identically 0 at even nu = %r" % (beta - 0.5))
    # 1/Gamma(k) < 0 exactly where k lies in (-1, 0), (-3, -2), ...
    sign = -1.0 if k < 0.0 and math.floor(k) % 2 else 1.0
    sqa = math.sqrt(a)
    try:
        ln_env = -(a * t * t + t * (b + sqa * A)) / (2.0 * sqa)
        ln_w = (0.25 * math.log(a) + (beta + 0.5) * math.log(2.0)
                + 0.5 * math.log(math.pi) + b * b / (4.0 * a * sqa) - A * t
                - math.lgamma(k))
        q = math.exp(ln_env - ln_w)
    except OverflowError as exc:
        raise _overflow(t) from exc
    return sign * _finite((q,), t)[0]


def _member_over_wronskian(coeffs: WeberCoefficients, t: float,
                           member) -> float:
    # member(nu, u(t)) E(t) / W(t), with W in closed form
    ew = envelope_over_wronskian(coeffs, t)
    u = _u(coeffs, t)
    try:
        v = ew * member(coeffs.beta - 0.5, u)
    except OverflowError as exc:
        raise _overflow(t) from exc
    return _finite((v,), t)[0]


def x1_over_wronskian(coeffs: WeberCoefficients, t: float) -> float:
    """x1(t) / W(t) = E(t) H_nu(u) / W(t): one Hermite call, no basis."""
    return _member_over_wronskian(coeffs, t, specfun.hermite_h)


def x2_over_wronskian(coeffs: WeberCoefficients, t: float) -> float:
    """x2(t) / W(t) = E(t) 1F1(-nu/2; 1/2; u^2) / W(t): one Kummer call."""
    return _member_over_wronskian(
        coeffs, t, lambda nu, u: specfun.kummer_1f1(-0.5 * nu, 0.5, u * u))


@dataclass(frozen=True)
class ClosedFormSolution:
    """General solution C1 x1 + C2 x2 fitted to initial conditions."""

    coeffs: WeberCoefficients
    C1: float
    C2: float


def solve_ivp(coeffs: WeberCoefficients, x0: float, v0: float) -> ClosedFormSolution:
    """Fit the two free constants to (x(0), x'(0)) = (x0, v0); a W(0)
    beyond the double range raises ``OverflowRangeError``, not 0 or NaN."""
    x1, x2, x1dot, x2dot = _fundamental_pair(coeffs, 0.0)
    w0, terms = _finite((x1 * x2dot - x2 * x1dot,
                         abs(x1 * x2dot) + abs(x2 * x1dot)), 0.0)
    if abs(w0) < _W_FLOOR or abs(w0) < _W_REL_FLOOR * terms:
        raise DegenerateBasisError(
            "Wronskian at t=0 is numerically zero: %g against terms "
            "summing to %g" % (w0, terms))
    c1 = (x0 * x2dot - v0 * x2) / w0
    c2 = (v0 * x1 - x0 * x1dot) / w0
    return ClosedFormSolution(coeffs, *_finite((c1, c2), 0.0))


def eval_solution(sol: ClosedFormSolution, t: float):
    """Evaluate (x, x') of the fitted solution at time t."""
    return _finite(combine(sol.C1, sol.C2, _fundamental_pair(sol.coeffs, t)),
                   t)


def solution_table(sol: ClosedFormSolution, t_max: float):
    """t -> ``eval_solution(sol, t)`` on [0, t_max] by ``basis_table``."""
    pair = basis_table(sol.coeffs, t_max)
    return lambda t: _finite(combine(sol.C1, sol.C2, pair(t)), t)
