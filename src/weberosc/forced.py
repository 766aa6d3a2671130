"""Forced case x'' + A x' - (a t^2 + b t + c) x = mu by variation of constants.

The Lagrange coefficients c1, c2 are integrals of x2/W and x1/W, which
have no closed antiderivative.  Each integrand is expanded in a
Fourier-Bessel series of J0(alpha_k t / t_bar) on [0, t_bar], where
t_bar is the integrand's first root past the physical horizon, so that
termwise integration stays exact (the truncation happens after the
integration, not before).  All coefficients of an expansion come from
one composite Gauss-Legendre grid: the integrand is evaluated once per
node, and a fit on half as many panels checks the result.
"""

from dataclasses import dataclass
import math

import numpy as np
from scipy.optimize import brentq as _brentq

from . import specfun, weber
from .errors import ConvergenceError, DegenerateBasisError, RootNotFoundError
from .weber import ClosedFormSolution, PhysicalConfig, WeberCoefficients

_BRACKET_WINDOW = 5.0
_BRACKET_STEP = 0.01
# largest change of B between the P- and 2P-panel fits, relative to max |B|
_FIT_REL_TOL = 1e-8
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True)
class FourierBesselExpansion:
    """Expansion f(t) ~ sum_k B_k J0(alpha_k t / t_bar) on [0, t_bar]."""

    t_bar: float
    alphas: tuple
    B: tuple
    n_terms: int


def _basis_over_wronskian(coeffs: WeberCoefficients, t: float):
    """(x1/W, x2/W) at time t; raises where W vanishes or overflows."""
    x1, x2, x1dot, x2dot = weber.evaluate_basis(coeffs, t)
    w = x1 * x2dot - x2 * x1dot
    if w == 0.0 or not math.isfinite(w):
        raise DegenerateBasisError("Wronskian is %r at t = %g" % (w, t))
    return x1 / w, x2 / w


def integrand_c1(coeffs: WeberCoefficients, t: float) -> float:
    """x2(t) / W(t): the (sign-stripped) derivative of c1 per unit mu."""
    return _basis_over_wronskian(coeffs, t)[1]


def integrand_c2(coeffs: WeberCoefficients, t: float) -> float:
    """x1(t) / W(t): the derivative of c2 per unit mu."""
    return _basis_over_wronskian(coeffs, t)[0]


def find_root_after(fn, t_end: float, window: float = _BRACKET_WINDOW) -> float:
    """First sign change of fn in (t_end, t_end + window], refined by Brent."""
    t_lo = t_end
    f_lo = fn(t_lo)
    steps = int(round(window / _BRACKET_STEP))
    for i in range(1, steps + 1):
        t_hi = t_end + i * _BRACKET_STEP
        f_hi = fn(t_hi)
        if f_lo == 0.0:
            return t_lo
        if f_lo * f_hi < 0.0:
            return _brentq(fn, t_lo, t_hi, xtol=1e-10)
        t_lo, f_lo = t_hi, f_hi
    raise RootNotFoundError(
        "no sign change in (%g, %g]" % (t_end, t_end + window))


def find_tbar(coeffs: WeberCoefficients, t_end: float) -> float:
    """Expansion endpoint for c1: root of x2/W just past the horizon."""
    return find_root_after(lambda t: integrand_c1(coeffs, t), t_end)


def _weighted_projections(fn, t_bar: float, alphas, panels: int):
    """int_0^t_bar t f(t) J0(a_k t/t_bar) dt for every a_k, by the
    16-point Gauss-Legendre rule on ``panels`` equal panels."""
    h = t_bar / panels
    t = (h * np.arange(panels)[:, None] + 0.5 * h * (_GL_NODES + 1.0)).ravel()
    w = np.tile(0.5 * h * _GL_WEIGHTS, panels)
    f = np.array([fn(ti) for ti in t.tolist()])
    return specfun.bessel_j0(np.outer(alphas, t / t_bar)) @ (w * t * f)


def fourier_bessel_fit(fn, t_bar: float, n_terms: int) -> FourierBesselExpansion:
    """Coefficients B_k = 2/(t_bar^2 J1(a_k)^2) * int_0^t_bar t f(t) J0(a_k t/t_bar) dt.

    The panel count grows with n_terms, so that a panel holds at most
    ~2.5 periods of the last J0 (~n_terms/2 periods on [0, t_bar]); the
    fit on half as many panels must agree to ``_FIT_REL_TOL`` or
    ConvergenceError is raised.
    """
    alphas = specfun.bessel_j0_zeros(n_terms)
    norm = 2.0 / (t_bar * t_bar * specfun.bessel_j1(alphas) ** 2)
    panels = max(4, math.ceil(n_terms / 5))
    coarse = norm * _weighted_projections(fn, t_bar, alphas, panels)
    B = norm * _weighted_projections(fn, t_bar, alphas, 2 * panels)
    scale = float(np.max(np.abs(B)))
    delta = float(np.max(np.abs(B - coarse)))
    if not delta <= _FIT_REL_TOL * scale:  # also catches a NaN integrand
        raise ConvergenceError(
            "Fourier-Bessel fit: %d- and %d-panel coefficients differ by "
            "%.3g against max |B| = %.3g" % (panels, 2 * panels, delta, scale))
    return FourierBesselExpansion(t_bar=t_bar, alphas=tuple(alphas.tolist()),
                                  B=tuple(B.tolist()), n_terms=n_terms)


def eval_expansion(exp: FourierBesselExpansion, t: float) -> float:
    """Partial sum sum_k B_k J0(alpha_k t / t_bar)."""
    return float(np.dot(exp.B, specfun.bessel_j0(
        np.multiply(exp.alphas, t / exp.t_bar))))


def integrate_expansion(exp: FourierBesselExpansion, t: float) -> float:
    """Exact termwise integral of the partial sum over [0, t].

    Each term integrates to t * B_k * 1F2(1/2; 1, 3/2; -a_k^2 t^2 / (4 t_bar^2));
    evaluated through the cancellation-safe J0-integral form.
    """
    s = 0.0
    for bk, ak in zip(exp.B, exp.alphas):
        s += bk * (exp.t_bar / ak) * specfun.bessel_j0_integral(ak * t / exp.t_bar)
    return s


@dataclass(frozen=True)
class ParticularSolution:
    """x_bar = c1 x1 + c2 x2 with c1, c2 from the fitted expansions."""

    coeffs: WeberCoefficients
    mu: float
    exp1: FourierBesselExpansion  # fit of x2/W, feeds c1
    exp2: FourierBesselExpansion  # fit of x1/W, feeds c2
    prefactors: tuple             # (-mu, +mu), fixed to W = x1 x2' - x2 x1'


def default_n_terms(A: float) -> int:
    return 200 if A != 0.0 else 30


def variation_constants(coeffs: WeberCoefficients, mu: float,
                        n_terms: int | None = None,
                        t_end: float = 10.0) -> ParticularSolution:
    """Build the particular solution of the mu-forced equation."""
    if n_terms is None:
        n_terms = default_n_terms(coeffs.A)
    tb1 = find_root_after(lambda t: integrand_c1(coeffs, t), t_end)
    tb2 = find_root_after(lambda t: integrand_c2(coeffs, t), t_end)
    exp1 = fourier_bessel_fit(lambda t: integrand_c1(coeffs, t), tb1, n_terms)
    exp2 = fourier_bessel_fit(lambda t: integrand_c2(coeffs, t), tb2, n_terms)
    return ParticularSolution(coeffs=coeffs, mu=mu, exp1=exp1, exp2=exp2,
                              prefactors=(-mu, mu))


def lagrange_coefficients(ps: ParticularSolution, t: float):
    """(c1, c2, c1', c2') at time t."""
    p1, p2 = ps.prefactors
    c1 = p1 * integrate_expansion(ps.exp1, t)
    c2 = p2 * integrate_expansion(ps.exp2, t)
    c1dot = p1 * eval_expansion(ps.exp1, t)
    c2dot = p2 * eval_expansion(ps.exp2, t)
    return c1, c2, c1dot, c2dot


def eval_particular(ps: ParticularSolution, t: float):
    """(x_bar, x_bar') at time t."""
    x1, x2, x1dot, x2dot = weber.evaluate_basis(ps.coeffs, t)
    c1, c2, c1dot, c2dot = lagrange_coefficients(ps, t)
    xbar = c1 * x1 + c2 * x2
    # the Lagrange constraint c1' x1 + c2' x2 = 0 is imposed analytically:
    # evaluating it from the truncated expansions instead would multiply
    # their tiny pointwise error by the ~1e15 basis magnitude at t = 0
    xbar_dot = c1 * x1dot + c2 * x2dot
    return xbar, xbar_dot


@dataclass(frozen=True)
class ForcedSolution:
    """General integral: homogeneous part fitted around the particular one."""

    particular: ParticularSolution
    homogeneous: ClosedFormSolution


def solve_forced_ivp(config: PhysicalConfig,
                     n_terms: int | None = None) -> ForcedSolution:
    """Full solution of the forced problem meeting (x0, v0) at t = 0."""
    config.validate()
    coeffs = weber.map_params(config)
    ps = variation_constants(coeffs, config.mu, n_terms=n_terms,
                             t_end=min(config.t_end,
                                       1.0 / config.q if config.q > 0 else config.t_end))
    xb0, vb0 = eval_particular(ps, 0.0)
    hom = weber.solve_ivp(coeffs, config.x0 - xb0, config.v0 - vb0)
    return ForcedSolution(particular=ps, homogeneous=hom)


def eval_forced(fs: ForcedSolution, t: float):
    """(x, x') of the forced general solution at time t."""
    xb, vb = eval_particular(fs.particular, t)
    xh, vh = weber.eval_solution(fs.homogeneous, t)
    return xb + xh, vb + vh


def reconstruction_error(exp: FourierBesselExpansion, fn,
                         frac: float = 0.95, n_samples: int = 400) -> float:
    """Relative L2 error of the expansion against fn on [0, frac * t_bar]."""
    ts = np.linspace(0.0, frac * exp.t_bar, n_samples)
    ref = np.array([fn(t) for t in ts])
    fit = np.array([eval_expansion(exp, t) for t in ts])
    denom = math.sqrt(float(np.sum(ref * ref)))
    if denom == 0.0:
        return math.sqrt(float(np.sum(fit * fit)))
    return math.sqrt(float(np.sum((fit - ref) ** 2))) / denom
