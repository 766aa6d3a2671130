"""Forced case x'' + A x' - (a t^2 + b t + c) x = mu by variation of constants.

The Lagrange coefficients c1, c2 are integrals of x2/W and x1/W
(``weber.x2_over_wronskian``, ``weber.x1_over_wronskian``), which have
no closed antiderivative.  Each integrand is expanded in a
Fourier-Bessel series of J0(alpha_k t / t_bar) on [0, t_bar], where
alpha_k is the k-th zero of J0 and t_bar the integrand's first root past
the physical horizon, so that termwise integration stays exact (the
truncation happens after the integration, not before).  An expansion
stores t_bar and B only.  All coefficients of an expansion come from one
composite Gauss-Legendre grid: the integrand is evaluated once per node,
and a fit on half as many panels checks the result.
"""

from dataclasses import dataclass, replace
import functools
import math
import numbers

import numpy as np

from . import dynamics, specfun, weber
from .errors import (ConfigError, ConvergenceError, DomainError,
                     RootNotFoundError)
from .weber import ClosedFormSolution, PhysicalConfig, WeberCoefficients

_BRACKET_WINDOW = 5.0
_BRACKET_STEP = 0.01
# a root is refined until its bracket is narrower than this, or its
# ends are adjacent doubles
_ROOT_XTOL = 1e-10
# largest change of B between the P- and 2P-panel fits, relative to max |B|
_FIT_REL_TOL = 1e-8
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# J0 matrix entries per block of the projection product (2 MB), so the
# fit's memory does not grow with n_terms^2
_BLOCK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class FourierBesselExpansion:
    """Expansion f(t) ~ sum_k B_k J0(alpha_k t / t_bar) on [0, t_bar],
    where alpha_k is entry k of ``specfun.bessel_j0_zeros(len(B))``."""

    t_bar: float
    B: tuple


# the Lagrange integrands: c1' = -mu x2/W and c2' = mu x1/W
integrand_c1 = weber.x2_over_wronskian
integrand_c2 = weber.x1_over_wronskian


def _bracketed_root(fn, a, fa, b, fb):
    """Root of fn in [a, b], where fa and fb have opposite signs, by
    halving: the half whose ends differ in sign is kept until the
    bracket is narrower than _ROOT_XTOL or its midpoint is not strictly
    inside it (its ends are adjacent doubles).  The secant through the
    ends of the last bracket gives the root."""
    while b - a > _ROOT_XTOL:
        c = 0.5 * (a + b)
        if not a < c < b:
            break
        fc = fn(c)
        if fc == 0.0:
            return c
        if (fc < 0.0) == (fa < 0.0):
            a, fa = c, fc
        else:
            b, fb = c, fc
    return b - fb * (b - a) / (fb - fa)


def find_root_after(fn, t_end: float) -> float:
    """First sign change of fn within _BRACKET_WINDOW past t_end, refined
    to _ROOT_XTOL."""
    t_lo = t_end
    f_lo = fn(t_lo)
    for i in range(1, round(_BRACKET_WINDOW / _BRACKET_STEP) + 1):
        t_hi = t_end + i * _BRACKET_STEP
        f_hi = fn(t_hi)
        if f_lo == 0.0:
            return t_lo
        # signs, not the product, which underflows to -0.0 for |f| < 1e-162
        if f_lo < 0.0 < f_hi or f_hi < 0.0 < f_lo:
            return _bracketed_root(fn, t_lo, f_lo, t_hi, f_hi)
        t_lo, f_lo = t_hi, f_hi
    raise RootNotFoundError(
        "no sign change in (%g, %g]" % (t_end, t_end + _BRACKET_WINDOW))


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
    wtf = w * t * f
    s = t / t_bar
    rows = max(1, _BLOCK_ENTRIES // s.size)
    return np.concatenate([specfun.bessel_j0(np.outer(alphas[i:i + rows], s))
                           @ wtf for i in range(0, alphas.size, rows)])


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
    return FourierBesselExpansion(t_bar=t_bar, B=tuple(B.tolist()))


def eval_expansion(exp: FourierBesselExpansion, t: float) -> float:
    """Partial sum sum_k B_k J0(alpha_k t / t_bar)."""
    alphas = specfun.bessel_j0_zeros(len(exp.B))
    return float(np.dot(exp.B, specfun.bessel_j0(alphas * (t / exp.t_bar))))


def integrate_expansion(exp: FourierBesselExpansion, t: float) -> float:
    """Exact termwise integral of the partial sum over [0, t].

    Term k integrates to B_k (t_bar / a_k) int_0^{a_k t / t_bar} J0,
    i.e. t B_k 1F2(1/2; 1, 3/2; -a_k^2 t^2 / (4 t_bar^2)); the J0
    integrals of all terms come from one ``specfun.bessel_j0_integral``
    call, a Gauss-Legendre panel sum on J0.
    """
    alphas = specfun.bessel_j0_zeros(len(exp.B))
    return float(np.dot(np.divide(exp.B, alphas) * exp.t_bar,
                        specfun.bessel_j0_integral(alphas * (t / exp.t_bar))))


@dataclass(frozen=True)
class ForcedSolution:
    """x = (C1 + c1(t)) x1 + (C2 + c2(t)) x2, Lagrange's variation of
    constants.  ``homogeneous`` holds the basis coefficients and the
    constants C1, C2; c1 and c2 integrate c1' = -mu x2/W and
    c2' = mu x1/W (W = x1 x2' - x2 x1') from 0 through the fitted
    expansions.  With C1 = C2 = 0 it is the particular solution, which
    starts at rest."""

    homogeneous: ClosedFormSolution
    mu: float
    exp1: FourierBesselExpansion  # fit of x2/W, feeds c1
    exp2: FourierBesselExpansion  # fit of x1/W, feeds c2

    @functools.cached_property
    def _basis(self):
        # the basis of every row, on [0, min(t_bar1, t_bar2)]
        return weber.basis_table(self.homogeneous.coeffs,
                                 min(self.exp1.t_bar, self.exp2.t_bar))


def default_n_terms(A: float) -> int:
    return 200 if A != 0.0 else 30


def variation_constants(coeffs: WeberCoefficients, mu: float,
                        n_terms: int | None = None,
                        t_end: float = 10.0) -> ForcedSolution:
    """The particular solution of the mu-forced equation: the
    ``ForcedSolution`` with C1 = C2 = 0, fitted past t_end.

    c1 and c2 at t_bar need int_0^alpha_N J0, and alpha_k > (k - 1/4) pi
    (McMahon), so more terms than cap/pi + 1/4 are refused before any
    zero is computed.  The limit is exact: alpha_3183 = 9998.90 and
    alpha_3184 = 10002.05 lie either side of the cap.
    """
    if n_terms is None:
        n_terms = default_n_terms(coeffs.A)
    cap = specfun._J0_INTEGRAL_CAP
    limit = math.floor(cap / math.pi + 0.25)
    if isinstance(n_terms, numbers.Real) and n_terms > limit:
        raise DomainError("n_terms = %s exceeds the limit of %d terms: "
                          "alpha_k > (k - 1/4) pi > %r, the J0-integral "
                          "cap, for k > %d" % (n_terms, limit, cap, limit))
    # refuses a count that is not an integer before any integrand call;
    # both fits reuse the cached zeros
    specfun.bessel_j0_zeros(n_terms)
    tb1 = find_tbar(coeffs, t_end)
    tb2 = find_root_after(lambda t: integrand_c2(coeffs, t), t_end)
    exp1 = fourier_bessel_fit(lambda t: integrand_c1(coeffs, t), tb1, n_terms)
    exp2 = fourier_bessel_fit(lambda t: integrand_c2(coeffs, t), tb2, n_terms)
    return ForcedSolution(homogeneous=ClosedFormSolution(coeffs, 0.0, 0.0),
                          mu=mu, exp1=exp1, exp2=exp2)


def solve_forced_ivp(config: PhysicalConfig,
                     n_terms: int | None = None) -> ForcedSolution:
    """Full solution of the forced problem meeting (x0, v0) at t = 0,
    fitted on the physical horizon ``dynamics.horizon(config)``: the
    particular solution with C1, C2 from the unforced fit, since c1 and
    c2 start at 0."""
    if config.q == 0.0:
        raise ConfigError("forced requires q != 0 (hermite/kummer branch)")
    coeffs = weber.map_params(config)
    fs = variation_constants(coeffs, config.mu, n_terms=n_terms,
                             t_end=dynamics.horizon(config))
    hom = weber.solve_ivp(coeffs, config.x0, config.v0)
    return replace(fs, homogeneous=hom)


def eval_forced_parts(fs: ForcedSolution, t: float):
    """(x, x', c1, c2, x_bar) at time t: the solution, the Lagrange
    coefficients and the particular part x_bar = c1 x1 + c2 x2, from one
    evaluation of the basis and of each coefficient integral.  Raises
    outside [0, min(t_bar1, t_bar2)], where the expansions no longer
    represent the integrands."""
    t_max = min(fs.exp1.t_bar, fs.exp2.t_bar)
    if not 0.0 <= t <= t_max:
        raise DomainError("forced solution is fitted on [0, %r], "
                          "got t = %r" % (t_max, t))
    c1 = -fs.mu * integrate_expansion(fs.exp1, t)
    c2 = fs.mu * integrate_expansion(fs.exp2, t)
    hom = fs.homogeneous
    basis = fs._basis(t)
    # the Lagrange constraint c1' x1 + c2' x2 = 0 is imposed analytically:
    # evaluating it from the truncated expansions instead would multiply
    # their tiny pointwise error by the ~1e15 basis magnitude at t = 0
    xb, vb = weber.combine(c1, c2, basis)
    xh, vh = weber.combine(hom.C1, hom.C2, basis)
    return weber._finite((xb + xh, vb + vh, c1, c2, xb), t)


def eval_forced(fs: ForcedSolution, t: float):
    """(x, x') of the forced solution at time t."""
    return eval_forced_parts(fs, t)[:2]


def reconstruction_error(exp: FourierBesselExpansion, fn) -> float:
    """Relative L2 error of the expansion against fn at 400 points of
    [0, 0.95 t_bar]."""
    ts = np.linspace(0.0, 0.95 * exp.t_bar, 400)
    ref = np.array([fn(t) for t in ts])
    fit = np.array([eval_expansion(exp, t) for t in ts])
    denom = math.sqrt(float(np.sum(ref * ref)))
    if denom == 0.0:
        return math.sqrt(float(np.sum(fit * fit)))
    return math.sqrt(float(np.sum((fit - ref) ** 2))) / denom
