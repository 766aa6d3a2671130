"""Closed-form solver of x'' + A x' - (a t^2 + b t + c) x = 0."""

import copy
from dataclasses import fields, replace
import math
import pickle

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weberosc import dynamics, oracle, specfun, weber
from weberosc.errors import (ConfigError, DegenerateBasisError, DomainError,
                             OverflowRangeError, WeberOscError)


def _ode_residual(coeffs, x, xdot, xddot, t):
    p = coeffs.a * t * t + coeffs.b * t + coeffs.c
    return xddot + coeffs.A * xdot - p * x


def _basis_second_derivatives(coeffs, t):
    """(x1'', x2'') by exact chain rule with the parameter-shift theorems.

    Finite differences are useless here: the basis reaches ~1e15, so an
    h^-2 amplified rounding error swamps any 1e-7-scaled residual.
    """
    a, b, A, beta = coeffs.a, coeffs.b, coeffs.A, coeffs.beta
    sqa = math.sqrt(a)
    nu = beta - 0.5
    ka = 0.25 - 0.5 * beta
    g = -(a * t * t + t * (b + sqa * A)) / (2.0 * sqa)
    gp = -(2.0 * a * t + b + sqa * A) / (2.0 * sqa)
    env = math.exp(g)
    envp = gp * env
    envpp = (gp * gp - sqa) * env
    u = (b + 2.0 * a * t) / (2.0 * a ** 0.75)
    du = a ** 0.25
    h = specfun.hermite_h(nu, u)
    hp = specfun.hermite_h_dz(nu, u)
    hpp = 4.0 * nu * (nu - 1.0) * specfun.hermite_h(nu - 2.0, u)
    x1dd = envpp * h + 2.0 * envp * hp * du + env * hpp * du * du
    w = u * u
    wd = 2.0 * u * du
    wdd = 2.0 * du * du
    f = specfun.kummer_1f1(ka, 0.5, w)
    fp = specfun.kummer_1f1_dz(ka, 0.5, w)
    fpp = (ka * (ka + 1.0)) / 0.75 * specfun.kummer_1f1(ka + 2.0, 2.5, w)
    x2dd = envpp * f + 2.0 * envp * fp * wd \
        + env * (fpp * wd * wd + fp * wdd)
    return x1dd, x2dd


def test_map_params_sample_values(sample_config, sample_coeffs):
    from fractions import Fraction
    # exact rational agreement on exact inputs
    a, b, c = weber.map_params_exact(3, Fraction(1, 10), 10, 1)
    assert a == Fraction(9, 100)
    assert b == Fraction(-9, 5)
    assert c == Fraction(-1)
    # the float map is the same map on the binary input values, with a
    # single rounding per coefficient
    co = sample_coeffs
    assert co.a == pytest.approx(9.0 / 100.0, rel=4e-16)
    assert co.b == -9.0 / 5.0
    assert co.c == -1.0
    assert co.A == 1.0
    assert co.beta == pytest.approx(16.25, rel=1e-14)


def test_map_params_constant_branch():
    cfg = weber.PhysicalConfig(q=0.0, omega0=3.0, k2=10.0)
    co = weber.map_params(cfg)
    assert co.a == 0.0 and co.b == 0.0
    assert co.beta is None


def test_basis_finite_difference_derivatives(sample_coeffs):
    h = 1e-6
    for t in range(0, 11):
        x1, x2, x1dot, x2dot = weber.evaluate_basis(sample_coeffs, float(t))
        x1m, x2m, _, _ = weber.evaluate_basis(sample_coeffs, t - h)
        x1p, x2p, _, _ = weber.evaluate_basis(sample_coeffs, t + h)
        assert (x1p - x1m) / (2 * h) == pytest.approx(x1dot, rel=1e-6)
        assert (x2p - x2m) / (2 * h) == pytest.approx(x2dot, rel=1e-6)


def test_basis_ode_residual(sample_coeffs):
    for t in np.linspace(0.3, 9.7, 20):
        x1, x2, x1dot, x2dot = weber.evaluate_basis(sample_coeffs, t)
        dd1, dd2 = _basis_second_derivatives(sample_coeffs, t)
        assert abs(_ode_residual(sample_coeffs, x1, x1dot, dd1, t)) \
            <= 1e-7 * max(1.0, abs(x1))
        assert abs(_ode_residual(sample_coeffs, x2, x2dot, dd2, t)) \
            <= 1e-7 * max(1.0, abs(x2))


def test_kummer_argument_vanishes_at_turning_point(sample_coeffs):
    # b + 2 a t = 0 at t = 10 for the sample, so x2 = E(t) * 1F1(..; 0) = E(t)
    co = sample_coeffs
    t = -co.b / (2.0 * co.a)
    assert t == pytest.approx(10.0, rel=1e-14)
    _, x2, _, _ = weber.evaluate_basis(co, t)
    sqa = math.sqrt(co.a)
    env = math.exp(-(co.a * t * t + t * (co.b + sqa * co.A)) / (2.0 * sqa))
    assert x2 == pytest.approx(env, rel=1e-12)


def _abel_drift(coeffs, t_end, n):
    """max |W(t) e^{At} / W(0) - 1| over n points of [0, t_end]."""
    w0 = weber.wronskian(coeffs, 0.0)
    return max(abs(weber.wronskian(coeffs, t) * math.exp(coeffs.A * t) / w0
                   - 1.0) for t in np.linspace(0.0, t_end, n).tolist())


def test_abel_wronskian_identity(sample_coeffs):
    # the q = 0 pair at c = -1: oscillatory, overdamped, critical tie
    constant = [weber.WeberCoefficients(a=0.0, b=0.0, c=-1.0, A=A, beta=None)
                for A in (0.0, 3.0, 2.0)]
    for coeffs in [sample_coeffs] + constant:
        w0 = weber.wronskian(coeffs, 0.0)
        for t in np.linspace(0.0, 10.0, 21):
            expected = w0 * math.exp(-coeffs.A * t)
            assert weber.wronskian(coeffs, t) == pytest.approx(
                expected, rel=1e-8)
    # u >= 0 throughout (q < 0), where x1 is the recessive Hermite branch
    iv = weber.map_params(dynamics.apply_preset(
        weber.PhysicalConfig(), "IV", A=0.5))
    assert _abel_drift(iv, 10.0, 21) <= 1e-10
    iii = weber.map_params(dynamics.apply_preset(
        weber.PhysicalConfig(t_end=15.0), "III", A=0.5))
    assert _abel_drift(iii, 15.0, 31) <= 1e-10


def _wronskian_terms(coeffs, t):
    """(W(t), |x1 x2'| + |x2 x1'|): the Wronskian and the size of its
    two terms, whose ratio is the cancellation W suffers at t."""
    x1, x2, x1dot, x2dot = weber._fundamental_pair(coeffs, t)
    return x1 * x2dot - x2 * x1dot, abs(x1 * x2dot) + abs(x2 * x1dot)


@settings(max_examples=60, deadline=None)
@given(q=st.one_of(st.just(0.0), st.floats(0.08, 0.12),
                   st.floats(-0.12, -0.08)),
       k2=st.floats(6.0, 32.0), A=st.floats(0.0, 3.0),
       t_end=st.floats(5.0, 25.0))
def test_abel_drift_near_presets(q, k2, A, t_end):
    """Around presets I-V, out to t_end = 25, the fitted basis keeps
    Abel's identity W(t) e^{At} = W(0) on 26 points of the horizon, or
    raises a typed error; it never drifts silently.

    The identity is held to 1e-10 of the size of the Wronskian's terms
    rather than of W(0).  Near an even integer nu the pair is nearly
    proportional, and on q > 0 arms with strong drag both members are
    dominant at t = 0; there W cancels by 1e2 to 1e6 even when each
    basis value is right to 1e-15 (1e-12 for the float-summed 1F1).
    """
    cfg = weber.PhysicalConfig(q=q, k2=k2, A=A, t_end=t_end)
    coeffs = weber.map_params(cfg)
    try:
        weber.solve_ivp(coeffs, cfg.x0, cfg.v0)
        w0, size0 = _wronskian_terms(coeffs, 0.0)
        for t in np.linspace(0.0, dynamics.horizon(cfg), 26).tolist():
            w, size = _wronskian_terms(coeffs, t)
            grow = math.exp(A * t)
            assert abs(w * grow - w0) <= 1e-10 * (size * grow + size0)
    except WeberOscError:
        pass


def test_nearly_dependent_pair_is_refused():
    """At q = 0.08, k2 = 6, A = 0, nu = 12 up to rounding: H_12 is a
    multiple of 1F1(-6; 1/2; u^2), W(0) is 1e-12 of its terms, and a
    fit would be off by 4e-2.  solve_ivp refuses it instead."""
    coeffs = weber.map_params(weber.PhysicalConfig(q=0.08, k2=6.0, A=0.0))
    assert coeffs.beta - 0.5 == pytest.approx(12.0, abs=1e-14)
    with pytest.raises(DegenerateBasisError):
        weber.solve_ivp(coeffs, 0.0, 1.0)


def test_constant_branch_overflow_is_typed():
    """q = 0: e^{r1 t} past the double range raises OverflowRangeError
    with the time, not a bare OverflowError."""
    cfg = weber.PhysicalConfig(q=0.0, k2=1.0, A=0.5, t_end=10000.0)
    sol = weber.solve_ivp(weber.map_params(cfg), cfg.x0, cfg.v0)
    with pytest.raises(OverflowRangeError) as exc:
        weber.eval_solution(sol, 1000.0)
    assert exc.value.t == 1000.0


def test_solve_ivp_roundtrip(sample_coeffs):
    sol = weber.solve_ivp(sample_coeffs, 0.0, 1.0)
    x, v = weber.eval_solution(sol, 0.0)
    assert x == pytest.approx(0.0, abs=1e-12)
    assert v == pytest.approx(1.0, rel=1e-12)
    sol2 = weber.solve_ivp(sample_coeffs, 0.35, -2.2)
    x, v = weber.eval_solution(sol2, 0.0)
    assert x == pytest.approx(0.35, rel=1e-10)
    assert v == pytest.approx(-2.2, rel=1e-10)


def test_linearity_and_superposition(sample_coeffs):
    lam = 3.7
    sol = weber.solve_ivp(sample_coeffs, 0.2, 1.0)
    sol_s = weber.solve_ivp(sample_coeffs, lam * 0.2, lam * 1.0)
    sol_a = weber.solve_ivp(sample_coeffs, 0.2, 0.0)
    sol_b = weber.solve_ivp(sample_coeffs, 0.0, 1.0)
    for t in np.linspace(0.0, 10.0, 11):
        x, v = weber.eval_solution(sol, t)
        xs, vs = weber.eval_solution(sol_s, t)
        assert xs == pytest.approx(lam * x, rel=1e-10, abs=1e-12)
        assert vs == pytest.approx(lam * v, rel=1e-10, abs=1e-12)
        xa, _ = weber.eval_solution(sol_a, t)
        xb, _ = weber.eval_solution(sol_b, t)
        assert xa + xb == pytest.approx(x, rel=1e-10, abs=1e-12)


def test_solution_ode_residual(sample_coeffs):
    sol = weber.solve_ivp(sample_coeffs, 0.0, 1.0)
    for t in np.linspace(0.0, 10.0, 101):
        x, xdot = weber.eval_solution(sol, t)
        dd1, dd2 = _basis_second_derivatives(sample_coeffs, t)
        dd = sol.C1 * dd1 + sol.C2 * dd2
        assert abs(_ode_residual(sample_coeffs, x, xdot, dd, t)) \
            <= 1e-7 * max(1.0, abs(x))


@pytest.mark.parametrize("preset_id", ["I", "III", "IV", "V"])
def test_oracle_equivalence(preset_id):
    from weberosc import dynamics
    cfg = dynamics.apply_preset(weber.PhysicalConfig(), preset_id, A=0.5)
    co = weber.map_params(cfg)
    sol = weber.solve_ivp(co, cfg.x0, cfg.v0)
    t_end = dynamics.horizon(cfg)
    num = oracle.integrate_ode(co, 0.0, cfg.x0, cfg.v0, t_end,
                               rel_tol=1e-11, n_samples=201,
                               amplitude_guard=10.0 * cfg.L)
    rep = oracle.compare(
        num.grid, [weber.eval_solution(sol, t)[0] for t in num.grid], num)
    assert rep.max_rel_err <= 1e-6


def test_constant_branch_oscillatory():
    co = weber.WeberCoefficients(a=0.0, b=0.0, c=-1.0, A=0.0, beta=None)
    sol = weber.solve_ivp(co, 1.0, 0.0)
    assert sol.coeffs.a == 0.0
    for t in np.linspace(0.0, 10.0, 41):
        x, v = weber.eval_solution(sol, t)
        assert x == pytest.approx(math.cos(t), rel=1e-12, abs=1e-12)
        assert v == pytest.approx(-math.sin(t), rel=1e-12, abs=1e-12)


def test_constant_branch_overdamped_monotone():
    co = weber.WeberCoefficients(a=0.0, b=0.0, c=-1.0, A=3.0, beta=None)
    sol = weber.solve_ivp(co, 0.0, 1.0)
    xs = [weber.eval_solution(sol, t)[0] for t in np.linspace(0.01, 10.0, 200)]
    signs = [x > 0 for x in xs if x != 0.0]
    crossings = sum(1 for p, n in zip(signs, signs[1:]) if p != n)
    assert crossings <= 1


def test_constant_branch_overdamping_threshold():
    """c = -1 flips from oscillatory to overdamped at A = 2; just under
    the threshold the damped period is 2 pi / (sqrt(4 - A^2)/2) = 20 s,
    so the window must exceed two half-periods to see both crossings."""
    def crossings(A, t_max):
        co = weber.WeberCoefficients(a=0.0, b=0.0, c=-1.0, A=A, beta=None)
        sol = weber.solve_ivp(co, 0.0, 1.0)
        xs = [weber.eval_solution(sol, t)[0]
              for t in np.linspace(0.01, t_max, 1000)]
        signs = [x > 0 for x in xs if x != 0.0]
        return sum(1 for p, n in zip(signs, signs[1:]) if p != n)

    assert crossings(1.9, 25.0) >= 2
    assert crossings(2.1, 25.0) <= 1


def test_constant_branch_critical_tie():
    # A^2 + 4c = 0 exactly: x = e^{-At/2} (x0 + (v0 + A x0 / 2) t)
    co = weber.WeberCoefficients(a=0.0, b=0.0, c=-1.0, A=2.0, beta=None)
    sol = weber.solve_ivp(co, 1.0, 0.0)
    for t in (0.0, 0.5, 2.0, 7.0):
        x, _ = weber.eval_solution(sol, t)
        assert x == pytest.approx(math.exp(-t) * (1.0 + t), rel=1e-12)


def test_constant_branch_rejects_linear_term():
    co = weber.WeberCoefficients(a=0.0, b=-1.8, c=-1.0, A=1.0, beta=None)
    with pytest.raises(ConfigError):
        weber.solve_ivp(co, 0.0, 1.0)


def test_evaluate_basis_requires_positive_a():
    co = weber.WeberCoefficients(a=0.0, b=0.0, c=-1.0, A=0.0, beta=None)
    with pytest.raises(ConfigError):
        weber.evaluate_basis(co, 1.0)
    with pytest.raises(ConfigError):
        weber.envelope_over_wronskian(co, 1.0)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name, q", [
    ("evaluate_basis", 0.1), ("wronskian", 0.1), ("eval_solution", 0.1),
    ("envelope_over_wronskian", 0.1), ("x1_over_wronskian", 0.1),
    ("x2_over_wronskian", 0.1), ("wronskian", 0.0), ("eval_solution", 0.0)])
def test_non_finite_time_is_domain_error(name, q, t):
    """A NaN or infinite t is a DomainError on both branches, before any
    series is summed (the forced integrands are x2/W and x1/W): not a
    ConvergenceError after 500 terms, an OverflowRangeError at t = nan,
    or the ValueError of cos(inf) in the oscillatory q = 0 pair."""
    coeffs = weber.map_params(weber.PhysicalConfig(q=q, k2=20.0))
    arg = (weber.solve_ivp(coeffs, 0.0, 1.0) if name == "eval_solution"
           else coeffs)
    with pytest.raises(DomainError, match="t must be finite"):
        getattr(weber, name)(arg, t)


def test_overflow_reports_time():
    # an extreme beta makes the 2^nu Hermite prefactor overflow doubles;
    # t sits at the turning point so the series arguments stay trivial
    a, b, c, A = 0.01, -3.0, -1.0, 0.0
    beta = (b * b - a * (A * A + 4.0 * c)) / (8.0 * a ** 1.5)
    co = weber.WeberCoefficients(a=a, b=b, c=c, A=A, beta=beta)
    t = -b / (2.0 * a)
    with pytest.raises(OverflowRangeError) as exc:
        weber.evaluate_basis(co, t)
    assert exc.value.t == t


def test_config_validation():
    with pytest.raises(ConfigError):
        weber.PhysicalConfig(m=-1.0)
    with pytest.raises(ConfigError):
        weber.PhysicalConfig(A=-0.5)
    with pytest.raises(ConfigError):
        weber.PhysicalConfig(omega0=0.0)
    with pytest.raises(ConfigError):
        replace(weber.PhysicalConfig(), L=0.0)


_NOT_FINITE_NUMBERS = ["10", True, None, 10 ** 400, math.nan, math.inf,
                       -math.inf]
_SIGN_RULES = {"m": [0.0, -1.0], "k1": [0.0, -1.0], "k2": [-1e-9],
               "omega0": [0.0, -3.0], "A": [-0.5], "L": [0.0, -1.0],
               "t_end": [0.0, -1.0]}


@pytest.mark.parametrize("name", [f.name for f in
                                  fields(weber.PhysicalConfig)])
def test_config_checks_itself(name):
    """No invalid PhysicalConfig can be built, directly or by replace:
    each refused value raises ConfigError naming its field."""
    for value in _NOT_FINITE_NUMBERS + _SIGN_RULES.get(name, []):
        with pytest.raises(ConfigError, match="^%s must" % name):
            weber.PhysicalConfig(**{name: value})
        with pytest.raises(ConfigError, match="^%s must" % name):
            replace(weber.PhysicalConfig(), **{name: value})


def test_config_refuses_unknown_keywords():
    """A keyword that names no field is a ConfigError naming it, under
    construction and replace; copying and pickling still work."""
    with pytest.raises(ConfigError, match="'H'"):
        weber.PhysicalConfig(H=3.0)
    with pytest.raises(ConfigError, match="'H'"):
        replace(weber.PhysicalConfig(), H=3.0)
    cfg = weber.PhysicalConfig(q=0.2, A=0.5)
    assert copy.copy(cfg) == cfg
    assert copy.deepcopy(cfg) == cfg
    assert pickle.loads(pickle.dumps(cfg)) == cfg


def test_config_refuses_positional_arguments():
    """The fields are keywords only: a positional argument is a
    ConfigError, also next to the keyword it would fill."""
    with pytest.raises(ConfigError, match="keywords only"):
        weber.PhysicalConfig(*[1.0] * 15)
    with pytest.raises(ConfigError, match="keywords only"):
        weber.PhysicalConfig(2.0, m=2.0)


def _preset_coeffs(preset_id, A):
    from weberosc import dynamics
    cfg = dynamics.apply_preset(weber.PhysicalConfig(), preset_id, A=A)
    return weber.map_params(cfg), dynamics.horizon(cfg)


# beta in (0, 1/2): k + 1 and (1 - (nu - 1))/2 round to neighbouring
# doubles there, so H_{nu-1} and the Kummer derivative cannot share that
# series without changing one of them
_ROUNDING_APART = weber.WeberCoefficients(a=0.09, b=-1.8, c=-1.0, A=0.3,
                                          beta=0.2123456789012345)


@pytest.mark.parametrize("coeffs,t_end", [
    _preset_coeffs(p, A) for p in ("I", "II", "III", "IV")
    for A in (0.2, 1.0, 2.0)] + [(_ROUNDING_APART, 10.0)])
def test_basis_is_composition_of_public_functions(coeffs, t_end):
    """evaluate_basis equals, bit for bit, the chain rule over the public
    hermite_h, hermite_h_dz, kummer_1f1 and kummer_1f1_dz."""
    a, b, A, beta = coeffs.a, coeffs.b, coeffs.A, coeffs.beta
    sqa = math.sqrt(a)
    nu = beta - 0.5
    ka = 0.25 - 0.5 * beta
    for t in np.linspace(0.0, t_end, 41).tolist():
        env = math.exp(-(a * t * t + t * (b + sqa * A)) / (2.0 * sqa))
        denv = env * (-(2.0 * a * t + b + sqa * A) / (2.0 * sqa))
        u = (b + 2.0 * a * t) / (2.0 * a ** 0.75)
        du = a ** 0.25
        w = u * u
        dw = (b + 2.0 * a * t) / sqa
        h = specfun.hermite_h(nu, u)
        dh = specfun.hermite_h_dz(nu, u)
        f = specfun.kummer_1f1(ka, 0.5, w)
        df = specfun.kummer_1f1_dz(ka, 0.5, w)
        expected = (env * h, env * f, denv * h + env * dh * du,
                    denv * f + env * df * dw)
        got = weber.evaluate_basis(coeffs, t)
        assert [v.hex() for v in got] == [v.hex() for v in expected]


@pytest.mark.parametrize("coeffs", [
    _preset_coeffs(p, A)[0] for p in ("I", "II", "III", "IV")
    for A in (0.0, 0.5, 1.0, 2.0)] + [_ROUNDING_APART])
def test_closed_form_wronskian_matches_computed(coeffs):
    """E/W with W in closed form equals E over the computed
    x1 x2' - x2 x1' to 1e-12 relative, sign included: 1/Gamma(-nu/2)
    takes both signs on the presets, and is positive for beta < 1/2."""
    a, b, A = coeffs.a, coeffs.b, coeffs.A
    sqa = math.sqrt(a)
    for t in (0.0, 1.0, 3.0):
        env = math.exp(-(a * t * t + t * (b + sqa * A)) / (2.0 * sqa))
        assert weber.envelope_over_wronskian(coeffs, t) == pytest.approx(
            env / weber.wronskian(coeffs, t), rel=1e-12)


def _counting(monkeypatch, name):
    """Patch specfun.<name> to record each call's arguments."""
    calls = []
    kernel = getattr(specfun, name)

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(specfun, name, counting)
    return calls


def test_run_transient_sums_only_the_fit_point_chains(monkeypatch):
    """run_transient on presets I-IV sums the 1F1 chains of solve_ivp's
    t = 0 basis point and none per row: the rows come from the basis
    table, whose knots start from closed forms and one recessive Hermite
    value."""
    chains = _counting(monkeypatch, "_hyp1f1_chain")
    for preset_id in ("I", "II", "III", "IV"):
        cfg = dynamics.apply_preset(weber.PhysicalConfig(), preset_id, A=0.5)
        chains.clear()
        weber.evaluate_basis(weber.map_params(cfg), 0.0)
        at_zero = list(chains)
        chains.clear()
        result = dynamics.run_transient(cfg)
        assert len(result.samples) > 80
        assert chains == at_zero


@pytest.mark.parametrize("preset_id", ["I", "II", "III", "IV"])
def test_table_members_against_mpmath(preset_id):
    """At 8 times of each horizon (A = 0.2, 1, 2), the table's members
    and u-derivatives are within 1e-13 of mpmath at 40 digits, measured
    against the size of each pair, sqrt(y^2 + y'^2 / (2|nu| + 1)), since
    both members have zeros."""
    for A in (0.2, 1.0, 2.0):
        coeffs, t_end = _preset_coeffs(preset_id, A)
        pair = weber.basis_table(coeffs, t_end)
        nu = pair.nu
        k = math.sqrt(2.0 * abs(nu) + 1.0)
        for t in np.linspace(0.0, t_end, 8).tolist():
            u = weber._u(coeffs, t)
            uk = round(u / weber._KNOT_STEP) * weber._KNOT_STEP
            got = (weber._hermite_step(nu, uk, *pair.knots_h[uk], u - uk)
                   + weber._hermite_step(nu, uk, *pair.knots_m[uk], u - uk))
            with mpmath.workdps(40):
                w = mpmath.mpf(u) ** 2
                ref = (mpmath.hermite(nu, u),
                       2 * nu * mpmath.hermite(nu - 1, u),
                       mpmath.hyp1f1(-nu / 2, 0.5, w),
                       -2 * nu * u * mpmath.hyp1f1(1 - nu / 2, 1.5, w))
                for i in (0, 2):
                    size = mpmath.sqrt(ref[i] ** 2 + (ref[i + 1] / k) ** 2)
                    err = max(abs(got[i] - ref[i]),
                              abs(got[i + 1] - ref[i + 1]) / k) / size
                    assert float(err) <= 1e-13, (A, t, i, float(err))


def test_table_query_past_the_double_range_names_its_time():
    """On preset III, M = 1F1(-nu/2; 1/2; u^2) leaves the double range
    past u = 28.5 (t = 42): a table over [0, 60] is built all the same,
    agrees with evaluate_basis early on, and a query past the range
    raises OverflowRangeError naming the queried t, as does one at a nu
    whose 2^nu Hermite prefactor overflows."""
    coeffs, _ = _preset_coeffs("III", 0.5)
    pair = weber.basis_table(coeffs, 60.0)
    for got, want in zip(pair(1.0), weber.evaluate_basis(coeffs, 1.0)):
        assert got == pytest.approx(want, rel=1e-12)
    for t in (45.0, 60.0):
        with pytest.raises(OverflowRangeError) as exc:
            pair(t)
        assert exc.value.t == t
    with pytest.raises(DomainError):
        pair(60.5)
    a, b, c = 0.01, -3.0, -1.0
    beta = (b * b - a * 4.0 * c) / (8.0 * a ** 1.5)
    huge = weber.WeberCoefficients(a=a, b=b, c=c, A=0.0, beta=beta)
    pair = weber.basis_table(huge, 200.0)
    with pytest.raises(OverflowRangeError) as exc:
        pair(150.0)
    assert exc.value.t == 150.0
