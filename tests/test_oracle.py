"""Independent Runge-Kutta integrator used to validate the closed forms."""

import math

import numpy as np
import pytest

from weberosc import dynamics, oracle, weber
from weberosc.errors import DomainError


def _const_coeffs(c, A=0.0):
    return weber.WeberCoefficients(a=0.0, b=0.0, c=c, A=A, beta=None)


def test_harmonic_oscillator():
    res = oracle.integrate_ode(_const_coeffs(-1.0), 0.0, 1.0, 0.0, 10.0,
                               rel_tol=1e-10, n_samples=101)
    for t, x in zip(res.grid, res.x):
        assert x == pytest.approx(math.cos(t), abs=1e-8)


def test_uniform_acceleration():
    res = oracle.integrate_ode(_const_coeffs(0.0), 1.0, 0.0, 0.0, 10.0,
                               rel_tol=1e-10, n_samples=101)
    for t, x in zip(res.grid, res.x):
        assert x == pytest.approx(0.5 * t * t, rel=1e-8, abs=1e-9)


def test_grid_contract():
    res = oracle.integrate_ode(_const_coeffs(-1.0), 0.0, 1.0, 0.0, 5.0,
                               n_samples=51)
    assert res.grid[0] == 0.0
    assert np.all(np.diff(res.grid) > 0)
    assert len(res.grid) == len(res.x) == len(res.xdot) == 51


def test_rel_tol_validation():
    with pytest.raises(DomainError):
        oracle.integrate_ode(_const_coeffs(-1.0), 0.0, 1.0, 0.0, 1.0,
                             rel_tol=1e-2)
    with pytest.raises(DomainError):
        oracle.integrate_ode(_const_coeffs(-1.0), 0.0, 1.0, 0.0, 1.0,
                             rel_tol=1e-13)


def test_compare_identical_is_zero():
    res = oracle.integrate_ode(_const_coeffs(-1.0), 0.0, 1.0, 0.0, 5.0,
                               n_samples=51)
    rep = oracle.compare(res.grid, res.x, res)
    assert rep.max_rel_err == 0.0


def test_compare_constant_offset():
    res = oracle.integrate_ode(_const_coeffs(-1.0), 0.0, 1.0, 0.0, 5.0,
                               n_samples=51)
    rep = oracle.compare(res.grid, res.x + 1e-3, res)
    assert rep.max_rel_err == pytest.approx(1e-3, rel=1e-6)


def test_compare_requires_matching_grid():
    res = oracle.integrate_ode(_const_coeffs(-1.0), 0.0, 1.0, 0.0, 5.0,
                               n_samples=51)
    with pytest.raises(DomainError):
        oracle.compare(res.grid[:-1], [0.0] * (len(res.grid) - 1), res)
    with pytest.raises(DomainError):
        oracle.compare(res.grid, res.x[:-1], res)


def test_sample_closed_form_agreement(sample_coeffs):
    sol = weber.solve_ivp(sample_coeffs, 0.0, 1.0)
    res = oracle.integrate_ode(sample_coeffs, 0.0, 0.0, 1.0, 10.0,
                               rel_tol=1e-11, n_samples=201)
    rep = oracle.compare(
        res.grid, [weber.eval_solution(sol, t)[0] for t in res.grid], res)
    assert rep.max_rel_err <= 1e-6


@pytest.mark.parametrize("preset_id", ["I", "V"])
def test_self_convergence(preset_id):
    cfg = dynamics.apply_preset(weber.PhysicalConfig(), preset_id, A=0.5)
    co = weber.map_params(cfg)
    r8 = oracle.integrate_ode(co, 0.0, cfg.x0, cfg.v0, 10.0, rel_tol=1e-8,
                              n_samples=101)
    r10 = oracle.integrate_ode(co, 0.0, cfg.x0, cfg.v0, 10.0, rel_tol=1e-10,
                               n_samples=101)
    scale = max(1.0, float(np.max(np.abs(r10.x))))
    assert float(np.max(np.abs(r8.x - r10.x))) / scale <= 1e-7
    # tightening the tolerance must not degrade the error estimate
    assert r10.est_error <= 10.0 * r8.est_error + 1e-12


def test_amplitude_guard_stops_blowup():
    cfg = dynamics.apply_preset(weber.PhysicalConfig(), "IV", A=0.5)
    co = weber.map_params(cfg)
    res = oracle.integrate_ode(co, 0.0, cfg.x0, cfg.v0, 10.0,
                               n_samples=201, amplitude_guard=10.0)
    assert res.grid[-1] < 10.0
    assert np.max(np.abs(res.x)) <= 10.5


def test_forced_term_enters_rhs():
    # mu shifts the equilibrium of x'' - c x = mu, c = -1: x -> mu as t grows
    res = oracle.integrate_ode(_const_coeffs(-1.0, A=1.0), 2.0, 0.0, 0.0,
                               30.0, n_samples=61)
    assert res.x[-1] == pytest.approx(2.0, rel=1e-6)
