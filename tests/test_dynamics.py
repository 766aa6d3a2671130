"""Vertical motion, constraint reactions, rotation kinematics, presets."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from weberosc import dynamics, weber
from weberosc.errors import ConfigError, DomainError


def test_vertical_motion_initial_conditions():
    cfg = weber.PhysicalConfig(z0=0.2, zdot0=-0.7)
    z, zdot = dynamics.z_motion(cfg, 0.0)
    assert z == pytest.approx(0.2, rel=1e-12)
    assert zdot == pytest.approx(-0.7, rel=1e-12)


def test_vertical_motion_rest_at_equilibrium():
    cfg = weber.PhysicalConfig(z0=-9.81 / 10.0, zdot0=0.0)
    for t in (0.0, 1.3, 7.7):
        z, zdot = dynamics.z_motion(cfg, t)
        assert z == pytest.approx(-9.81 / 10.0, abs=1e-12)
        assert zdot == pytest.approx(0.0, abs=1e-12)


def test_z_energy_conservation():
    cfg = weber.PhysicalConfig(z0=0.3, zdot0=1.1)

    def energy(t):
        z, zdot = dynamics.z_motion(cfg, t)
        return (0.5 * cfg.m * zdot * zdot + 0.5 * cfg.k1 * z * z
                + cfg.m * cfg.g * z)

    e0 = energy(0.0)
    for t in np.linspace(0.0, 12.0, 49):
        assert energy(t) == pytest.approx(e0, rel=1e-10)


def test_reaction_z_matches_finite_difference():
    cfg = weber.PhysicalConfig(z0=0.25, zdot0=-0.4)
    h = 1e-4
    for t in np.linspace(0.0, 8.0, 17):
        zm, _ = dynamics.z_motion(cfg, t - h)
        z0, _ = dynamics.z_motion(cfg, t)
        zp, _ = dynamics.z_motion(cfg, t + h)
        zdd = (zp - 2.0 * z0 + zm) / (h * h)
        assert dynamics.reaction_z(cfg, t) == pytest.approx(
            cfg.m * (cfg.g + zdd), rel=1e-6, abs=1e-6)


def test_reaction_y_formula(sample_config, sample_coeffs):
    sol = weber.solve_ivp(sample_coeffs, 0.0, 1.0)
    cfg = sample_config
    for t in (0.0, 1.5, 6.0):
        x, xdot = weber.eval_solution(sol, t)
        expected = (2.0 * cfg.m * cfg.omega0 * (1.0 - cfg.q * t) * xdot
                    - cfg.m * cfg.omega0 * cfg.q * x)
        assert dynamics.reaction_y(cfg, sol, t) == pytest.approx(
            expected, rel=1e-14)


def test_theta_roundtrip():
    for q in (0.1, -0.1, 0.0):
        cfg = weber.PhysicalConfig(q=q)
        ts = np.linspace(0.0, 9.99 if q > 0 else 10.0, 41)
        for t in ts:
            theta = dynamics.theta_of_t(cfg, t)
            assert dynamics.t_of_theta(cfg, theta) == pytest.approx(
                t, abs=1e-10)


def test_theta_domain():
    cfg = weber.PhysicalConfig(q=0.1, omega0=3.0)
    # admissible range [0, w0/(2q)] = [0, 15]
    assert dynamics.t_of_theta(cfg, 15.0) == pytest.approx(10.0, rel=1e-9)
    with pytest.raises(DomainError):
        dynamics.t_of_theta(cfg, 15.5)
    with pytest.raises(DomainError):
        dynamics.t_of_theta(cfg, -0.5)
    # the one tolerance past w0/(2q) clamps to t = 1/q instead of raising
    past = math.nextafter(15.0, math.inf)
    assert dynamics.t_of_theta(cfg, past) == pytest.approx(10.0, rel=1e-7)
    # the motion starts at theta = 0 whatever the sign of q; NaN is refused
    for q in (0.1, 0.0, -0.1):
        cfg = weber.PhysicalConfig(q=q, omega0=3.0)
        for theta in (-0.5, -1e-300, math.nan):
            with pytest.raises(DomainError):
                dynamics.t_of_theta(cfg, theta)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("fn", [dynamics.theta_of_t, dynamics.z_motion,
                                dynamics.reaction_z])
def test_non_finite_t_is_domain_error(fn, t):
    with pytest.raises(DomainError, match="t must be finite"):
        fn(weber.PhysicalConfig(), t)


def test_polar_curve_matches_time_path(sample_config, sample_coeffs):
    sol = weber.solve_ivp(sample_coeffs, 0.0, 1.0)
    assert dynamics.polar_curve(sample_config, sol, 0.0) == \
        pytest.approx(0.0, abs=1e-12)
    theta = dynamics.theta_of_t(sample_config, 3.0)
    x3, _ = weber.eval_solution(sol, 3.0)
    assert dynamics.polar_curve(sample_config, sol, theta) == \
        pytest.approx(x3, rel=1e-9)


def test_polar_spiral_decay():
    cfg = dynamics.apply_preset(weber.PhysicalConfig(), "I", A=0.5)
    sol = weber.solve_ivp(weber.map_params(cfg), cfg.x0, cfg.v0)
    early = max(abs(dynamics.polar_curve(cfg, sol, th))
                for th in np.linspace(0.0, 3.0, 60))
    late = abs(dynamics.polar_curve(cfg, sol, 14.0))
    assert late < early


def test_presets_table():
    assert dynamics.PRESETS["I"].q == 0.1 and dynamics.PRESETS["I"].k2 == 10.0
    assert dynamics.PRESETS["II"].q == 0.1 and dynamics.PRESETS["II"].k2 == 8.0
    assert dynamics.PRESETS["III"].q == -0.1 \
        and dynamics.PRESETS["III"].k2 == 30.0
    assert dynamics.PRESETS["IV"].q == -0.1 \
        and dynamics.PRESETS["IV"].k2 == 8.0
    assert dynamics.PRESETS["V"].q == 0.0
    with pytest.raises(ConfigError):
        dynamics.apply_preset(weber.PhysicalConfig(), "VI")


def test_horizon():
    assert dynamics.horizon(weber.PhysicalConfig(q=0.1)) == pytest.approx(10.0)
    assert dynamics.horizon(weber.PhysicalConfig(q=-0.1, t_end=7.0)) == 7.0
    assert dynamics.horizon(weber.PhysicalConfig(q=0.0, t_end=12.0)) == 12.0


def test_run_transient_decaying_preset():
    cfg = dynamics.apply_preset(weber.PhysicalConfig(), "I", A=0.5)
    res = dynamics.run_transient(cfg, n_samples=501)
    assert not res.truncated
    assert len(res.samples) == 501
    xs = [s.x for s in res.samples]
    signs = [x > 0 for x in xs if x != 0.0]
    crossings = sum(1 for p, n in zip(signs, signs[1:]) if p != n)
    assert crossings >= 3
    # rho is x read in the polar frame
    for s in res.samples[:: 100]:
        assert s.rho == s.x
        assert s.theta == pytest.approx(dynamics.theta_of_t(cfg, s.t))


def test_run_transient_truncates_on_blowup():
    cfg = dynamics.apply_preset(weber.PhysicalConfig(), "IV", A=1.0)
    res = dynamics.run_transient(cfg, n_samples=1001)
    assert res.truncated
    assert res.t_trunc is not None and res.t_trunc < 10.0
    assert all(abs(s.x) <= cfg.L for s in res.samples)


def test_run_transient_validates_samples():
    """A sample count is an integer >= 2: a float is not truncated and a
    bool is not taken as a number."""
    for n in (1, 2.5, 11.0, True, "11"):
        with pytest.raises(ConfigError, match="n_samples"):
            dynamics.run_transient(weber.PhysicalConfig(), n_samples=n)


def test_run_transient_refuses_forcing():
    """The transient is the mu = 0 closed form: a nonzero mu is refused
    and pointed to the forced solution, not dropped."""
    cfg = dynamics.apply_preset(weber.PhysicalConfig(mu=1.0), "I", A=0.5)
    with pytest.raises(ConfigError, match="forced"):
        dynamics.run_transient(cfg, n_samples=11)


def test_default_drag_set():
    assert dynamics.DEFAULT_DRAG_SET == (0.2, 0.5, 1.0, 2.0)


def test_import_loads_neither_numpy_nor_scipy(tmp_path):
    """The closed-form transient path stays light: scipy.special (J0, J1,
    zeros) and numpy are imported only where the forced case needs them,
    and the CLI imports the forced case and the oracle only to run them.
    Running every preset and the transient and polar commands loads
    neither either, and ``weberosc.specfun`` on its own, whose exact
    rerun sums in integers, does not load ``decimal`` either."""
    import weberosc
    src = os.path.dirname(os.path.dirname(weberosc.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    run = ("from weberosc import cli, dynamics, weber\n"
           "for p in sorted(dynamics.PRESETS):\n"
           "    cfg = dynamics.apply_preset(weber.PhysicalConfig(), p)\n"
           "    dynamics.run_transient(cfg, n_samples=21)\n"
           "for argv in (['transient', '--drag', '0.5'], ['polar']):\n"
           "    assert cli.main(argv + ['--preset', 'I', '--samples', '11',\n"
           "                            '--out', %r]) == 0"
           % str(tmp_path))
    light = "{'numpy', 'scipy'}"
    for code, banned in (("import weberosc.specfun",
                          "{'numpy', 'scipy', 'decimal'}"),
                         ("import weberosc.dynamics", light),
                         ("import weberosc.cli", light), (run, light)):
        code += ("\nimport sys\n"
                 "print(sorted({m.split('.')[0] for m in sys.modules} "
                 "& %s))" % banned)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             check=True, capture_output=True, text=True,
                             timeout=120)
        assert out.stdout.splitlines()[-1] == "[]", code
