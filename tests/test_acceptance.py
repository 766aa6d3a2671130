"""Acceptance gate: eight end-to-end criteria, one pass/fail line each.

Each test prints a single "[PASS] criterion N" / "[FAIL] criterion N"
line directly to the terminal (bypassing capture) and then asserts.
Criterion 6 is a known red: see the note on its test.
"""

import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from weberosc import dynamics, forced, oracle, specfun, weber


def _report(capsys, n, ok, detail):
    with capsys.disabled():
        print("\n[%s] criterion %d: %s" % ("PASS" if ok else "FAIL",
                                           n, detail))
    assert ok, "criterion %d: %s" % (n, detail)


def test_criterion_1_exact_parameter_map(capsys):
    a, b, c = weber.map_params_exact(3, Fraction(1, 10), 10, 1)
    ok = (a == Fraction(9, 100) and b == Fraction(-9, 5)
          and c == Fraction(-1))
    _report(capsys, 1, ok,
            "parameter map on exact rationals gives (a,b,c)=(%s, %s, %s)"
            % (a, b, c))


def test_criterion_2_expansion_endpoint(capsys, sample_coeffs):
    t0 = time.perf_counter()
    tbar = forced.find_tbar(sample_coeffs, 10.0)
    dt = time.perf_counter() - t0
    ok = abs(tbar - 10.5031) <= 5e-3 and dt < 1.0
    _report(capsys, 2, ok,
            "t_bar=%.6f (target 10.5031 +- 5e-3) in %.2f s" % (tbar, dt))


def test_criterion_3_oracle_equivalence(capsys, forced300, sample_config,
                                        sample_coeffs):
    t0 = time.perf_counter()
    worst_h = 0.0
    for preset_id in ("I", "III", "IV", "V"):
        cfg = dynamics.apply_preset(weber.PhysicalConfig(), preset_id, A=0.5)
        co = weber.map_params(cfg)
        sol = weber.solve_ivp(co, cfg.x0, cfg.v0)
        num = oracle.integrate_ode(co, 0.0, cfg.x0, cfg.v0,
                                   dynamics.horizon(cfg), rel_tol=1e-11,
                                   n_samples=201,
                                   amplitude_guard=10.0 * cfg.L)
        rep = oracle.compare(
            num.grid, [weber.eval_solution(sol, t)[0] for t in num.grid], num)
        worst_h = max(worst_h, rep.max_rel_err)
    num = oracle.integrate_ode(sample_coeffs, sample_config.mu, 0.0, 1.0,
                               9.0, rel_tol=1e-11, n_samples=181)
    rep = oracle.compare(
        num.grid, [forced.eval_forced(forced300, t)[0] for t in num.grid], num)
    dt = time.perf_counter() - t0
    ok = worst_h <= 1e-6 and rep.max_rel_err <= 1e-4 and dt < 30.0
    _report(capsys, 3,
            ok, "homogeneous I/III/IV/V worst=%.3e (<=1e-6), "
            "forced=%.3e (<=1e-4) in %.1f s"
            % (worst_h, rep.max_rel_err, dt))


def test_criterion_4_transient_signatures(capsys):
    t0 = time.perf_counter()
    checks = []

    def crossings(xs):
        signs = [x > 0 for x in xs if x != 0.0]
        return sum(1 for p, n in zip(signs, signs[1:]) if p != n)

    res = dynamics.run_transient(
        dynamics.apply_preset(weber.PhysicalConfig(), "I", A=0.5),
        n_samples=501)
    xs = [s.x for s in res.samples]
    checks.append(("I oscillatory decay",
                   not res.truncated and crossings(xs) >= 3
                   and max(abs(x) for x in xs[450:])
                   < max(abs(x) for x in xs[:50])))

    res = dynamics.run_transient(
        dynamics.apply_preset(weber.PhysicalConfig(), "III", A=0.2),
        n_samples=501)
    xs = [s.x for s in res.samples]
    checks.append(("III oscillations then blow-up",
                   res.truncated and crossings(xs) >= 2))

    res = dynamics.run_transient(
        dynamics.apply_preset(weber.PhysicalConfig(), "IV", A=1.0),
        n_samples=501)
    checks.append(("IV early cut-off",
                   res.truncated and 1.0 <= res.t_trunc <= 6.0))

    res = dynamics.run_transient(
        dynamics.apply_preset(weber.PhysicalConfig(), "V", A=0.5),
        n_samples=501)
    xs = [s.x for s in res.samples]
    checks.append(("V damped, no truncation",
                   not res.truncated and crossings(xs) >= 3
                   and max(abs(x) for x in xs[450:])
                   < max(abs(x) for x in xs[:50])))
    dt = time.perf_counter() - t0
    failed = [name for name, ok in checks if not ok]
    _report(capsys, 4, not failed and dt < 10.0,
            "transient signatures %s in %.1f s"
            % ("all hold" if not failed else "FAILED: %s" % failed, dt))


# Known red, kept faithful rather than weakened: the oscillatory/
# overdamped threshold at c = -1 sits at A = 2 (discriminant A^2 - 4),
# but just under it at A = 1.9 the damped frequency is sqrt(4 - A^2)/2
# = 0.312 rad/s, so consecutive zeros of x are pi/0.312 = 10.06 s apart
# -- at most one crossing fits in [0, 10] for ANY initial conditions.
# The A = 2.1 clause holds; the A = 1.9 clause would need a ~[0, 25]
# window (or |c| large enough that A = 2.1 also oscillates).
def test_criterion_5_overdamping_threshold(capsys):
    def crossings(A):
        co = weber.WeberCoefficients(a=0.0, b=0.0, c=-1.0, A=A, beta=None)
        sol = weber.solve_ivp(co, 0.0, 1.0)
        xs = [weber.eval_solution(sol, t)[0]
              for t in np.linspace(0.01, 10.0, 500)]
        signs = [x > 0 for x in xs if x != 0.0]
        return sum(1 for p, n in zip(signs, signs[1:]) if p != n)

    n19, n21 = crossings(1.9), crossings(2.1)
    ok = n19 >= 2 and n21 <= 1
    _report(capsys, 5, ok,
            "constant-q c=-1: A=1.9 -> %d crossings (>=2), "
            "A=2.1 -> %d (<=1)" % (n19, n21))


# Known red, kept faithful rather than weakened: the undamped integrand
# has nonzero slope at t = 0 while every J0(alpha_k t/t_bar) basis term
# is flat there, so the t-weighted projection converges like 1/n near the
# origin and 30 terms stop at ~1.1e-2 (the 1e-3 bound needs ~240 terms).
# Away from the origin 30 undamped terms do beat 30 damped ones fivefold.
def test_criterion_6_fourier_bessel_convergence(capsys, fit200,
                                                fit30_undamped,
                                                sample_coeffs,
                                                undamped_coeffs):
    t0 = time.perf_counter()
    err_damped = forced.reconstruction_error(
        fit200.exp1, lambda t: forced.integrand_c1(sample_coeffs, t))
    err_undamped = forced.reconstruction_error(
        fit30_undamped.exp1,
        lambda t: forced.integrand_c1(undamped_coeffs, t))
    dt = time.perf_counter() - t0
    ok = err_damped <= 1e-3 and err_undamped <= 1e-3 and dt < 60.0
    _report(capsys, 6,
            ok, "reconstruction A=1/200 terms: %.3e, A=0/30 terms: %.3e "
            "(both <= 1e-3) in %.1f s" % (err_damped, err_undamped, dt))


def test_criterion_7_mu_linearity(capsys, sample_coeffs):
    t0 = time.perf_counter()
    ps1 = forced.variation_constants(sample_coeffs, 1.0, n_terms=20)
    ps2 = forced.variation_constants(sample_coeffs, 2.0, n_terms=20)
    worst = 0.0
    for t in np.linspace(0.0, 9.0, 10):
        x1, v1 = forced.eval_forced(ps1, t)
        x2, v2 = forced.eval_forced(ps2, t)
        scale = max(1e-30, abs(x1), abs(v1))
        worst = max(worst, abs(x2 - 2.0 * x1) / scale,
                    abs(v2 - 2.0 * v1) / scale)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and dt < 5.0
    _report(capsys, 7, ok,
            "particular integral mu-linearity worst=%.3e (<=1e-10) "
            "in %.1f s" % (worst, dt))


def test_criterion_8_property_suite(capsys, sample_coeffs, sample_config):
    t0 = time.perf_counter()
    checks = []
    co = sample_coeffs

    w0 = weber.wronskian(co, 0.0)
    checks.append(("abel", all(
        abs(weber.wronskian(co, t) - w0 * math.exp(-co.A * t))
        <= 1e-8 * abs(w0 * math.exp(-co.A * t))
        for t in np.linspace(0.0, 10.0, 21))))

    # z y'' + (b - z) y' - a y = 0 for y = 1F1(a; b; z)
    ok = True
    for a, b in ((-7.875, 0.5), (0.25, 0.5), (3.0, 7.0)):
        for z in (0.3, 2.0, 15.0, 40.0):
            y = specfun.kummer_1f1(a, b, z)
            yp = specfun.kummer_1f1_dz(a, b, z)
            ypp = (a * (a + 1.0)) / (b * (b + 1.0)) \
                * specfun.kummer_1f1(a + 2.0, b + 2.0, z)
            r = z * ypp + (b - z) * yp - a * y
            ok = ok and abs(r) <= 1e-8 * max(1.0, abs(y))
    checks.append(("kummer-ode", ok))

    # y'' - 2 z y' + 2 nu y = 0 for y = H_nu(z)
    ok = True
    for nu in (16.25, -0.5, 3.4):
        for z in (-2.0, 0.0, 1.3, 2.5):
            y = specfun.hermite_h(nu, z)
            yp = specfun.hermite_h_dz(nu, z)
            ypp = 4.0 * nu * (nu - 1.0) * specfun.hermite_h(nu - 2.0, z)
            r = ypp - 2.0 * z * yp + 2.0 * nu * y
            ok = ok and abs(r) <= 1e-8 * max(1.0, abs(y))
    checks.append(("hermite-ode", ok))

    # integer orders reduce to the classical polynomials
    ok = True
    for z in (-1.7, 0.0, 0.4, 2.2):
        table = (1.0, 2.0 * z, 4.0 * z * z - 2.0,
                 8.0 * z ** 3 - 12.0 * z,
                 16.0 * z ** 4 - 48.0 * z * z + 12.0)
        for n, hn in enumerate(table):
            ok = ok and abs(specfun.hermite_h(float(n), z) - hn) \
                <= 1e-12 * max(1.0, abs(hn))
    checks.append(("hermite-integer", ok))

    # weighted orthogonality of J0(alpha_k t / t_bar)
    tb = 10.5
    a1, a2, a3 = (specfun.bessel_j0_zero(k) for k in (1, 2, 5))
    diag, _ = quad(lambda t: t * specfun.bessel_j0(a1 * t / tb) ** 2,
                   0.0, tb, limit=200)
    ok = True
    for aj, ak in ((a1, a2), (a1, a3), (a2, a3)):
        v, _ = quad(lambda t: t * specfun.bessel_j0(aj * t / tb)
                    * specfun.bessel_j0(ak * t / tb), 0.0, tb, limit=200)
        ok = ok and abs(v) <= 1e-8 * diag
    checks.append(("orthogonality", ok))

    ok = True
    for t in np.linspace(0.0, 9.99, 41):
        th = dynamics.theta_of_t(sample_config, t)
        ok = ok and abs(dynamics.t_of_theta(sample_config, th) - t) <= 1e-10
    checks.append(("theta-roundtrip", ok))

    zcfg = weber.PhysicalConfig(z0=0.3, zdot0=1.1)

    def energy(t):
        z, zdot = dynamics.z_motion(zcfg, t)
        return (0.5 * zcfg.m * zdot * zdot + 0.5 * zcfg.k1 * z * z
                + zcfg.m * zcfg.g * z)

    e0 = energy(0.0)
    checks.append(("z-energy", all(
        abs(energy(t) - e0) <= 1e-10 * max(1.0, abs(e0))
        for t in np.linspace(0.0, 12.0, 25))))

    # int_0^x J0 = x 1F2(1/2; 1, 3/2; -x^2/4), cross-checked by quadrature
    ok = True
    for x in (0.7, 3.0, 8.5):
        direct, _ = quad(specfun.bessel_j0, 0.0, x, epsrel=1e-12)
        hyp = x * float(mpmath.hyp1f2(0.5, 1.0, 1.5, -x * x / 4.0))
        ok = ok and abs(hyp - direct) <= 1e-8 * max(1.0, abs(direct))
        ok = ok and abs(specfun.bessel_j0_integral(x) - direct) \
            <= 1e-8 * max(1.0, abs(direct))
    checks.append(("j0-integral", ok))

    dt = time.perf_counter() - t0
    failed = [name for name, ok in checks if not ok]
    _report(capsys, 8, not failed and dt < 60.0,
            "property suite %s in %.1f s"
            % ("all hold" if not failed else "FAILED: %s" % failed, dt))
