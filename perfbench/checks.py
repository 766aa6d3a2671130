"""Independent checks of the program's outputs.

Every reference is computed here, apart from the program: scipy's DOP853
on the ODE written out from the physical inputs, numpy closed forms for the
vertical motion, ``scipy.special.jn_zeros`` for the Bessel zeros.  The one
property check, Abel's identity for the Wronskian, is a fact the closed
form must satisfy.  No check uses ``weberosc.oracle`` (its sup-normalised
error hides early errors on blow-up paths) or a frozen copy of earlier
output.  Each check returns a list of failure messages, empty on a pass.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.integrate import solve_ivp
from scipy.special import jn_zeros

# x, x', rho and R_y against DOP853, relative to the largest reference
# magnitude within LOCAL_HALF samples on either side.  Measured errors stay
# below 3e-11 on every preset; a 1e-6 change of one sample is caught.
TRAJ_TOL = 1e-9
LOCAL_HALF = 10
# |W(t) e^{At} / W(0) - 1| at every ABEL_STRIDE-th sample (measured < 3e-11).
ABEL_TOL = 1e-9
ABEL_STRIDE = 10
# z, z', R_z and theta against their closed forms, relative to max(1, |ref|).
CLOSED_FORM_TOL = 1e-11
# initial conditions of the forced solution
IC_TOL = 1e-12
# Forced x and x' against DOP853, relative to max(1, max|ref|) and to
# max(1, |mu|), by n_terms; see the README for the measured errors.
FORCED_TOL = {20: 0.1, 40: 2e-2}
ZERO_TOL = 1e-12

_DOP_RTOL = 1e-13
_DOP_ATOL = 1e-16


def horizon(cfg):
    return 1.0 / cfg.q if cfg.q > 0.0 else cfg.t_end


def uniform_grid(cfg, n):
    dt = horizon(cfg) / (n - 1)
    return np.arange(n) * dt, dt


def _ode(cfg):
    """(x, x')' of x'' + A x' - (a t^2 + b t + c) x = mu, from the inputs."""
    w2 = cfg.omega0 * cfg.omega0
    a = w2 * cfg.q * cfg.q
    b = -2.0 * cfg.q * w2
    c = w2 - cfg.k2 / cfg.m
    A, mu = cfg.A, cfg.mu

    def rhs(t, y):
        return [y[1], mu + (a * t * t + b * t + c) * y[0] - A * y[1]]
    return rhs


def reference_path(cfg, t_end, bound=None):
    """Dense DOP853 solution on [0, t_end] and the first |x| = bound time.

    The integration runs on past the crossing until |x| = 2 * bound, so the
    samples the program keeps just before its cut stay covered.
    """
    events = None
    if bound is not None:
        def cross(t, y):
            return bound - abs(y[0])
        cross.direction = -1

        def stop(t, y):
            return 2.0 * bound - abs(y[0])
        stop.terminal = True
        events = [cross, stop]
    res = solve_ivp(_ode(cfg), (0.0, t_end), [cfg.x0, cfg.v0],
                    method="DOP853", rtol=_DOP_RTOL, atol=_DOP_ATOL,
                    dense_output=True, events=events)
    if res.status < 0:
        raise RuntimeError("reference integration failed: %s" % res.message)
    t_cross = None
    if bound is not None and len(res.t_events[0]):
        t_cross = float(res.t_events[0][0])
    return res.sol, float(res.t[-1]), t_cross


def local_rel_err(value, ref, half=LOCAL_HALF):
    """max_i |value_i - ref_i| / max_{|j-i|<=half} |ref_j|."""
    value = np.asarray(value, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if len(ref) == 0:
        return 0.0
    padded = np.pad(np.abs(ref), half, mode="edge")
    scale = sliding_window_view(padded, 2 * half + 1).max(axis=1)
    scale = np.maximum(scale, 1e-300)
    return float(np.max(np.abs(value - ref) / scale))


def _closed_form_err(value, ref):
    ref = np.asarray(ref, dtype=float)
    return float(np.max(np.abs(np.asarray(value) - ref))
                 / max(1.0, float(np.max(np.abs(ref)))))


def vertical_reference(cfg, t):
    """z, z', z'' of z'' = -(k1/m) (z + m g / k1) from (z0, z0')."""
    om = math.sqrt(cfg.k1 / cfg.m)
    off = cfg.m * cfg.g / cfg.k1
    d0 = cfg.z0 + off
    z = d0 * np.cos(om * t) + (cfg.zdot0 / om) * np.sin(om * t) - off
    zdot = -d0 * om * np.sin(om * t) + cfg.zdot0 * np.cos(om * t)
    zddot = -om * om * (z + off)
    return z, zdot, zddot


def check_trajectory(cfg, n_samples, out, basis=None):
    """Check one ``run_transient`` result given as arrays.

    ``out`` maps t, x, xdot, z, zdot, theta, rho, Ry, Rz to arrays of the
    kept samples, plus ``truncated`` and ``t_trunc``.  ``basis`` is a
    callable t -> W(t) (the program's Wronskian) for the Abel check, or
    None to skip it (the q = 0 branch has no Hermite/Kummer pair).
    """
    fails = []
    grid, dt = uniform_grid(cfg, n_samples)
    t = np.asarray(out["t"])
    k = len(t)
    sol, t_reach, t_cross = reference_path(cfg, horizon(cfg), bound=cfg.L)

    k_ref = n_samples if t_cross is None else int(np.sum(grid < t_cross))
    if abs(k - k_ref) > 1:
        fails.append("kept %d samples, reference crossing gives %d"
                     % (k, k_ref))
    if out["truncated"] != (k < n_samples):
        fails.append("truncated flag %r with %d of %d samples"
                     % (out["truncated"], k, n_samples))
    if out["truncated"]:
        if t_cross is None or abs(out["t_trunc"] - t_cross) > dt:
            fails.append("t_trunc %r vs reference crossing %r"
                         % (out["t_trunc"], t_cross))
        elif k < n_samples and out["t_trunc"] != grid[k]:
            fails.append("t_trunc %r is not sample %d" % (out["t_trunc"], k))
    if k == 0:
        return fails + ["no samples"]
    if np.max(np.abs(t - grid[:k])) > 1e-12 * grid[-1]:
        fails.append("sample times off the uniform grid")
    if t[-1] > t_reach:
        fails.append("reference stops at %r before sample %r"
                     % (t_reach, t[-1]))
        return fails

    xr, xdr = sol(t)
    w0 = cfg.omega0
    ryr = 2.0 * cfg.m * w0 * (1.0 - cfg.q * t) * xdr - cfg.m * w0 * cfg.q * xr
    for name, ref in (("x", xr), ("xdot", xdr), ("rho", xr), ("Ry", ryr)):
        err = local_rel_err(out[name], ref)
        if not err <= TRAJ_TOL:
            fails.append("%s locally relative error %.3e > %g"
                         % (name, err, TRAJ_TOL))

    zr, zdr, zddr = vertical_reference(cfg, t)
    theta_r = w0 * (t - 0.5 * cfg.q * t * t)
    rzr = cfg.m * (cfg.g + zddr)
    for name, ref in (("z", zr), ("zdot", zdr), ("Rz", rzr),
                      ("theta", theta_r)):
        err = _closed_form_err(out[name], ref)
        if not err <= CLOSED_FORM_TOL:
            fails.append("%s error %.3e > %g" % (name, err, CLOSED_FORM_TOL))

    if basis is not None:
        w_start = basis(0.0)
        drift = max(abs(basis(float(ti)) * math.exp(cfg.A * ti) / w_start
                        - 1.0) for ti in t[::ABEL_STRIDE])
        if not drift <= ABEL_TOL:
            fails.append("Abel drift %.3e > %g" % (drift, ABEL_TOL))
    return fails


def check_polar(cfg, theta, rho, theta_max, n_samples):
    """rho(theta) = x(t(theta)) on the uniform theta grid."""
    fails = []
    theta = np.asarray(theta, dtype=float)
    if len(theta) != n_samples:
        return ["polar has %d rows, expected %d" % (len(theta), n_samples)]
    grid = theta_max * np.arange(n_samples) / (n_samples - 1)
    if _closed_form_err(theta, grid) > CLOSED_FORM_TOL:
        fails.append("polar theta off its uniform grid")
    q, w0 = cfg.q, cfg.omega0
    t = (1.0 - np.sqrt(np.maximum(1.0 - 2.0 * q * grid / w0, 0.0))) / q
    sol, t_reach, _ = reference_path(cfg, float(t[-1]))
    err = local_rel_err(rho, sol(t)[0])
    if not err <= TRAJ_TOL:
        fails.append("rho locally relative error %.3e > %g" % (err, TRAJ_TOL))
    return fails


def check_forced(cfg, n_terms, t, x, xdot):
    """Forced x, x' against DOP853 of the forced ODE; exact initial state."""
    fails = []
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    xdot = np.asarray(xdot, dtype=float)
    if abs(x[0] - cfg.x0) > IC_TOL * max(1.0, abs(cfg.x0)):
        fails.append("x(0) = %r, expected %r" % (x[0], cfg.x0))
    if abs(xdot[0] - cfg.v0) > IC_TOL * max(1.0, abs(cfg.v0)):
        fails.append("x'(0) = %r, expected %r" % (xdot[0], cfg.v0))
    sol, t_reach, _ = reference_path(cfg, float(t[-1]))
    xr, xdr = sol(t)
    tol = FORCED_TOL[n_terms] * max(1.0, abs(cfg.mu))
    for name, val, ref in (("x", x, xr), ("xdot", xdot, xdr)):
        err = float(np.max(np.abs(val - ref))) / max(1.0, float(np.max(np.abs(ref))))
        if not err <= tol:
            fails.append("forced %s error %.3e > %g" % (name, err, tol))
    return fails


def check_zeros(ks, alphas, j0_values):
    """J0 zero table against scipy.special.jn_zeros."""
    n = len(alphas)
    if list(ks) != list(range(1, n + 1)):
        return ["zero indices are not 1..%d" % n]
    ref = jn_zeros(0, n)
    err = float(np.max(np.abs(np.asarray(alphas) - ref) / ref))
    fails = []
    if not err <= ZERO_TOL:
        fails.append("J0 zeros relative error %.3e > %g" % (err, ZERO_TOL))
    worst = float(np.max(np.abs(j0_values)))
    if not worst <= ZERO_TOL:
        fails.append("|J0(alpha_k)| up to %.3e" % worst)
    return fails


def perturbed(values, i, rel=1e-6):
    """Copy of ``values`` with sample i changed by ``rel`` relative."""
    v = np.array(values, dtype=float)
    v[i] = v[i] * (1.0 + rel) if v[i] != 0.0 else rel
    return v
