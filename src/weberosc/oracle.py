"""Independent numerical integrator used to validate every closed form.

Backed by scipy's adaptive Dormand-Prince RK45 pair with dense output;
shares no code with the analytic Hermite/Kummer path.  The reported
``est_error`` is a self-convergence estimate from a companion run at a
looser tolerance.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp as _scipy_solve_ivp

from .errors import DomainError, StepUnderflowError
from .weber import WeberCoefficients


@dataclass(frozen=True)
class OdeResult:
    grid: np.ndarray       # strictly increasing, grid[0] = 0
    x: np.ndarray
    xdot: np.ndarray
    est_error: float


def integrate_ode(coeffs: WeberCoefficients, mu: float, x0: float, v0: float,
                  t_end: float, rel_tol: float = 1e-10, n_samples: int = 1001,
                  amplitude_guard: float | None = None) -> OdeResult:
    """Integrate (x, x')' = (x', mu + (a t^2 + b t + c) x - A x').

    Stops cleanly when |x| exceeds ``amplitude_guard`` (blow-up
    transients); the returned grid then covers only the reached span.
    """
    if not 1e-12 <= rel_tol <= 1e-3:
        raise DomainError("rel_tol must lie in [1e-12, 1e-3]")
    a, b, c, A = coeffs.a, coeffs.b, coeffs.c, coeffs.A

    def rhs(t, y):
        return [y[1], mu + (a * t * t + b * t + c) * y[0] - A * y[1]]

    events = None
    if amplitude_guard is not None:
        def guard(t, y):
            return abs(y[0]) - amplitude_guard
        guard.terminal = True
        events = guard

    grid = np.linspace(0.0, t_end, n_samples)

    def run(rtol):
        res = _scipy_solve_ivp(rhs, (0.0, t_end), [x0, v0], method="RK45",
                               rtol=rtol, atol=rtol * 1e-3, dense_output=True,
                               events=events)
        if res.status == -1:
            raise StepUnderflowError("integration failed: %s" % res.message,
                                     t_last=res.t[-1])
        t_reach = res.t[-1]
        g = grid[grid <= t_reach + 1e-12]
        y = res.sol(g)
        return g, y[0], y[1]

    g, x, xdot = run(rel_tol)
    gc, xc, _ = run(min(rel_tol * 10.0, 1e-3))
    n = min(len(x), len(xc))
    scale = max(1.0, float(np.max(np.abs(x[:n]))))
    est = float(np.max(np.abs(x[:n] - xc[:n]))) / scale
    return OdeResult(grid=g, x=x, xdot=xdot, est_error=est)


@dataclass(frozen=True)
class ComparisonReport:
    max_rel_err: float
    argmax_t: float


def compare(grid, x, numeric: OdeResult) -> ComparisonReport:
    """Sup-normalized deviation of an analytic path from the oracle.

    ``x`` holds the analytic x at each time of ``grid``, which must be
    the oracle's grid.  Normalization is max(1, max |x_numeric|) so that
    blow-up transients stay meaningful.
    """
    grid = np.asarray(grid, dtype=float)
    if len(grid) != len(numeric.grid) or not np.allclose(grid, numeric.grid):
        raise DomainError("compare requires the oracle's grid")
    xa = np.asarray(x, dtype=float)
    if xa.shape != grid.shape:
        raise DomainError("compare needs one x per grid time")
    scale = max(1.0, float(np.max(np.abs(numeric.x))))
    dev = np.abs(xa - numeric.x) / scale
    i = int(np.argmax(dev))
    return ComparisonReport(max_rel_err=float(dev[i]), argmax_t=float(grid[i]))
