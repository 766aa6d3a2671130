"""Domain sweeps as deterministic tests: fixed random.Random draws whose
recipe is fixed in advance; no arm is re-seeded, resized or dropped."""

from collections import Counter
import math
import random

import numpy as np

from weberosc import dynamics, oracle, weber
from weberosc.errors import WeberOscError

# transient clause: arms q ~ U(0.02, 0.2), k2 ~ U(0, 40), A ~ U(0, 2),
# drawn in that order from random.Random(7), the other fields at their
# defaults (omega0 = 3); tier-1 takes the first 20
TRANSIENT_SEED = 7
TRANSIENT_ARMS = 20
# found off RK45 by 0.35 (Abel drift 8.6) on an earlier Hermite path:
# nu = 149.1, u(0) = -8.97
HIGH_ORDER_ARM = weber.PhysicalConfig(q=0.0373, k2=33.8, A=1.13)
# arms 3, 8 and 11 of the draws: DegenerateBasisError at t = 0
TRANSIENT_REFUSED = 3
# Wronskian clause: arms q ~ U(0.005, 0.2) times a random sign, k2 ~
# U(0, 40), A ~ U(0, 2), drawn in that order from random.Random(11), the
# other fields at their defaults; every arm is fitted at t = 0
WRONSKIAN_SEED = 11
WRONSKIAN_ARMS = 2000
# 17 of the refusals (arms 6, 65, 175, 285, 309, 378, 623, 626, 658, 665,
# 832, 835, 862, 969, 1563, 1707 and 1875), where x1 x2' leaves the
# double range, were once fitted to constants of 0 or NaN
WRONSKIAN_OUTCOMES = {"fitted": 1788, "OverflowRangeError": 89,
                      "DegenerateBasisError": 86, "ConvergenceError": 37}


def _transient_arms():
    rng = random.Random(TRANSIENT_SEED)
    arms = []
    for _ in range(TRANSIENT_ARMS):
        q = rng.uniform(0.02, 0.2)
        k2 = rng.uniform(0.0, 40.0)
        A = rng.uniform(0.0, 2.0)
        arms.append(weber.PhysicalConfig(q=q, k2=k2, A=A))
    return arms + [HIGH_ORDER_ARM]


def _check_transient_arm(cfg):
    """True when the arm is refused with a typed error; otherwise the
    closed form on 201 points of the horizon must lie within 1e-8 of
    RK45 (sup-normalised) and keep W(t) e^{At} = W(0) within 1e-8."""
    horizon = dynamics.horizon(cfg)
    try:
        coeffs = weber.map_params(cfg)
        sol = weber.solve_ivp(coeffs, cfg.x0, cfg.v0)
        grid = np.linspace(0.0, horizon, 201).tolist()
        x = [weber.eval_solution(sol, t)[0] for t in grid]
        w0 = weber.wronskian(coeffs, 0.0)
        drift = max(abs(weber.wronskian(coeffs, t) * math.exp(cfg.A * t) / w0
                        - 1.0) for t in grid)
    except WeberOscError:
        return True
    res = oracle.integrate_ode(coeffs, 0.0, cfg.x0, cfg.v0, horizon,
                               rel_tol=1e-10, n_samples=201)
    err = oracle.compare(res.grid, x, res).max_rel_err
    assert err <= 1e-8, (cfg, err)
    assert drift <= 1e-8, (cfg, drift)
    return False


def test_transient_sweep_matches_oracle_or_refuses():
    refused = [i for i, cfg in enumerate(_transient_arms())
               if _check_transient_arm(cfg)]
    assert len(refused) == TRANSIENT_REFUSED, refused


def test_wronskian_sweep_fits_finite_constants_or_refuses():
    """Each arm gives finite constants, not both 0, or a typed error."""
    rng = random.Random(WRONSKIAN_SEED)
    outcomes = Counter()
    for _ in range(WRONSKIAN_ARMS):
        q = rng.uniform(0.005, 0.2) * rng.choice([1, -1])
        k2 = rng.uniform(0.0, 40.0)
        A = rng.uniform(0.0, 2.0)
        cfg = weber.PhysicalConfig(q=q, k2=k2, A=A)
        try:
            sol = weber.solve_ivp(weber.map_params(cfg), cfg.x0, cfg.v0)
        except WeberOscError as exc:
            outcomes[type(exc).__name__] += 1
            continue
        assert math.isfinite(sol.C1) and math.isfinite(sol.C2), (cfg, sol)
        assert (sol.C1, sol.C2) != (0.0, 0.0), (cfg, sol)
        outcomes["fitted"] += 1
    assert outcomes == WRONSKIAN_OUTCOMES
