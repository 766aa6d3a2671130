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
# table clause: run_transient's rows, from the basis table, against
# eval_solution, the scalar series, on TABLE_SAMPLES samples of the
# transient arms above and the first TABLE_ARMS Wronskian draws (the
# whole recipe, 300 + 1 + 2,000 arms at 201 samples, kept 2,056 arms at
# 7.3e-9 worst and refused the rest on both paths alike)
TABLE_ARMS = 150
TABLE_SAMPLES = 101
# each gap over the largest |x| (|x'|) within 10 samples either side.  On
# the presets it is the scalar series' own error: at III, A = 0.2 the gap
# in x' is 1.1e-11 while the table is within 2e-14 of x' from 40-digit
# members (test_weber pins the table's members).  On the swept arms it
# is the tolerance each path is held to against RK45 above, since their
# pairs cancel by up to 2e5
PRESET_TABLE_GAP = 1e-10
SWEPT_TABLE_GAP = 1e-8
TABLE_OUTCOMES = {"kept": 149, "OverflowRangeError": 11,
                  "DegenerateBasisError": 10, "ConvergenceError": 1}


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


def _wronskian_arms(n):
    rng = random.Random(WRONSKIAN_SEED)
    arms = []
    for _ in range(n):
        q = rng.uniform(0.005, 0.2) * rng.choice([1, -1])
        k2 = rng.uniform(0.0, 40.0)
        A = rng.uniform(0.0, 2.0)
        arms.append(weber.PhysicalConfig(q=q, k2=k2, A=A))
    return arms


def _scalar_rows(cfg, n_samples):
    """run_transient's (x, x') from solve_ivp and eval_solution at each
    sample, cut at the first |x| > L."""
    sol = weber.solve_ivp(weber.map_params(cfg), cfg.x0, cfg.v0)
    dt = dynamics.horizon(cfg) / (n_samples - 1)
    rows = []
    for i in range(n_samples):
        x, xdot = weber.eval_solution(sol, i * dt)
        if abs(x) > cfg.L:
            break
        rows.append((x, xdot))
    return rows


def _table_rows(cfg, n_samples):
    return [(s.x, s.xdot)
            for s in dynamics.run_transient(cfg, n_samples).samples]


def _local_gap(got, ref):
    """Largest |got - ref| over the largest |ref| within 10 samples."""
    worst = 0.0
    for i, (g, r) in enumerate(zip(got, ref)):
        scale = max(abs(v) for v in ref[max(0, i - 10):i + 11])
        if g != r:
            worst = max(worst, abs(g - r) / scale)
    return worst


def _table_gap(cfg, n_samples):
    """The table's gap to the scalar path in x and x', or the error type
    with which both refuse the arm."""
    outcomes = []
    for rows in (_table_rows, _scalar_rows):
        try:
            outcomes.append(rows(cfg, n_samples))
        except WeberOscError as exc:
            outcomes.append(type(exc))
    table, scalar = outcomes
    if isinstance(table, type) or isinstance(scalar, type):
        assert table == scalar, cfg
        return table
    assert len(table) == len(scalar), cfg
    return max(_local_gap([r[j] for r in table], [r[j] for r in scalar])
               for j in (0, 1))


def test_table_matches_scalar_on_presets():
    for preset_id in ("I", "II", "III", "IV"):
        for A in (0.2, 1.0, 2.0):
            cfg = dynamics.apply_preset(weber.PhysicalConfig(), preset_id,
                                        A=A)
            gap = _table_gap(cfg, dynamics.DEFAULT_N_SAMPLES)
            assert gap <= PRESET_TABLE_GAP, (preset_id, A, gap)


def test_table_matches_scalar_or_both_refuse():
    """Each swept arm is refused by both paths with one error type, or
    kept by both to the same sample, with x and x' within
    SWEPT_TABLE_GAP."""
    outcomes = Counter()
    for cfg in _transient_arms() + _wronskian_arms(TABLE_ARMS):
        gap = _table_gap(cfg, TABLE_SAMPLES)
        if isinstance(gap, type):
            outcomes[gap.__name__] += 1
        else:
            assert gap <= SWEPT_TABLE_GAP, (cfg, gap)
            outcomes["kept"] += 1
    assert outcomes == TABLE_OUTCOMES


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
