"""Command-line front end: transient runs, the forced case, polar curves,
and the J0 zero table.

    weberosc transient --preset I --drag 0.2,0.5,1,2 --out runs/
    weberosc forced --mu 1 --terms 200
    weberosc polar --preset I
    weberosc zeros --count 200

CSV values use the shortest round-trip decimal rendering (repr), so
re-reading a file reproduces every float bit-exactly.  Files are written
atomically (temp + rename).  Exit codes: 0 ok, 2 config error, 3 numeric
failure, 4 root-finding failure.
"""

import argparse
import json
import os
import sys
import tempfile

from . import dynamics, forced, oracle, weber
from .errors import ConfigError, RootNotFoundError, WeberOscError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_ROOT = 4

DEFAULT_TOL = 1e-6

_PHYSICAL_KEYS = frozenset(weber.PhysicalConfig.__dataclass_fields__)
_RUN_KEYS = frozenset({"preset", "drag", "n_samples", "out", "oracle",
                       "n_terms"})


def _comparison_tol() -> float:
    raw = os.environ.get("WEBEROSC_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        return float(raw)
    except ValueError:
        raise ConfigError("WEBEROSC_TOL is not a number: %r" % raw) from None


def load_config(path: str) -> dict:
    """Flat JSON dict of PhysicalConfig/run keys; unknown keys rejected."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("config %s: %s" % (path, exc)) from None
    if not isinstance(data, dict):
        raise ConfigError("config %s: expected a flat JSON object" % path)
    unknown = set(data) - _PHYSICAL_KEYS - _RUN_KEYS
    if unknown:
        raise ConfigError("config %s: unknown keys %s"
                          % (path, sorted(unknown)))
    return data


def write_csv(path: str, header: list, rows: list) -> None:
    """Atomic CSV write; floats rendered by repr (shortest round-trip)."""
    def cell(v):
        return repr(float(v)) if isinstance(v, float) else str(v)

    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(cell(v) for v in row) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _build_config(args) -> tuple:
    """Merge defaults <- config file <- CLI flags; returns (config, run)."""
    file_vals = load_config(args.config) if args.config else {}
    phys = {k: v for k, v in file_vals.items() if k in _PHYSICAL_KEYS}
    run = {k: v for k, v in file_vals.items() if k in _RUN_KEYS}
    config = weber.PhysicalConfig(**phys)
    preset = args.preset if args.preset is not None else run.get("preset")
    if preset is not None:
        config = dynamics.apply_preset(config, preset)
    if getattr(args, "mu", None) is not None:
        config = config.with_overrides(mu=args.mu)
    run_out = {
        "preset": preset,
        "drag": args.drag if args.drag is not None else run.get("drag"),
        "n_samples": args.samples if args.samples is not None
        else run.get("n_samples", dynamics.DEFAULT_N_SAMPLES),
        "out": args.out if args.out is not None else run.get("out", "."),
        "oracle": bool(args.oracle or run.get("oracle", False)),
        "n_terms": args.terms if args.terms is not None
        else run.get("n_terms"),
    }
    config.validate()
    return config, run_out


def _parse_drag(raw) -> tuple:
    if raw is None:
        return dynamics.DEFAULT_DRAG_SET
    if isinstance(raw, (list, tuple)):
        return tuple(float(v) for v in raw)
    try:
        return tuple(float(v) for v in str(raw).split(","))
    except ValueError:
        raise ConfigError("bad drag list %r" % raw) from None


def _zero_crossings(values) -> int:
    n = 0
    prev = None
    for v in values:
        if v == 0.0:
            continue
        if prev is not None and (v > 0) != (prev > 0):
            n += 1
        prev = v
    return n


def cmd_transient(args) -> int:
    config, run = _build_config(args)
    drags = _parse_drag(run["drag"])
    tol = _comparison_tol()
    tag = run["preset"] or "custom"
    status = EXIT_OK
    for A in drags:
        cfg = config.with_overrides(A=A)
        result = dynamics.run_transient(cfg, n_samples=run["n_samples"])
        rows = [(s.t, s.x, s.xdot, s.z, s.zdot, s.theta, s.rho, s.Ry, s.Rz)
                for s in result.samples]
        path = os.path.join(run["out"], "transient_%s_A%g.csv" % (tag, A))
        write_csv(path, ["t", "x", "xdot", "z", "zdot", "theta", "rho",
                         "Ry", "Rz"], rows)
        xs = [s.x for s in result.samples]
        summary = ("transient preset=%s A=%g truncated=%s t_trunc=%s "
                   "zero_crossings=%d max_abs_x=%r max_abs_Ry=%r"
                   % (tag, A, result.truncated,
                      "%g" % result.t_trunc if result.truncated else "-",
                      _zero_crossings(xs),
                      max((abs(v) for v in xs), default=0.0),
                      max((abs(s.Ry) for s in result.samples), default=0.0)))
        if run["oracle"]:
            coeffs = weber.map_params(cfg)
            sol = weber.solve_ivp(coeffs, cfg.x0, cfg.v0)
            t_last = result.samples[-1].t if result.samples else 0.0
            num = oracle.integrate_ode(coeffs, 0.0, cfg.x0, cfg.v0,
                                       max(t_last, 1e-6),
                                       n_samples=len(result.samples) or 2)
            rep = oracle.compare(
                num.grid, lambda t: weber.eval_solution(sol, t), num)
            summary += " max_rel_err=%r" % rep.max_rel_err
            if rep.max_rel_err > tol:
                status = EXIT_NUMERIC
        print(summary)
    return status


def cmd_forced(args) -> int:
    base, run = _build_config(args)
    if base.q == 0.0:
        raise ConfigError("forced requires q != 0 (hermite/kummer branch)")
    drags = _parse_drag(run["drag"]) if run["drag"] is not None else (base.A,)
    for A in drags:
        _run_forced(base.with_overrides(A=A), run)
    return EXIT_OK


def _run_forced(config, run) -> None:
    n_terms = run["n_terms"]
    horizon = dynamics.horizon(config)
    fs = forced.solve_forced_ivp(config, n_terms=n_terms)
    ps = fs.particular
    n = run["n_samples"]
    rows = []
    for i in range(n):
        t = horizon * i / (n - 1)
        x, xdot = forced.eval_forced(fs, t)
        c1, c2, _, _ = forced.lagrange_coefficients(ps, t)
        xbar, _ = forced.eval_particular(ps, t)
        rows.append((t, x, xdot, c1, c2, xbar))
    path = os.path.join(run["out"], "forced_A%g.csv" % config.A)
    write_csv(path, ["t", "x", "xdot", "c1", "c2", "x_particular"], rows)

    # residual of the particular integral by central differences
    co = ps.coeffs
    h = 1e-4
    res_max = 0.0
    for i in range(41):
        t = h + (0.9 * horizon - h) * i / 40
        xm = forced.eval_particular(ps, t - h)[0]
        x0 = forced.eval_particular(ps, t)[0]
        xp = forced.eval_particular(ps, t + h)[0]
        r = ((xp - 2.0 * x0 + xm) / (h * h) + co.A * (xp - xm) / (2.0 * h)
             - (co.a * t * t + co.b * t + co.c) * x0 - config.mu)
        res_max = max(res_max, abs(r))

    xdots = [row[2] for row in rows if row[0] > 1.0]
    oscillatory = _zero_crossings(xdots) > 1
    print("forced mu=%g A=%g t_bar=(%r, %r) n_terms=%d residual_max=%r "
          "oscillatory=%s"
          % (config.mu, config.A, ps.exp1.t_bar, ps.exp2.t_bar,
             ps.exp1.n_terms, res_max, oscillatory))


def cmd_polar(args) -> int:
    config, run = _build_config(args)
    if args.theta_max is not None:
        theta_max = args.theta_max
    elif config.q > 0.0:
        theta_max = config.omega0 / (2.0 * config.q)
    else:
        raise ConfigError("polar requires q > 0 or an explicit --theta-max")
    coeffs = weber.map_params(config)
    sol = weber.solve_ivp(coeffs, config.x0, config.v0)
    n = run["n_samples"]
    rows = []
    for i in range(n):
        theta = theta_max * i / (n - 1)
        rows.append((theta, dynamics.polar_curve(config, sol, theta)))
    path = os.path.join(run["out"], "polar.csv")
    write_csv(path, ["theta", "rho"], rows)
    print("polar preset=%s theta_max=%r samples=%d"
          % (run["preset"] or "custom", theta_max, n))
    return EXIT_OK


def cmd_zeros(args) -> int:
    from . import specfun
    if args.count < 1:
        raise ConfigError("zeros: count must be >= 1")
    print("k,alpha_k,J0(alpha_k)")
    for k, ak in enumerate(specfun.bessel_j0_zeros(args.count).tolist(), 1):
        print("%d,%r,%r" % (k, ak, specfun.bessel_j0(ak)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="weberosc",
        description="Damped oscillator on a decelerating rotating arm: "
                    "closed-form transients, forced case, polar curves, "
                    "Bessel zero tables.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--preset", choices=sorted(dynamics.PRESETS),
                        help="named transient preset")
        sp.add_argument("--drag", help="comma-separated list of A values")
        sp.add_argument("--mu", type=float, help="dry-friction acceleration")
        sp.add_argument("--samples", type=int, help="grid sample count")
        sp.add_argument("--terms", type=int,
                        help="Fourier-Bessel expansion length")
        sp.add_argument("--oracle", action="store_true",
                        help="cross-check against the numerical integrator")
        sp.add_argument("--config", help="flat JSON config file")
        sp.add_argument("--out", help="output directory (default .)")

    sp = sub.add_parser("transient", help="homogeneous transients I..V")
    common(sp)
    sp.set_defaults(fn=cmd_transient)

    sp = sub.add_parser("forced", help="dry-friction forced case")
    common(sp)
    sp.set_defaults(fn=cmd_forced)

    sp = sub.add_parser("polar", help="polar trajectory rho(theta)")
    common(sp)
    sp.add_argument("--theta-max", type=float,
                    help="angle range end (required when q <= 0)")
    sp.set_defaults(fn=cmd_polar)

    sp = sub.add_parser("zeros", help="table of J0 zeros")
    sp.add_argument("--count", type=int, default=10,
                    help="number of zeros (default 10)")
    sp.set_defaults(fn=cmd_zeros)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError, TypeError, OSError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except RootNotFoundError as exc:
        print("root-finding failure: %s" % exc, file=sys.stderr)
        return EXIT_ROOT
    except WeberOscError as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
