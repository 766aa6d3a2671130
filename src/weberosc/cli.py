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
import csv
from dataclasses import replace
import json
import os
import sys
import tempfile

from . import dynamics, weber
from .errors import ConfigError, RootNotFoundError, WeberOscError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_ROOT = 4

DEFAULT_TOL = 1e-6  # --oracle gate on the relative error against RK45


def load_config(path: str) -> weber.PhysicalConfig:
    """Flat JSON object of PhysicalConfig fields; the keys and values the
    PhysicalConfig refuses are configuration errors."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("config %s: %s" % (path, exc)) from None
    if not isinstance(data, dict):
        raise ConfigError("config %s: expected a flat JSON object" % path)
    try:
        return weber.PhysicalConfig(**data)
    except ConfigError as exc:
        raise ConfigError("config %s: %s" % (path, exc)) from None


def write_csv(path: str, header, rows) -> None:
    """Atomic CSV write; floats rendered by repr (shortest round-trip)."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _build_config(args) -> weber.PhysicalConfig:
    """Defaults <- config file <- --preset; checks --samples."""
    config = (load_config(args.config) if args.config
              else weber.PhysicalConfig())
    if args.preset is not None:
        config = dynamics.apply_preset(config, args.preset)
    if args.samples < 2:
        raise ConfigError("n_samples must be >= 2, got %r" % (args.samples,))
    return config


def _parse_drag(raw: str) -> tuple:
    """A values of a --drag list; each must name its own %g CSV file."""
    try:
        drags = tuple(float(v) for v in raw.split(","))
    except ValueError:
        raise ConfigError("bad drag list %r" % raw) from None
    if len({"%g" % A for A in drags}) < len(drags):
        raise ConfigError("drag list %r repeats an A at %%g precision, "
                          "so one CSV would overwrite another" % raw)
    return drags


def _zero_crossings(values) -> int:
    # |v| within 1e-12 of max |v| is rounding noise (x(0) = 0 can come
    # out as +-5.6e-17) and, like 0, shows no crossing of its own
    noise = 1e-12 * max((abs(v) for v in values), default=0.0)
    n = 0
    prev = None
    for v in values:
        if abs(v) <= noise:
            continue
        if prev is not None and (v > 0) != (prev > 0):
            n += 1
        prev = v
    return n


def cmd_transient(args) -> int:
    config = _build_config(args)
    drags = (_parse_drag(args.drag) if args.drag is not None
             else dynamics.DEFAULT_DRAG_SET)
    tag = args.preset or "custom"
    status = EXIT_OK
    # every drag is validated before the first CSV is written
    cfgs = [replace(config, A=A) for A in drags]
    for A, cfg in zip(drags, cfgs):
        result = dynamics.run_transient(cfg, n_samples=args.samples)
        path = os.path.join(args.out, "transient_%s_A%g.csv" % (tag, A))
        write_csv(path, dynamics.TrajectorySample._fields, result.samples)
        xs = [s.x for s in result.samples]
        summary = ("transient preset=%s A=%g truncated=%s t_trunc=%s "
                   "zero_crossings=%d max_abs_x=%r max_abs_Ry=%r"
                   % (tag, A, result.truncated,
                      "%g" % result.t_trunc if result.truncated else "-",
                      _zero_crossings(xs),
                      max((abs(v) for v in xs), default=0.0),
                      max((abs(s.Ry) for s in result.samples), default=0.0)))
        if args.oracle and not result.samples:
            summary += " max_rel_err=-"  # no sample kept, none to check
        elif args.oracle:
            from . import oracle
            ts = [s.t for s in result.samples]
            num = oracle.integrate_ode(weber.map_params(cfg), 0.0, cfg.x0,
                                       cfg.v0, max(ts[-1], 1e-6),
                                       n_samples=len(ts))
            rep = oracle.compare(ts, xs, num)
            summary += " max_rel_err=%r" % rep.max_rel_err
            if rep.max_rel_err > DEFAULT_TOL:
                status = EXIT_NUMERIC
        print(summary)
    return status


def cmd_forced(args) -> int:
    base = _build_config(args)
    if args.mu is not None:
        base = replace(base, mu=args.mu)
    drags = _parse_drag(args.drag) if args.drag is not None else (base.A,)
    for cfg in [replace(base, A=A) for A in drags]:
        _run_forced(cfg, args)
    return EXIT_OK


def _run_forced(config, args) -> None:
    from . import forced
    horizon = dynamics.horizon(config)
    fs = forced.solve_forced_ivp(config, n_terms=args.terms)
    n = args.samples
    rows = []
    for i in range(n):
        t = horizon * i / (n - 1)
        rows.append((t,) + forced.eval_forced_parts(fs, t))
    path = os.path.join(args.out, "forced_A%g.csv" % config.A)
    write_csv(path, ["t", "x", "xdot", "c1", "c2", "x_particular"], rows)

    xdots = [row[2] for row in rows if row[0] > 1.0]
    oscillatory = _zero_crossings(xdots) > 1
    print("forced mu=%g A=%g t_bar=(%r, %r) n_terms=%d oscillatory=%s"
          % (config.mu, config.A, fs.exp1.t_bar, fs.exp2.t_bar,
             len(fs.exp1.B), oscillatory))


def cmd_polar(args) -> int:
    config = _build_config(args)
    if config.mu != 0.0:
        raise ConfigError(dynamics.UNFORCED_ONLY % config.mu)
    if args.theta_max is not None:
        theta_max = args.theta_max
    elif config.q > 0.0:
        theta_max = config.omega0 / (2.0 * config.q)
    else:
        raise ConfigError("polar requires q > 0 or an explicit --theta-max")
    # the flag's value, not its first sample past the branch, is refused
    t_max = dynamics.t_of_theta(config, theta_max)
    coeffs = weber.map_params(config)
    sol = weber.solve_ivp(coeffs, config.x0, config.v0)
    x_at = weber.solution_table(sol, t_max)
    n = args.samples
    rows = []
    for i in range(n):
        theta = theta_max * i / (n - 1)
        rows.append((theta, x_at(dynamics.t_of_theta(config, theta))[0]))
    path = os.path.join(args.out, "polar.csv")
    write_csv(path, ["theta", "rho"], rows)
    print("polar preset=%s theta_max=%r samples=%d"
          % (args.preset or "custom", theta_max, n))
    return EXIT_OK


def cmd_zeros(args) -> int:
    from . import specfun
    zeros = specfun.bessel_j0_zeros(args.count).tolist()
    print("k,alpha_k,J0(alpha_k)")
    for k, ak in enumerate(zeros, 1):
        print("%d,%r,%r" % (k, ak, specfun.bessel_j0(ak)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="weberosc",
        description="Damped oscillator on a decelerating rotating arm: "
                    "closed-form transients, forced case, polar curves, "
                    "Bessel zero tables.")
    sub = p.add_subparsers(dest="command", required=True)

    # the inputs of every command that computes on a PhysicalConfig
    arm = argparse.ArgumentParser(add_help=False)
    arm.add_argument("--preset", choices=sorted(dynamics.PRESETS),
                     help="named transient preset (sets q and k2)")
    arm.add_argument("--samples", type=int,
                     default=dynamics.DEFAULT_N_SAMPLES,
                     help="grid sample count, >= 2 (default %(default)s)")
    arm.add_argument("--config", help="flat JSON file of PhysicalConfig "
                                      "fields")
    arm.add_argument("--out", default=".",
                     help="output directory (default %(default)s)")

    sp = sub.add_parser("transient", parents=[arm],
                        help="homogeneous transients I..V")
    sp.add_argument("--drag", help="comma-separated list of A values "
                    "(default 0.2,0.5,1,2)")
    sp.add_argument("--oracle", action="store_true",
                    help="cross-check against the numerical integrator")
    sp.set_defaults(fn=cmd_transient)

    sp = sub.add_parser("forced", parents=[arm],
                        help="dry-friction forced case")
    sp.add_argument("--drag", help="comma-separated list of A values "
                    "(default the config's A)")
    sp.add_argument("--mu", type=float, help="dry-friction acceleration")
    sp.add_argument("--terms", type=int,
                    help="Fourier-Bessel expansion length")
    sp.set_defaults(fn=cmd_forced)

    sp = sub.add_parser("polar", parents=[arm],
                        help="polar trajectory rho(theta)")
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
