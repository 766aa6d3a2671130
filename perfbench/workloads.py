"""The benchmark's workloads: seeded inputs, set-up, one op, and checks.

An op is one pass over a workload's fixed input set, so every op of a run
does the same work.  Program imports happen in ``setup`` so that set-up
time counts them; the benchmark's reference libraries (numpy, scipy) are
imported by ``checks`` only after the timed phase.
"""

from array import array
from contextlib import nullcontext
import os
import random
import resource
import shutil
import subprocess
import sys
import time

SAMPLES = 1001

# Drag ranges keep every draw in one regime (truncated or not), so the
# cost of an op barely depends on the seed.
TRANSIENT_DRAGS = {"I": (0.2, 2.0), "II": (0.6, 2.0), "IV": (0.2, 2.0),
                   "V": (0.2, 1.8)}
TRANSIENT_DRAGS_PER_PRESET = 4
LONGHORIZON_DRAGS = (0.5, 1.5)
LONGHORIZON_DRAG_COUNT = 1
# forced: the sample arm (w0=3, q=0.1, k2=10, m=1); the check of n_terms=40
# holds with a wide margin on this A range (see the README)
FORCED_DRAGS = (0.3, 0.5)
FORCED_MUS = (0.5, 1.5)
FORCED_TERMS = 40
FORCED_POINTS = 201
# cli: the small forced run uses n_terms=20, whose check holds for A <= 0.45
CLI_TRANSIENT_DRAGS = (0.2, 2.0)
CLI_ORACLE_DRAGS = (0.6, 2.0)
CLI_FORCED_DRAGS = (0.2, 0.45)
CLI_FORCED_TERMS = 20
CLI_FORCED_SAMPLES = 51
CLI_ZEROS = 50

TRAJ_FIELDS = ("t", "x", "xdot", "z", "zdot", "theta", "rho", "Ry", "Rz")


def _draws(rng, lo_hi, n):
    lo, hi = lo_hi
    return [round(rng.uniform(lo, hi), 3) for _ in range(n)]


def _trajectory_arrays(result):
    out = {f: array("d", (getattr(s, f) for s in result.samples))
           for f in TRAJ_FIELDS}
    out["truncated"] = result.truncated
    out["t_trunc"] = result.t_trunc
    return out


class OpResult:
    """Outputs of one op with its time, points and failure count."""

    def __init__(self):
        self.seconds = 0.0
        self.points = 0
        self.attempted = 0
        self.failed = 0
        self.outputs = []
        self.errors = []

    def failure(self, label, exc):
        self.failed += 1
        self.outputs.append(None)
        self.errors.append("%s: %s: %s" % (label, type(exc).__name__, exc))


class Workload:
    """Shared defaults; they suit the workloads that run in this process."""

    def close(self):
        pass

    def peak_rss_kib(self):
        """Peak RSS of the benchmark process, which runs the program."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Transient(Workload):
    """run_transient in-process on presets I, II, IV and V."""

    name = "transient"
    nominal_op_s = 1.1

    def __init__(self, seed, root):
        rng = random.Random(seed)
        self.plan = [(p, A) for p in ("I", "II", "IV", "V")
                     for A in _draws(rng, TRANSIENT_DRAGS[p],
                                     TRANSIENT_DRAGS_PER_PRESET)]

    def setup(self):
        from weberosc import dynamics, weber
        self.dynamics, self.weber = dynamics, weber
        self.inputs = [dynamics.apply_preset(weber.PhysicalConfig(), p, A=A)
                       for p, A in self.plan]
        for cfg in self.inputs:
            dynamics.run_transient(cfg, n_samples=3)

    def op(self, tracer=None):
        r = OpResult()
        clock = time.perf_counter
        for cfg in self.inputs:
            r.attempted += 1
            with tracer.installed() if tracer else nullcontext():
                t0 = clock()
                try:
                    res = self.dynamics.run_transient(cfg, n_samples=SAMPLES)
                except Exception as exc:  # counted and reported; run goes on
                    r.seconds += clock() - t0
                    r.failure("A=%r q=%r" % (cfg.A, cfg.q), exc)
                    continue
                r.seconds += clock() - t0
            r.points += len(res.samples)
            r.outputs.append(_trajectory_arrays(res))
        return r

    def _basis(self, cfg):
        if cfg.q == 0.0:
            return None
        coeffs = self.weber.map_params(cfg)
        return lambda t: self.weber.wronskian(coeffs, t)

    def check(self, outputs):
        from checks import check_trajectory
        fails = []
        for cfg, out in zip(self.inputs, outputs):
            if out is None:
                continue
            for f in check_trajectory(cfg, SAMPLES, out, self._basis(cfg)):
                fails.append("q=%r A=%r: %s" % (cfg.q, cfg.A, f))
        return fails

    def self_test(self, outputs):
        """True when a 1e-6 change of x at one sample fails the check."""
        import numpy as np
        from checks import check_trajectory, perturbed
        cfg, out = self.inputs[0], outputs[0]
        bad = dict(out)
        bad["x"] = perturbed(out["x"], int(np.argmax(np.abs(out["x"]))))
        return bool(check_trajectory(cfg, SAMPLES, bad, None))


class LongHorizon(Transient):
    """run_transient on preset III (q < 0, horizon t_end = 10)."""

    name = "longhorizon"
    nominal_op_s = 2.9

    def __init__(self, seed, root):
        rng = random.Random(seed)
        self.plan = [("III", A) for A in _draws(rng, LONGHORIZON_DRAGS,
                                                LONGHORIZON_DRAG_COUNT)]


class Forced(Workload):
    """solve_forced_ivp then eval_forced on a uniform grid (sample arm)."""

    name = "forced"
    nominal_op_s = 5.9

    def __init__(self, seed, root):
        rng = random.Random(seed)
        self.A = _draws(rng, FORCED_DRAGS, 1)[0]
        self.mu = _draws(rng, FORCED_MUS, 1)[0]

    def setup(self):
        from weberosc import forced, weber
        self.forced = forced
        self.cfg = weber.PhysicalConfig(omega0=3.0, q=0.1, k2=10.0, m=1.0,
                                        A=self.A, mu=self.mu)
        t_end = 1.0 / self.cfg.q
        self.grid = [t_end * i / (FORCED_POINTS - 1)
                     for i in range(FORCED_POINTS)]
        fs = forced.solve_forced_ivp(self.cfg, n_terms=1)
        forced.eval_forced(fs, self.grid[1])

    def op(self, tracer=None):
        r = OpResult()
        r.attempted = 1
        clock = time.perf_counter
        with tracer.installed() if tracer else nullcontext():
            t0 = clock()
            try:
                fs = self.forced.solve_forced_ivp(self.cfg,
                                                  n_terms=FORCED_TERMS)
                xs = [self.forced.eval_forced(fs, t) for t in self.grid]
            except Exception as exc:  # counted and reported; run goes on
                r.seconds = clock() - t0
                r.failure("A=%r mu=%r" % (self.A, self.mu), exc)
                return r
            r.seconds = clock() - t0
        r.points = len(xs)
        r.outputs.append({"x": array("d", (v[0] for v in xs)),
                          "xdot": array("d", (v[1] for v in xs))})
        return r

    def check(self, outputs):
        from checks import check_forced
        fails = []
        for out in outputs:
            if out is not None:
                fails += check_forced(self.cfg, FORCED_TERMS, self.grid,
                                      out["x"], out["xdot"])
        return fails

    def self_test(self, outputs):
        """True when a 1e-6 change of x'(0) fails the initial-state check."""
        from checks import check_forced, perturbed
        out = outputs[0]
        return bool(check_forced(self.cfg, FORCED_TERMS, self.grid, out["x"],
                                 perturbed(out["xdot"], 0)))


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",") if lines else []
    cols = list(zip(*(map(float, ln.split(",")) for ln in lines[1:])))
    return header, {h: array("d", c) for h, c in zip(header, cols)}, \
        len(lines) - 1


def _wait(proc):
    """Reap ``proc`` and return (exit code, peak RSS in KiB)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


class Cli(Workload):
    """``python -m weberosc.cli`` subprocesses, one at a time."""

    name = "cli"
    nominal_op_s = 7.7

    def __init__(self, seed, root):
        rng = random.Random(seed)
        self.root = root
        self.drags = _draws(rng, CLI_TRANSIENT_DRAGS, 1)
        while len(self.drags) < 2:
            self.drags = sorted(set(
                self.drags + _draws(rng, CLI_TRANSIENT_DRAGS, 1)))
        self.oracle_drag = _draws(rng, CLI_ORACLE_DRAGS, 1)[0]
        self.forced_drag = _draws(rng, CLI_FORCED_DRAGS, 1)[0]
        self.forced_mu = _draws(rng, FORCED_MUS, 1)[0]
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.child_rss_kib = 0

    def commands(self):
        d = self.out_dir
        return [
            ["transient", "--preset", "I", "--drag",
             ",".join(repr(a) for a in self.drags), "--out", d],
            ["polar", "--preset", "I", "--out", d],
            ["zeros", "--count", str(CLI_ZEROS)],
            ["forced", "--mu", repr(self.forced_mu), "--drag",
             repr(self.forced_drag), "--terms", str(CLI_FORCED_TERMS),
             "--samples", str(CLI_FORCED_SAMPLES), "--out", d],
            ["transient", "--preset", "II", "--drag", repr(self.oracle_drag),
             "--oracle", "--out", d],
        ]

    def setup(self):
        import tempfile
        base = os.path.join(self.root, "perfbench", "out")
        os.makedirs(base, exist_ok=True)
        self.out_dir = tempfile.mkdtemp(prefix="cli-", dir=base)
        self._run(["zeros", "--count", "1"], None)
        self.child_rss_kib = 0

    def close(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def peak_rss_kib(self):
        """Largest peak RSS of the op subprocesses."""
        return self.child_rss_kib

    def _run(self, args, spans_path):
        """One CLI command; returns (exit code, stdout, seconds)."""
        if spans_path is None:
            cmd = [sys.executable, "-m", "weberosc.cli"] + args
        else:
            cmd = [sys.executable,
                   os.path.join(self.root, "perfbench", "trace_child.py"),
                   spans_path, "--"] + args
        log = os.path.join(self.out_dir, "stdout.txt")
        with open(log, "w+b") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=fh, stderr=subprocess.STDOUT)
            code, rss = _wait(proc)
            seconds = time.perf_counter() - t0
            fh.seek(0)
            text = fh.read().decode("utf-8", "replace")
        self.child_rss_kib = max(self.child_rss_kib, rss)
        return code, text, seconds

    def op(self, tracer=None):
        r = OpResult()
        for args in self.commands():
            r.attempted += 1
            spans = None
            if tracer is not None:
                spans = os.path.join(self.out_dir, "spans.npz")
            code, text, seconds = self._run(args, spans)
            r.seconds += seconds
            if spans is not None and os.path.exists(spans):
                tracer.extend_from(spans)
                os.unlink(spans)
            if code != 0:
                r.failure(" ".join(args), RuntimeError(
                    "exit code %d: %s" % (code, text.strip()[-300:])))
                continue
            out = {"stdout": text}
            if args[0] == "zeros":
                rows = text.splitlines()[1:]
                r.points += len(rows)
            else:
                for name in self._csv_names(args):
                    header, cols, n = _read_csv(
                        os.path.join(self.out_dir, name))
                    out[name] = (header, cols, n)
                    r.points += n
            r.outputs.append(out)
        return r

    def _csv_names(self, args):
        if args[0] == "polar":
            return ["polar.csv"]
        if args[0] == "forced":
            return ["forced_A%g.csv" % self.forced_drag]
        preset = args[2]
        drags = self.drags if preset == "I" else [self.oracle_drag]
        return ["transient_%s_A%g.csv" % (preset, A) for A in drags]

    def _cfg(self, preset, **fields):
        from weberosc import dynamics, weber
        cfg = weber.PhysicalConfig(**fields)
        return dynamics.apply_preset(cfg, preset) if preset else cfg

    def check(self, outputs):
        import checks
        fails = []
        cmds = self.commands()
        for args, out in zip(cmds, outputs):
            if out is None:
                continue
            label = " ".join(args[:3])
            fails += ["%s: %s" % (label, f)
                      for f in self._check_one(checks, args, out)]
        return fails

    def _check_one(self, checks, args, out):
        fails = []
        if args[0] == "zeros":
            rows = [ln.split(",") for ln in out["stdout"].splitlines()]
            if not rows or rows[0] != ["k", "alpha_k", "J0(alpha_k)"]:
                return ["zeros header %r" % (rows[:1],)]
            if len(rows) - 1 != CLI_ZEROS:
                return ["zeros printed %d rows" % (len(rows) - 1)]
            return checks.check_zeros([int(r[0]) for r in rows[1:]],
                                      [float(r[1]) for r in rows[1:]],
                                      [float(r[2]) for r in rows[1:]])
        if args[0] == "polar":
            header, cols, n = out["polar.csv"]
            if header != ["theta", "rho"]:
                return ["polar header %r" % header]
            cfg = self._cfg("I")
            return checks.check_polar(cfg, cols["theta"], cols["rho"],
                                      cfg.omega0 / (2.0 * cfg.q), SAMPLES)
        if args[0] == "forced":
            header, cols, n = out["forced_A%g.csv" % self.forced_drag]
            if header != ["t", "x", "xdot", "c1", "c2", "x_particular"]:
                return ["forced header %r" % header]
            if n != CLI_FORCED_SAMPLES:
                return ["forced CSV has %d rows" % n]
            if cols["c1"][0] != 0.0 or cols["c2"][0] != 0.0:
                fails.append("Lagrange coefficients nonzero at t = 0")
            cfg = self._cfg(None, A=self.forced_drag, mu=self.forced_mu)
            return fails + checks.check_forced(cfg, CLI_FORCED_TERMS,
                                               cols["t"], cols["x"],
                                               cols["xdot"])
        preset = args[2]
        names = self._csv_names(args)
        lines = [ln for ln in out["stdout"].splitlines()
                 if ln.startswith("transient ")]
        if len(lines) != len(names):
            fails.append("%d summary lines for %d drags"
                         % (len(lines), len(names)))
        if "--oracle" in args and not all("max_rel_err=" in ln
                                          for ln in lines):
            fails.append("oracle error missing from the summary")
        drags = self.drags if preset == "I" else [self.oracle_drag]
        for A, name in zip(drags, names):
            header, cols, n = out[name]
            if header != list(TRAJ_FIELDS):
                fails.append("%s header %r" % (name, header))
                continue
            cfg = self._cfg(preset, A=A)
            traj = dict(cols)
            traj["truncated"] = n < SAMPLES
            traj["t_trunc"] = None
            if traj["truncated"]:
                traj["t_trunc"] = float(checks.uniform_grid(cfg, SAMPLES)[0][n])
            fails += ["%s: %s" % (name, f)
                      for f in checks.check_trajectory(cfg, SAMPLES, traj)]
        return fails

    def self_test(self, outputs):
        """True when a 1e-6 change of one CSV value fails its check."""
        import numpy as np
        import checks
        args = self.commands()[0]
        out = dict(outputs[0])
        name = self._csv_names(args)[0]
        header, cols, n = out[name]
        cols = dict(cols)
        cols["x"] = checks.perturbed(cols["x"],
                                     int(np.argmax(np.abs(cols["x"]))))
        out[name] = (header, cols, n)
        return bool(self._check_one(checks, args, out))


WORKLOADS = {w.name: w for w in (Transient, LongHorizon, Forced, Cli)}
