"""weberosc benchmark: one workload, timed with tracing off, checked apart.

    python3 perfbench/run.py --workload transient --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The same object, and with ``--trace 1`` every span, is
also written under ``perfbench/out/``.  See ``perfbench/README.md``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# fresh processes that each repeat the set-up; setup_s is their median
SETUP_PROBES = 5
MIN_OPS = 2

EXIT_USAGE = 2
EXIT_NO_PROGRAM = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def load_program():
    """Import weberosc from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "weberosc", "__init__.py")
    if not os.path.isfile(init):
        print("perfbench: no program at %s; run from a source checkout"
              % init, file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    sys.path.insert(0, SRC)
    import weberosc
    if os.path.dirname(os.path.abspath(weberosc.__file__)) != \
            os.path.dirname(init):
        print("perfbench: imported weberosc from %s, not %s"
              % (weberosc.__file__, SRC), file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    return weberosc


def probe_setup(args):
    """Seconds from starting a fresh process to the end of its set-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    seconds = time.perf_counter() - t0
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != b"ready":
        raise RuntimeError("set-up probe failed (exit %s)" % proc.returncode)
    return seconds


class Phase:
    """Op times, points, counts and the distinct outputs of a run's ops.

    Only distinct outputs are kept (every op of a deterministic program
    gives the same), so memory does not grow with the op count.
    """

    def __init__(self):
        self.seconds = []
        self.points = self.attempted = self.failed = 0
        self.outputs = []

    def add(self, r):
        self.seconds.append(r.seconds)
        self.points += r.points
        self.attempted += r.attempted
        self.failed += r.failed
        for e in r.errors:
            print("perfbench: failed op: %s" % e, file=sys.stderr)
        if r.outputs not in self.outputs:
            self.outputs.append(r.outputs)


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload %r (one of %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return EXIT_USAGE
    weberosc = load_program()
    wl = WORKLOADS[args.workload](args.seed, ROOT)

    if args.setup_probe:
        wl.setup()
        print("ready", flush=True)
        wl.close()
        return 0

    os.makedirs(OUT, exist_ok=True)
    n_ops = max(MIN_OPS, round(args.seconds / wl.nominal_op_s))
    plain, traced = Phase(), Phase()
    wl.setup()
    try:
        if args.trace:
            # untraced and traced ops alternate, so drifts in machine speed
            # do not masquerade as tracing overhead; half as many pairs as
            # timed ops keep a traced run about as long as a timed one
            import tracer
            tr = tracer.Tracer()
            n_ops = max(1, n_ops // 2)
            for _ in range(n_ops):
                plain.add(wl.op())
                traced.add(wl.op(tr))
        else:
            setup_s = statistics.median(probe_setup(args)
                                        for _ in range(SETUP_PROBES))
            for _ in range(n_ops):
                plain.add(wl.op())
            rss_kib = wl.peak_rss_kib()
        outputs = plain.outputs + [o for o in traced.outputs
                                   if o not in plain.outputs]
        fails = []
        for out in outputs:
            fails += wl.check(out)
        # the self-test perturbs the first op's result, if no call failed
        if None not in outputs[0] and not wl.self_test(outputs[0]):
            fails.append("self-test: a 1e-6 perturbation passed the check")
    finally:
        wl.close()
    for f in fails:
        print("perfbench: check failed: %s" % f, file=sys.stderr)

    wall = sum(plain.seconds)
    if args.trace:
        metrics = tracer.layer_metrics(tracer.totals(tr.arrays()), n_ops)
        t_wall = sum(traced.seconds)
        metrics["trace.overhead_s"] = (t_wall - wall, "s")
        metrics["trace.overhead_share"] = (t_wall / wall - 1.0, "ratio")
        tr.save(os.path.join(OUT, "trace-%s-seed%d.npz"
                             % (args.workload, args.seed)))
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall, "s"),
            "points_per_s": (plain.points / wall, "points/s"),
            "op_p50_ms": (statistics.median(plain.seconds) * 1e3, "ms"),
            "peak_rss_mb": (rss_kib / 1024.0, "MB"),
        }
    result = {
        "correct": not fails,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    info = {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "backend": weberosc.BACKEND,
            "op_seconds": plain.seconds, "traced_op_seconds": traced.seconds,
            "check_failures": fails}
    with open(os.path.join(OUT, "result-%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w", encoding="utf-8") as fh:
        json.dump(dict(result, info=info), fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
