"""In-memory span tracer for the per-layer figures of the benchmark.

The tracer replaces public functions of the ``weberosc`` modules with
timing wrappers while ``Tracer.installed()`` is active and restores the
originals afterwards, so untraced runs call the program unchanged.  A span
is (name, start, end, parent span, work); ``work`` is the number of points
a call handles (array size of ``t``, CSV rows, Fourier-Bessel terms), so
that vectorised code cannot hide work behind fewer calls.

Only the standard library is imported at module level: the ``cli`` trace
child imports this module before it times the import of ``weberosc.cli``.
"""

from array import array
from contextlib import contextmanager
import functools
import sys
import time


def _size(x):
    size = getattr(x, "size", None)
    return int(size) if size is not None else 1


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


# (module, function, span name, work measure or None for 1 per call)
TARGETS = (
    ("weberosc.specfun", "kummer_1f1", "specfun.hyp1f1", None),
    ("weberosc.specfun", "kummer_1f1_dz", "specfun.hyp1f1", None),
    ("weberosc.specfun", "hermite_h", "specfun.hermite", None),
    ("weberosc.specfun", "hermite_h_dz", "specfun.hermite", None),
    ("weberosc.specfun", "bessel_j0", "specfun.j0", None),
    ("weberosc.specfun", "bessel_j1", "specfun.j1", None),
    ("weberosc.specfun", "bessel_j0_zero", "specfun.j0_zero", None),
    ("weberosc.specfun", "bessel_j0_integral", "specfun.j0_integral", None),
    ("weberosc.weber", "evaluate_basis", "weber.basis",
     lambda a, k: _size(_arg(a, k, 1, "t"))),
    ("weberosc.weber", "eval_solution", "weber.eval_solution", None),
    ("weberosc.weber", "solve_ivp", "weber.solve_ivp", None),
    ("weberosc.dynamics", "run_transient", "dynamics.run_transient", None),
    ("weberosc.dynamics", "polar_curve", "dynamics.polar_curve", None),
    ("weberosc.forced", "find_root_after", "forced.root", None),
    ("weberosc.forced", "fourier_bessel_fit", "forced.fit",
     lambda a, k: int(_arg(a, k, 2, "n_terms"))),
    ("weberosc.forced", "eval_forced", "forced.eval",
     lambda a, k: _size(_arg(a, k, 1, "t"))),
    ("weberosc.oracle", "integrate_ode", "oracle.integrate_ode", None),
    ("weberosc.oracle", "compare", "oracle.compare", None),
    ("weberosc.cli", "write_csv", "cli.write_csv",
     lambda a, k: len(_arg(a, k, 2, "rows"))),
    ("weberosc.cli", "cmd_transient", "cli.cmd", None),
    ("weberosc.cli", "cmd_forced", "cli.cmd", None),
    ("weberosc.cli", "cmd_polar", "cli.cmd", None),
    ("weberosc.cli", "cmd_zeros", "cli.cmd", None),
)

# Spans whose descendants are attributed to them for the forced ratios.
STAGES = ("forced.fit", "forced.root", "forced.eval")

NAMES = tuple(sorted({t[2] for t in TARGETS} | {"cli.import"}))
_ID = {n: i for i, n in enumerate(NAMES)}


class Tracer:
    """Spans of one process, kept in compact arrays until ``save``."""

    def __init__(self):
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.works = array("q")
        self._stack = [-1]

    def add_span(self, name, start, end, work=1):
        """Record a finished top-level span measured by the caller."""
        self.names.append(_ID[name])
        self.parents.append(self._stack[-1])
        self.starts.append(start)
        self.ends.append(end)
        self.works.append(work)

    def _wrap(self, fn, name, work):
        names, parents, starts, ends, works = (
            self.names, self.parents, self.starts, self.ends, self.works)
        stack = self._stack
        name_id = _ID[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            works.append(1 if work is None else work(args, kwargs))
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target whose module is already imported."""
        saved = []
        try:
            for mod_name, fn_name, name, work in TARGETS:
                mod = sys.modules.get(mod_name)
                if mod is None:
                    continue
                fn = getattr(mod, fn_name)
                saved.append((mod, fn_name, fn))
                setattr(mod, fn_name, self._wrap(fn, name, work))
            yield self
        finally:
            for mod, fn_name, fn in reversed(saved):
                setattr(mod, fn_name, fn)

    def arrays(self):
        import numpy as np
        return {
            "names": np.frombuffer(self.names, dtype=np.int32).copy(),
            "parents": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "starts": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "ends": np.frombuffer(self.ends, dtype=np.float64).copy(),
            "works": np.frombuffer(self.works, dtype=np.int64).copy(),
        }

    def extend_from(self, path):
        """Append the spans another process saved to ``path``."""
        import numpy as np
        with np.load(path) as f:
            if tuple(f["span_names"]) != NAMES:
                raise ValueError("span names in %s differ" % path)
            offset = len(self.names)
            parents = f["parents"]
            self.names.extend(f["names"].tolist())
            self.parents.extend(np.where(parents >= 0, parents + offset,
                                         self._stack[-1]).tolist())
            self.starts.extend(f["starts"].tolist())
            self.ends.extend(f["ends"].tolist())
            self.works.extend(f["works"].tolist())

    def save(self, path):
        import numpy as np
        np.savez(path, span_names=np.array(NAMES), **self.arrays())


def totals(spans):
    """Raw per-layer sums of a span set (arrays as from ``Tracer.arrays``);
    ``layer_metrics`` turns them into per-op figures."""
    import numpy as np
    names, parents = spans["names"], spans["parents"]
    dur = spans["ends"] - spans["starts"]
    works = spans["works"]
    n = len(names)
    has_parent = parents >= 0
    child = np.bincount(parents[has_parent], weights=dur[has_parent],
                        minlength=n)
    self_time = dur - child

    # nearest enclosing stage of every span (its own name if it is one)
    stage = np.full(n, -1)
    for s in STAGES:
        stage[names == _ID[s]] = _ID[s]
    while True:
        todo = np.flatnonzero((stage < 0) & has_parent)
        if todo.size == 0:
            break
        inherited = stage[parents[todo]]
        if not (inherited >= 0).any():
            break
        stage[todo] = inherited

    out = {}
    for name in NAMES:
        m = names == _ID[name]
        out["calls:" + name] = int(m.sum())
        out["work:" + name] = int(works[m].sum())
        out["dur:" + name] = float(dur[m].sum())
        out["self:" + name] = float(self_time[m].sum())
        for s in STAGES:
            ms = m & (stage == _ID[s])
            out["calls@%s:%s" % (s, name)] = int(ms.sum())
            out["work@%s:%s" % (s, name)] = int(works[ms].sum())
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def _per_op(total, n_ops):
    """Exact integer when every op did the same work, else the mean."""
    q, r = divmod(total, n_ops)
    return q if r == 0 else total / n_ops


def layer_metrics(t, n_ops):
    """Per-layer metrics per op (counts are exact integers per op)."""
    def c(name):
        return _per_op(t["calls:" + name], n_ops)

    def s(kind, name):
        return t[kind + ":" + name] / n_ops

    m = {}
    for short in ("hyp1f1", "hermite", "j0", "j0_integral", "j0_zero"):
        m["specfun.%s.calls" % short] = (c("specfun." + short), "count")
        m["specfun.%s.self_s" % short] = (s("self", "specfun." + short), "s")
    m["specfun.j1.calls"] = (c("specfun.j1"), "count")
    m["weber.basis.points"] = (_per_op(t["work:weber.basis"], n_ops),
                                "count")
    m["weber.basis.self_s"] = (s("self", "weber.basis"), "s")
    m["weber.solve_ivp.calls"] = (c("weber.solve_ivp"), "count")
    m["dynamics.run_transient.s"] = (s("dur", "dynamics.run_transient"), "s")
    m["dynamics.self_s"] = (s("self", "dynamics.run_transient"), "s")
    m["dynamics.polar_curve.calls"] = (c("dynamics.polar_curve"), "count")
    m["forced.fit.s"] = (s("dur", "forced.fit"), "s")
    m["forced.fit.basis_per_coeff"] = (
        _ratio(t["work@forced.fit:weber.basis"], t["work:forced.fit"]),
        "count/coeff")
    m["forced.root.s"] = (s("dur", "forced.root"), "s")
    m["forced.root.basis_points"] = (
        _per_op(t["work@forced.root:weber.basis"], n_ops), "count")
    m["forced.eval.s"] = (s("dur", "forced.eval"), "s")
    m["forced.eval.bessel_per_point"] = (
        _ratio(t["calls@forced.eval:specfun.j0"]
               + t["calls@forced.eval:specfun.j0_integral"],
               t["work:forced.eval"]),
        "count/point")
    m["oracle.integrate_ode.s"] = (s("dur", "oracle.integrate_ode"), "s")
    m["oracle.compare.s"] = (s("dur", "oracle.compare"), "s")
    m["cli.import_s"] = (s("dur", "cli.import"), "s")
    m["cli.write_csv.s"] = (s("dur", "cli.write_csv"), "s")
    m["cli.rows"] = (_per_op(t["work:cli.write_csv"], n_ops), "count")
    m["cli.compute_s"] = (
        (t["dur:cli.cmd"] - t["dur:cli.write_csv"]) / n_ops, "s")
    return m
