"""Timing comparison of the compiled kernel extension vs the pure-Python twin.

Run from the repository root:

    python3 benchmarks/bench_kernels.py

Each workload is timed over repeated calls on both backends (loaded
side by side; the WEBEROSC_PURE switch only matters for the package's
own import-time selection, not here) and the speedup is reported.
"""

import math
import time

from weberosc import _kernels_py as pure

try:
    from weberosc import _kernels as compiled
except ImportError:
    compiled = None

MAX_TERMS = 500
REL_TOL = 1e-14


def _bench(fn, args_list, repeats):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        for args in args_list:
            fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best / len(args_list)


def main():
    workloads = [
        ("1F1, moderate argument",
         "hyp1f1",
         [(-7.875, 0.5, z, MAX_TERMS, REL_TOL)
          for z in (0.5, 3.0, 8.0, 12.0)]),
        ("1F1, cancelling (double-double rerun)",
         "hyp1f1",
         [(-7.875, 0.5, z, MAX_TERMS, REL_TOL)
          for z in (30.0, 60.0, 90.0, 120.0)]),
        ("Hermite function, real order",
         "hermite",
         [(16.25, z, MAX_TERMS, REL_TOL)
          for z in (-5.5, -2.0, 0.3, 2.5)]),
        ("1F2 at large negative argument",
         "hyp1f2",
         [(0.5, 1.0, 1.5, z, MAX_TERMS, REL_TOL)
          for z in (-9.0, -36.0, -81.0, -100.0)]),
        ("J0 integral",
         "j0_integral",
         [(z,) for z in (0.7, 5.0, 40.0, 156.0)]),
    ]
    if compiled is None:
        print("compiled extension not available; timing pure Python only")
    print("%-42s %12s %12s %9s"
          % ("workload", "pure [us]", "compiled [us]", "speedup"))
    for label, name, args_list in workloads:
        t_pure = _bench(getattr(pure, name), args_list, repeats=200)
        if compiled is None:
            print("%-42s %12.2f %12s %9s"
                  % (label, t_pure * 1e6, "-", "-"))
            continue
        t_comp = _bench(getattr(compiled, name), args_list, repeats=200)
        print("%-42s %12.2f %12.2f %8.1fx"
              % (label, t_pure * 1e6, t_comp * 1e6, t_pure / t_comp))


if __name__ == "__main__":
    main()
