"""Run one ``weberosc.cli`` command with the span tracer installed.

    python3 perfbench/trace_child.py SPANS.npz -- transient --preset I

Behaves as ``python -m weberosc.cli <args>`` and exits with its code.  In
addition it records the import of ``weberosc.cli`` in this fresh process
as a ``cli.import`` span and saves every span to SPANS.npz.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402  (stdlib only, so the import below stays cold)


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: trace_child.py SPANS.npz -- <weberosc args>",
              file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    tr = tracer.Tracer()
    t0 = time.perf_counter()
    import weberosc.cli as cli
    tr.add_span("cli.import", t0, time.perf_counter())
    try:
        with tr.installed():
            return cli.main(cli_args)
    finally:
        tr.save(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
