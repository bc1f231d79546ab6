"""Run ``repro serve`` with outside-in tracing.

Usage: ``python3 perfbench/traced_serve.py SPANS_JSON serve ARGS...``

Wraps the public entry points named by the per-layer metrics (see
:mod:`spans`), hands control to the unmodified ``repro.cli.main``, and
writes the collected spans to ``SPANS_JSON`` when the server exits.
"""

import sys

import spans


def main(argv) -> int:
    from repro import cli

    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        return cli.main(argv[1:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
