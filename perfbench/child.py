"""Traced child process of the benchmark.

``child.py <spans prefix> <lybandit arguments...>`` runs the lybandit CLI in
this process with the tracer installed and writes the spans under the prefix
at exit.  The package is imported from ``src/`` of the checkout
(``PYTHONPATH``).
"""

from __future__ import annotations

import sys
from pathlib import Path

import tracer as tracing


def main(argv: list[str]) -> int:
    prefix, cli_args = Path(argv[0]), argv[1:]
    tracer = tracing.Tracer()
    tracer.install()
    from lybandit import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.dump(prefix)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
