"""Runs ``altseries.cli`` in this process with the tracer installed.

Usage: python3 perfbench/launcher.py SPANS_PATH CLI_ARG...

Behaves like ``python -m altseries.cli CLI_ARG...`` (same output, same
exit code) and writes the process's spans, error counts and the time taken
to import ``altseries.cli`` to SPANS_PATH as JSON.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    from altseries import cli
    import_s = perf_counter() - start

    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.call("cli.main", cli.main, argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump(dict(tracer.dump(), import_s=import_s), fh)


if __name__ == "__main__":
    sys.exit(main())
