"""``repro serve`` with content keying and store I/O traced.

Usage: ``python perfbench/serve_child.py SPANS_JSON serve [serve args]``.
The traced benchmark run starts the daemon through this wrapper; at exit
it writes the daemon's spans and counters to ``SPANS_JSON``.
"""

from __future__ import annotations

import atexit
import json
import sys
from pathlib import Path

from spans import Tracer, install_orchestrate


def main() -> int:
    out = Path(sys.argv[1])
    import repro.serve.service  # noqa: F401 - so its cache_key is traced
    from repro.cli import main as cli_main

    tracer = Tracer()
    install_orchestrate(tracer)
    atexit.register(lambda: out.write_text(json.dumps(tracer.export())))
    return cli_main(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
