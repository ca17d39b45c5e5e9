"""Start ``repro serve`` through the CLI's public ``main``.

Usage: ``python perfbench/serve.py [--trace-dump OUT.json] serve ...``.

SIGINT is the server's clean shutdown, so it is restored to Python's
default handler first: a process started in the background of a
non-interactive shell inherits SIGINT as ignored.  With
``--trace-dump``, the benchmark's layer wrappers
(:func:`tracing.install_layers`) and the program's own
``repro.obs.spans`` are switched on, and on shutdown the spans and
counts are written to ``OUT.json`` and the program's spans to
``OUT.chrome.json``.  On the way out the server's ``multiprocessing``
resource tracker is stopped and waited for, so no process outlives it.
"""

from __future__ import annotations

import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main(argv: list[str]) -> int:
    from common import stop_resource_tracker

    try:
        return _serve(argv)
    finally:
        stop_resource_tracker()


def _serve(argv: list[str]) -> int:
    signal.signal(signal.SIGINT, signal.default_int_handler)
    from repro.cli import main as repro_main

    if argv[0] != "--trace-dump":
        return repro_main(argv)
    out, cli_args = argv[1], argv[2:]
    from repro.obs import spans
    from tracing import Tracer, install_layers

    tracer = Tracer()
    install_layers(tracer)
    spans.enable()
    try:
        return repro_main(cli_args)
    finally:
        spans.disable()
        with open(out, "w") as fh:
            json.dump(tracer.dump(), fh)
        spans.write_chrome_trace(out.replace(".json", ".chrome.json"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
