"""Run ``repro serve`` with the layer wrappers installed (traced served-mix).

Usage: ``python3 perfbench/serve.py DUMP.json [repro serve options]``.
The wrappers go in before the server spawns its worker pool.  SIGUSR1
switches recording on and SIGUSR2 off; the events are written to
``DUMP.json`` once the server has drained after SIGTERM.
"""

import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402


def main():
    dump_path, serve_args = sys.argv[1], sys.argv[2:]
    tracer = layers.Tracer()
    tracer.install()
    tracer.enabled = tracer.counting = True
    signal.signal(signal.SIGUSR1, lambda *_: setattr(tracer, "enabled", True))
    signal.signal(signal.SIGUSR2, lambda *_: setattr(tracer, "enabled", False))
    from repro.cli import main as repro_main

    code = repro_main(["serve"] + serve_args)
    tracer.enabled = tracer.counting = False
    with open(dump_path, "w") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
