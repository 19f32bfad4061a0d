"""Launch ``python -m repro.service`` with layer spans recorded.

Usage::

    python perfbench/traced_server.py --spans-out PATH -- [service args]

Installs the server-side wrappers of :mod:`spans` (registry, protocol,
prover methods, field backend), then hands the remaining arguments to
``repro.service.__main__.main`` — the same entry point an untraced run
starts, in the same process layout.  When the node stops (SIGINT), the
recorded spans are written to ``PATH`` as JSON.
"""

from __future__ import annotations

import sys

import spans


def main(argv) -> int:
    if len(argv) < 3 or argv[0] != "--spans-out" or argv[2] != "--":
        print("usage: traced_server.py --spans-out PATH -- [service args]",
              file=sys.stderr)
        return 2
    out_path, service_args = argv[1], argv[3:]
    recorder = spans.SpanRecorder()
    spans.install_server_wrappers(recorder)
    from repro.service.__main__ import main as service_main

    try:
        return service_main(service_args)
    finally:
        recorder.dump(out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
