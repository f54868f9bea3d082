"""Traced CLI process: installs the span wrappers, then runs the CLI.

    python clilaunch.py SPANS_JSON <l1minimax CLI arguments>

Behaves like `python -m l1minimax <arguments>` and, on exit, writes the
span totals of this process to SPANS_JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import spans


def main() -> int:
    spans_file = Path(sys.argv[1])
    import l1minimax.cli

    tracer = spans.Tracer()
    tracer.install()
    try:
        code = l1minimax.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        spans_file.write_text(json.dumps({"totals": tracer.totals(), "absent": tracer.absent,
                                          "counter_errors": tracer.counter_errors}))
    return code


if __name__ == "__main__":
    sys.exit(main())
