"""Run one windfleet CLI command in-process with every public layer traced.

    python3 bench/traced.py SPANS_JSON RUN_ID -- <windfleet arguments>

Writes the spans as JSON to SPANS_JSON when the command ends and exits with
the command's exit code.  The windfleet package must be importable (the
benchmark puts the checkout's ``src`` on PYTHONPATH).  ``run_traced`` is
shared with ``registry_gen.py``.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer


def run_traced(spans_path: str, run_id: str, name: str, fn, *args):
    """Call ``fn(*args)`` under a span ``name`` with every windfleet layer
    traced, and write all spans to ``spans_path`` when it ends."""
    tracer = Tracer(run_id)
    tracer.install()
    try:
        return tracer.wrap(name, fn)(*args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


def main(argv: list[str]) -> int:
    spans_path, run_id, sep, *command = argv
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS_JSON RUN_ID -- <windfleet arguments>")
    from windfleet import cli

    return run_traced(spans_path, run_id, "cli.main", cli.main, command)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
