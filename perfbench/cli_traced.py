"""Run one ``repro`` CLI command with its layers traced.

Usage (from the repository root, ``src`` on ``PYTHONPATH``)::

    python -m perfbench.cli_traced --out SUMMARY.json --spans SPANS.csv \
        -- figures --scale 0.1 ...

Equivalent to ``python -m repro ...`` except that it times the import of
``repro.__main__`` (``cli.import_s``), records spans around the layer
calls listed in :mod:`perfbench.spans`, and writes their summary.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from perfbench.spans import Tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    start = time.perf_counter()
    import repro.__main__ as cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(command)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    summary["cli_import_s"] = import_s
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(summary, handle)
    tracer.write(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
