"""Run ``crossrank.cli.main`` with span recording, for the traced cli run.

Usage: python3 cli_shim.py SPANS_PATH <crossrank arguments>

Writes the child's spans to SPANS_PATH and exits with the command's code.
"""
from __future__ import annotations

import sys

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from crossrank import cli
    recorder = tracing.Recorder()
    tracing.install(recorder)
    try:
        return cli.main(argv)
    finally:
        recorder.write(spans_path)


if __name__ == "__main__":
    sys.exit(main())
