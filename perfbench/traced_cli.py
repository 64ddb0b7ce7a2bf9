"""Run one ``d4kit`` CLI command with every library layer traced.

Usage: python perfbench/traced_cli.py SPANS_FILE RUN_ID -- <d4kit args...>

Installs the wrappers from ``layers.install``, runs ``d4kit.cli.run`` on
the remaining arguments under a ``cli.run`` span, writes the spans to SPANS_FILE as JSON lines and
exits with the CLI's exit code. ``d4kit`` must be importable (the benchmark
puts ``src`` on ``PYTHONPATH``).
"""

import sys

import layers
from tracer import Tracer


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: traced_cli.py SPANS_FILE RUN_ID -- ARGS...", file=sys.stderr)
        return 1
    spans_file, run_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(run_id)
    layers.install(tracer)
    from d4kit import cli

    try:
        return tracer.wrap("cli.run", cli.run)(cli_args)
    finally:
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
