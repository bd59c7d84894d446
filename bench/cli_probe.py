"""Run the spacelike CLI once under the tracer and write its spans.

    python3 bench/cli_probe.py SPANS_JSON CLI_ARGS...

The traced run of ``cli_files`` launches this in place of
``python -m spacelike.cli``; the parent absorbs SPANS_JSON afterwards.
"""

import sys

from spacelike import cli

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.wrap("cli.main", cli.main)(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
