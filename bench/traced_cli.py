"""Run one ``trip`` command under the tracer and save its spans.

    python3 bench/traced_cli.py SPANS_OUT PHASE <trip arguments...>

Behaves like ``python -m trip.cli <trip arguments...>``; the spans, tagged
with PHASE and the command name, go to SPANS_OUT as JSON.
"""

import json
import sys

import trip.cli

from tracer import Tracer


def main() -> int:
    spans_path, phase, *argv = sys.argv[1:]
    tracer = Tracer().install()
    tracer.phase, tracer.op = phase, argv[0]
    try:
        return trip.cli.main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"missing": tracer.missing, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
