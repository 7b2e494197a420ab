"""Traced replay: run one lohe-sync subcommand in this process with a span
around every call into each layer, then write the spans as JSON.

    python bench/replay.py SPANS_JSON SUBCOMMAND --scenario FILE --out DIR --threads 1

Everything after SPANS_JSON is passed to the CLI unchanged, so the replay does
the same work as `python -m lohe_sync ...`. Run it with the repository's src
directory on PYTHONPATH. Exits with the CLI's exit code.
"""

import sys

from tracing import Tracer, instrument


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer("replay")
    from lohe_sync import cli

    instrument(tracer)
    try:
        with tracer.span("cli.main", "cli"):
            return cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
