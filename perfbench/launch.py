"""Start one eulerstab CLI command in this process.

    python perfbench/launch.py [--spans FILE] CLI_ARGS...

With PYTHONPATH pointing at src/, this behaves like
``python -m eulerstab.cli CLI_ARGS...``.  With ``--spans FILE`` the layers
are traced and the spans are written to FILE as JSON when the command ends.
"""

import sys


def main() -> int:
    args = sys.argv[1:]
    spans_path = None
    if args[:1] == ["--spans"]:
        spans_path, args = args[1], args[2:]
    from eulerstab import cli

    if spans_path is None:
        return cli.main(args)

    import json

    from tracing import Tracer, install

    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.records(), fh)


if __name__ == "__main__":
    sys.exit(main())
