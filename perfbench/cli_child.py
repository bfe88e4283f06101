"""One extrig CLI command with spans recorded: the traced form of ``python -m extrig.cli``.

Usage: python3 cli_child.py SPANS_JSON COMMAND [ARG...]

``cli.import`` times ``import extrig.cli`` before the tracer itself is
imported, so the tracer's own imports do not count towards it.
"""
import sys
import time

start = time.perf_counter()
import extrig.cli  # noqa: E402

end = time.perf_counter()

from spans import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.record_span("cli.import", start, end)
    tracer.install()
    try:
        return extrig.cli.main(sys.argv[2:])
    except SystemExit as exc:
        return exc.code
    finally:
        tracer.remove()
        tracer.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
