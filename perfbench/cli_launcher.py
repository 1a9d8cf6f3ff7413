"""Run one evoalg command in a fresh interpreter with the tracer installed.

Usage: python cli_launcher.py DUMP_FILE COMMAND [ARG...]

Behaves like ``python -m evoalg COMMAND [ARG...]`` (same import path, stdout
and exit code) and writes the spans and counts of the run, plus the time taken by
``import evoalg.cli`` in this interpreter, to DUMP_FILE as JSON.
"""

import sys
from time import perf_counter


def main():
    dump_file, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import evoalg.cli

    import_ms = (perf_counter() - start) * 1e3
    import tracer

    trace = tracer.Tracer()
    trace.install()
    try:
        code = evoalg.cli.main(argv)
    finally:
        trace.uninstall()
        sys.stdout.flush()
        tracer.write_child_dump(trace, dump_file, import_ms=import_ms)
    return code


if __name__ == "__main__":
    sys.exit(main())
