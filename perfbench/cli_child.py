"""Traced stand-in for `python -m qlike`.

    python3 perfbench/cli_child.py TRACE_FILE ITEM QLIKE_ARGS...

Imports qlike and runs its command-line `main` exactly as `python -m qlike`
does, with the benchmark's tracer installed after the import.  The import
and `main` are timed from inside the process; the trace goes to TRACE_FILE,
and stdout and the exit code are those of the command.
"""

import json
import sys
import time

from tracer import Tracer


def main():
    trace_file, item, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    start = time.perf_counter()
    import qlike.cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    tracer.begin_item(item)
    start = time.perf_counter()
    code = qlike.cli.main(argv)
    main_s = time.perf_counter() - start
    sys.stdout.flush()
    tracer.counters["cli.import_s"] = import_s
    tracer.counters["cli.main_s"] = main_s
    with open(trace_file, "w") as fh:
        json.dump(tracer.raw(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
