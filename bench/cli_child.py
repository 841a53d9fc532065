"""One traced twinwalk CLI command, for the traced pass of cli-readme.

Usage: python bench/cli_child.py DUMP.json <twinwalk arguments...>

Imports twinwalk.cli (timed, numpy included), installs the layer tracer,
calls twinwalk.cli.main with the arguments, and writes the import time, the
time in main and the span totals to DUMP.json. Exits with main's code.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402
import twinwalk.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _START


def main() -> int:
    dump, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        return twinwalk.cli.main(argv)
    finally:
        main_s = time.perf_counter() - start
        tracer.uninstall()
        with open(dump, "w") as fh:
            json.dump({"import_s": IMPORT_S, "main_s": main_s,
                       "trace": tracer.to_obj()}, fh)


if __name__ == "__main__":
    sys.exit(main())
