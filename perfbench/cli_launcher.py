"""Traced CLI call: ``python -X importtime cli_launcher.py SPANS_FILE ARGS...``.

Imports ``resolvinv.cli`` (timed by ``-X importtime``), installs the same
wrappers as the in-process traced runs, runs ``resolvinv.cli.main(ARGS)``
inside one attempt, writes its spans to SPANS_FILE and exits with main's
return code.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import resolvinv.cli  # noqa: E402

T_IMPORTED = time.perf_counter()
import spans  # noqa: E402  (perfbench/spans.py, the script's directory)


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    spans.install(tracer)
    t_ready = time.perf_counter()
    tracer.attempt = 0
    try:
        code = resolvinv.cli.main(argv)
    finally:
        tracer.attempt = None
        Path(spans_file).write_text(json.dumps({
            "t0": T0, "t_imported": T_IMPORTED, "t_ready": t_ready,
            "file": resolvinv.__file__, "spans": tracer.spans}))
    return code


if __name__ == "__main__":
    sys.exit(main())
