"""Run one mgl CLI command in this fresh process and record how long it took.

Usage: python3 child.py SRC_DIR RECORD_JSON TRACE -- <mgl arguments>

The clock starts after the interpreter has started and `mgl.cli` (with
numpy and scipy) has been imported, and stops when `mgl.cli.run` returns,
that is after the report has been written. With TRACE=1 the layer
wrappers of spans.py are installed first and every span is written to the
record. The record is a side channel: the mgl report itself is untouched.
"""

import json
import platform
import sys
import time


def main() -> int:
    src, record_path, trace = sys.argv[1:4]
    if sys.argv[4] != "--":
        raise SystemExit("usage: child.py SRC_DIR RECORD_JSON TRACE -- ARGS")
    argv = sys.argv[5:]
    sys.path.insert(0, src)

    import mgl.cli
    import numpy
    import scipy

    tracer = None
    if trace == "1":
        import spans

        tracer = spans.Tracer()
        tracer.install()

    start = time.perf_counter()
    code = mgl.cli.run(argv)
    command_s = time.perf_counter() - start

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    record = {
        "command_s": command_s,
        "versions": {
            "mgl": mgl.__version__,
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
            "blas": f"{blas.get('name')} {blas.get('version')}",
        },
    }
    if tracer is not None:
        record["spans"] = tracer.spans
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
