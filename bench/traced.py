"""Run one floodpave step with the tracer installed and write its trace.

Usage:
    python bench/traced.py TRACE_JSON cli  [floodpave CLI arguments...]
    python bench/traced.py TRACE_JSON fit  [fit_models.py arguments...]

The trace JSON holds the target, the import time of ``floodpave.cli``,
the self time of each span name and the layer counts. The exit code is the
step's own.
"""

import json
import sys
import time

started = time.perf_counter()
import floodpave.cli  # noqa: E402

import_s = time.perf_counter() - started

import fit_models  # noqa: E402
import tracer  # noqa: E402


def main(argv) -> int:
    trace_path, target, args = argv[0], argv[1], argv[2:]
    recorder = tracer.Tracer()
    tracer.install(recorder)
    try:
        code = floodpave.cli.main(args) if target == "cli" else fit_models.main(args)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(dict(recorder.summary(), import_s=import_s, target=target), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
