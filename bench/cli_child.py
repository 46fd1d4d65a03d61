"""A traced ``lengrp`` command-line call, for the traced cli-cold run.

    python3 -X importtime bench/cli_child.py OUT SPAWN_TIME ARGV...

Behaves like ``python -m lengrp.cli ARGV...`` (same stdout, same exit code)
with every public lengrp function traced.  Writes to OUT the trace summary,
the spans, and the seconds of interpreter start-up (from SPAWN_TIME, the
parent's monotonic clock just before it started this process), of ``import
lengrp.cli`` and of ``main``.
"""
import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> int:
    out_path, spawn, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    t0 = time.perf_counter()
    import lengrp.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    tracer.phase = "run"
    t0 = time.perf_counter()
    code = lengrp.cli.main(argv)
    main_s = time.perf_counter() - t0
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump({"interpreter_s": T_START - spawn, "import_lengrp_s": import_s,
                   "main_s": main_s, "trace": tracer.summary(),
                   "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
