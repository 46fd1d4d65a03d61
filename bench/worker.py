"""One fresh process of the system under test.

Set-up (import lengrp, generate the inputs, pay lazy set-up), then a closed
loop with one caller that runs the input set in passes, in the same order
each pass, until ``--seconds`` of wall time have passed (at least
``--min-passes`` passes).  Prints one JSON object on stdout: the moment
set-up finished (on the machine-wide monotonic clock, so the parent can
subtract its spawn time), per-op latencies, answers, failures and peak RSS.
Checking the answers is left to the parent, outside this process and outside
the timed loop.

Run by ``run.py``; by hand:
    PYTHONPATH=src python3 bench/worker.py --workload heis-wordlen --seed 1 --seconds 5 --min-passes 3
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time

T_START = time.perf_counter()

import workloads  # noqa: E402  (timed as part of set-up on purpose)
from tracing import import_times  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


class Workload:
    """Turns generated inputs into library objects and runs single ops."""

    def __init__(self, name: str, seed: int, trace_dir: str | None):
        self.name = name
        self.items = workloads.generate(name, seed)
        self.trace_dir = trace_dir
        self.child_traces: list[str] = []
        if name == "heis-wordlen":
            from lengrp import HeisElem, HeisWordOracle

            self.oracle = HeisWordOracle()
            # the r=18 ball cache is built on the first fallback query; every
            # process that answers queries pays it once
            self.oracle.word_length(HeisElem(2, 1, 2))
            self.inputs = [HeisElem(*q) for q in self.items]
        elif name in ("sdp-classify", "sdp-evidence"):
            from lengrp import IntMatrix, build_dossier

            self.build_dossier = build_dossier
            self.level = "none" if name == "sdp-classify" else "full"
            self.inputs = [IntMatrix.from_rows(spec["rows"]) for spec in self.items]
        else:
            self.inputs = self.items
            self.env = dict(os.environ)

    def op(self, item, index: int):
        if self.name == "heis-wordlen":
            return self.oracle.word_length(item)
        if self.name != "cli-cold":
            return self.build_dossier(item, self.level)
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "lengrp.cli", *item]
        else:
            out = os.path.join(self.trace_dir, f"cli-{index}.json")
            self.child_traces.append(out)
            cmd = [sys.executable, "-X", "importtime",
                   os.path.join(HERE, "cli_child.py"), out, repr(time.perf_counter()), *item]
        return subprocess.run(cmd, capture_output=True, env=self.env, timeout=120)

    def answer(self, result):
        """JSON form of an op's result, computed after the op's timer stops."""
        if self.name == "heis-wordlen":
            return [result.value, result.path]
        if self.name == "sdp-classify":
            return result.report.to_json_dict()
        if self.name == "sdp-evidence":
            d = result.to_json_dict()
            return {"report": d["report"], "evidence": d["evidence"]}
        stderr = result.stderr.decode(errors="replace")[-300:] if result.returncode else ""
        return [result.returncode, hashlib.sha256(result.stdout).hexdigest(), stderr]


def run_loop(wl: Workload, seconds: float, min_passes: int) -> dict:
    lat: list[float] = []
    results: list = []
    errors: dict[int, str] = {}
    k = 0
    start = time.perf_counter()
    passes = 0
    while passes < min_passes or time.perf_counter() - start < seconds:
        for item in wl.inputs:
            t0 = time.perf_counter()
            try:
                res = wl.op(item, k)
            except Exception as exc:  # a raising op is a failed op, not a crash
                res = None
                errors[k] = f"{type(exc).__name__}: {exc}"[:300]
            lat.append(time.perf_counter() - t0)
            results.append(res)
            k += 1
        passes += 1
    elapsed = time.perf_counter() - start
    answers = [None if res is None else wl.answer(res) for res in results]
    children = []
    for i, (res, ans) in enumerate(zip(results, answers)):
        if wl.name != "cli-cold" or res is None:
            continue
        if ans[0] != 0:
            errors.setdefault(i, f"exit code {ans[0]}: {ans[2]}")
        if wl.trace_dir is not None:
            children.append({"trace_file": wl.child_traces[i],
                             "imports": import_times(res.stderr.decode(errors="replace"))})
    return {"children": children, "ops": k, "passes": passes, "elapsed": elapsed,
            "lat": lat, "answers": answers, "errors": {str(i): e for i, e in errors.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--min-passes", type=int, default=1)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace-out", default=None,
                   help="trace the run; write spans to this file")
    args = p.parse_args(argv)

    tracer = None
    t_import = time.perf_counter()
    import lengrp

    import_s = time.perf_counter() - t_import
    if args.trace_out:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    trace_dir = os.path.dirname(args.trace_out) if args.trace_out else None
    wl = Workload(args.workload, args.seed, trace_dir)
    ready = time.perf_counter()
    out = {"start": T_START, "ready": ready, "import_lengrp_s": import_s,
           "lengrp_file": lengrp.__file__}
    if not args.setup_only:
        if tracer is not None:
            tracer.phase = "run"
        out.update(run_loop(wl, args.seconds, args.min_passes))
        out["rss_mb"] = _rss_mb(resource.RUSAGE_SELF)
        out["children_rss_mb"] = _rss_mb(resource.RUSAGE_CHILDREN)
        if tracer is not None:
            out["trace"] = tracer.summary()
            tracer.write_spans(args.trace_out)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
