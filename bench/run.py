"""lengrp benchmark: seeded workloads, checked answers, end-to-end and
per-layer metrics.

    python3 bench/run.py --workload heis-wordlen --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload

Run from the repository root; the library is loaded from ``src/``.  With
``--trace 0`` the end-to-end metrics are measured with tracing off; with
``--trace 1`` alternating untraced and traced workers give the per-layer
metrics and the tracing overhead.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines above it print every metric by name with its unit, then a
``detail`` JSON line with the environment, the input properties and the
digests.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads
from tracing import import_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_SAMPLES = 5        # set-up-only processes per run, plus the measuring one
# op_tail_ms percentile per workload: the highest of 50, 75, 90 and 99 that
# leaves at least TAIL_BEYOND ops beyond it in a run at the default
# --seconds (about 2600-3000, 150-180, 72-96 and 28-35 ops).  Fixed rather than
# recomputed per run, so that a run that fits one more pass, or a faster
# commit, is still compared at the same percentile; a run makes enough
# passes (min_passes) to keep TAIL_BEYOND ops beyond it at any --seconds.
TAIL_PERCENTILE = {"heis-wordlen": 99.0, "sdp-classify": 90.0, "sdp-evidence": 75.0,
                   "cli-cold": 50.0}
TAIL_BEYOND = 10
TRACE_PAIRS = 3          # untraced/traced worker pairs in a traced run
WORKER_TIMEOUT = 150

END_TO_END = (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    pass


# -- running workers ---------------------------------------------------------


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(workload: str, seed: int, *, seconds: float = 0.0, min_passes: int = 1,
               setup_only: bool = False, trace_out: Path | None = None) -> tuple[dict, float, str]:
    """Start one worker, wait for it, return (result, spawn time, stderr)."""
    cmd = [sys.executable]
    if trace_out is not None:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--min-passes", str(min_passes)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    spawn = time.perf_counter()
    # own process group, so that a timeout also stops cli-cold's children
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=_env(), start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT + seconds)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{workload} worker timed out")
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{stderr[-2000:]}")
    result = json.loads(stdout.strip().splitlines()[-1])
    if Path(result["lengrp_file"]).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"lengrp was imported from {result['lengrp_file']}, not from {SRC}")
    return result, spawn, stderr


def min_passes(workload: str, n: int) -> int:
    """Passes over an n-input set that leave TAIL_BEYOND ops beyond the tail
    percentile."""
    return math.ceil(TAIL_BEYOND / (n * (1 - TAIL_PERCENTILE[workload] / 100)))


def setup_times(workload: str, seed: int) -> list[float]:
    """Seconds from spawn to first timed op, once per set-up-only process.

    One discarded process first, so every sample finds the byte-code caches
    written."""
    run_worker(workload, seed, setup_only=True)
    out = []
    for _ in range(SETUP_SAMPLES):
        result, spawn, _ = run_worker(workload, seed, setup_only=True)
        out.append(result["ready"] - spawn)
    return out


# -- checking ----------------------------------------------------------------


def check(workload: str, seed: int, runs: list[dict]) -> tuple[set, set, dict]:
    """Check every op of the given worker results against the references.

    Every input is checked once, on the first answer given to it; every
    other answer to the same input must equal that one.  Returns the failed
    ops (raised, exited non-zero or answered wrong), the wrong ones, as
    (run index, op index) pairs, and the input properties of the set.
    """
    import reference

    items = workloads.generate(workload, seed)
    n = len(items)
    failed = {(ri, int(k)) for ri, res in enumerate(runs) for k in res["errors"]}
    answered = [(ri, k, ans) for ri, res in enumerate(runs)
                for k, ans in enumerate(res["answers"]) if ans is not None]
    first: dict = {}
    for _, k, ans in answered:
        first.setdefault(k % n, ans)

    if workload == "heis-wordlen":
        ref = reference.HeisDistances(max([a[0] for a in first.values()], default=1))
        bad = {i for i, (value, _) in first.items() if ref.length(*items[i]) != value}
        props = {"inputs": n,
                 "formula_path_share": sum(a[1] == "formula" for a in first.values()) / n,
                 "deep_tail_share": sum(map(workloads.is_deep, items)) / n}
    elif workload in ("sdp-classify", "sdp-evidence"):
        bad = set()
        props = Counter()
        for i, spec in enumerate(items):
            ans = first.get(i)
            report = None
            if ans is not None:
                report = ans if workload == "sdp-classify" else ans["report"]
            # an input whose op raised still counts in the properties, with
            # the reference's verdicts for an infinite order
            ref = reference.reference_report(spec, report and report["finite_order"])
            props["infinite"] += ref["finite_order"] is None
            props["unit"] += ref["has_unit_circle_eigenvalue"]
            if report is None:
                continue
            if ref != report:
                bad.add(i)
            if workload == "sdp-evidence":
                # the full dossier's verdicts equal the ones sdp-classify gets
                if (reference.evidence_problems(spec, ref, ans["evidence"])
                        or reference.classify_verdicts(spec) != report):
                    bad.add(i)
                table = ans["evidence"]["stable_length"].values()
                props["estimates"] += len(table)
                props["partial_estimates"] += sum(1 for e in table if e["partial"])
        props = {"inputs": n,
                 "infinite_order_share": props.pop("infinite") / n,
                 "unit_circle_share": props.pop("unit") / n,
                 "n_histogram": dict(sorted(Counter(s["n"] for s in items).items())),
                 "kinds": dict(Counter(s["kind"] for s in items)), **props}
    else:
        bad = set()
        paths = {}
        for i, (code, digest, _) in first.items():
            ref_code, text = reference.cli_stdout(items[i])
            if (ref_code, reference.sha256(text)) != (code, digest):
                bad.add(i)
            if items[i][0] == "wordlen" and ref_code == 0:
                paths[" ".join(items[i])] = json.loads(text)["path"]
        props = {"inputs": n, "commands": [" ".join(argv[:3]) for argv in items],
                 "wordlen_paths": paths}
    wrong = {(ri, k) for ri, k, ans in answered if k % n in bad or ans != first[k % n]}
    return failed | wrong, wrong, props


# -- metrics -------------------------------------------------------------------


def percentile(sorted_vals: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    pos = (len(sorted_vals) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def environment() -> dict:
    import mpmath
    import numpy
    import sympy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "sympy": sympy.__version__,
            "mpmath": mpmath.__version__, "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "platform": platform.platform()}


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict, int, int, bool]:
    n = len(workloads.generate(workload, seed))
    setup = setup_times(workload, seed)
    res, spawn, _ = run_worker(workload, seed, seconds=seconds,
                               min_passes=min_passes(workload, n))
    setup.append(res["ready"] - spawn)
    failed, wrong, props = check(workload, seed, [res])
    lat = sorted(res["lat"])
    tail = percentile(lat, TAIL_PERCENTILE[workload])
    beyond = [k for k, t in enumerate(res["lat"]) if t > tail]
    metrics = {
        "ops_per_s": res["ops"] / res["elapsed"],
        "op_p50_ms": percentile(lat, 50.0) * 1e3,
        "op_tail_ms": tail * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": res["children_rss_mb"] if workload == "cli-cold" else res["rss_mb"],
    }
    detail = {
        "ops": res["ops"], "passes": res["passes"], "timed_s": res["elapsed"],
        "op_tail_percentile": TAIL_PERCENTILE[workload],
        "op_tail_samples_beyond": len(beyond),
        "op_tail_inputs_beyond": len({k % n for k in beyond}),
        "setup_samples_s": setup,
        "error_rate": len(failed) / res["ops"], "wrong_answers": len(wrong),
        "errors": dict(list(res["errors"].items())[:5]),
        "properties": props,
        "input_digest": workloads.digest(workloads.generate(workload, seed)),
        # the first pass holds one answer per input of the set
        "output_digest": workloads.digest(res["answers"][:n]),
    }
    return metrics, detail, res["ops"], len(failed), not wrong


PER_LAYER_SPANS = (
    # (metric, span, field) per timed op; field 0: calls, 1: total s, 2: self s
    ("matrices.finite_order.self_s", "matrices.finite_order", 2),
    ("matrices.char_poly.calls", "matrices.char_poly", 0),
    ("matrices.char_poly.self_s", "matrices.char_poly", 2),
    ("matrices.minimal_poly.calls", "matrices.minimal_poly", 0),
    ("matrices.minimal_poly.self_s", "matrices.minimal_poly", 2),
    ("matrices.is_diagonalizable.self_s", "matrices.is_diagonalizable", 2),
    ("polynomials.is_irreducible.self_s", "polynomials.is_irreducible", 2),
    ("polynomials.has_unit_circle_eigenvalue.self_s", "polynomials.has_unit_circle_eigenvalue", 2),
    ("spectral.classify_sdp.calls", "spectral.classify_sdp", 0),
    ("spectral.classify_sdp.self_s", "spectral.classify_sdp", 2),
    ("groups.bfs_word_length.calls", "groups.bfs_word_length", 0),
    ("groups.bfs_word_length.self_s", "groups.bfs_word_length", 2),
    ("lengths.stable_length_estimate.self_s", "lengths.stable_length_estimate", 2),
    ("lengths.unit_eigen_seminorm.build_s", "lengths.unit_eigen_seminorm", 1),
    ("lengths.seminorm_eval.self_s", "lengths.seminorm_eval", 2),
    ("lengths.check_axioms.self_s", "lengths.check_axioms", 2),
    ("classify.build_dossier.self_s", "classify.build_dossier", 2),
)
PER_LAYER_COUNTERS = (  # per timed op
    "matrices.finite_order.mat_pow_calls",
    "groups.HeisenbergGroup.neighbors.calls",
    "groups.SdpGroup.neighbors.calls",
    "lengths.formula_hits",
    "lengths.oracle_hits",
)


def _merge(summaries: list[dict]) -> dict:
    """Sum trace summaries (of several processes) phase by phase."""
    stats = {"setup": {}, "run": {}}
    counters = {"setup": Counter(), "run": Counter()}
    for s in summaries:
        for phase in stats:
            for name, (calls, total, self_s) in s["stats"][phase].items():
                acc = stats[phase].setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += total
                acc[2] += self_s
            counters[phase].update(s["counters"][phase])
    return {"stats": stats, "counters": counters,
            "bfs_ball_peak_mb": max([s["bfs_ball_peak_mb"] for s in summaries], default=0.0),
            "spans": sum(s["spans"] for s in summaries),
            "dropped": sum(s["dropped"] for s in summaries)}


def traced_processes(workload: str, traced: dict, spawn: float, stderr: str) -> list[dict]:
    """Trace summary and start-up times of each traced process of a worker:
    its cli-cold children, or else the worker itself."""
    if workload != "cli-cold":
        return [{"trace": traced["trace"], "interpreter_s": traced["start"] - spawn,
                 "import_lengrp_s": traced["import_lengrp_s"],
                 "import_sympy_s": import_times(stderr).get("sympy", 0.0), "main_s": 0.0}]
    out = []
    for child in traced["children"]:
        with open(child["trace_file"]) as fh:
            data = json.load(fh)
        data["import_sympy_s"] = child["imports"].get("sympy", 0.0)
        out.append(data)
    return out


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, dict, int, int, bool]:
    """Per-layer metrics from TRACE_PAIRS pairs of an untraced and a traced
    worker, alternating which runs first; the tracing overhead is the median
    over the pairs of 1 - traced / untraced ops_per_s."""
    OUT_DIR.mkdir(exist_ok=True)
    share = seconds / (2 * TRACE_PAIRS)
    plains, traceds, processes, overheads = [], [], [], []
    for pair in range(TRACE_PAIRS):
        spans_file = OUT_DIR / f"{workload}-seed{seed}-pair{pair}-spans.json"
        for traced_run in ((False, True) if pair % 2 == 0 else (True, False)):
            if traced_run:
                traced, spawn, stderr = run_worker(workload, seed, seconds=share,
                                                   trace_out=spans_file)
                processes += traced_processes(workload, traced, spawn, stderr)
            else:
                plain, _, _ = run_worker(workload, seed, seconds=share)
        plains.append(plain)
        traceds.append(traced)
        overheads.append(1.0 - (traced["ops"] / traced["elapsed"])
                         / (plain["ops"] / plain["elapsed"]))
    failed, wrong, props = check(workload, seed, plains + traceds)
    ops = sum(t["ops"] for t in traceds)
    tr = _merge([p["trace"] for p in processes])
    process = {key: statistics.median(p[key] for p in processes)
               for key in ("interpreter_s", "import_lengrp_s", "import_sympy_s", "main_s")}
    run = tr["stats"]["run"]
    metrics = {}
    for metric, span, field in PER_LAYER_SPANS:
        metrics[metric] = run.get(span, [0, 0.0, 0.0])[field] / ops
    for counter in PER_LAYER_COUNTERS:
        metrics[counter] = tr["counters"]["run"][counter] / ops
    hits = metrics["lengths.formula_hits"] + metrics["lengths.oracle_hits"]
    metrics["lengths.formula_hit_ratio"] = metrics["lengths.formula_hits"] / hits if hits else 0.0
    # bfs_ball is set-up work in heis-wordlen: report it per call, both phases
    ball = [tr["stats"][ph].get("groups.bfs_ball", [0, 0.0, 0.0]) for ph in ("setup", "run")]
    ball_calls = ball[0][0] + ball[1][0]
    states = tr["counters"]["setup"]["groups.bfs_ball.states"] + tr["counters"]["run"]["groups.bfs_ball.states"]
    metrics["groups.bfs_ball.self_s"] = (ball[0][2] + ball[1][2]) / ball_calls if ball_calls else 0.0
    metrics["groups.bfs_ball.states"] = states / ball_calls if ball_calls else 0.0
    metrics["groups.bfs_ball.peak_alloc_mb"] = tr["bfs_ball_peak_mb"]
    estimates = tr["counters"]["run"]["classify.estimates"]
    metrics["classify.partial_estimates"] = (tr["counters"]["run"]["classify.partial_entries"]
                                             / estimates if estimates else 0.0)
    for key, value in process.items():
        metrics[f"cli.{key}"] = value
    plain_ops = sum(p["ops"] for p in plains)
    metrics["trace.ops_per_s"] = ops / sum(t["elapsed"] for t in traceds)
    metrics["trace.overhead"] = statistics.median(overheads)
    detail = {
        "ops": ops, "untraced_ops": plain_ops,
        "untraced_ops_per_s": plain_ops / sum(p["elapsed"] for p in plains),
        "trace_overhead_per_pair": overheads,
        "spans": tr["spans"], "spans_dropped": tr["dropped"], "spans_dir": str(OUT_DIR),
        "error_rate": len(failed) / (plain_ops + ops), "wrong_answers": len(wrong),
        "properties": props,
    }
    return metrics, detail, plain_ops + ops, len(failed), not wrong


PER_LAYER_UNITS = {"calls": "count/op", "self_s": "s/op", "build_s": "s/op",
                   "mat_pow_calls": "count/op", "formula_hits": "count/op",
                   "oracle_hits": "count/op", "formula_hit_ratio": "ratio",
                   "partial_estimates": "ratio", "peak_alloc_mb": "MB",
                   "overhead": "ratio", "ops_per_s": "1/s"}


def unit_of(metric: str) -> str:
    if metric.startswith("groups.bfs_ball."):
        return {"self_s": "s/call", "states": "states/call", "peak_alloc_mb": "MB"}[
            metric.rsplit(".", 1)[1]]
    if metric.startswith("cli."):
        return "s"
    return PER_LAYER_UNITS[metric.rsplit(".", 1)[1]]


# -- entry point -----------------------------------------------------------------


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        metrics, detail, attempted, failed, correct = per_layer(workload, seed, seconds)
        units = {m: unit_of(m) for m in metrics}
    else:
        metrics, detail, attempted, failed, correct = end_to_end(workload, seed, seconds)
        units = dict(END_TO_END)
    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:14.6g} {units[name]}")
    print(f"  {'error_rate':48s} {detail['error_rate']:14.6g} ratio"
          f"  ({failed} failed of {attempted} attempted)")
    if not trace:
        print(f"  op_tail_ms is p{detail['op_tail_percentile']:g} of {detail['ops']} ops;"
              f" {detail['op_tail_samples_beyond']} ops of"
              f" {detail['op_tail_inputs_beyond']} inputs lie beyond it")
    detail["environment"] = environment()
    print("detail " + json.dumps(detail, sort_keys=True))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "lengrp" / "__init__.py").is_file():
        print(f"bench: no lengrp sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the CLI check calls lengrp.cli.main in-process
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_one(name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{m}": v for name, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
