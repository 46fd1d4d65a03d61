"""Run the benchmark over a seed set and write a BENCH_<label>.json summary.

    python3 bench/baseline.py --label baseline            # seeds 1-10, all workloads
    python3 bench/baseline.py --label mychange --workloads sdp-classify --seeds 1,2,3

For every workload: one untraced run per seed, the median and quartile
spread (interquartile range / median) of each end-to-end metric, one traced
run (seed 1) for the per-layer metrics, a repeat of seed 1 to confirm the
input and output digests, and one run on the held-out seed 1001.  Runs one
process at a time; about 30 s per run at the default 20 s.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
HELD_OUT_SEED = 1001


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", repr(seconds),
                           "--trace", str(trace)],
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(next(line for line in lines if line.startswith("detail "))[7:])
    return {"seed": seed, "trace": trace, "result": result, "detail": detail}


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--label", required=True)
    p.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    p.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    p.add_argument("--seconds", type=float, default=20.0)
    args = p.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    out = {"label": args.label, "seconds": args.seconds, "seeds": seeds,
           "held_out_seed": HELD_OUT_SEED, "started": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                                                    time.gmtime()),
           "workloads": {}}
    for name in args.workloads.split(","):
        runs = [run(name, s, args.seconds, 0) for s in seeds]
        repeat = run(name, seeds[0], args.seconds, 0)
        held_out = run(name, HELD_OUT_SEED, args.seconds, 0)
        traced = run(name, seeds[0], args.seconds, 1)
        metrics = {m: spread([r["result"]["metrics"][m]["value"] for r in runs])
                   for m in runs[0]["result"]["metrics"]}
        first = runs[0]["detail"]
        out["workloads"][name] = {
            "end_to_end": metrics,
            "units": {m: v["unit"] for m, v in runs[0]["result"]["metrics"].items()},
            "error_rate": sum(r["result"]["failed"] for r in runs)
            / sum(r["result"]["attempted"] for r in runs),
            "all_correct": all(r["result"]["correct"] for r in runs),
            "determinism": {
                "input_digest": [first["input_digest"], repeat["detail"]["input_digest"]],
                "output_digest": [first["output_digest"], repeat["detail"]["output_digest"]],
                "same": (first["input_digest"] == repeat["detail"]["input_digest"]
                         and first["output_digest"] == repeat["detail"]["output_digest"]),
            },
            "held_out": {"seed": HELD_OUT_SEED,
                         "metrics": {m: v["value"] for m, v in
                                     held_out["result"]["metrics"].items()},
                         "input_digest": held_out["detail"]["input_digest"],
                         "output_digest": held_out["detail"]["output_digest"]},
            "per_layer": {m: v["value"] for m, v in traced["result"]["metrics"].items()},
            "runs": [{"seed": r["seed"],
                      "metrics": {m: v["value"] for m, v in r["result"]["metrics"].items()},
                      "ops": r["detail"]["ops"], "passes": r["detail"]["passes"],
                      "op_tail_percentile": r["detail"]["op_tail_percentile"],
                      "op_tail_samples_beyond": r["detail"]["op_tail_samples_beyond"],
                      "op_tail_inputs_beyond": r["detail"]["op_tail_inputs_beyond"],
                      "properties": r["detail"]["properties"]} for r in runs],
        }
        out["environment"] = first["environment"]
        print(name, {m: f"{v['median']:.4g} ({v['spread']:.3f})" for m, v in metrics.items()},
              flush=True)
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
