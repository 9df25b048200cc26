"""Benchmark entry point for speclocaliser.

    python3 perfbench/run.py --workload qwz-scan --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  The workload's inputs are generated from
--seed; rounds of the workload then run back to back, each in a fresh
process (round.py), as a closed loop with one client, until --seconds have
passed and at least two rounds have run.  Every answer is checked against
the library's independent oracles.  The last line of standard output is one
JSON object: the end-to-end metrics of BENCHMARK.json (--trace 0), or its
per-layer metrics from traced rounds alternated with untraced ones
(--trace 1).  A readable table goes to standard error and the full record,
environment included, to perfbench/out/.  Exit status: 0 when every answer
is right, 1 when one is wrong, 2 when the library sources are missing, 3
when a round crashes or overruns.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_ROUNDS = 2
TIME_LIMIT_S = 170.0  # the whole run, started rounds included
ROUND_TIMEOUT_S = 150.0
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def make_inputs(workload: str, seed: int) -> tuple[dict, random.Random]:
    """Everything the library receives, drawn from the seed alone.

    The returned generator, seeded the same way, draws each round's job order.
    """
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "qwz-scan":
        masses = [1.0 + rng.uniform(-0.2, 0.2), 3.0 + rng.uniform(-0.2, 0.2)]
        order = [[i, k, r] for i in range(2) for k in (0.5, 1.0) for r in (5.5, 6.5)]
        return {"box": 10, "masses": masses, "order": order,
                "probe": {"box": 12, "mass": masses[0], "kappa": 1.0, "rho": 6.5}}, rng
    if workload == "circle-window":
        symbols = [{"c0": rng.uniform(0.3, 0.7), "winding": rng.choice((-2, -1, 1, 2))}
                   for _ in range(2)]
        order = [[i, k, r] for i in range(2) for k in (0.02, 0.05) for r in (125.5, 218.5)]
        return {"modes": 250, "symbols": symbols, "order": order,
                "contrast": [rng.randrange(2), 0.05, 218.5]}, rng
    if workload == "sf-sweep":
        # the harness runs the jobs in sorted order, so there is no order to draw
        mass = 1.0 + rng.uniform(-0.2, 0.2)
        return {"spec": "qwz:box=8,mass=%r" % mass, "kappas": [0.8, 0.9, 1.0, 1.1],
                "rhos": [3.5, 4.5], "grid": 33}, rng
    raise ValueError("unknown workload %r" % workload)


WORKLOADS = ("qwz-scan", "circle-window", "sf-sweep")


def run_round(workload: str, inputs: dict, tag: str, traced: bool, timeout: float) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    if workload == "sf-sweep":
        # one BLAS thread per process, so two workers use no more threads than cores
        env.update(PINNED_THREADS)
    trace_dir = OUT / ("trace-" + tag)
    shutil.rmtree(trace_dir, ignore_errors=True)
    env.pop(tracer.TRACE_ENV, None)
    if traced:
        env[tracer.TRACE_ENV] = str(trace_dir)
    cmd = [sys.executable, str(HERE / "round.py"), "--workload", workload,
           "--out-dir", str(OUT / ("round-" + tag))]
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(json.dumps(inputs), timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the round and its pool workers
        proc.communicate()
        raise RuntimeError("round %s overran %.0f s" % (tag, timeout))
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    if proc.returncode != 0 or not stdout.strip():
        raise RuntimeError("round %s exited %d:\n%s" % (tag, proc.returncode, stderr[-4000:]))
    result = json.loads(stdout.strip().splitlines()[-1])
    result["traced"] = traced
    return result


def end_to_end(rounds: list[dict]) -> dict:
    med = statistics.median
    main_ops = [[op["seconds"] for op in r["main_ops"]] for r in rounds]
    return {
        "setup_s": med(r["setup_s"] for r in rounds),
        "run_s": med(r["run_s"] for r in rounds),
        "main_s": med(r["main_s"] for r in rounds),
        "contrast_s": med(r["contrast_s"] for r in rounds),
        "op_p50_s": med(t for ops in main_ops for t in ops),
        "op_max_s": med(max(ops) for ops in main_ops),
        "peak_rss_mb": med(r["rss_self_mb"] + r["rss_children_mb"] for r in rounds),
    }


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return {"models.operator_bytes": "bytes", "trace.coverage": "ratio"}.get(name, "count")


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in traced[0]["layers"]}
    out["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                               - statistics.median(r["run_s"] for r in untraced))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()

    if not (ROOT / "src" / "speclocaliser" / "__init__.py").is_file():
        print("speclocaliser sources not found under %s; run from a full checkout"
              % (ROOT / "src"), file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    inputs, rng = make_inputs(args.workload, args.seed)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    rounds: list[dict] = []
    walls: list[float] = []
    t0 = time.monotonic()
    try:
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 0
            if "order" in inputs:
                # a new job order each round, so that no one order's cache
                # hits decide the per-operation metrics
                rng.shuffle(inputs["order"])
            budget = TIME_LIMIT_S - (time.monotonic() - started)
            t_round = time.monotonic()
            result = run_round(args.workload, inputs, "%s-r%d" % (tag, len(rounds)),
                               traced, min(ROUND_TIMEOUT_S, budget))
            result["inputs"] = json.loads(json.dumps(inputs))
            rounds.append(result)
            walls.append(time.monotonic() - t_round)
            # start another round when it would end nearer --seconds than this one did
            if len(rounds) >= MIN_ROUNDS and time.monotonic() - t0 + walls[-1] / 2 > args.seconds:
                break
            enough = len(rounds) >= (2 if args.trace else 1)  # traced runs need an untraced round
            if enough and time.monotonic() - started + 1.5 * max(walls) > TIME_LIMIT_S:
                break
    except RuntimeError as exc:
        print("benchmark aborted: %s" % exc, file=sys.stderr)
        return 3

    untraced = [r for r in rounds if not r["traced"]]
    traced_rounds = [r for r in rounds if r["traced"]]
    values = per_layer(traced_rounds, untraced) if args.trace else end_to_end(untraced)
    ops = [op for r in rounds for op in r["main_ops"] + r["contrast_ops"]]
    failed = [op for op in ops if not op["ok"]]

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": rounds, "metrics": values,
              "attempted": len(ops), "failed": len(failed),
              "fail_frac": len(failed) / len(ops)}
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / (tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)

    env = rounds[0]["env"]
    print("%s seed %d: %d rounds (%d traced); python %s, numpy %s, scipy %s, %s %s, nproc %d, "
          "threads %s; peak RSS per round %s MB (own + largest child)"
          % (args.workload, args.seed, len(rounds), len(traced_rounds), env["python"],
             env["numpy"], env["scipy"], env["blas"]["name"], env["blas"]["version"],
             env["nproc"], env["threads"],
             ", ".join("%.0f + %.0f" % (r["rss_self_mb"], r["rss_children_mb"]) for r in rounds)),
          file=sys.stderr)
    for name in sorted(values):
        print("  %-42s %12.6g %s" % (name, values[name], unit_of(name)), file=sys.stderr)
    print("  %-42s %12.6g failed/ops (%d of %d)" % ("fail_frac", record["fail_frac"],
                                                    len(failed), len(ops)), file=sys.stderr)
    for op in failed:
        print("  FAILED %s: %s" % (op["label"], op.get("error") or op), file=sys.stderr)

    mismatched = [m["name"] for m in wanted
                  if m["name"] not in values or m["unit"] != unit_of(m["name"])]
    if mismatched:
        print("BENCHMARK.json lists metrics this benchmark does not produce as listed: %s"
              % mismatched, file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": values[m["name"]], "unit": unit_of(m["name"])} for m in wanted}
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
