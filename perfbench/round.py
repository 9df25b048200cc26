"""One benchmark round in a fresh process: import, set up, time, check.

``run.py`` starts this script once per round with the workload's generated
inputs as JSON on stdin.  A fresh process per round makes every round pay
the same cold costs: the import, the model builds and the lazily computed
``[D, K]`` norms, which the library otherwise keeps for the life of the
process.  The last line of standard output is one JSON object with the
round's timings, its operations and their check results, peak RSS and the
environment.  When ``PERFBENCH_TRACE_DIR`` is set, library calls are traced
and the per-layer summary is added.

Untraced rounds use only names exported from ``speclocaliser``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import speclocaliser as sl  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracer  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Installed at import so that pool workers started with the spawn method,
# which import this file as __mp_main__, are traced as well.
TRACER = None
if os.environ.get(tracer.TRACE_ENV):
    TRACER = tracer.Tracer(os.environ[tracer.TRACE_ENV])
    TRACER.install()


def _op(label: str, fn, *args, **kwargs) -> dict:
    """Time one library call; errors are recorded, never raised."""
    t0 = time.perf_counter()
    try:
        res = fn(*args, **kwargs)
    except Exception as exc:  # a raising operation counts as failed
        return {"label": label, "seconds": time.perf_counter() - t0,
                "error": "%s: %s" % (type(exc).__name__, exc)}
    return {"label": label, "seconds": time.perf_counter() - t0,
            "pairing": res.pairing, "violations": list(res.violations)}


def _check_pairings(ops: list[dict], expected: dict) -> None:
    for op in ops:
        want = expected[op.pop("model")]
        op["expected"] = want
        op["ok"] = ("error" not in op and op["pairing"] == want
                    and not op["violations"])


def qwz_scan(inp: dict, out_dir: Path) -> dict:
    """Certified even pairings on two lattice models, then a lean larger box."""
    models = [sl.build_qwz_model(inp["box"], mass) for mass in inp["masses"]]
    probe = inp["probe"]
    probe_model = sl.build_qwz_model(probe["box"], probe["mass"])
    t_run = time.perf_counter()
    main = []
    for i, kappa, rho in inp["order"]:
        # the scan keeps the pairs past the endpoint condition kappa*rho > ||K||
        if kappa * rho <= models[i].k_norm():
            continue
        op = _op("box=%d m=%.4f k=%g r=%g" % (inp["box"], inp["masses"][i], kappa, rho),
                 sl.pairing_even, models[i], sl.LocaliserParams(kappa, rho))
        op["model"] = i
        main.append(op)
    t_contrast = time.perf_counter()
    contrast = _op("lean box=%d m=%.4f k=%g r=%g" % (probe["box"], probe["mass"],
                                                    probe["kappa"], probe["rho"]),
                   sl.pairing_even, probe_model,
                   sl.LocaliserParams(probe["kappa"], probe["rho"]), certificates=False)
    contrast["model"] = "probe"
    t_end = time.perf_counter()
    expected = {i: sl.oracle_pairing(m) for i, m in enumerate(models)}
    expected["probe"] = sl.oracle_pairing(probe_model)
    _check_pairings(main + [contrast], expected)
    return {"t_run": t_run, "t_end": t_end, "main_s": t_contrast - t_run,
            "contrast_s": t_end - t_contrast, "main_ops": main, "contrast_ops": [contrast]}


def circle_window(inp: dict, out_dir: Path) -> dict:
    """Certified odd pairings on two loop symbols, then one lean largest window."""
    models = [sl.build_circle_model(inp["modes"], {0: s["c0"], s["winding"]: 1.0})
              for s in inp["symbols"]]
    t_run = time.perf_counter()
    main = []
    for i, kappa, rho in inp["order"]:
        sym = inp["symbols"][i]
        op = _op("c0=%.4f w=%d k=%g r=%g" % (sym["c0"], sym["winding"], kappa, rho),
                 sl.pairing_odd, models[i], sl.LocaliserParams(kappa, rho))
        op["model"] = i
        main.append(op)
    t_contrast = time.perf_counter()
    i, kappa, rho = inp["contrast"]
    contrast = _op("lean c0=%.4f w=%d k=%g r=%g" % (inp["symbols"][i]["c0"],
                                                   inp["symbols"][i]["winding"], kappa, rho),
                   sl.pairing_odd, models[i], sl.LocaliserParams(kappa, rho),
                   certificates=False)
    contrast["model"] = i
    t_end = time.perf_counter()
    expected = {i: sl.oracle_pairing(m) for i, m in enumerate(models)}
    _check_pairings(main + [contrast], expected)
    return {"t_run": t_run, "t_end": t_end, "main_s": t_contrast - t_run,
            "contrast_s": t_end - t_contrast, "main_ops": main, "contrast_ops": [contrast]}


def _sweep(inp: dict, workers: int, out: Path):
    config = sl.RunConfig(model=inp["spec"], kappas=inp["kappas"], rhos=inp["rhos"],
                          grid=inp["grid"], workers=workers, out=str(out))
    return sl.run_sf(config)


def _sf_ops(report_dir: Path, n_jobs: int, expected: int, tag: str) -> list[dict]:
    """One op per job record of the report written to disk."""
    with open(report_dir / "report.json") as fh:
        records = json.load(fh)["records"]
    ops = []
    for rec in records:
        extra = rec.get("extra") or {}
        ok = (rec["status"] == "ok" and rec["pairing"] == expected
              and not rec["violations"]
              and extra.get("sf_crossings") == extra.get("sf_endpoints") == rec["pairing"])
        ops.append({"label": "%s k=%g r=%g" % (tag, rec["kappa"], rec["rho"]),
                    "seconds": rec["seconds"], "pairing": rec["pairing"],
                    "sf_crossings": extra.get("sf_crossings"),
                    "sf_endpoints": extra.get("sf_endpoints"),
                    "expected": expected, "ok": ok, "error": rec.get("error")})
    for missing in range(n_jobs - len(records)):
        ops.append({"label": "%s missing job %d" % (tag, missing), "seconds": 0.0,
                    "ok": False, "error": "job absent from report"})
    return ops


def sf_sweep(inp: dict, out_dir: Path) -> dict:
    """The same suspension sweep through the harness with 2 workers, then 1.

    workers=2 runs first so that its forked workers inherit no warm
    module-level cache from the one-worker sweep.
    """
    model = sl.parse_model_spec(inp["spec"])
    w2_dir, w1_dir = out_dir / "workers2", out_dir / "workers1"
    t_run = time.perf_counter()
    _sweep(inp, 2, w2_dir)
    t_w1 = time.perf_counter()
    _sweep(inp, 1, w1_dir)
    t_end = time.perf_counter()
    n_jobs = len(inp["kappas"]) * len(inp["rhos"])
    expected = sl.oracle_pairing(model)
    return {"t_run": t_run, "t_end": t_end, "main_s": t_end - t_w1,
            "contrast_s": t_w1 - t_run,
            "main_ops": _sf_ops(w1_dir, n_jobs, expected, "workers=1"),
            "contrast_ops": _sf_ops(w2_dir, n_jobs, expected, "workers=2")}


WORKLOADS = {"qwz-scan": qwz_scan, "circle-window": circle_window, "sf-sweep": sf_sweep}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def layer_metrics(summary: dict) -> dict:
    """Every per-layer value of one traced round, keyed by metric name."""
    out = {}
    for name, stat in summary["spans"].items():
        out[name + "_s"] = stat["s"]
        out[name + ".self_s"] = stat["self_s"]
        out[name + ".calls"] = stat["calls"]
    counts = summary["counts"]
    out["models.operator_bytes"] = counts.get("models.build", {}).get("operator_bytes", 0)
    out["core.inertia.dim_sum"] = counts.get("core.inertia", {}).get("dim_sum", 0)
    out["localiser.dim_trunc_max"] = counts.get("localiser.pairing", {}).get("dim_trunc_max", 0)
    out["flow.sf_crossings.samples"] = counts.get("flow.sf_crossings", {}).get("samples", 0)
    out["trace.coverage"] = summary["coverage"]
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--out-dir", required=True, help="scratch directory for this round")
    args = ap.parse_args()
    inputs = json.load(sys.stdin)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if TRACER is not None:
        TRACER.main_pid = os.getpid()
    try:
        phase = WORKLOADS[args.workload](inputs, out_dir)
        if TRACER is not None:
            TRACER.flush()
            summary = tracer.summarize(tracer.load(TRACER.out_dir), os.getpid(),
                                       (phase["t_run"], phase["t_end"]))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "workload": args.workload,
        "setup_s": phase["t_run"] - T_START,
        "run_s": phase["t_end"] - phase["t_run"],
        "main_s": phase["main_s"],
        "contrast_s": phase["contrast_s"],
        "main_ops": phase["main_ops"],
        "contrast_ops": phase["contrast_ops"],
        "rss_self_mb": self_kb / 1024.0,
        "rss_children_mb": child_kb / 1024.0,
        "env": environment(),
    }
    if TRACER is not None:
        result["layers"] = layer_metrics(summary)
        result["missing_spans"] = TRACER.missing
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
