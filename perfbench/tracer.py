"""Span tracer for traced benchmark rounds.

Library functions are wrapped at the module attributes where their callers
look them up (``speclocaliser.localiser.inertia`` is what ``pairing`` calls,
``speclocaliser.harness.sf_crossings`` what the sweep harness calls), so no
file under ``src/`` changes.  Every call records one span (name, start, end,
parent) in memory; a process writes its spans to a JSON-lines file in the
trace directory: the round's own process when the round ends, pool workers
each time their span stack empties (pool workers exit without running
``atexit`` handlers).  A target that no longer exists is listed as missing
instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from pathlib import Path

# names the trace directory of a traced round, for the round and its workers
TRACE_ENV = "PERFBENCH_TRACE_DIR"

# (module, attribute or Class.method, span name)
TARGETS = (
    ("speclocaliser", "build_qwz_model", "models.build"),
    ("speclocaliser", "build_circle_model", "models.build"),
    ("speclocaliser.harness", "build_qwz_model", "models.build"),
    ("speclocaliser.harness", "build_circle_model", "models.build"),
    ("speclocaliser.harness", "build_weighted_shift_dirac", "models.build"),
    ("speclocaliser.models", "ModelInstance.dirac_commutator", "models.dirac_commutator"),
    ("speclocaliser.models", "commutator_norm", "core.commutator_norm"),
    ("speclocaliser.localiser", "inertia", "core.inertia"),
    ("speclocaliser.core", "inertia", "core.inertia"),
    ("speclocaliser.localiser", "spectral_gap", "core.spectral_gap"),
    ("speclocaliser.localiser", "pairing", "localiser.pairing"),
    ("speclocaliser.harness", "pairing", "localiser.pairing"),
    ("speclocaliser.localiser", "truncate", "localiser.truncate"),
    ("speclocaliser.localiser", "complement_block", "localiser.complement_block"),
    ("speclocaliser.localiser", "validate_infinite_regime", "localiser.validate_infinite_regime"),
    ("speclocaliser.harness", "precompute_rotation", "localiser.precompute_rotation"),
    ("speclocaliser.localiser", "fredholm_index_graded", "oracles.fredholm_index_graded"),
    ("speclocaliser", "oracle_pairing", "convention.oracle_pairing"),
    ("speclocaliser.harness", "oracle_pairing", "convention.oracle_pairing"),
    ("speclocaliser.harness", "suspension_even", "flow.suspension"),
    ("speclocaliser.harness", "suspension_odd", "flow.suspension"),
    ("speclocaliser.harness", "sf_crossings", "flow.sf_crossings"),
    ("speclocaliser.harness", "sf_endpoints", "flow.sf_endpoints"),
    ("speclocaliser.flow", "OperatorPath.sample", "flow.path_sample"),
    ("speclocaliser", "run_sf", "harness.run_sf"),
    ("speclocaliser", "parse_model_spec", "harness.parse_model_spec"),
    ("speclocaliser.harness", "parse_model_spec", "harness.parse_model_spec"),
    ("speclocaliser.harness", "Report.write", "harness.report_write"),
)

SPAN_NAMES = tuple(sorted({name for _, _, name in TARGETS}))


def _dim(op) -> int:
    dim = getattr(op, "dim", None)
    return int(dim if dim is not None else op.shape[0])


def _operator_bytes(model) -> int:
    return int(model.dirac.nbytes + model.k_rep.nbytes)


# extra counts taken from (args, result) of a finished call
COUNTERS = {
    "core.inertia": lambda args, res: {"dim_sum": _dim(args[0])},
    "localiser.pairing": lambda args, res: {"dim_trunc_max": int(res.dim_trunc)},
    "flow.sf_crossings": lambda args, res: {"samples": int(res.samples)},
    "models.build": lambda args, res: {"operator_bytes": _operator_bytes(res)},
}
_MAX_COUNTERS = {"dim_trunc_max"}


def _merge(slot: dict, values: dict) -> None:
    for key, value in values.items():
        if key in _MAX_COUNTERS:
            slot[key] = max(slot.get(key, value), value)
        else:
            slot[key] = slot.get(key, 0) + value


class Tracer:
    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.main_pid = None
        self.missing: list[str] = []
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, dict[str, int]] = {}
        self.stack: list[int] = []

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append("%s.%s" % (module_name, attr))
                continue
            setattr(owner, leaf, self._wrap(original, name))

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            self.spans.append([name, time.perf_counter(), None, parent])
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    _merge(self.counts.setdefault(name, {}), counter(args, result))
                return result
            finally:
                self.spans[index][2] = time.perf_counter()
                self.stack.pop()
                if not self.stack and os.getpid() != self.main_pid:
                    self.flush()

        return traced

    def flush(self) -> None:
        """Append this process's finished spans to its file and forget them."""
        if not self.spans:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        doc = {"pid": os.getpid(), "spans": self.spans, "counts": self.counts}
        with open(self.out_dir / ("spans-%d.jsonl" % os.getpid()), "a") as fh:
            fh.write(json.dumps(doc) + "\n")
        self._reset()


def load(out_dir) -> list[dict]:
    """Every flushed batch in the trace directory."""
    batches = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with open(path) as fh:
            batches.extend(json.loads(line) for line in fh if line.strip())
    return batches


def summarize(batches: list[dict], main_pid: int, window: tuple[float, float]) -> dict:
    """Per-span totals, self times and counts, plus the timed-window coverage.

    A span's self time is its duration minus that of its direct children.
    Coverage is the share of the timed window spent inside top-level spans
    of the round's own process.
    """
    stats = {name: {"s": 0.0, "self_s": 0.0, "calls": 0} for name in SPAN_NAMES}
    counts: dict[str, dict[str, int]] = {}
    covered = 0.0
    lo, hi = window
    for batch in batches:
        spans = batch["spans"]
        child_s = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent is not None:
                child_s[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            entry = stats.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_s[i]
            if parent is None or spans[parent][0] != name:
                entry["s"] += end - start
            if parent is None and batch["pid"] == main_pid:
                covered += max(0.0, min(end, hi) - max(start, lo))
        for name, values in batch["counts"].items():
            _merge(counts.setdefault(name, {}), values)
    return {
        "spans": stats,
        "counts": counts,
        "coverage": covered / (hi - lo) if hi > lo else 0.0,
    }
