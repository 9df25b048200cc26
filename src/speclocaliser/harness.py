"""Parameter sweeps, per-job records, and report emission.

The harness turns a run configuration (model spec, kappa/rho grids, mode)
into a :class:`Report`: one record per job with the pairing, the oracle
value, the agreement flag, and every certificate needed to audit which
validity route the job took.  Job errors are captured per record and never
abort a sweep.
"""

from __future__ import annotations

import concurrent.futures
import csv
import dataclasses
import json
import math
import os
import time
from pathlib import Path
from typing import Optional

import yaml

from .errors import ConfigError
from .flow import CHI_PAIRS, sf_crossings, suspension
from .localiser import MODES, LocaliserParams, PairingResult, pairing
from .models import (
    ModelInstance,
    _sanitize,
    build_circle_model,
    build_qwz_model,
    build_weighted_shift_dirac,
    load_model,
    save_model,
)
from .oracles import oracle_pairing

__all__ = [
    "RunConfig",
    "JobRecord",
    "Report",
    "parse_model_spec",
    "run_localise",
    "run_sf",
    "run_oracle",
    "export_model",
]

DEFAULT_GRID = 33

_MODEL_KINDS = ("circle", "qwz", "shift")


def _parse_kv(body: str) -> dict[str, str]:
    out: dict[str, str] = {}
    if not body:
        return out
    for item in body.split(","):
        key, sep, value = item.partition("=")
        if not sep or not key.strip() or not value.strip():
            raise ConfigError("model spec item %r is not key=value" % item)
        out[key.strip()] = value.strip()
    return out


def _pop(kv: dict, key: str, cast, default=None, required: bool = False):
    if key in kv:
        raw = kv.pop(key)
        try:
            value = cast(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError("model spec key %s=%r: %s" % (key, raw, exc)) from exc
        if cast is float and not math.isfinite(value):
            raise ConfigError("model spec key %s=%r is not finite" % (key, raw))
        return value
    if required:
        raise ConfigError("model spec is missing required key %r" % key)
    return default


def parse_model_spec(spec: str) -> ModelInstance:
    """Build a model from ``kind:key=val,...`` sugar or a saved manifest path.

    Sugar forms:
      circle:modes=60,winding=1,c0=0.5   loop symbol c0 + z^winding
      qwz:box=12,mass=1.0,offset=half_integer
      shift:sites=40,nu=2,sign=1

    Anything else is treated as a path to a manifest written by save_model.
    """
    if not spec or not str(spec).strip():
        raise ConfigError("empty model spec")
    spec = str(spec).strip()
    head, _, body = spec.partition(":")
    if head in _MODEL_KINDS:
        kv = _parse_kv(body)
        if head == "circle":
            modes = _pop(kv, "modes", int, required=True)
            winding = _pop(kv, "winding", int, default=1)
            c0 = _pop(kv, "c0", float, default=0.5)
            offset = _pop(kv, "offset", float, default=0.0)
            if kv:
                raise ConfigError("unknown circle keys: %s" % sorted(kv))
            symbol: dict[int, complex] = {0: complex(c0)}
            symbol[winding] = symbol.get(winding, 0.0) + 1.0
            return build_circle_model(modes, symbol, offset=offset)
        if head == "qwz":
            box = _pop(kv, "box", int, required=True)
            mass = _pop(kv, "mass", float, required=True)
            offset = _pop(kv, "offset", str, default="half_integer")
            if kv:
                raise ConfigError("unknown qwz keys: %s" % sorted(kv))
            return build_qwz_model(box=box, mass=mass, offset=offset)
        sites = _pop(kv, "sites", int, required=True)
        nu = _pop(kv, "nu", int, default=1)
        sign = _pop(kv, "sign", int, default=1)
        if kv:
            raise ConfigError("unknown shift keys: %s" % sorted(kv))
        return build_weighted_shift_dirac(sites, nu=nu, sign=sign)
    path = Path(spec)
    if path.exists():
        return load_model(path)
    raise ConfigError(
        "model spec %r is neither %s sugar nor an existing manifest path"
        % (spec, "/".join(_MODEL_KINDS))
    )


# ---------------------------------------------------------------------------
# configuration


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclasses.dataclass
class RunConfig:
    """One sweep: a model against a (kappa, rho) grid.

    File values load with :meth:`from_file`; CLI flags override via
    :meth:`merged`, so either may give any key.  ``validate`` enforces the
    structural invariants, a model and the two grids included, and is
    called by every runner.
    """

    model: str = ""
    kappas: tuple[float, ...] = ()
    rhos: tuple[float, ...] = ()
    mode: str = "permissive"
    out: Optional[str] = None
    grid: int = DEFAULT_GRID
    workers: Optional[int] = None
    trace: bool = False
    chi: str = "clamp"

    def __post_init__(self):
        for key in ("kappas", "rhos"):
            values = getattr(self, key)
            if not isinstance(values, (list, tuple)):
                raise ConfigError("%s must be a list of numbers, got %r" % (key, values))
            try:
                setattr(self, key, tuple(float(v) for v in values))
            except (TypeError, ValueError) as exc:
                raise ConfigError("%s must be a list of numbers: %s" % (key, exc)) from exc

    def validate(self) -> None:
        if not str(self.model).strip():
            raise ConfigError("model spec must be non-empty (--model or config key model)")
        if not self.kappas:
            raise ConfigError("kappa list must be non-empty (--kappa or config key kappas)")
        if not self.rhos:
            raise ConfigError("rho list must be non-empty (--rho or config key rhos)")
        if not all(math.isfinite(k) and k > 0 for k in self.kappas):
            raise ConfigError("all kappa values must be finite and positive")
        if not all(math.isfinite(r) and r > 0 for r in self.rhos):
            raise ConfigError("all rho values must be finite and positive")
        if self.mode not in MODES:
            raise ConfigError("mode must be one of %s" % (MODES,))
        if not _is_int(self.grid) or self.grid < 2:
            raise ConfigError("grid must be an integer >= 2, got %r" % (self.grid,))
        if self.workers is not None and (not _is_int(self.workers) or self.workers < 1):
            raise ConfigError("workers must be an integer >= 1, got %r" % (self.workers,))
        if not isinstance(self.chi, str) or self.chi not in CHI_PAIRS:
            raise ConfigError("chi must be one of %s" % sorted(CHI_PAIRS))
        if self.trace and not self.out:
            raise ConfigError("trace output needs an output directory")
        if self.out:
            try:
                target = Path(self.out)
                target.mkdir(parents=True, exist_ok=True)
                probe = target / ".write_probe"
                probe.touch()
                probe.unlink()
            except (OSError, TypeError) as exc:
                raise ConfigError("output directory not usable: %s" % exc) from exc

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path) as fh:
                data = yaml.safe_load(fh)
        except OSError as exc:
            raise ConfigError("cannot read config file: %s" % exc) from exc
        except yaml.YAMLError as exc:
            raise ConfigError("config file is not valid YAML: %s" % exc) from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a mapping")
        unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ConfigError("unknown config keys: %s" % unknown)
        return cls(**data)

    def merged(self, **overrides) -> "RunConfig":
        """A copy with every non-None override applied."""
        fields = dataclasses.asdict(self)
        for key, value in overrides.items():
            if key not in fields:
                raise ConfigError("unknown config override %r" % key)
            if value is not None:
                fields[key] = value
        return RunConfig(**fields)

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["kappas"] = list(self.kappas)
        d["rhos"] = list(self.rhos)
        return d

    def resolved_workers(self) -> int:
        if self.workers is not None:
            return int(self.workers)
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:
            return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# records and reports


@dataclasses.dataclass
class JobRecord:
    """One (kappa, rho) job: result fields, certificates, and wall time."""

    kappa: float
    rho: float
    mode: str
    status: str
    seconds: float
    pairing: Optional[int] = None
    oracle: Optional[int] = None
    agreement: Optional[bool] = None
    signature: Optional[int] = None
    index_correction: Optional[int] = None
    inertia: Optional[tuple] = None
    truncated_gap: Optional[float] = None
    dim_trunc: Optional[int] = None
    violations: tuple = ()
    certificates: tuple = ()
    extra: dict = dataclasses.field(default_factory=dict)
    error: Optional[str] = None

    @property
    def passed(self) -> bool:
        return (
            self.status == "ok"
            and self.agreement is True
            and not self.violations
            and self.extra.get("sf_consistent", True) is True
        )

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["passed"] = self.passed
        return _sanitize(d)


@dataclasses.dataclass
class Report:
    """Sweep output: resolved config, model descriptor, records, summary.

    oracle_error says why the oracle could not be evaluated, if it could not.
    """

    command: str
    model: dict
    config: dict
    records: list
    oracle_error: Optional[str] = None

    @property
    def summary(self) -> dict:
        passed = sum(1 for r in self.records if r.passed)
        errors = sum(1 for r in self.records if r.status == "error")
        violations = sum(len(r.violations) for r in self.records)
        return {
            "jobs": len(self.records),
            "passed": passed,
            "failed": len(self.records) - passed,
            "errors": errors,
            "violations": violations,
        }

    @property
    def all_passed(self) -> bool:
        return self.summary["failed"] == 0

    def as_dict(self) -> dict:
        return _sanitize(
            {
                "command": self.command,
                "model": self.model,
                "config": self.config,
                "summary": self.summary,
                "oracle_error": self.oracle_error,
                "records": [r.as_dict() for r in self.records],
            }
        )

    def write(self, out_dir) -> Path:
        """Emit report.json, summary.csv and the resolved config; returns the dir."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "report.json", "w") as fh:
            json.dump(self.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(out / "resolved_config.yaml", "w") as fh:
            yaml.safe_dump(self.config, fh, sort_keys=True)
        columns = [
            "kappa", "rho", "mode", "status", "pairing", "oracle", "agreement",
            "signature", "index_correction", "n_pos", "n_neg", "n_zero",
            "truncated_gap", "dim_trunc", "violations", "passed", "error",
            "seconds",
        ]
        with open(out / "summary.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for rec in self.records:
                inertia = rec.inertia or (None, None, None)
                writer.writerow(
                    [
                        rec.kappa, rec.rho, rec.mode, rec.status, rec.pairing,
                        rec.oracle, rec.agreement, rec.signature,
                        rec.index_correction, inertia[0], inertia[1],
                        inertia[2], rec.truncated_gap, rec.dim_trunc,
                        ";".join(rec.violations), rec.passed, rec.error or "",
                        rec.seconds,
                    ]
                )
        return out


# ---------------------------------------------------------------------------
# job runners


def _describe(exc: Exception) -> str:
    return "%s: %s" % (type(exc).__name__, exc)


def _error_record(kappa, rho, mode, t0, exc) -> JobRecord:
    return JobRecord(
        kappa=kappa,
        rho=rho,
        mode=mode,
        status="error",
        seconds=time.perf_counter() - t0,
        error=_describe(exc),
    )


def _ok_record(kappa, rho, mode, t0, res: PairingResult, extra=None) -> JobRecord:
    return JobRecord(
        kappa=kappa,
        rho=rho,
        mode=mode,
        status="ok",
        seconds=time.perf_counter() - t0,
        pairing=res.pairing,
        signature=res.signature,
        index_correction=res.index_correction,
        inertia=(res.inertia.n_pos, res.inertia.n_neg, res.inertia.n_zero),
        truncated_gap=res.truncated_gap,
        dim_trunc=res.dim_trunc,
        violations=tuple(res.violations),
        certificates=tuple(c.as_dict() for c in res.certificates),
        extra=extra or {},
    )


def _localise_job(model: ModelInstance, kappa: float, rho: float, mode: str) -> JobRecord:
    t0 = time.perf_counter()
    try:
        res = pairing(model, LocaliserParams(kappa=kappa, rho=rho, mode=mode))
    except Exception as exc:
        return _error_record(kappa, rho, mode, t0, exc)
    return _ok_record(kappa, rho, mode, t0, res)


# the model a pool worker was handed at start-up (set in worker processes only)
_worker_model: ModelInstance | None = None


def _init_worker(model: ModelInstance) -> None:
    global _worker_model
    _worker_model = model


def _pool_job(args) -> JobRecord:
    # every job of a worker shares its model, and with it the model's cache
    job, kappa, rho, rest = args
    return job(_worker_model, kappa, rho, *rest)


def _sweep(config: RunConfig, model: ModelInstance, job, *rest) -> list:
    """Run job(model, kappa, rho, *rest) over the sorted (kappa, rho) grid.

    With more than one worker the jobs go to a process pool instead; each
    worker is handed the model once, when it starts.
    """
    jobs = sorted((k, r) for k in config.kappas for r in config.rhos)
    # a fork pool starts all its workers at the first submit: never more than jobs
    workers = min(config.resolved_workers(), len(jobs))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(model,)
        ) as pool:
            return list(pool.map(_pool_job, [(job, k, r, rest) for k, r in jobs]))
    return [job(model, k, r, *rest) for k, r in jobs]


def _finish_report(command, model, config, records) -> Report:
    oracle = oracle_error = None
    try:
        oracle = oracle_pairing(model)
    except Exception as exc:
        oracle_error = _describe(exc)
    for rec in records:
        rec.oracle = oracle
        if rec.status == "ok" and oracle is not None:
            rec.agreement = bool(rec.pairing == oracle)
    report = Report(
        command=command,
        model=model.describe(),
        config=config.as_dict(),
        records=records,
        oracle_error=oracle_error,
    )
    if config.out:
        report.write(config.out)
    return report


def run_localise(config: RunConfig) -> Report:
    """Build, validate, truncate, certify and compare each (kappa, rho) job."""
    if config.trace:
        raise ConfigError("trace is an sf option; localise writes no eigenvalue trace")
    config.validate()
    model = parse_model_spec(config.model)
    records = _sweep(config, model, _localise_job, config.mode)
    return _finish_report("localise", model, config, records)


def _sf_job(model, kappa, rho, mode, chi_name, grid, trace_dir) -> JobRecord:
    t0 = time.perf_counter()
    chi = CHI_PAIRS[chi_name]
    try:
        res = pairing(model, LocaliserParams(kappa=kappa, rho=rho, mode=mode))
        path = suspension(model, kappa, rho, chi=chi, num=grid)
        flow = sf_crossings(path, trace=trace_dir is not None)
        if trace_dir is not None:
            # round-trip values: %g would give close kappas one file
            name = "trace_k%r_r%r.csv" % (float(kappa), float(rho))
            with open(Path(trace_dir) / name, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["t"] + ["eig%d" % i for i in range(flow.trace.shape[1])])
                for t, row in zip(path.grid, flow.trace):
                    writer.writerow([t] + list(row))
    except Exception as exc:
        return _error_record(kappa, rho, mode, t0, exc)
    consistent = flow.value == flow.endpoints == res.pairing
    return _ok_record(
        kappa, rho, mode, t0, res,
        extra={
            "sf_crossings": flow.value,
            "sf_endpoints": flow.endpoints,
            "sf_consistent": bool(consistent),
            "crossing_count": len(flow.crossings),
            "sample_fallbacks": flow.fallbacks,
            "chi": chi_name,
        },
    )


def run_sf(config: RunConfig) -> Report:
    """Suspension spectral flow per job plus the internal equality checks.

    Each record asserts sf_crossings = sf_endpoints = pairing via the
    ``sf_consistent`` flag, both flow routes read off one walk; the
    suspension runs on the same |D| <= rho window that the pairing
    truncates to.  With trace set, every job also checks its grid eigenvalues
    against their Sylvester counts and writes them to its own CSV in the
    output directory, so traced sweeps run in the pool too.
    """
    config.validate()
    model = parse_model_spec(config.model)
    trace_dir = config.out if config.trace else None
    if trace_dir is not None:
        Path(trace_dir).mkdir(parents=True, exist_ok=True)
    records = _sweep(
        config, model, _sf_job, config.mode, config.chi, config.grid, trace_dir
    )
    return _finish_report("sf", model, config, records)


def run_oracle(model_spec: str, out=None) -> dict:
    """The oracle's predicted pairing for a model, as a small report dict."""
    model = parse_model_spec(model_spec)
    result = {
        "command": "oracle",
        "model": model.describe(),
        "oracle_ref": model.oracle_ref,
        "pairing": int(oracle_pairing(model)),
    }
    if out:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "oracle.json", "w") as fh:
            json.dump(_sanitize(result), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return result


def export_model(model_spec: str, out) -> Path:
    """Write the model manifest plus matrices (Matrix Market) to a directory."""
    if not out:
        raise ConfigError("export needs an output directory")
    model = parse_model_spec(model_spec)
    return save_model(model, out)
