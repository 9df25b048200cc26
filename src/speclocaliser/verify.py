"""Acceptance verification suite.

Ten numbered criteria cover the pairing theorems end to end: strict and
permissive pairings against independent oracles, certificate audits,
spectral-flow consistency, parameter/box/chi stability, and the two
projection lemmas.  ``VerifySession`` caches shared artifacts (models and
sweep results) so criteria can reuse each other's jobs; each criterion
returns a :class:`CriterionResult` with one pass/fail line of detail.

The quick profile runs the sub-minute subset; the full profile runs all
ten criteria and is the acceptance gate.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import time
from pathlib import Path

import numpy as np

from .convention import oracle_pairing
from .core import operator_norm, positive_spectral_projection
from .errors import SpecLocaliserError
from .flow import (
    CHI_CLAMP,
    CHI_SMOOTH,
    line_path,
    relative_index_projections,
    sf_crossings,
    sf_endpoints,
    suspension_even,
    suspension_odd,
)
from .localiser import LocaliserParams, pairing
from .models import (
    build_circle_model,
    build_qwz_model,
    build_weighted_shift_dirac,
)

__all__ = ["CriterionResult", "VerifySession", "run_verify", "CRITERION_NAMES"]


class CheckFailure(AssertionError):
    """A criterion assertion failed; the message is the reported detail."""


def _check(condition, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


@dataclasses.dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return "criterion %2d %s %6.1fs  %s: %s" % (
            self.index, status, self.seconds, self.name, self.detail
        )


CRITERION_NAMES = {
    1: "odd pairing, strict regime",
    2: "odd pairing, permissive sweep",
    3: "even pairing with index correction",
    4: "even pairing, Chern model",
    5: "gap certificates",
    6: "spectral-flow consistency",
    7: "parameter and box stability",
    8: "chi-independence",
    9: "spectral-projection identity",
    10: "relative-index endpoints",
}

QUICK_PROFILE = (1, 3, 5, 6, 9, 10)
FULL_PROFILE = tuple(range(1, 11))

# acceptance runtime ceilings, seconds
_TIME_LIMITS = {1: 30.0, 2: 120.0, 3: 10.0, 4: 300.0}

_CIRCLE_WINDINGS = (-2, -1, 1, 2, 3)
_CIRCLE_KAPPAS = (0.02, 0.05, 0.1)
_CIRCLE_RHOS = (20.5, 30.5, 40.5)
_SHIFT_NUS = (1, 2, 3)
_QWZ_MASSES = (-1.0, 1.0, 3.0)
_QWZ_KAPPAS = (0.25, 0.5, 1.0)
_QWZ_RHOS = (6.5, 8.5)
_QWZ_OFFSETS = ("integer", "half_integer")


def _random_hermitian(rng, dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2.0


def _random_invertible_hermitian(rng, dim: int, min_gap: float = 1e-2) -> np.ndarray:
    while True:
        h = _random_hermitian(rng, dim)
        if float(np.min(np.abs(np.linalg.eigvalsh(h)))) > min_gap:
            return h


class VerifySession:
    """Shared artifact store for the criteria suite.

    quick=True keeps the expensive sweeps (criteria 2 and 4) out of the
    certificate audit so the quick profile stays sub-minute.
    """

    def __init__(self, seed: int = 0, quick: bool = False):
        self.seed = int(seed)
        self.quick = bool(quick)
        self._artifacts: dict = {}
        self._results: dict[int, CriterionResult] = {}

    # -- artifact builders -------------------------------------------------

    def _artifact(self, key: str, build):
        if key not in self._artifacts:
            t0 = time.perf_counter()
            value = build()
            value["seconds"] = time.perf_counter() - t0
            self._artifacts[key] = value
        return self._artifacts[key]

    def _c1(self) -> dict:
        def build():
            model = build_circle_model(200, {0: 0.5, 1: 1.0})
            params = LocaliserParams(kappa=1.0 / 144.0, rho=145.5, mode="strict")
            result = pairing(model, params)
            return {"model": model, "result": result, "params": params}

        return self._artifact("c1", build)

    def _c2(self) -> dict:
        def build():
            models = {}
            results = {}
            for k in _CIRCLE_WINDINGS:
                model = build_circle_model(60, {0: 0.5, k: 1.0})
                models[k] = model
                results[k] = {
                    (kap, rho): pairing(model, LocaliserParams(kap, rho))
                    for kap in _CIRCLE_KAPPAS
                    for rho in _CIRCLE_RHOS
                }
            return {"models": models, "results": results}

        return self._artifact("c2", build)

    def _c3(self) -> dict:
        def build():
            models = {}
            results = {}
            for nu in _SHIFT_NUS:
                for sign in (1, -1):
                    model = build_weighted_shift_dirac(40, nu=nu, sign=sign)
                    models[(nu, sign)] = model
                    results[(nu, sign)] = pairing(model, LocaliserParams(0.1, 10.5))
            return {"models": models, "results": results}

        return self._artifact("c3", build)

    def _c4(self) -> dict:
        def build():
            models = {}
            results = {}
            oracles = {}
            for offset in _QWZ_OFFSETS:
                for mass in _QWZ_MASSES:
                    model = build_qwz_model(box=12, mass=mass, offset=offset)
                    grid = [
                        (kap, rho)
                        for kap in _QWZ_KAPPAS
                        for rho in _QWZ_RHOS
                        if kap * rho > model.k_norm()
                    ]
                    jobs = {
                        (kap, rho): pairing(model, LocaliserParams(kap, rho))
                        for kap, rho in grid
                    }
                    models[(mass, offset)] = model
                    results[(mass, offset)] = jobs
                    oracles[(mass, offset)] = oracle_pairing(model)
            return {"models": models, "results": results, "oracles": oracles}

        return self._artifact("c4", build)

    def _all_pairing_results(self) -> list[tuple[str, object]]:
        """(label, PairingResult) for every job computed by criteria 1-4."""
        if not self.quick:
            self._c1(), self._c2(), self._c3(), self._c4()
        out = []
        if "c1" in self._artifacts:
            out.append(("circle strict", self._artifacts["c1"]["result"]))
        if "c2" in self._artifacts:
            for k, jobs in self._artifacts["c2"]["results"].items():
                for (kap, rho), res in jobs.items():
                    out.append(("circle w=%d k=%g r=%g" % (k, kap, rho), res))
        if "c3" in self._artifacts:
            for (nu, sign), res in self._artifacts["c3"]["results"].items():
                out.append(("shift nu=%d sign=%+d" % (nu, sign), res))
        if "c4" in self._artifacts:
            for (mass, offset), jobs in self._artifacts["c4"]["results"].items():
                for (kap, rho), res in jobs.items():
                    out.append(
                        ("qwz m=%g %s k=%g r=%g" % (mass, offset, kap, rho), res)
                    )
        return out

    def _suspension_entries(self) -> list[dict]:
        """Suspension SF records (clamp and smooth) for every model above."""
        if "c6_entries" in self._artifacts:
            return self._artifacts["c6_entries"]["entries"]

        def build():
            entries = []
            plan: list[tuple[str, object, float, float, object]] = []
            art1 = self._c1()
            plan.append(
                ("circle strict", art1["model"], 1.0 / 144.0, 145.5, art1["result"])
            )
            if not self.quick:
                art2 = self._c2()
                for k in _CIRCLE_WINDINGS:
                    plan.append(
                        (
                            "circle w=%d" % k,
                            art2["models"][k],
                            0.05,
                            30.5,
                            art2["results"][k][(0.05, 30.5)],
                        )
                    )
            art3 = self._c3()
            for (nu, sign), res in art3["results"].items():
                plan.append(
                    ("shift nu=%d sign=%+d" % (nu, sign),
                     art3["models"][(nu, sign)], 0.1, 10.5, res)
                )
            if not self.quick:
                art4 = self._c4()
                for (mass, offset), jobs in art4["results"].items():
                    plan.append(
                        ("qwz m=%g %s" % (mass, offset),
                         art4["models"][(mass, offset)], 1.0, 6.5, jobs[(1.0, 6.5)])
                    )
            for label, model, kap, rho, res in plan:
                builder = suspension_even if model.parity == "even" else suspension_odd
                record = {"label": label, "pairing": res.pairing}
                for chi in (CHI_CLAMP, CHI_SMOOTH):
                    path = builder(model, kap, chi=chi, rho=rho)
                    flow = sf_crossings(path)
                    ends = sf_endpoints(
                        path.evaluate(path.grid[0]), path.evaluate(path.grid[-1])
                    )
                    record["sf_" + chi.name] = flow.value
                    record["ends_" + chi.name] = ends
                entries.append(record)
            if not self.quick and "c4" in self._artifacts:
                # the Chern models cost ~300 MB each; criteria 7-8 only
                # need their recorded values, so drop the matrices now
                self._artifacts["c4"]["models"] = None
                gc.collect()
            return {"entries": entries}

        return self._artifact("c6_entries", build)["entries"]

    # -- criteria ----------------------------------------------------------

    def _run_criterion(self, index: int, fn) -> CriterionResult:
        if index in self._results:
            return self._results[index]
        t0 = time.perf_counter()
        try:
            detail = fn()
            passed = True
        except (CheckFailure, SpecLocaliserError) as exc:
            detail = (
                str(exc)
                if isinstance(exc, CheckFailure)
                else "%s: %s" % (type(exc).__name__, exc)
            )
            passed = False
        result = CriterionResult(
            index=index,
            name=CRITERION_NAMES[index],
            passed=passed,
            detail=detail,
            seconds=time.perf_counter() - t0,
        )
        self._results[index] = result
        return result

    def criterion_1(self) -> CriterionResult:
        def body():
            art = self._c1()
            res, model = art["result"], art["model"]
            oracle = oracle_pairing(model)
            _check(res.pairing == oracle,
                   "pairing %d != oracle %d" % (res.pairing, oracle))
            _check(abs(res.pairing) == 1, "pairing magnitude %d != 1" % res.pairing)
            _check(res.dim_full == 802, "full localiser dim %d != 802" % res.dim_full)
            _check(res.truncated_gap >= 0.25 - 1e-9,
                   "truncated gap %.6f < 0.25" % res.truncated_gap)
            _check(not res.violations, "violations: %s" % list(res.violations))
            _check(art["seconds"] < _TIME_LIMITS[1],
                   "runtime %.1fs over %gs" % (art["seconds"], _TIME_LIMITS[1]))
            return (
                "strict pairing %d == winding oracle, gap %.3f >= 0.25, %.1fs"
                % (res.pairing, res.truncated_gap, art["seconds"])
            )

        return self._run_criterion(1, body)

    def criterion_2(self) -> CriterionResult:
        def body():
            art = self._c2()
            jobs = 0
            for k in _CIRCLE_WINDINGS:
                oracle = oracle_pairing(art["models"][k])
                values = {key: res.pairing for key, res in art["results"][k].items()}
                jobs += len(values)
                _check(
                    all(v == oracle for v in values.values()),
                    "winding %d: pairings %s != oracle %d"
                    % (k, sorted(set(values.values())), oracle),
                )
                _check(len(set(values.values())) == 1,
                       "winding %d: pairing varies across grid" % k)
            _check(jobs == 45, "expected 45 jobs, ran %d" % jobs)
            _check(art["seconds"] < _TIME_LIMITS[2],
                   "runtime %.1fs over %gs" % (art["seconds"], _TIME_LIMITS[2]))
            return "45/45 jobs match the winding oracle, %.1fs" % art["seconds"]

        return self._run_criterion(2, body)

    def criterion_3(self) -> CriterionResult:
        def body():
            art = self._c3()
            for nu in _SHIFT_NUS:
                plus = art["results"][(nu, 1)]
                minus = art["results"][(nu, -1)]
                _check(plus.pairing == -nu,
                       "nu=%d H=+1: pairing %d != %d" % (nu, plus.pairing, -nu))
                _check(minus.pairing == 0,
                       "nu=%d H=-1: pairing %d != 0" % (nu, minus.pairing))
                _check(plus.signature == -nu,
                       "nu=%d H=+1: Sig %d != %d" % (nu, plus.signature, -nu))
                _check(minus.signature == nu,
                       "nu=%d H=-1: Sig %d != %d" % (nu, minus.signature, nu))
                _check(plus.index_correction == -nu,
                       "nu=%d: index correction %s != %d"
                       % (nu, plus.index_correction, -nu))
            _check(art["seconds"] < _TIME_LIMITS[3],
                   "runtime %.1fs over %gs" % (art["seconds"], _TIME_LIMITS[3]))
            return (
                "6/6 shift jobs: pairing = -nu for H=+1, 0 for H=-1, "
                "Sig = -/+nu, %.1fs" % art["seconds"]
            )

        return self._run_criterion(3, body)

    def criterion_4(self) -> CriterionResult:
        def body():
            art = self._c4()
            jobs = 0
            per_mass: dict[float, set] = {}
            for (mass, offset), results in art["results"].items():
                expected = {-1.0: 4, 1.0: 4, 3.0: 2}[mass]
                _check(
                    len(results) == expected,
                    "m=%g %s: %d jobs after the kappa*rho filter, expected %d"
                    % (mass, offset, len(results), expected),
                )
                oracle = art["oracles"][(mass, offset)]
                values = set()
                for (kap, rho), res in results.items():
                    jobs += 1
                    values.add(res.pairing)
                    _check(
                        res.pairing == oracle,
                        "m=%g %s k=%g r=%g: pairing %d != FHS oracle %d"
                        % (mass, offset, kap, rho, res.pairing, oracle),
                    )
                _check(len(values) == 1,
                       "m=%g %s: pairing varies across grid" % (mass, offset))
                per_mass.setdefault(mass, set()).update(values)
            for mass in _QWZ_MASSES:
                _check(len(per_mass[mass]) == 1,
                       "m=%g: offsets disagree: %s" % (mass, sorted(per_mass[mass])))
            p_plus = per_mass[1.0].pop()
            p_minus = per_mass[-1.0].pop()
            p_triv = per_mass[3.0].pop()
            _check(abs(p_plus) == 1, "m=1 pairing %d has magnitude != 1" % p_plus)
            _check(p_minus == -p_plus,
                   "m=-1 pairing %d != -(m=1 pairing %d)" % (p_minus, p_plus))
            _check(p_triv == 0, "m=3 pairing %d != 0" % p_triv)
            _check(art["seconds"] < _TIME_LIMITS[4],
                   "runtime %.1fs over %gs" % (art["seconds"], _TIME_LIMITS[4]))
            return (
                "%d/%d jobs match the Chern oracle (m=+-1 -> %+d/%+d, m=3 -> 0), "
                "offsets agree, %.1fs" % (jobs, jobs, p_plus, p_minus, art["seconds"])
            )

        return self._run_criterion(4, body)

    def criterion_5(self) -> CriterionResult:
        def body():
            records = self._all_pairing_results()
            _check(records, "no pairing jobs available to audit")
            violated = []
            applicable = 0
            regime_checked = 0
            for label, res in records:
                for cert in res.certificates:
                    if cert.kind == "guarantee" and cert.applicable:
                        applicable += 1
                        if cert.violated:
                            violated.append("%s: %s" % (label, cert.name))
                if res.regime is not None and res.regime.hypothesis_holds:
                    regime_checked += 1
                    gap_cert = res.regime.gap_certificate()
                    if gap_cert.applicable and not gap_cert.satisfied:
                        violated.append("%s: regime_gap" % label)
            _check(not violated, "violated guarantees: %s" % violated)
            return (
                "%d jobs, %d applicable guarantees, %d regime hypotheses, "
                "0 violations" % (len(records), applicable, regime_checked)
            )

        return self._run_criterion(5, body)

    def criterion_6(self) -> CriterionResult:
        def body():
            entries = self._suspension_entries()
            bad = [
                e["label"]
                for e in entries
                if not (e["sf_clamp"] == e["ends_clamp"] == e["pairing"])
            ]
            _check(not bad, "suspension sf != pairing for: %s" % bad)

            rng = np.random.default_rng(self.seed * 1009 + 6)
            lines = 0
            for _ in range(50):
                dim = int(rng.integers(2, 61))
                a = _random_invertible_hermitian(rng, dim)
                b = _random_invertible_hermitian(rng, dim)
                path = line_path(a, b)
                crossings = sf_crossings(path).value
                ends = sf_endpoints(a, b)
                _check(
                    crossings == ends,
                    "random line dim %d: sf_crossings %d != sf_endpoints %d"
                    % (dim, crossings, ends),
                )
                lines += 1
            return (
                "%d suspension paths with sf_crossings = sf_endpoints = pairing, "
                "%d random lines consistent" % (len(entries), lines)
            )

        return self._run_criterion(6, body)

    def criterion_7(self) -> CriterionResult:
        def body():
            checks = 0
            # grid constancy inside each model (criteria 2 and 4 sweeps)
            art2 = self._c2()
            for k in _CIRCLE_WINDINGS:
                values = {res.pairing for res in art2["results"][k].values()}
                _check(len(values) == 1, "circle w=%d varies across grid" % k)
                checks += 1
            art4 = self._c4()
            for key, results in art4["results"].items():
                values = {res.pairing for res in results.values()}
                _check(len(values) == 1, "qwz %s varies across grid" % (key,))
                checks += 1

            # +50% box growth, one probe point per model family
            for k in _CIRCLE_WINDINGS:
                base = art2["results"][k][(0.05, 30.5)].pairing
                grown = pairing(
                    build_circle_model(90, {0: 0.5, k: 1.0}),
                    LocaliserParams(0.05, 30.5),
                ).pairing
                _check(grown == base,
                       "circle w=%d: M 60->90 changed pairing %d -> %d"
                       % (k, base, grown))
                checks += 1
            art3 = self._c3()
            for (nu, sign), res in art3["results"].items():
                grown = pairing(
                    build_weighted_shift_dirac(60, nu=nu, sign=sign),
                    LocaliserParams(0.1, 10.5),
                ).pairing
                _check(grown == res.pairing,
                       "shift nu=%d sign=%+d: N 40->60 changed pairing %d -> %d"
                       % (nu, sign, res.pairing, grown))
                checks += 1
            for mass in _QWZ_MASSES:
                base = art4["results"][(mass, "half_integer")][(1.0, 6.5)].pairing
                model = build_qwz_model(box=18, mass=mass)
                grown = pairing(
                    model, LocaliserParams(1.0, 6.5), certificates=False
                ).pairing
                del model
                gc.collect()
                _check(grown == base,
                       "qwz m=%g: L 12->18 changed pairing %d -> %d"
                       % (mass, base, grown))
                checks += 1
            return "%d grid-constancy and box-growth checks, zero exceptions" % checks

        return self._run_criterion(7, body)

    def criterion_8(self) -> CriterionResult:
        def body():
            entries = self._suspension_entries()
            bad = [
                e["label"]
                for e in entries
                if e["sf_smooth"] != e["sf_clamp"]
                or e["ends_smooth"] != e["ends_clamp"]
            ]
            _check(not bad, "clamp and smooth chi disagree for: %s" % bad)
            return "%d suspension paths identical under clamp and smooth chi" % len(
                entries
            )

        return self._run_criterion(8, body)

    def criterion_9(self) -> CriterionResult:
        def body():
            rng = np.random.default_rng(self.seed * 1009 + 9)
            worst = 0.0
            for _ in range(20):
                dim = int(rng.integers(1, 9))
                while True:
                    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal(
                        (dim, dim)
                    )
                    if float(np.min(np.linalg.svd(g, compute_uv=False))) > 1e-3:
                        break
                u_left, _, vh = np.linalg.svd(g)
                u = u_left @ vh
                top = np.block(
                    [[np.zeros((dim, dim)), g], [g.conj().T, np.zeros((dim, dim))]]
                )
                p = positive_spectral_projection(top).matrix
                eye = np.eye(dim)
                target = 0.5 * np.block([[eye, u], [u.conj().T, eye]])
                defect = operator_norm(p - target)
                worst = max(worst, defect)
                _check(defect <= 1e-9,
                       "dim %d: ||P - (1/2)[[1,u],[u*,1]]|| = %.3e > 1e-9"
                       % (dim, defect))
            return "20 random polar-phase identities, worst defect %.2e" % worst

        return self._run_criterion(9, body)

    def criterion_10(self) -> CriterionResult:
        def body():
            rng = np.random.default_rng(self.seed * 1009 + 10)
            for _ in range(20):
                dim = int(rng.integers(1, 13))
                h = _random_invertible_hermitian(rng, dim)
                eye = np.eye(dim)
                s_end = -CHI_CLAMP.minus(1.0) * eye + CHI_CLAMP.plus(1.0) * h
                s_start = -CHI_CLAMP.minus(-1.0) * eye + CHI_CLAMP.plus(-1.0) * h
                p_end = positive_spectral_projection(s_end)
                p_start = positive_spectral_projection(s_start)
                rank_p = positive_spectral_projection(h).rank
                relind = relative_index_projections(p_end, p_start)
                _check(
                    relind == rank_p,
                    "dim %d: relind %d != rank p = %d" % (dim, relind, rank_p),
                )
            return "20 random suspension endpoints with relind(p, 0) = rank p"

        return self._run_criterion(10, body)

    # -- suite -------------------------------------------------------------

    def criterion(self, index: int) -> CriterionResult:
        return getattr(self, "criterion_%d" % index)()

    def run(self, profile: str = "full") -> list[CriterionResult]:
        if profile not in ("quick", "full"):
            raise ValueError("profile must be 'quick' or 'full'")
        indices = QUICK_PROFILE if profile == "quick" else FULL_PROFILE
        return [self.criterion(i) for i in indices]


def run_verify(profile: str = "quick", out=None, seed: int = 0) -> int:
    """Run the acceptance suite; print one line per criterion; 0 iff all pass."""
    session = VerifySession(seed=seed, quick=(profile == "quick"))
    t0 = time.perf_counter()
    results = session.run(profile)
    total = time.perf_counter() - t0
    for result in results:
        print(result.line)
    passed = sum(1 for r in results if r.passed)
    print(
        "verify[%s]: %d/%d criteria passed in %.1fs"
        % (profile, passed, len(results), total)
    )
    if out:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "profile": profile,
            "seed": seed,
            "total_seconds": total,
            "criteria": [dataclasses.asdict(r) for r in results],
        }
        with open(out_dir / "verify_report.json", "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if passed == len(results) else 1
