"""Acceptance verification suite.

Ten numbered criteria cover the pairing theorems end to end: strict and
permissive pairings against independent oracles, certificate audits,
spectral-flow consistency, parameter/box/chi stability, and random checks
of the two projection lemmas, whose spectral projections are built here
with ``numpy.linalg.eigh``: no pairing, flow or sweep path needs one.

One table, ``_GRIDS``, holds the pairing grids of criteria 1-4: a
generator of models and their (kappa, rho, mode) jobs, the models' label,
and the point of each model's suspension path.  A ``VerifySession`` builds
and times each grid once; the certificate audit (5), the suspensions (6, 8)
and the stability checks (7) read the same grids.  Each criterion is a
plain check that returns its detail line or raises; ``criterion`` times it
and records a :class:`CriterionResult` with one pass/fail line of detail.

The profile is given once, to the session: the quick profile runs the
sub-minute subset and audits and suspends the grids of its criteria 1 and
3 alone; the full profile runs all ten criteria and is the acceptance gate.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import SpecLocaliserError
from .flow import CHI_CLAMP, CHI_SMOOTH, line_path, sf_crossings, suspension
from .localiser import LocaliserParams, pairing
from .models import build_circle_model, build_qwz_model, build_weighted_shift_dirac
from .models import oracle_pairing

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

PROFILES = {"quick": (1, 3, 5, 6, 9, 10), "full": tuple(range(1, 11))}

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
_MIN_GAP = 1e-2


def _strict_circle():
    yield (), build_circle_model(200, {0: 0.5, 1: 1.0}), [(1.0 / 144.0, 145.5, "strict")]


def _circle_sweep():
    for k in _CIRCLE_WINDINGS:
        yield k, build_circle_model(60, {0: 0.5, k: 1.0}), [
            (kap, rho, "permissive") for kap in _CIRCLE_KAPPAS for rho in _CIRCLE_RHOS
        ]


def _shift_pairs():
    for nu in _SHIFT_NUS:
        for sign in (1, -1):
            yield (nu, sign), build_weighted_shift_dirac(40, nu=nu, sign=sign), [
                (0.1, 10.5, "permissive")
            ]


def _qwz_sweep():
    for offset in _QWZ_OFFSETS:
        for mass in _QWZ_MASSES:
            model = build_qwz_model(box=12, mass=mass, offset=offset)
            yield (mass, offset), model, [
                (kap, rho, "permissive")
                for kap in _QWZ_KAPPAS
                for rho in _QWZ_RHOS
                if kap * rho > model.k_norm()
            ]


class _GridSpec(NamedTuple):
    """The pairing grid of one of criteria 1-4."""

    models: Callable  # generator of (model key, model, [(kappa, rho, mode)])
    label: str  # the model's label, a format of its key
    suffixed: bool  # whether a job's label appends its kappa and rho
    path: tuple  # the (kappa, rho) of the model's suspension path


_GRIDS = {
    1: _GridSpec(_strict_circle, "circle strict", False, (1.0 / 144.0, 145.5)),
    2: _GridSpec(_circle_sweep, "circle w=%d", True, (0.05, 30.5)),
    3: _GridSpec(_shift_pairs, "shift nu=%d sign=%+d", False, (0.1, 10.5)),
    4: _GridSpec(_qwz_sweep, "qwz m=%g %s", True, (1.0, 6.5)),
}


def _random_hermitian(rng, dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2.0


def _random_invertible_hermitian(rng, dim: int) -> np.ndarray:
    # redraws until every eigenvalue is at least _MIN_GAP away from zero
    while True:
        h = _random_hermitian(rng, dim)
        if float(np.min(np.abs(np.linalg.eigvalsh(h)))) > _MIN_GAP:
            return h


def _positive_projection(h: np.ndarray) -> tuple[np.ndarray, int]:
    """The projection onto the positive eigenspace of an invertible Hermitian
    h, and its rank.  Checks that no eigenvalue of h lies within 1e-8 of 0
    relative to the largest, and that the projection is Hermitian and its
    eigenvalues lie within 1e-10 of {0, 1}."""
    w, v = np.linalg.eigh(h)
    tol = 1e-8 * float(np.max(np.abs(w)))
    _check(np.all(np.abs(w) > tol), "dim %d: eigenvalue %.3e within zero_tol %.3e of 0"
           % (w.size, float(np.min(np.abs(w))), tol))
    cols = v[:, w > tol]
    p = cols @ cols.conj().T
    wp = np.linalg.eigvalsh(p)
    asymmetry = float(np.max(np.abs(p - p.conj().T)))
    stray = float(np.max(np.minimum(np.abs(wp), np.abs(wp - 1.0))))
    _check(max(asymmetry, stray) <= 1e-10,
           "dim %d: projection asymmetry %.3e, eigenvalues stray from {0,1} by %.3e"
           % (w.size, asymmetry, stray))
    return p, int(np.sum(wp > 0.5))


class VerifySession:
    """The criteria of one profile ("quick" or "full"), each run once, over
    pairing grids each built once."""

    def __init__(self, profile: str = "full"):
        if profile not in PROFILES:
            raise ValueError("profile must be 'quick' or 'full'")
        self.profile = profile
        self._grids: dict = {}
        self._suspensions: list[dict] | None = None
        self._results: dict[int, CriterionResult] = {}

    # -- pairing grids -----------------------------------------------------

    def _grid(self, index: int) -> tuple[dict, float]:
        """Criterion index's grid, {model key: (model, {(kappa, rho):
        PairingResult})}, and the seconds it took to build."""
        if index not in self._grids:
            t0 = time.perf_counter()
            grid = {
                key: (model, {(kap, rho): pairing(model, LocaliserParams(kap, rho, mode))
                              for kap, rho, mode in jobs})
                for key, model, jobs in _GRIDS[index].models()
            }
            self._grids[index] = grid, time.perf_counter() - t0
        return self._grids[index]

    def _models(self):
        """(grid spec, model label, model, {(kappa, rho): PairingResult}) for
        every model of the profile's criteria 1-4."""
        for index in PROFILES[self.profile]:
            if index in _GRIDS:
                spec = _GRIDS[index]
                for key, (model, jobs) in self._grid(index)[0].items():
                    yield spec, spec.label % key, model, jobs

    def _all_pairing_results(self) -> list[tuple[str, object]]:
        """(label, PairingResult) for every job of the profile's criteria 1-4."""
        return [
            (label + (" k=%g r=%g" % (kap, rho) if spec.suffixed else ""), res)
            for spec, label, _, jobs in self._models()
            for (kap, rho), res in jobs.items()
        ]

    def _suspension_entries(self) -> list[dict]:
        """Suspension SF records (clamp and smooth) for every model of the
        profile's criteria 1-4, at its grid's path point."""
        if self._suspensions is None:
            entries = []
            for spec, label, model, jobs in self._models():
                kap, rho = spec.path
                record = {"label": label, "pairing": jobs[spec.path].pairing}
                for chi in (CHI_CLAMP, CHI_SMOOTH):
                    flow = sf_crossings(suspension(model, kap, rho, chi=chi))
                    record["sf_" + chi.name] = flow.value
                    record["ends_" + chi.name] = flow.endpoints
                entries.append(record)
            self._suspensions = entries
        return self._suspensions

    # -- criteria ----------------------------------------------------------

    def _criterion_1(self) -> str:
        grid, seconds = self._grid(1)
        model, jobs = grid[()]
        (res,) = jobs.values()
        oracle = oracle_pairing(model)
        _check(res.pairing == oracle,
               "pairing %d != oracle %d" % (res.pairing, oracle))
        _check(abs(res.pairing) == 1, "pairing magnitude %d != 1" % res.pairing)
        _check(res.dim_full == 802, "full localiser dim %d != 802" % res.dim_full)
        _check(res.truncated_gap >= 0.25 - 1e-9,
               "truncated gap %.6f < 0.25" % res.truncated_gap)
        _check(not res.violations, "violations: %s" % list(res.violations))
        _check(seconds < _TIME_LIMITS[1],
               "runtime %.1fs over %gs" % (seconds, _TIME_LIMITS[1]))
        return (
            "strict pairing %d == winding oracle, gap %.3f >= 0.25, %.1fs"
            % (res.pairing, res.truncated_gap, seconds)
        )

    def _criterion_2(self) -> str:
        grid, seconds = self._grid(2)
        jobs = 0
        for k, (model, results) in grid.items():
            oracle = oracle_pairing(model)
            values = {key: res.pairing for key, res in results.items()}
            jobs += len(values)
            _check(
                all(v == oracle for v in values.values()),
                "winding %d: pairings %s != oracle %d"
                % (k, sorted(set(values.values())), oracle),
            )
            _check(len(set(values.values())) == 1,
                   "winding %d: pairing varies across grid" % k)
        _check(jobs == 45, "expected 45 jobs, ran %d" % jobs)
        _check(seconds < _TIME_LIMITS[2],
               "runtime %.1fs over %gs" % (seconds, _TIME_LIMITS[2]))
        return "45/45 jobs match the winding oracle, %.1fs" % seconds

    def _criterion_3(self) -> str:
        grid, seconds = self._grid(3)
        for nu in _SHIFT_NUS:
            plus, minus = (grid[(nu, sign)][1][(0.1, 10.5)] for sign in (1, -1))
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
        _check(seconds < _TIME_LIMITS[3],
               "runtime %.1fs over %gs" % (seconds, _TIME_LIMITS[3]))
        return (
            "6/6 shift jobs: pairing = -nu for H=+1, 0 for H=-1, "
            "Sig = -/+nu, %.1fs" % seconds
        )

    def _criterion_4(self) -> str:
        grid, seconds = self._grid(4)
        jobs = 0
        per_mass: dict[float, set] = {}
        for (mass, offset), (model, results) in grid.items():
            expected = {-1.0: 4, 1.0: 4, 3.0: 2}[mass]
            _check(
                len(results) == expected,
                "m=%g %s: %d jobs after the kappa*rho filter, expected %d"
                % (mass, offset, len(results), expected),
            )
            oracle = oracle_pairing(model)
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
        _check(seconds < _TIME_LIMITS[4],
               "runtime %.1fs over %gs" % (seconds, _TIME_LIMITS[4]))
        return (
            "%d/%d jobs match the Chern oracle (m=+-1 -> %+d/%+d, m=3 -> 0), "
            "offsets agree, %.1fs" % (jobs, jobs, p_plus, p_minus, seconds)
        )

    def _criterion_5(self) -> str:
        records = self._all_pairing_results()
        _check(records, "no pairing jobs available to audit")
        violated = []
        applicable = 0
        regime_checked = 0
        for label, res in records:
            for cert in res.certificates:
                if cert.kind == "guarantee" and cert.applicable:
                    applicable += 1
                    regime_checked += cert.name == "regime_gap"
                    if cert.violated:
                        violated.append("%s: %s" % (label, cert.name))
        _check(not violated, "violated guarantees: %s" % violated)
        return (
            "%d jobs, %d applicable guarantees, %d regime hypotheses, "
            "0 violations" % (len(records), applicable, regime_checked)
        )

    def _criterion_6(self) -> str:
        entries = self._suspension_entries()
        bad = [
            e["label"]
            for e in entries
            if not (e["sf_clamp"] == e["ends_clamp"] == e["pairing"])
        ]
        _check(not bad, "suspension sf != pairing for: %s" % bad)

        rng = np.random.default_rng(6)
        for _ in range(50):
            dim = int(rng.integers(2, 61))
            a = _random_invertible_hermitian(rng, dim)
            b = _random_invertible_hermitian(rng, dim)
            flow = sf_crossings(line_path(a, b))
            crossings, ends = flow.value, flow.endpoints
            _check(
                crossings == ends,
                "random line dim %d: sf_crossings %d != sf_endpoints %d"
                % (dim, crossings, ends),
            )
        return (
            "%d suspension paths with sf_crossings = sf_endpoints = pairing, "
            "50 random lines consistent" % len(entries)
        )

    def _criterion_7(self) -> str:
        checks = 0
        # grid constancy inside each model (criteria 2 and 4 sweeps)
        circles, qwz = self._grid(2)[0], self._grid(4)[0]
        for k, (_, results) in circles.items():
            values = {res.pairing for res in results.values()}
            _check(len(values) == 1, "circle w=%d varies across grid" % k)
            checks += 1
        for key, (_, results) in qwz.items():
            values = {res.pairing for res in results.values()}
            _check(len(values) == 1, "qwz %s varies across grid" % (key,))
            checks += 1

        # +50% box growth, one probe point per model family
        for k, (_, results) in circles.items():
            base = results[(0.05, 30.5)].pairing
            grown = pairing(
                build_circle_model(90, {0: 0.5, k: 1.0}),
                LocaliserParams(0.05, 30.5),
            ).pairing
            _check(grown == base,
                   "circle w=%d: M 60->90 changed pairing %d -> %d"
                   % (k, base, grown))
            checks += 1
        for (nu, sign), (_, results) in self._grid(3)[0].items():
            base = results[(0.1, 10.5)].pairing
            grown = pairing(
                build_weighted_shift_dirac(60, nu=nu, sign=sign),
                LocaliserParams(0.1, 10.5),
            ).pairing
            _check(grown == base,
                   "shift nu=%d sign=%+d: N 40->60 changed pairing %d -> %d"
                   % (nu, sign, base, grown))
            checks += 1
        for mass in _QWZ_MASSES:
            base = qwz[(mass, "half_integer")][1][(1.0, 6.5)].pairing
            grown = pairing(
                build_qwz_model(box=18, mass=mass),
                LocaliserParams(1.0, 6.5),
                certificates=False,
            ).pairing
            _check(grown == base,
                   "qwz m=%g: L 12->18 changed pairing %d -> %d"
                   % (mass, base, grown))
            checks += 1
        return "%d grid-constancy and box-growth checks, zero exceptions" % checks

    def _criterion_8(self) -> str:
        entries = self._suspension_entries()
        bad = [
            e["label"]
            for e in entries
            if e["sf_smooth"] != e["sf_clamp"]
            or e["ends_smooth"] != e["ends_clamp"]
        ]
        _check(not bad, "clamp and smooth chi disagree for: %s" % bad)
        return "%d suspension paths identical under clamp and smooth chi" % len(entries)

    def _criterion_9(self) -> str:
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(20):
            dim = int(rng.integers(1, 9))
            while True:
                g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                if float(np.min(np.linalg.svd(g, compute_uv=False))) > 1e-3:
                    break
            u_left, _, vh = np.linalg.svd(g)
            u = u_left @ vh
            top = np.block([[np.zeros((dim, dim)), g], [g.conj().T, np.zeros((dim, dim))]])
            p, _ = _positive_projection(top)
            eye = np.eye(dim)
            target = 0.5 * np.block([[eye, u], [u.conj().T, eye]])
            defect = float(np.linalg.norm(p - target, 2))
            worst = max(worst, defect)
            _check(defect <= 1e-9,
                   "dim %d: ||P - (1/2)[[1,u],[u*,1]]|| = %.3e > 1e-9"
                   % (dim, defect))
        return "20 random polar-phase identities, worst defect %.2e" % worst

    def _criterion_10(self) -> str:
        rng = np.random.default_rng(10)
        for _ in range(20):
            dim = int(rng.integers(1, 13))
            h = _random_invertible_hermitian(rng, dim)
            eye = np.eye(dim)
            s_end = -CHI_CLAMP.minus(1.0) * eye + CHI_CLAMP.plus(1.0) * h
            s_start = -CHI_CLAMP.minus(-1.0) * eye + CHI_CLAMP.plus(-1.0) * h
            p_end, rank_end = _positive_projection(s_end)
            p_start, rank_start = _positive_projection(s_start)
            rank_p = _positive_projection(h)[1]
            # relind(P, Q) = dim ker(Q|ran P) - dim coker, with rank(QP)
            # read off singular values at threshold 1e-8
            s = np.linalg.svd(p_start @ p_end, compute_uv=False)
            _check(not np.any((s >= 1e-9) & (s <= 1e-7)),
                   "dim %d: singular values of QP inside the rank ambiguity "
                   "decade [1e-9, 1e-7]" % dim)
            r_qp = int(np.sum(s > 1e-8))
            _check(r_qp <= min(rank_end, rank_start),
                   "dim %d: rank(QP)=%d exceeds rank(P)=%d or rank(Q)=%d"
                   % (dim, r_qp, rank_end, rank_start))
            relind = (rank_end - r_qp) - (rank_start - r_qp)
            _check(
                relind == rank_p,
                "dim %d: relind %d != rank p = %d" % (dim, relind, rank_p),
            )
        return "20 random suspension endpoints with relind(p, 0) = rank p"

    # -- suite -------------------------------------------------------------

    def criterion(self, index: int) -> CriterionResult:
        """Criterion index's result, run and timed on the first call: a
        failed check reports its message, a library error its type and
        message."""
        if index not in self._results:
            t0 = time.perf_counter()
            try:
                detail, passed = getattr(self, "_criterion_%d" % index)(), True
            except CheckFailure as exc:
                detail, passed = str(exc), False
            except SpecLocaliserError as exc:
                detail, passed = "%s: %s" % (type(exc).__name__, exc), False
            self._results[index] = CriterionResult(
                index, CRITERION_NAMES[index], passed, detail, time.perf_counter() - t0
            )
        return self._results[index]

    def run(self) -> list[CriterionResult]:
        return [self.criterion(i) for i in PROFILES[self.profile]]


def run_verify(profile: str = "quick", out=None) -> int:
    """Run the acceptance suite; print one line per criterion; 0 iff all pass."""
    session = VerifySession(profile)
    t0 = time.perf_counter()
    results = session.run()
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
            "total_seconds": total,
            "criteria": [dataclasses.asdict(r) for r in results],
        }
        with open(out_dir / "verify_report.json", "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if passed == len(results) else 1
