"""Sweep harness: model specs, run configs, reports and the CLI wrapper."""

import copy
import json

import numpy as np
import pytest
import yaml

from speclocaliser import (
    ConfigError,
    RunConfig,
    export_model,
    parse_model_spec,
    run_localise,
    run_oracle,
    run_sf,
    save_model,
)
from speclocaliser import cli, harness


def _strip_timing(report_dict):
    d = copy.deepcopy(report_dict)
    for rec in d["records"]:
        rec.pop("seconds", None)
        rec.get("extra", {}).pop("seconds", None)
    return d


class TestModelSpecs:
    def test_circle_sugar(self):
        model = parse_model_spec("circle:modes=20,winding=2,c0=0.3")
        assert model.kind == "circle"
        assert model.dim == 41
        assert model.params["symbol"] == {0: [0.3, 0.0], 2: [1.0, 0.0]}

    def test_qwz_sugar(self):
        model = parse_model_spec("qwz:box=4,mass=3.0,offset=integer")
        assert model.kind == "qwz"
        assert model.dim == 4 * 81
        assert model.params["offset"] == "integer"

    def test_shift_sugar_with_defaults(self):
        model = parse_model_spec("shift:sites=12")
        assert model.kind == "weighted_shift"
        assert model.params["nu"] == 1 and model.params["sign"] == 1

    def test_manifest_path(self, tmp_path, shift40):
        save_model(shift40, tmp_path / "m")
        model = parse_model_spec(str(tmp_path / "m"))
        assert model.kind == "weighted_shift"
        assert np.array_equal(model.dirac.toarray(), shift40.dirac.toarray())

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "circle:winding=1",  # modes missing
            "circle:modes=20,bogus=1",
            "qwz:box=4",  # mass missing
            "torus:n=3",
            "/nonexistent/path/model",
            "circle:modes=abc",
            "qwz:box=4,mass=1.0,mass=3.0",  # a repeated key, not the last one
        ],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ConfigError):
            parse_model_spec(bad)

    def test_repeated_key_is_named(self):
        with pytest.raises(ConfigError, match="model spec key 'mass' is repeated"):
            parse_model_spec("qwz:box=4,mass=1.0,mass=3.0")


class TestRunConfig:
    def test_validate_accepts_good_config(self, tmp_path):
        cfg = RunConfig(
            model="circle:modes=20", kappas=[0.05], rhos=[10.5], out=str(tmp_path / "r")
        )
        cfg.validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kappas=[], rhos=[10.5]),
            dict(kappas=[0.05], rhos=[]),
            dict(kappas=[-0.05], rhos=[10.5]),
            dict(kappas=[0.05], rhos=[0.0]),
            dict(kappas=[0.05], rhos=[10.5], mode="lenient"),
            dict(kappas=[0.05], rhos=[10.5], chi="triangle"),
            dict(kappas=[0.05], rhos=[10.5], trace=True),  # trace needs out
            dict(kappas=[0.05], rhos=[10.5], grid=1),
            dict(kappas=[float("nan")], rhos=[10.5]),
            dict(kappas=[float("inf")], rhos=[10.5]),
            dict(kappas=[0.05], rhos=[float("nan")]),
            dict(kappas=[0.05], rhos=[10.5, float("inf")]),
        ],
    )
    def test_validate_rejects(self, kwargs):
        cfg = RunConfig(model="circle:modes=20", **kwargs)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_from_file_and_merge(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            yaml.safe_dump(
                {"model": "circle:modes=20", "kappas": [0.05], "rhos": [10.5]}
            )
        )
        cfg = RunConfig.from_file(path)
        merged = cfg.merged(kappas=[0.02], mode="strict")
        assert list(merged.kappas) == [0.02]
        assert merged.mode == "strict"
        assert list(merged.rhos) == [10.5]  # None overrides leave file values

    def test_from_file_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({"model": "circle:modes=20", "kapas": [0.1]}))
        with pytest.raises(ConfigError):
            RunConfig.from_file(path)

    def test_from_file_requires_mapping(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("- just\n- a\n- list\n")
        with pytest.raises(ConfigError):
            RunConfig.from_file(path)


class TestLocaliseSweeps:
    def test_grid_sweep_agrees_with_oracle(self):
        cfg = RunConfig(
            model="circle:modes=40", kappas=[0.02, 0.05], rhos=[20.5, 30.5]
        )
        report = run_localise(cfg)
        assert report.summary["jobs"] == 4
        assert report.summary["passed"] == 4
        assert report.summary["errors"] == 0
        for rec in report.records:
            assert rec.agreement is True
            assert rec.pairing == rec.oracle == -1

    def test_trivial_phase_sweep(self):
        # a large trivial mass still pairs to zero
        cfg = RunConfig(model="qwz:box=4,mass=5.0", kappas=[1.0], rhos=[3.5])
        report = run_localise(cfg)
        assert report.records[0].pairing == 0
        assert report.records[0].agreement is True

    def test_job_errors_are_contained(self):
        # rho on a D eigenvalue fails that job, not the sweep
        cfg = RunConfig(model="circle:modes=40", kappas=[0.05], rhos=[30.0, 30.5])
        report = run_localise(cfg)
        by_rho = {rec.rho: rec for rec in report.records}
        assert by_rho[30.0].status == "error"
        assert "window edge" in by_rho[30.0].error
        assert by_rho[30.5].passed
        assert report.summary["errors"] == 1

    def test_strict_infeasible_jobs_recorded(self):
        # kappa above the strict cap: every job errors, none raises
        cfg = RunConfig(
            model="circle:modes=40", kappas=[0.05], rhos=[25.5, 30.5], mode="strict"
        )
        report = run_localise(cfg)
        assert all(r.status == "error" for r in report.records)
        assert all("kappa_bound" in r.error for r in report.records)

    def test_report_is_deterministic(self):
        cfg = RunConfig(model="shift:sites=20", kappas=[0.1, 0.2], rhos=[5.5, 8.5])
        a = _strip_timing(run_localise(cfg).as_dict())
        b = _strip_timing(run_localise(cfg).as_dict())
        assert a == b

    def test_worker_pool_matches_serial(self):
        # integers must agree exactly; floats may differ in the last bit,
        # since each worker recomputes the windows and gaps of the model it
        # was handed at start-up (once per worker, not per job)
        grids = [
            ("shift:sites=20", [0.1, 0.2], [5.5, 8.5]),
            # kappa_bound reads the builder's [D, K] bound sum|k||c_k| here
            ("circle:modes=40", [0.02, 0.05], [20.5, 30.5]),
        ]
        for spec, kappas, rhos in grids:
            serial = RunConfig(model=spec, kappas=kappas, rhos=rhos, workers=1)
            pooled = RunConfig(model=spec, kappas=kappas, rhos=rhos, workers=2)
            a = run_localise(serial).records
            b = run_localise(pooled).records
            assert len(a) == len(b) == 4
            for ra, rb in zip(a, b):
                assert (ra.kappa, ra.rho, ra.status) == (rb.kappa, rb.rho, rb.status)
                assert ra.pairing == rb.pairing
                assert ra.signature == rb.signature
                assert ra.inertia == rb.inertia
                assert ra.agreement is rb.agreement is True
                assert ra.violations == rb.violations
                assert ra.truncated_gap == pytest.approx(rb.truncated_gap, rel=1e-12)
                assert [c["name"] for c in ra.certificates] == [
                    c["name"] for c in rb.certificates
                ]
                for ca, cb in zip(ra.certificates, rb.certificates):
                    assert ca["measured"] == pytest.approx(
                        cb["measured"], rel=1e-12, nan_ok=True
                    )

    def test_pool_never_outnumbers_jobs(self, monkeypatch):
        # a fork pool starts every worker at the first submit, so the cap
        # must be set before the pool exists; the stand-in starts no process
        seen = []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                seen.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(harness, "_worker_model", None)
        monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cfg = RunConfig(model="shift:sites=20", kappas=[0.1, 0.2], rhos=[5.5], workers=8)
        model = parse_model_spec(cfg.model)
        got = harness._sweep(cfg, model, lambda m, k, r: (m is model, k, r))
        assert seen == [2]
        assert got == [(True, 0.1, 5.5), (True, 0.2, 5.5)]

    def test_oracle_error_is_recorded(self, capsys):
        # 1 + z vanishes at theta = pi: the winding grid hits it, the box
        # momenta miss it, so G stays invertible and only the oracle fails
        spec = "circle:modes=40,winding=1,c0=1.0"
        cfg = RunConfig(model=spec, kappas=[0.05], rhos=[30.5], workers=1)
        report = run_localise(cfg)
        rec = report.records[0]
        assert rec.status == "ok" and rec.oracle is None and not rec.passed
        assert report.oracle_error.startswith("SingularSymbol: ")
        assert report.as_dict()["oracle_error"] == report.oracle_error
        code = cli.main(["localise", "--model", spec, "--kappa", "0.05", "--rho", "30.5"])
        assert code == 1
        assert "oracle error: SingularSymbol" in capsys.readouterr().out

    def test_kind_outside_the_table_loads_and_pairs(self, tmp_path, shift40):
        # a manifest's kind need not be in models.KINDS: it loads, pairs, and
        # its report records why no oracle could be read
        path = save_model(shift40, tmp_path / "m")
        doc = yaml.safe_load(path.read_text())
        doc["kind"] = "custom"
        path.write_text(yaml.safe_dump(doc))
        report = run_localise(RunConfig(model=str(tmp_path / "m"), kappas=[0.5], rhos=[10.5]))
        rec = report.records[0]
        assert rec.status == "ok" and rec.pairing == -1 and rec.oracle is None
        assert report.model["kind"] == "custom" and report.model["oracle_ref"] is None
        assert report.oracle_error == (
            "ValidationError: no oracle registered for model kind 'custom'"
        )

    def test_output_files(self, tmp_path):
        out = tmp_path / "sweep"
        cfg = RunConfig(
            model="shift:sites=20", kappas=[0.1], rhos=[5.5], out=str(out)
        )
        report = run_localise(cfg)
        report.write(out)
        data = json.loads((out / "report.json").read_text())
        assert data["summary"]["jobs"] == 1
        assert (out / "summary.csv").read_text().startswith("kappa,rho,mode")
        resolved = yaml.safe_load((out / "resolved_config.yaml").read_text())
        assert resolved["model"] == "shift:sites=20"


class TestFlowSweeps:
    def test_flow_confirms_pairing(self, tmp_path):
        out = tmp_path / "sf"
        cfg = RunConfig(
            model="circle:modes=40",
            kappas=[0.05],
            rhos=[20.5],
            out=str(out),
            trace=True,
            grid=17,
        )
        report = run_sf(cfg)
        rec = report.records[0]
        assert rec.passed
        assert rec.extra["sf_consistent"] is True
        assert rec.extra["sf_crossings"] == rec.extra["sf_endpoints"] == rec.pairing
        assert rec.extra["sample_fallbacks"] == 0  # no counted sample's LU declined
        assert rec.extra["proved_samples"] > 0  # reference-half samples, given with no LU
        traces = list(out.glob("trace_*.csv"))
        assert len(traces) == 1
        header = traces[0].read_text().splitlines()[0]
        assert header.startswith("t,")

    def test_pooled_trace_sweep_equals_serial(self, tmp_path):
        # every traced job writes its own CSV, so the pool may run them
        runs = {}
        for workers in (1, 2):
            out = tmp_path / ("w%d" % workers)
            cfg = RunConfig(model="shift:sites=20", kappas=[0.1, 0.2], rhos=[5.5, 8.5],
                            out=str(out), trace=True, grid=9, workers=workers)
            run_sf(cfg)
            report = _strip_timing(json.loads((out / "report.json").read_text()))
            report["config"].pop("out")
            report["config"].pop("workers")
            traces = {p.name: p.read_bytes() for p in out.glob("trace_*.csv")}
            runs[workers] = (report, traces)
        assert runs[1][0] == runs[2][0]
        assert len(runs[1][1]) == 4
        assert runs[1][1] == runs[2][1]

    def test_close_kappas_write_separate_traces(self, tmp_path):
        # kappas equal to 6 significant digits: one CSV each, none overwritten
        cfg = RunConfig(model="circle:modes=40", kappas=[0.05, 0.0500000001], rhos=[10.5],
                        out=str(tmp_path), trace=True, grid=9)
        report = run_sf(cfg)
        assert [rec.status for rec in report.records] == ["ok", "ok"]
        assert len(list(tmp_path.glob("trace_*.csv"))) == 2

    def test_localise_rejects_trace(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({
            "model": "shift:sites=20", "kappas": [0.1], "rhos": [5.5],
            "out": str(tmp_path / "r"), "trace": True,
        }))
        with pytest.raises(ConfigError):
            run_localise(RunConfig.from_file(path))
        assert cli.main(["localise", "--config", str(path)]) == 2
        assert not (tmp_path / "r" / "report.json").exists()
        # --trace is an sf flag only: argparse rejects it with exit code 2
        args = ["--model", "shift:sites=20", "--kappa", "0.1", "--rho", "5.5",
                "--out", str(tmp_path / "r"), "--trace"]
        assert cli.main(["localise"] + args) == 2

    def test_smooth_cutoff_agrees(self):
        clamp = RunConfig(model="shift:sites=20", kappas=[0.1], rhos=[5.5], chi="clamp")
        smooth = RunConfig(model="shift:sites=20", kappas=[0.1], rhos=[5.5], chi="smooth")
        a = run_sf(clamp).records[0]
        b = run_sf(smooth).records[0]
        assert a.extra["sf_crossings"] == b.extra["sf_crossings"]
        assert a.pairing == b.pairing


class TestOracleAndExport:
    def test_oracle_run(self, tmp_path):
        result = run_oracle("qwz:box=4,mass=1.0", out=tmp_path / "o")
        assert result["pairing"] == 1
        assert result["oracle_ref"] == "chern_number_fhs"
        data = json.loads((tmp_path / "o" / "oracle.json").read_text())
        assert data["pairing"] == 1

    def test_export_creates_loadable_manifest(self, tmp_path):
        path = export_model("shift:sites=12,nu=2", tmp_path / "m")
        reloaded = parse_model_spec(str(path))
        assert reloaded.params["nu"] == 2


class TestCli:
    def test_localise_exit_zero(self, capsys):
        code = cli.main(
            ["localise", "--model", "shift:sites=20", "--kappa", "0.1", "--rho", "5.5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pairing" in out

    def test_disagreement_or_error_exit_one(self):
        code = cli.main(
            ["localise", "--model", "circle:modes=40", "--kappa", "0.05", "--rho", "30.0"]
        )
        assert code == 1

    def test_config_error_exit_two(self):
        code = cli.main(
            ["localise", "--model", "hexagon:n=1", "--kappa", "0.1", "--rho", "5.5"]
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["localise", "sf"])
    @pytest.mark.parametrize(
        "fields",
        [
            {"kappas": 0.05},  # a scalar, not a list
            {"kappas": ["abc"]},
            {"rhos": [5.5, None]},
            {"grid": "abc"},
            {"grid": 2.5},
            {"workers": "two"},
            {"workers": 1.5},
            {"chi": ["clamp"]},
            {"out": 5},
        ],
    )
    def test_malformed_config_file_exits_two(self, tmp_path, capsys, command, fields):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(
            {"model": "shift:sites=20", "kappas": [0.1], "rhos": [5.5], **fields}
        ))
        assert cli.main([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_flags_complete_a_partial_config_file(self, tmp_path, capsys):
        # the file gives the grids, the flag the model; the required keys are
        # checked once both are merged, and a key neither gives exits 2
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump({"kappas": [0.1], "rhos": [5.5]}))
        assert cli.main(["localise", "--config", str(path), "--model", "shift:sites=20"]) == 0
        assert "pairing=" in capsys.readouterr().out
        assert cli.main(["localise", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "--model" in err
        assert cli.main(["sf", "--model", "shift:sites=20", "--kappa", "0.1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "--rho" in err

    @pytest.mark.parametrize(
        "flag,value", [("--kappa", "nan"), ("--kappa", "inf"), ("--rho", "nan"), ("--rho", "inf")]
    )
    def test_non_finite_kappa_or_rho_exits_two(self, capsys, flag, value):
        # the last of a repeated flag wins
        argv = ["localise", "--model", "circle:modes=40", "--kappa", "0.05", "--rho", "25.5"]
        assert cli.main(argv + [flag, value]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("spec,key", [
        ("qwz:box=5,mass=nan", "mass"),
        ("qwz:box=5,mass=inf", "mass"),
        ("circle:modes=20,c0=nan", "c0"),
        ("circle:modes=20,offset=inf", "offset"),
    ])
    def test_non_finite_model_spec_exits_two(self, capsys, spec, key):
        argv = ["localise", "--model", spec, "--kappa", "0.1", "--rho", "2.5"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "key %s=" % key in err

    def test_sf_subcommand(self, capsys):
        code = cli.main(
            ["sf", "--model", "shift:sites=20", "--kappa", "0.1", "--rho", "5.5", "--grid", "17"]
        )
        assert code == 0
        assert "sf" in capsys.readouterr().out

    def test_oracle_subcommand(self, capsys):
        code = cli.main(["oracle", "--model", "circle:modes=20,winding=2"])
        assert code == 0
        assert "-2" in capsys.readouterr().out

    def test_export_subcommand(self, tmp_path):
        code = cli.main(
            ["export", "--model", "shift:sites=12", "--out", str(tmp_path / "m")]
        )
        assert code == 0
        assert (tmp_path / "m" / "manifest.yaml").exists()

    def test_config_file_with_override(self, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            yaml.safe_dump(
                {"model": "shift:sites=20", "kappas": [0.1], "rhos": [5.5]}
            )
        )
        code = cli.main(["localise", "--config", str(path), "--kappa", "0.2"])
        assert code == 0
        assert "kappa=0.2" in capsys.readouterr().out
