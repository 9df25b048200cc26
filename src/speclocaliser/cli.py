"""Command-line interface.

Subcommands: localise, sf, oracle, verify, export.  Exit codes: 0 on
success, 1 when any job or criterion fails, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .errors import ConfigError, SpecLocaliserError
from .flow import CHI_PAIRS
from .harness import RunConfig, export_model, run_localise, run_oracle, run_sf
from .localiser import MODES
from .models import KINDS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speclocaliser",
        description="Index pairings via truncated spectral localisers.",
    )
    parser.add_argument(
        "--version", action="version", version="speclocaliser %s" % __version__
    )
    sub = parser.add_subparsers(dest="command", required=True)
    model_help = "model spec (%s:key=val,... or manifest path)" % "|".join(
        kind.head for kind in KINDS.values())

    def add_sweep_flags(p, flow=False):
        p.add_argument("--config", help="YAML run configuration file")
        p.add_argument("--model", help=model_help)
        p.add_argument("--kappa", type=float, nargs="+", help="coupling values")
        p.add_argument("--rho", type=float, nargs="+", help="truncation radii")
        p.add_argument("--mode", choices=MODES)
        if flow:
            p.add_argument("--grid", type=int, help="path samples per sweep")
            p.add_argument("--chi", choices=sorted(CHI_PAIRS))
            p.add_argument(
                "--trace", action="store_true", default=None,
                help="write each job's eigenvalue trace alongside the report",
            )
        p.add_argument("--out", help="output directory for reports")
        p.add_argument("--workers", type=int, help="parallel job workers")

    add_sweep_flags(sub.add_parser("localise", help="pairing sweep over (kappa, rho)"))
    add_sweep_flags(sub.add_parser("sf", help="suspension spectral-flow sweep"), flow=True)

    p_oracle = sub.add_parser("oracle", help="print the pairing the model's oracle predicts")
    p_oracle.add_argument("--model", required=True, help=model_help)
    p_oracle.add_argument("--out", help="optional directory for oracle.json")

    p_verify = sub.add_parser("verify", help="run the acceptance criteria suite")
    p_verify.add_argument("--profile", choices=("quick", "full"), default="quick")
    p_verify.add_argument("--out", help="optional directory for the suite report")

    p_export = sub.add_parser("export", help="write model matrices to Matrix Market")
    p_export.add_argument("--model", required=True, help=model_help)
    p_export.add_argument("--out", required=True)
    return parser


def _build_config(args) -> RunConfig:
    overrides = dict(
        model=args.model,
        kappas=tuple(args.kappa) if args.kappa else None,
        rhos=tuple(args.rho) if args.rho else None,
        mode=args.mode,
        out=args.out,
        workers=args.workers,
        trace=getattr(args, "trace", None),
        grid=getattr(args, "grid", None),
        chi=getattr(args, "chi", None),
    )
    # RunConfig.validate, run by every runner, checks the merged keys
    return (RunConfig.from_file(args.config) if args.config else RunConfig()).merged(**overrides)


def _print_report(report) -> None:
    for rec in report.records:
        if rec.status == "error":
            line = "kappa=%-8g rho=%-6g ERROR %s" % (rec.kappa, rec.rho, rec.error)
        else:
            line = (
                "kappa=%-8g rho=%-6g pairing=%-3s oracle=%-3s agree=%-5s %.2fs"
                % (rec.kappa, rec.rho, rec.pairing, rec.oracle, rec.agreement,
                   rec.seconds)
            )
            if rec.violations:
                line += "  violations=%s" % ",".join(rec.violations)
            if "sf_crossings" in rec.extra:
                line += "  sf=%s/%s" % (
                    rec.extra["sf_crossings"], rec.extra["sf_endpoints"]
                )
        print(line)
    if report.oracle_error:
        print("oracle error: %s" % report.oracle_error)
    s = report.summary
    print(
        "jobs=%d passed=%d failed=%d errors=%d violations=%d"
        % (s["jobs"], s["passed"], s["failed"], s["errors"], s["violations"])
    )


def _cmd_localise(args) -> int:
    report = run_localise(_build_config(args))
    _print_report(report)
    return 0 if report.all_passed else 1


def _cmd_sf(args) -> int:
    report = run_sf(_build_config(args))
    _print_report(report)
    return 0 if report.all_passed else 1


def _cmd_oracle(args) -> int:
    result = run_oracle(args.model, out=args.out)
    print(
        "%s oracle (%s): %d"
        % (result["model"]["kind"], result["oracle_ref"], result["pairing"])
    )
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_verify

    return run_verify(profile=args.profile, out=args.out)


def _cmd_export(args) -> int:
    path = export_model(args.model, args.out)
    print("wrote %s" % path)
    return 0


_HANDLERS = {
    "localise": _cmd_localise,
    "sf": _cmd_sf,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
    "export": _cmd_export,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage; its error exit code is 2
        return int(exc.code) if exc.code is not None else 0
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except SpecLocaliserError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
