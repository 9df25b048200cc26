"""Every script under scripts/ still imports what it needs and parses --help;
the cheap ones also run end to end."""

import csv
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _run(script, *args):
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.name for s in SCRIPTS])
def test_help_exits_zero(script):
    proc = _run(script, "--help")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "spec,kappa,rho,window_dim",
    [
        ("shift:sites=10", 0.1, 5.5, 11),  # |d| <= 5.5: 0 once, 1..5 twice
        ("circle:modes=20", 0.05, 10.5, 2 * 21),  # 21 modes, doubled
    ],
)
def test_trace_suspension_writes_one_row_per_sample(tmp_path, spec, kappa, rho, window_dim):
    out = tmp_path / "trace.csv"
    proc = _run(
        ROOT / "scripts" / "trace_suspension.py", "--model", spec,
        "--kappa", str(kappa), "--rho", str(rho), "--grid", "5", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t"] + ["lam%d" % i for i in range(window_dim)]
    assert [float(r[0]) for r in rows[1:]] == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert all(len(r) == 1 + window_dim for r in rows[1:])


def test_phase_scan_lean_mode_agrees_with_the_oracle():
    proc = _run(
        ROOT / "scripts" / "qwz_phase_scan.py", "--lean", "--box", "9", "--masses", "1.0", "3.0"
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [(r[0], r[2], r[3], r[4]) for r in rows] == [
        ("1.000", "1", "1", "yes"), ("3.000", "0", "0", "yes"),
    ]


@pytest.fixture(scope="module")
def quick_dump() -> str:
    proc = _run(ROOT / "scripts" / "dump_pairings.py", "--profile", "quick")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_dump_pairings_quick_profile(quick_dump):
    dump = json.loads(quick_dump)
    assert dump["criteria_passed"] == [1, 3, 5, 6, 9, 10]
    # one detail line per criterion, its wall times masked
    details = dump["details"]
    assert sorted(details, key=int) == ["1", "3", "5", "6", "9", "10"]
    assert details["1"].startswith("strict pairing -1 == winding oracle")
    assert details["1"].endswith(", *s")
    strict = dump["pairings"]["circle strict"]
    assert set(strict) == {
        "pairing", "signature", "inertia", "index_correction", "truncated_gap", "certificates",
    }
    n_pos, n_neg, n_zero = strict["inertia"]
    assert strict["signature"] == n_pos - n_neg == 2 * strict["pairing"] and n_zero == 0
    assert {c["name"] for c in strict["certificates"]} >= {"truncated_gap", "regime_gap"}
    for entry in dump["suspensions"]:
        assert entry["sf_clamp"] == entry["sf_smooth"] == entry["pairing"]


def test_dump_pairings_diff(tmp_path, quick_dump, capsys):
    # a quick dump diffed against itself by the script exits 0; a flipped
    # flag, or a float moved past FLOAT_RTOL, makes the comparison return 1
    path, before = ROOT / "scripts" / "dump_pairings.py", tmp_path / "before.json"
    before.write_text(quick_dump)
    proc = _run(path, "--profile", "quick", "--diff", str(before))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "largest relative float difference: 0\n"

    spec = importlib.util.spec_from_file_location("dump_pairings", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    dump = json.loads(quick_dump)
    strict = dump["pairings"]["circle strict"]
    gap = strict["truncated_gap"]
    for moved, status in ((gap * (1 + 1e-14), 0), (gap * (1 + 1e-9), 1)):
        strict["truncated_gap"] = moved
        assert script.diff(json.loads(quick_dump), dump) == status
    strict["truncated_gap"] = gap
    cert = strict["certificates"][0]
    cert["satisfied"] = not cert["satisfied"]
    capsys.readouterr()
    assert script.diff(json.loads(quick_dump), dump) == 1
    assert capsys.readouterr().out.splitlines() == [
        "$.pairings.circle strict.certificates[0].satisfied: %r -> %r"
        % (not cert["satisfied"], cert["satisfied"]),
        "largest relative float difference: 0",
        "%s: 1 row (satisfied)" % cert["name"],
    ]
    # the tally ends the output: rows per certificate name, read off the
    # record, with the fields that differ in any of them
    dump = json.loads(quick_dump)
    rows = [next(c for c in record["certificates"] if c["name"] == "truncated_gap")
            for record in list(dump["pairings"].values())[:2]]
    for row in rows:
        row["detail"] += " (moved)"
    rows[1]["measured"] *= 2
    assert script.diff(json.loads(quick_dump), dump) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "truncated_gap: 2 rows (detail, measured)"
    # a criterion that says something else, all else equal, is a difference
    dump = json.loads(quick_dump)
    dump["details"]["5"] = dump["details"]["5"].replace("0 violations", "1 violations")
    assert script.diff(json.loads(quick_dump), dump) == 1
    assert capsys.readouterr().out.splitlines()[0].startswith("$.details.5: ")
