#!/usr/bin/env python3
"""Dump the eigenvalue trace of a suspension path to CSV.

The CSV has a ``t`` column followed by one column per (sorted) eigenvalue
of the windowed suspension sample, which is the raw material behind the
spectral-flow plots: crossings of zero between t=-1 and t=+1 count the
pairing.  The rows are the grid eigenvalues of a traced spectral-flow walk
(``sf_crossings(path, trace=True)``, which also checks every row's counts
against the walk's Sylvester counts), so a path whose ends are singular is
refused.
"""

import argparse
import csv
import sys

from speclocaliser import (
    CHI_PAIRS,
    parse_model_spec,
    sf_crossings,
    suspension,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--model", required=True,
                    help="model spec, e.g. circle:modes=40 or qwz:box=9,mass=1.0")
    ap.add_argument("--kappa", type=float, required=True)
    ap.add_argument("--rho", type=float, required=True)
    ap.add_argument("--grid", type=int, default=33)
    ap.add_argument("--chi", choices=sorted(CHI_PAIRS), default="clamp")
    ap.add_argument("--out", default="-", help="output CSV path (default stdout)")
    args = ap.parse_args()

    model = parse_model_spec(args.model)
    path = suspension(model, args.kappa, args.rho, chi=CHI_PAIRS[args.chi], num=args.grid)
    grid, rows = path.grid, sf_crossings(path, trace=True).trace

    fh = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    try:
        writer = csv.writer(fh)
        writer.writerow(["t"] + ["lam%d" % i for i in range(rows.shape[1])])
        for t, row in zip(grid, rows):
            writer.writerow([f"{t:.6f}"] + [f"{x:.12e}" for x in row])
    finally:
        if fh is not sys.stdout:
            fh.close()
            print("wrote %s (%d samples x %d eigenvalues)"
                  % (args.out, rows.shape[0], rows.shape[1]), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
