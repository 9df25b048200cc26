#!/usr/bin/env python3
"""Scan the two-band lattice model across its mass axis.

For each mass the truncated-localiser pairing is printed next to the band
oracle; disagreements are flagged.  Masses near the gap closings at
0 and +/-2 are skipped automatically.
"""

import argparse
import sys

from speclocaliser import (
    LocaliserParams,
    build_qwz_model,
    oracle_pairing,
    pairing_even,
    qwz_bloch_gap,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--box", type=int, default=9)
    ap.add_argument("--kappa", type=float, default=1.0)
    ap.add_argument("--rho", type=float, default=6.5)
    ap.add_argument("--masses", type=float, nargs="+",
                    default=[-3.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 3.0])
    ap.add_argument("--lean", action="store_true",
                    help="skip the kappa_bound row and the regime and complement "
                         "gaps; a gap row that is applicable is counted by sparse "
                         "LUs on the containment window, which grows with the box "
                         "(recommended for box > 12); an inapplicable one costs nothing")
    args = ap.parse_args()

    params = LocaliserParams(kappa=args.kappa, rho=args.rho)
    bad = 0
    print("%8s %6s %8s %8s %7s" % ("mass", "gap", "pairing", "oracle", "agree"))
    for mass in args.masses:
        gap = qwz_bloch_gap(mass)
        if gap < 1e-3:
            print("%8.3f %6.3f %8s %8s %7s" % (mass, gap, "-", "-", "skip"))
            continue
        model = build_qwz_model(args.box, mass)
        res = pairing_even(model, params, certificates=not args.lean)
        want = oracle_pairing(model)
        ok = res.pairing == want
        bad += not ok
        print("%8.3f %6.3f %8d %8d %7s" % (mass, gap, res.pairing, want, "yes" if ok else "NO"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
