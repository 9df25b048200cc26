#!/usr/bin/env python3
"""Print every acceptance-suite pairing and suspension record as sorted JSON.

Runs ``speclocaliser verify`` in-process with the given profile and dumps,
for every criterion 1-4 pairing, its pairing, signature, inertia, index
correction, truncated gap and each certificate's name, satisfied,
applicable, violated, measured value and detail, then every criterion-6
suspension record.  Two checkouts' dumps diff line by line:

    PYTHONPATH=src python scripts/dump_pairings.py --profile full > after.json
"""

import argparse
import json
import sys

from speclocaliser.verify import VerifySession


def _pairing_record(res) -> dict:
    return {
        "pairing": res.pairing,
        "signature": res.signature,
        "inertia": [res.inertia.n_pos, res.inertia.n_neg, res.inertia.n_zero],
        "index_correction": res.index_correction,
        "truncated_gap": res.truncated_gap,
        "certificates": [
            {key: cert.as_dict()[key]
             for key in ("name", "satisfied", "applicable", "violated", "measured", "detail")}
            for cert in res.certificates
        ],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--profile", choices=("quick", "full"), default="quick")
    args = ap.parse_args()

    session = VerifySession(quick=args.profile == "quick")
    results = session.run(args.profile)
    dump = {
        "profile": args.profile,
        "criteria_passed": [r.index for r in results if r.passed],
        "pairings": {label: _pairing_record(res) for label, res in session._all_pairing_results()},
        "suspensions": session._suspension_entries(),
    }
    # numpy scalars (a certificate's satisfied flag) print as their Python values
    json.dump(dump, sys.stdout, indent=1, sort_keys=True, default=lambda o: o.item())
    sys.stdout.write("\n")
    return 0 if all(r.passed for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
