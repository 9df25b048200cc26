#!/usr/bin/env python3
"""Print every acceptance-suite pairing and suspension record as sorted JSON.

Runs ``speclocaliser verify`` in-process with the given profile and dumps
each criterion's detail line with its wall times masked, then, for every
criterion 1-4 pairing, its pairing, signature, inertia, index
correction, truncated gap and each certificate's name, satisfied,
applicable, violated, measured value and detail, then every criterion-6
suspension record, with the crossing ledger (``crossings_<chi>``: each
(t_a, t_b, change) of the walk) and the sample count (``samples_<chi>``) of
each of its walks, walked again here with the library's public calls so that
the dump reads the same fields from any checkout.  Two checkouts' dumps diff
line by line:

    PYTHONPATH=src python scripts/dump_pairings.py --profile full > after.json

With --diff, the dump is compared field by field with one written before
(say on the parent commit) instead of printed: every field that differs is
printed with both values, then the largest relative difference among float
fields, then a tally of the differing certificate rows per certificate name
with their differing fields (``complement_gap: 71 rows (detail, measured,
satisfied)``).  The exit status is 1 when a non-float field differs or a float
field differs by more than FLOAT_RTOL relative:

    PYTHONPATH=src python scripts/dump_pairings.py --profile full --diff before.json
"""

import argparse
import json
import math
import re
import sys

from speclocaliser import CHI_CLAMP, CHI_SMOOTH, sf_crossings, suspension
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


def _suspension_records(session) -> list[dict]:
    """The session's suspension records, each with the crossings and the
    sample count of its model's walk for each chi."""
    records = []
    for entry, (spec, label, model, _) in zip(session._suspension_entries(), session._models()):
        assert entry["label"] == label
        record = dict(entry)
        for chi in (CHI_CLAMP, CHI_SMOOTH):
            flow = sf_crossings(suspension(model, *spec.path, chi=chi))
            record["crossings_" + chi.name] = [list(c) for c in flow.crossings]
            record["samples_" + chi.name] = flow.samples
        records.append(record)
    return records


# floats (gaps, measured values) may move by rounding between two routes
FLOAT_RTOL = 1e-12


def _differences(before, after, path=()):
    """(path, before, after, relative difference or None) for every leaf that
    differs, the path a tuple of keys and list indices; the difference is
    None unless both leaves are floats."""
    if isinstance(before, dict) and isinstance(after, dict):
        for key in sorted(set(before) | set(after)):
            yield from _differences(before.get(key), after.get(key), path + (key,))
    elif isinstance(before, list) and isinstance(after, list) and len(before) == len(after):
        for i, (old, new) in enumerate(zip(before, after)):
            yield from _differences(old, new, path + (i,))
    elif isinstance(before, float) and isinstance(after, float):
        if before != after and not (math.isnan(before) and math.isnan(after)):
            rel = abs(after - before) / max(abs(before), abs(after))
            yield path, before, after, rel if math.isfinite(rel) else math.inf
    elif type(before) is not type(after) or before != after:
        yield path, before, after, None


def _path(keys) -> str:
    return "$" + "".join("[%d]" % k if isinstance(k, int) else "." + k for k in keys)


def diff(before: dict, after: dict) -> int:
    """Print every field of after that differs from before, the largest
    relative float difference and the tally of differing certificate rows
    per name; 1 if a non-float field differs or a float one by more than
    FLOAT_RTOL, else 0."""
    worst, status, tally = (0.0, None), 0, {}
    for path, old, new, rel in _differences(before, after):
        print("%s: %r -> %r%s" % (_path(path), old, new,
                                  "" if rel is None else "  (rel %.3g)" % rel))
        if rel is None or rel > FLOAT_RTOL:
            status = 1
        if rel is not None and rel > worst[0]:
            worst = (rel, _path(path))
        if len(path) == 5 and path[0] == "pairings" and path[2] == "certificates":
            # pairings.<label>.certificates[i].<field>, named by its record
            name = after["pairings"][path[1]]["certificates"][path[3]]["name"]
            rows, fields = tally.setdefault(name, (set(), set()))
            rows.add(path[1:4])
            fields.add(path[4])
    print("largest relative float difference: %.3g%s"
          % (worst[0], "" if worst[1] is None else " at " + worst[1]))
    for name, (rows, fields) in sorted(tally.items()):
        print("%s: %d row%s (%s)" % (name, len(rows), "" if len(rows) == 1 else "s",
                                     ", ".join(sorted(fields))))
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--profile", choices=("quick", "full"), default="quick")
    ap.add_argument("--diff", metavar="BEFORE.json",
                    help="compare with this earlier dump instead of printing it")
    args = ap.parse_args()

    session = VerifySession(args.profile)
    results = session.run()
    dump = {
        "profile": args.profile,
        "criteria_passed": [r.index for r in results if r.passed],
        # a detail line's wall times ("%.1fs") differ from run to run
        "details": {str(r.index): re.sub(r"\d+\.\ds\b", "*s", r.detail) for r in results},
        "pairings": {label: _pairing_record(res) for label, res in session._all_pairing_results()},
        "suspensions": _suspension_records(session),
    }
    text = json.dumps(dump, indent=1, sort_keys=True)
    if args.diff is not None:
        with open(args.diff) as fh:
            return diff(json.load(fh), json.loads(text))
    sys.stdout.write(text + "\n")
    return 0 if all(r.passed for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
