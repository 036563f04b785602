"""Check that two commits reach the same final states on the same seeds.

    python3 perfbench/compare.py BASE_RESULTS HEAD_RESULTS

Each argument is a ``.perfbench/results`` directory written by run.py on
one commit.  For every workload and seed present in both, the
final-state fingerprints (L2 and H1 norms of u and theta) must agree to
1e-12 relative, the tolerance run.py applies against ``reference.json``
for the seeds recorded there.  Exit status: 0 when all agree, 1 on a
mismatch, 2 when the directories share no workload and seed.
"""

import glob
import json
import os
import sys

from run import FINGERPRINT_RTOL


def fingerprints(directory):
    out = {}
    for path in glob.glob(os.path.join(directory, "*.json")):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        if record.get("fingerprint") is not None:
            out[(record["workload"], record["seed"])] = record["fingerprint"]
    return out


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = (fingerprints(d) for d in argv)
    common = sorted(base.keys() & head.keys())
    if not common:
        print("compare: no workload and seed in common", file=sys.stderr)
        return 2
    bad = 0
    for key in common:
        a, b = base[key], head[key]
        ok = len(a) == len(b) and all(
            abs(x - y) <= FINGERPRINT_RTOL * abs(x) for x, y in zip(a, b))
        bad += not ok
        print(f"{key[0]} seed {key[1]}: {'agree' if ok else 'DIFFER'}"
              + ("" if ok else f"\n  base {a}\n  head {b}"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
