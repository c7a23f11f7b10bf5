"""Report every item whose printed output differs between two runs.

    python3 perfbench/compare.py perfbench/out/A.digests.json B.digests.json

Each run of run.py writes the SHA-256 digest of every item's printed
output.  Two runs of the same workload and seed issue the same items in
the same order, so the items both runs completed must have identical
digests: the printed results are required to stay byte-for-byte the same.
Exits 1 when any shared item differs, 2 when the runs are not comparable.
"""

from __future__ import annotations

import json
import sys


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def differing(a: dict, b: dict) -> list:
    """Ids of the items both runs completed whose digests differ."""
    theirs = dict(b["items"])
    return [item_id for item_id, digest in a["items"]
            if item_id in theirs and theirs[item_id] != digest]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    a, b = load(argv[0]), load(argv[1])
    if (a["workload"], a["seed"]) != (b["workload"], b["seed"]):
        sys.stderr.write("error: runs differ in workload or seed\n")
        return 2
    shared = len(set(dict(a["items"])) & set(dict(b["items"])))
    bad = differing(a, b)
    for item_id in bad:
        print("DIFFERS %s" % item_id)
    print("%d of %d shared items differ (%s, seed %d)"
          % (len(bad), shared, a["workload"], a["seed"]))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
