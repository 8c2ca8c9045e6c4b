"""Record golden digests from the current library into bench/golden.json.

    python3 bench/record_golden.py

Run it only on a commit whose outputs are trusted (the file in the
repository was recorded at the commit that introduced the benchmark).
The mediant-trees workload compares every aa_bb_family result with the
digest recorded here for its (a, b, depth).
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import mediant_trees  # noqa: E402


def main() -> int:
    lib = harness.import_library()
    out = {}
    for a, b in mediant_trees.PAIRS:
        for depth in sorted(set(mediant_trees.FAMILY_DEPTHS)):
            text = mediant_trees.family_text(lib.semigroup.aa_bb_family(a, b, depth))
            out[f"family:{a}:{b}:{depth}"] = hashlib.sha256(text.encode()).hexdigest()
    mediant_trees.GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(out)} digests to {mediant_trees.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
