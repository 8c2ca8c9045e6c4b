"""wug-crosscheck: seeded wug-snakes counted by independent paths.

Kinds of item:
  small   n = 4..10, density 0.6..0.95, four counts (brute force, Ryser,
          Bareiss, recurrence), brute-force search of at most 2000 nodes
          (at least 1000 for n = 10, the items that hold the median)
  large   n = 12..14, four counts, brute-force search of 60k-100k nodes
  ryser   n = 15..18, density 0.8..0.95, three counts (no brute force)
  sparse  n = 100..200, Bareiss against the recurrence
  wugdet  head/body pairs for wug_determinant

Size, weight density and weight magnitude come from the seed.  Sizes
are stratified: each block of occurrences of a kind visits every size
once, in a seeded order, so runs differ in their inputs but not in
their mix of sizes.  The brute
force is exponential in a way the size does not predict, so items are
drawn until the exact node count of its search (computed here by a
level-by-level count of partial matchings) lies in the kind's band.
"""

from __future__ import annotations

import random

import harness
import oracle
from oracle import expect

NAME = "wug-crosscheck"
# one round is one block of every stratified kind: 16 small, 3 large,
# 4 ryser, 5 sparse, plus 2 wugdet
ROUND = (
    ["small"] * 3 + ["ryser", "sparse"] + ["small"] * 3 + ["large", "sparse", "ryser"]
    + ["small"] * 3 + ["wugdet", "sparse", "ryser", "small", "large"] + ["small"] * 3
    + ["sparse", "ryser", "wugdet"] + ["small"] * 3 + ["large", "sparse"]
)
SIZES = {
    # six n = 10 items per round hold the median; ten smaller ones sit below
    "small": (4, 4, 5, 6, 6, 7, 8, 8, 9, 9, 10, 10, 10, 10, 10, 10),
    "large": (12, 13, 14),
    "ryser": (15, 16, 17, 18),
    # two n = 200 items sit beside n = 17 and n = 18 above the 90th percentile
    "sparse": (100, 125, 150, 200, 200),
}
SEARCH_BAND = {"small": (1, 2_000), "large": (60_000, 100_000)}
# the median lies among the n = 10 items: a narrow band keeps its cost
# from following the seed's draws
MEDIAN_BAND = (1_000, 2_000)
DENSITY = {"small": (0.6, 0.95), "large": (0.25, 0.95), "ryser": (0.8, 0.95)}


def search_nodes(n: int, weights: dict, cap: int) -> int:
    """Calls the brute-force enumerator makes (partial matchings by prefix)."""
    allowed = [[j - 1 for (i, j) in weights if i == r + 1] + ([r - 1] if r else []) for r in range(n)]
    level = {0: 1}
    calls = 1
    for r in range(n):
        nxt = {}
        for mask, count in level.items():
            for j in allowed[r]:
                bit = 1 << j
                if not mask & bit:
                    nxt[mask | bit] = nxt.get(mask | bit, 0) + count
        calls += sum(nxt.values())
        if calls > cap:
            return calls
        level = nxt
    return calls


def _dense(rng, n: int, band: int, density: tuple):
    density = rng.uniform(*density)
    magnitude = rng.choice((1, 2, 3, 5, 9))
    return {
        (i, j): rng.randint(1, magnitude)
        for i in range(1, n + 1)
        for j in range(i, min(n, i + band) + 1)
        if rng.random() < density
    }


def generate(seed: int, index: int) -> dict:
    kind = ROUND[index % len(ROUND)]
    rng = random.Random(f"{NAME}:{seed}:{index}")
    if kind in ("small", "large"):
        n = harness.stratified(NAME, ROUND, seed, index, SIZES[kind])
        lo, hi = MEDIAN_BAND if (kind, n) == ("small", 10) else SEARCH_BAND[kind]
        while True:
            weights = _dense(rng, n, rng.randint(1, n), DENSITY[kind])
            if lo <= search_nodes(n, weights, hi) <= hi:
                break
    elif kind == "ryser":
        n = harness.stratified(NAME, ROUND, seed, index, SIZES[kind])
        weights = _dense(rng, n, n, DENSITY[kind])
    elif kind == "sparse":
        n = harness.stratified(NAME, ROUND, seed, index, SIZES[kind])
        weights = {}
        for j in range(1, n + 1):
            weights[(j, j)] = rng.randint(1, 9)
            for i in rng.sample(range(1, j), min(j - 1, rng.randint(0, 2))):
                weights[(i, j)] = rng.randint(1, 9)
    else:  # wugdet
        h = rng.randint(2, 5)
        head = [rng.randint(1, 9) for _ in range(h)]
        body = [
            [rng.randint(0, 3) for _ in range(rng.randint(1, h))]
            for _ in range(rng.randint(1, 3))
        ]
        for col in body:
            col[0] = col[0] or 1
        return {"kind": kind, "head": head, "body": body}
    return {"kind": kind, "n": n, "weights": sorted([i, j, w] for (i, j), w in weights.items())}


def execute(lib, item):
    ws = lib.wugsnake
    if item["kind"] == "wugdet":
        head = ws.Head(tuple(item["head"]))
        body = ws.Body(tuple(tuple(c) for c in item["body"]))
        return {"det": ws.wug_determinant(head, body)}
    snake = ws.WugSnake(item["n"], {(i, j): w for i, j, w in item["weights"]})
    out = {
        "det": ws.matching_count_det(snake),
        "sequence": ws.matching_sequence(snake),
    }
    if item["kind"] != "sparse":
        out["permanent"] = lib.exactcore.permanent(snake.biadjacency())
    if item["kind"] in ("small", "large"):
        out["bruteforce"] = ws.matching_count_bruteforce(snake)
    return out


def _windows(head, body, h):
    seq = [1] + list(head)
    cols = [seq[-h:]]
    for _ in range(1, h):
        for col in body:
            seq.append(sum(a * seq[-t] for t, a in enumerate(col, start=1)))
        cols.append(seq[-h:])
    return cols


def check(lib, item, result) -> None:
    if item["kind"] == "wugdet":
        h = len(item["head"])
        cols = _windows(item["head"], item["body"], h)
        want = oracle.det_fraction([[cols[c][r] for c in range(h)] for r in range(h)])
        expect(result["det"] == want, f"wug_determinant {result['det']} != {want}")
        return
    weights = {(i, j): w for i, j, w in item["weights"]}
    want_seq = oracle.matching_counts(item["n"], weights)
    expect(result["sequence"] == want_seq, "matching_sequence differs from the recurrence")
    for path in ("det", "permanent", "bruteforce"):
        if path in result:
            expect(result[path] == want_seq[-1], f"{path} count {result[path]} != {want_seq[-1]}")


digest = harness.json_digest


def warmup(seed: int) -> list:
    rng = random.Random(f"{NAME}:{seed}:warmup")
    items = []
    for n in (4, 6, 8):
        items.append({"kind": "small", "n": n, "weights": sorted(
            [i, j, w] for (i, j), w in _dense(rng, n, 2, DENSITY["small"]).items())})
    items.append({"kind": "wugdet", "head": [1, 2, 3], "body": [[1, 1]]})
    return items
