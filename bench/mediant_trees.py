"""mediant-trees: Stern-Brocot walks and many small 2x2 products.

Kinds of item:
  family     aa_bb_family(a, b, depth), 1 <= a < b <= 5, depth 6..10
  farey3     farey_set_3 with a seeded scheme at depth 2..4
  tree       markov_tree(14) or cohn_tree(12)
  fractions  a batch of 12 fractions p/q, one per slice of log2 q in
             [1, 10], each sent down frobenius_index and cohn_matrix (and
             mu_domino and domino_mu_shift when q < 40)

The depths, the farey3 (scheme, depth) and the tree kind are
stratified: each block of occurrences visits every value once in a
seeded order, and each depth meets every (a, b) pair once per 10
rounds, so runs differ in inputs but not in their mix.

Family values are compared with an incremental mediant recursion kept
here and with digests recorded when the benchmark was written (golden.json).
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import harness
import oracle
from oracle import expect

NAME = "mediant-trees"
# One round: a block of the 6 family depths and of the 2 trees, one
# farey3 (its 9 (scheme, depth) pairs take 9 rounds), 11 fraction
# batches.  The median falls inside the fraction batches and the 90th
# percentile inside the two depth-9 families.
ROUND = [
    "fractions", "family", "fractions", "tree", "fractions", "family", "fractions",
    "farey3", "fractions", "family", "fractions", "family", "fractions", "tree",
    "fractions", "family", "fractions", "fractions", "family", "fractions",
]
FAMILY_DEPTHS = (6, 7, 8, 9, 9, 10)
FAREY3_DEPTHS = (2, 3, 4)
SCHEMES = ("pairwise", "simultaneous", "barycentric")
BATCH = 12
PAIRS = tuple((a, b) for b in range(2, 6) for a in range(1, b))
GOLDEN = Path(__file__).resolve().parent / "golden.json"
_golden_cache = {}


def _generators(rng):
    """Three positive 2x2 matrices, each a short companion product."""
    gens = []
    for _ in range(3):
        seq = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        gens.append([list(row) for row in oracle.product(oracle.companion2(a) for a in seq)])
    return gens


def generate(seed: int, index: int) -> dict:
    kind = ROUND[index % len(ROUND)]
    rng = random.Random(f"{NAME}:{seed}:{index}")
    if kind == "family":
        # each depth slot meets every (a, b) pair once per len(PAIRS) rounds
        slot = harness.stratified(NAME, ROUND, seed, index, range(len(FAMILY_DEPTHS)))
        r = index // len(ROUND)
        pairs = list(PAIRS)
        random.Random(f"{NAME}:{seed}:pairs:{r // len(PAIRS)}").shuffle(pairs)
        a, b = pairs[(r + slot) % len(PAIRS)]
        return {"kind": kind, "a": a, "b": b, "depth": FAMILY_DEPTHS[slot]}
    if kind == "farey3":
        scheme, depth = harness.stratified(NAME, ROUND, seed, index, [(s, d) for s in SCHEMES for d in FAREY3_DEPTHS])
        return {"kind": kind, "scheme": scheme, "depth": depth, "gens": _generators(rng)}
    if kind == "tree":
        which = harness.stratified(NAME, ROUND, seed, index, ("markov", "cohn"))
        return {"kind": kind, "tree": which, "depth": 14 if which == "markov" else 12}
    fractions = []
    for k in range(BATCH):
        # one denominator per slice of log2(q) in [1, 10]
        q = max(2, int(2 ** rng.uniform(1 + 9 * k / BATCH, 1 + 9 * (k + 1) / BATCH)))
        p = rng.randint(1, q - 1)
        while gcd(p, q) != 1:
            p = rng.randint(1, q - 1)
        fractions.append([p, q])
    return {"kind": kind, "fractions": fractions}


def execute(lib, item):
    kind = item["kind"]
    if kind == "family":
        return lib.semigroup.aa_bb_family(item["a"], item["b"], item["depth"])
    if kind == "farey3":
        gens = [lib.exactcore.IntMatrix(g) for g in item["gens"]]
        return lib.semigroup.farey_set_3(*gens, item["scheme"], item["depth"])
    if kind == "tree":
        cm = lib.classicmarkov
        return cm.markov_tree(item["depth"]) if item["tree"] == "markov" else cm.cohn_tree(item["depth"])
    cm = lib.classicmarkov
    out = []
    for p, q in item["fractions"]:
        row = [cm.frobenius_index(p, q), cm.cohn_matrix(p, q)[0, 1]]
        if q < 40:
            row += [cm.mu_domino(p, q), cm.domino_mu_shift(p, q)]
        out.append(row)
    return out


def family_text(values) -> str:
    return ";".join(f"{c}:{v}" for c, v in values)


def golden(key: str):
    if not _golden_cache:
        _golden_cache.update(json.loads(GOLDEN.read_text()))
    return _golden_cache.get(key)


def _farey3_words(scheme: str, depth: int) -> dict:
    """word -> first level, by the same subdivision rules, words reversed."""
    def cat(*ws):
        out = ()
        for w in reversed(ws):
            out += w
        return out

    tris = [((0,), (1,), (2,))]
    seen = {(0,): 0, (1,): 0, (2,): 0}
    for level in range(1, depth + 1):
        nxt = []
        for u, v, w in tris:
            uv, uw, vw, s = cat(u, v), cat(u, w), cat(v, w), cat(u, v, w)
            if scheme == "pairwise":
                kids = [(u, uv, uw), (v, uv, vw), (w, uw, vw), (uv, uw, vw)]
            elif scheme == "simultaneous":
                kids = [(u, v, s), (u, w, s), (v, w, s)]
            else:
                kids = [(u, uv, s), (uv, v, s), (v, vw, s), (vw, w, s), (w, uw, s), (uw, u, s)]
            nxt += kids
            for tri in kids:
                for word in tri:
                    seen.setdefault(word, level)
        tris = nxt
    return seen


def check(lib, item, result) -> None:
    kind = item["kind"]
    if kind == "family":
        g0, g1 = oracle.aa_bb_pair(item["a"], item["b"])
        want = oracle.mediant_family(g0, g1, item["depth"])
        got = [(Fraction(c), v) for c, v in result]
        expect(got == want, "aa_bb_family differs from the mediant recursion")
        key = f"family:{item['a']}:{item['b']}:{item['depth']}"
        recorded = golden(key)
        expect(recorded is not None, f"no recorded digest for {key}")
        expect(hashlib.sha256(family_text(result).encode()).hexdigest() == recorded,
               f"aa_bb_family digest differs from the recorded one for {key}")
    elif kind == "farey3":
        gens = [tuple(map(tuple, g)) for g in item["gens"]]
        want = _farey3_words(item["scheme"], item["depth"])
        expect(len(result) == len(want), f"farey_set_3 gave {len(result)} nodes, want {len(want)}")
        for node in result:
            expect(want.get(node.word) == node.depth, f"unexpected node {node.word}")
            element = oracle.product(gens[i] for i in node.word)
            expect(node.element.rows == element, f"element of {node.word} differs")
            counts = [node.word.count(i) for i in range(3)]
            g = gcd(*counts)
            expect(tuple(c // g for c in counts) == tuple(node.coordinate), "coordinate differs")
    elif kind == "tree":
        size = 2 ** (item["depth"] + 1) - 1
        expect(len(result) == size, f"tree has {len(result)} nodes, want {size}")
        for k, node in enumerate(result):
            expect(node.depth == (k + 1).bit_length() - 1, "breadth-first depth labels differ")
            if item["tree"] == "markov":
                expect(oracle.is_markov_triple(node.triple), f"{node.triple} is not a Markov triple")
            else:
                l, m, r = (x.rows for x in node.matrices)
                expect(oracle.mul2(l, r) == m, "Cohn middle is not left * right")
                expect(m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1, "Cohn matrix not unimodular")
                expect(m[0][0] + m[1][1] == 3 * m[0][1], "Cohn trace is not 3m")
    else:
        for (p, q), row in zip(item["fractions"], result, strict=True):
            want = oracle.markov_at(p, q)
            expect(all(x == want for x in row), f"descents at {p}/{q} disagree: {row} vs {want}")


def digest(result) -> str:
    def plain(x):
        if hasattr(x, "rows"):
            return x.rows
        if hasattr(x, "__dataclass_fields__"):
            return [plain(getattr(x, f)) for f in x.__dataclass_fields__]
        if isinstance(x, (list, tuple)):
            return [plain(v) for v in x]
        return str(x)

    return hashlib.sha256(json.dumps(plain(result)).encode()).hexdigest()


def warmup(seed: int) -> list:
    return [
        {"kind": "family", "a": 1, "b": 2, "depth": 6},
        {"kind": "farey3", "scheme": "pairwise", "depth": 2,
         "gens": [[[1, 1], [1, 2]], [[3, 2], [4, 3]], [[14, 5], [25, 9]]]},
        {"kind": "tree", "tree": "cohn", "depth": 6},
        {"kind": "fractions", "fractions": [[1, 3], [2, 5], [5, 13]]},
    ]
