"""cli-readme: the README's commands as `python -m markovnum.cli` processes.

Kinds of item (each one child process, one at a time):
  family    semigroup family at depth 5..9, 1 <= a < b <= 5
  subtract  min-remainder on a skewed triple (a just under 10^6, b of 8
            or 9), or another strategy on a random triple; with --trace
  tetris    a pairwise-coprime vector with entries in [0.8 s, s], s one
            of 30, 100, 300, 1000
  wugcount  wug count on a generated snake file
  render    render of a generated snake, wug or embedding file
  index     farey index, the cheapest valid command
  invalid   an input the CLI must reject with exit 2, one `error:` line
            and no traceback

The traced run calls markovnum.cli.main in-process with the same argv
and captured output instead of spawning.  After the timed phase every
run also probes the known contract defects (KNOWN_DEFECTS); their count
is reported as cli.contract_violations and is not an item failure.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
import traceback
import xml.etree.ElementTree as ET
from pathlib import Path

import harness
import oracle
from oracle import expect

NAME = "cli-readme"
# One round is one block of each stratified kind: 8 family depths (four
# at depth 9, the heaviest items, so that the 90th percentile falls
# inside their group rather than on its lower edge), 4 tetris scales,
# 4 subtract strategies, 3 render kinds.
ROUND = [
    "index", "family", "subtract", "wugcount", "tetris", "render", "family", "invalid",
    "subtract", "tetris", "family", "index", "family", "render", "wugcount", "subtract",
    "tetris", "family", "invalid", "render", "subtract", "family", "tetris", "family",
    "family",
]
CHILD_PROCESSES = True
FAMILY_DEPTHS = (5, 6, 7, 8, 9, 9, 9, 9)
TETRIS_SCALE = (30, 100, 300, 1000)
PAIRS = tuple((a, b) for b in range(2, 6) for a in range(1, b))
INVALID = (
    ["tetris", "--vector", "6,4,3"],
    ["tetris", "--vector", "0,0,0"],
    ["farey", "index", "--t", "3/2"],
    ["perron", "--plls", "0,1"],
    ["subtract", "--triple", "0,0,0"],
    ["cf", "plls", "--matrix", "1,2,3"],
)
# Inputs that violate the exit-code contract when this benchmark was written.
KNOWN_DEFECTS = (
    ("markov numbers --depth -1 exits 0", ["markov", "numbers", "--depth", "-1"]),
    ("wug count given a JSON list", ["wug", "count", "--file", "{work}/list.json"]),
    ("render --kind wug given a JSON list", ["render", "--kind", "wug", "--in", "{work}/list.json", "--out", "{work}/defect.svg"]),
    ("semigroup enum given one generator", ["semigroup", "enum", "--gens", "{work}/onegen.json"]),
)
CHEAPEST = ["farey", "index", "--t", "1/2"]
EMBED_STEPS = {2: (2, 4), 3: (2, 4, 6)}


class _State:
    work: Path = None
    traced = False
    lib = None


STATE = _State()


def _coprime_vector(rng, scale: int) -> list:
    while True:
        v = [rng.randint(max(2, scale * 4 // 5), scale) for _ in range(3)]
        if len(set(v)) == 3 and oracle.coprime(*v):
            return sorted(v, reverse=True)


def generate(seed: int, index: int) -> dict:
    kind = ROUND[index % len(ROUND)]
    rng = random.Random(f"{NAME}:{seed}:{index}")
    if kind == "family":
        a, b = harness.stratified(NAME, ROUND, seed, index, PAIRS, key="pair")
        depth = harness.stratified(NAME, ROUND, seed, index, FAMILY_DEPTHS)
        argv = ["semigroup", "family", "--a", str(a), "--b", str(b), "--depth", str(depth)]
        return {"kind": kind, "argv": argv, "a": a, "b": b, "depth": depth}
    if kind == "subtract":
        strategy = harness.stratified(NAME, ROUND, seed, index, ("min-remainder", "min-remainder", "max-b", "b-then-c"))
        if strategy == "min-remainder":
            # the loop runs a // b times; a narrow a / b keeps the cost steady
            triple = [rng.randint(9 * 10 ** 5, 10 ** 6 - 1), rng.randint(8, 9), rng.randint(1, 9)]
        else:
            triple = [rng.randint(1, 10 ** 6) for _ in range(3)]
        argv = ["subtract", "--triple", ",".join(map(str, triple)), "--strategy", strategy, "--trace"]
        return {"kind": kind, "argv": argv, "triple": triple}
    if kind == "tetris":
        v = _coprime_vector(rng, harness.stratified(NAME, ROUND, seed, index, TETRIS_SCALE))
        return {"kind": kind, "argv": ["tetris", "--vector", ",".join(map(str, v))], "vector": v}
    if kind == "wugcount":
        n = rng.randint(4, 9)
        weights = [[i, j, rng.randint(1, 3)] for i in range(1, n + 1) for j in range(i, min(n, i + 2) + 1)
                   if rng.random() < 0.6]
        return {"kind": kind, "argv": ["wug", "count", "--file", "{work}/snake-{index}.json"],
                "file": {"n": n, "weights": weights}, "index": index}
    if kind == "render":
        dim = harness.stratified(NAME, ROUND, seed, index, (2, 3, 0))
        if dim:
            data = {"word": [rng.randrange(dim) for _ in range(rng.randint(3, 40))]}
            render_kind = f"embedding{dim}"
        else:
            n = rng.randint(3, 12)
            data = {"n": n, "weights": [[i, j, rng.randint(1, 5)] for i in range(1, n + 1)
                                        for j in range(i, n + 1) if rng.random() < 0.4]}
            render_kind = "wug"
        argv = ["render", "--kind", render_kind, "--in", "{work}/render-{index}.json", "--out", "{work}/render-{index}.svg"]
        return {"kind": kind, "argv": argv, "file": data, "index": index, "render": render_kind}
    if kind == "index":
        q = rng.randint(2, 60)
        p = rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1])
        return {"kind": kind, "argv": ["farey", "index", "--t", f"{p}/{q}"], "p": p, "q": q}
    return {"kind": "invalid", "argv": list(rng.choice(INVALID))}


def _argv(item) -> list:
    return [a.format(work=STATE.work, index=item.get("index")) for a in item["argv"]]


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPATH")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    return env


def invoke(argv, traced: bool):
    """(exit code, stdout, stderr) of one CLI command."""
    if not traced:
        proc = subprocess.run(
            [sys.executable, "-m", "markovnum.cli", *argv], capture_output=True, text=True,
            env=_child_env(), cwd=STATE.work, timeout=harness.GUARD_S,
        )
        return proc.returncode, proc.stdout, proc.stderr
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = STATE.lib.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an uncaught error is what a child would print as a traceback
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def prepare(lib, work: Path, traced: bool) -> None:
    """Create the work directory and the fixed inputs of the defect probes."""
    STATE.work, STATE.traced, STATE.lib = work, traced, lib
    work.mkdir(parents=True, exist_ok=True)
    (work / "list.json").write_text("[1, 2]\n")
    (work / "onegen.json").write_text("[[[1, 1], [1, 2]]]\n")


def execute(lib, item):
    if "file" in item:
        name = "snake" if item["kind"] == "wugcount" else "render"
        (STATE.work / f"{name}-{item['index']}.json").write_text(json.dumps(item["file"]))
    return invoke(_argv(item), STATE.traced)


def _lines(stdout: str) -> list:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def check(lib, item, result) -> None:
    code, out, err = result
    kind = item["kind"]
    expect("Traceback" not in err, f"traceback from {item['argv']}")
    if kind == "invalid":
        expect(code == 2, f"{item['argv']} exited {code}, want 2")
        expect(any(line.startswith("error:") for line in err.splitlines()), "no error: line")
        return
    expect(code == 0, f"{item['argv']} exited {code}: {err.strip()[-200:]}")
    if kind == "family":
        g0, g1 = oracle.aa_bb_pair(item["a"], item["b"])
        want = [(str(c), str(v)) for c, v in oracle.mediant_family(g0, g1, item["depth"])]
        got = [(row["farey"], row["markov"]) for row in _lines(out)]
        expect(got == want, "semigroup family differs from the mediant recursion")
    elif kind == "subtract":
        (row,) = _lines(out)
        start = tuple(item["triple"])
        g = math.gcd(*start)
        expect(row["gcd"] == str(g), f"gcd {row['gcd']} != {g}")
        final = tuple(int(x) for x in row["final"])
        expect(sorted(final) == [0, 0, g], f"final triple {final}")
        steps = tuple(((int(s["alpha"]), int(s["beta"])), s["rotations"]) for s in row["steps"])
        state = start
        for (alpha, beta), k in steps:
            a, b, c = state[k:] + state[:k]
            expect(alpha >= 0 and beta >= 0 and a == max(state), "malformed step")
            state = (b, c, a - alpha * b - beta * c)
        expect(state == final, "steps do not replay to the final triple")
        trace = lib.subtractive.MCFTrace(start, row["strategy"], steps, final)
        back = lib.subtractive.reconstruct(trace).apply(final)
        expect(back == start, "reconstruct does not carry the final triple back")
    elif kind == "tetris":
        (row,) = _lines(out)
        v = item["vector"]
        expect(row["cells"] == sum(v) - 2, f"{row['cells']} cells, want {sum(v) - 2}")
        letters = row["letters"]
        expect(len(letters) == sum(v) - 3, "word length differs from cells - 1")
        gens = (((1, 1), (1, 2)), ((3, 2), (4, 3)), ((14, 5), (25, 9)))
        count = oracle.product(gens[x - 1] for x in letters)[0][1]
        expect(row["count"] == str(count), "count differs from the word product")
    elif kind == "wugcount":
        (row,) = _lines(out)
        data = item["file"]
        want = str(oracle.matching_counts(data["n"], {(i, j): w for i, j, w in data["weights"]})[-1])
        expect(row == {"bruteforce": want, "permanent": want, "det": want}, f"counts {row} != {want}")
    elif kind == "render":
        svg = (STATE.work / f"render-{item['index']}.svg").read_text()
        root = ET.fromstring(svg)
        tags = [el.tag.rsplit("}", 1)[-1] for el in root]
        data = item["file"]
        if item["render"] == "wug":
            n = data["n"]
            expect(tags.count("line") == len(data["weights"]) + n - 1, "wrong number of edges")
            expect(tags.count("circle") == 2 * n, "wrong number of vertices")
        elif item["render"] == "embedding2":
            cells = 1 + sum(EMBED_STEPS[2][x] for x in data["word"])
            expect(tags.count("rect") == cells, f"{tags.count('rect')} cells drawn, want {cells}")
        else:
            expect(tags.count("rect") >= 1, "no cells drawn")
    else:  # index
        (row,) = _lines(out)
        want = oracle.markov_at(item["p"], item["q"])
        expect(row == {"farey": f"{item['p']}/{item['q']}", "markov": str(want)}, f"{row} != {want}")


def _violates(code, err) -> bool:
    return code != 2 or "Traceback" in err or not any(
        line.startswith("error:") for line in err.splitlines())


def after(lib, traced: bool) -> dict:
    """Probe the known defects; in a traced run, also time process start."""
    violations = []
    for label, argv in KNOWN_DEFECTS:
        code, _, err = invoke([a.format(work=STATE.work) for a in argv], traced)
        if _violates(code, err):
            violations.append(label)
    print(f"# known CLI contract defects still present: {len(violations)} of {len(KNOWN_DEFECTS)}"
          + "".join(f"\n#   - {v}" for v in violations))
    if not traced:
        return {}
    spawns = []
    for _ in range(5):
        t0 = time.perf_counter()
        code, _, _ = invoke(CHEAPEST, traced=False)
        spawns.append((time.perf_counter() - t0) * 1e3)
        expect(code == 0, "cheapest command failed")
    return {
        "cli.spawn_ms": (statistics.median(spawns), "ms"),
        "cli.contract_violations": (float(len(violations)), "count"),
    }


def digest(result) -> str:
    code, out, _ = result
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


def warmup(seed: int) -> list:
    return [generate(seed, ROUND.index("index")), generate(seed, ROUND.index("invalid"))]
