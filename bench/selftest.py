"""Self-tests of the benchmark harness (not of markovnum).

    python3 bench/selftest.py

Checks seeded determinism, the self-time arithmetic, the hang guard,
that a corrupted result is reported as a failure, that tracing patches
every binding and undoes itself, and that BENCHMARK.json names the
metrics the harness reports.
"""

from __future__ import annotations

import json
import sys
import time
import unittest
from pathlib import Path
from types import SimpleNamespace

sys.dont_write_bytecode = False
sys.path.insert(0, str(Path(__file__).resolve().parent))

import cli_readme  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

WORK = Path(__file__).resolve().parent / "out" / "work" / "selftest"
CHEAP = {
    "wug-crosscheck": {"small", "wugdet"},
    "mediant-trees": {"fractions", "farey3"},
    "perron-spectrum": {"markov", "roundtrip"},
    "cli-readme": {"index", "subtract", "wugcount", "render", "invalid"},
}


def lib():
    return harness.import_library()


class Determinism(unittest.TestCase):
    def test_same_seed_same_inputs_and_digests(self):
        library = lib()
        for name, wl in run.WORKLOADS.items():
            cli_readme.prepare(library, WORK, traced=True)
            n = 2 * len(wl.ROUND)
            first = [wl.generate(7, i) for i in range(n)]
            self.assertEqual(first, [wl.generate(7, i) for i in range(n)], name)
            self.assertNotEqual(first, [wl.generate(8, i) for i in range(n)], name)
            cheap = [item for item in first if item["kind"] in CHEAP[name]][:6]
            self.assertTrue(cheap, name)
            digests = [[wl.digest(wl.execute(library, item)) for item in cheap] for _ in range(2)]
            self.assertEqual(digests[0], digests[1], name)

    def test_stratified_sizes_cover_every_size_per_block(self):
        wl = run.WORKLOADS["wug-crosscheck"]
        sizes = [wl.generate(3, i)["n"] for i in range(8 * len(wl.ROUND)) if wl.ROUND[i % len(wl.ROUND)] == "ryser"]
        for block in range(0, len(sizes), 4):
            self.assertEqual(sorted(sizes[block:block + 4]), [15, 16, 17, 18])


class SelfTime(unittest.TestCase):
    def test_synthetic_tree(self):
        # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 7]
        t = _tree(("root", -1, 0.0, 10.0), ("a", 0, 1.0, 4.0, 3), ("b", 0, 5.0, 9.0, 3), ("c", 2, 6.0, 7.0))
        self.assertEqual(list(t.self_times()), [3.0, 3.0, 3.0, 1.0])
        agg = t.aggregate()
        self.assertEqual(agg["root"][:2], [1, 3.0])
        self.assertEqual(sum(a[1] for a in agg.values()), 10.0)
        t.name.append(t._id("a"))
        t.parent.append(-1)
        t.item.append(1)
        t.size.append(3)
        t.error.append(1)
        t.start.append(11.0)
        t.end.append(13.0)
        agg = t.aggregate()
        self.assertEqual(agg["a"][2][3], [2, 5.0])
        self.assertEqual(t.errors("a"), 1)

    def test_per_layer_accounts_for_wall_time(self):
        t = spans.Tracer()
        library = lib()
        t.install()
        try:
            t0 = time.perf_counter()
            with t.span("harness.item"):
                library.semigroup.perron_minimum(library.contfrac.PLLS((1, 2, 3, 4)))
            wall = time.perf_counter() - t0
        finally:
            t.uninstall()
        values = layers.per_layer(t, 2, wall, 1.0)
        layer_ms = sum(values[f"{m}.self_ms"] for m in harness.LAYERS)
        self.assertAlmostEqual(layer_ms + values["harness.self_ms"], values["trace.wall_ms"], places=6)
        self.assertGreater(values["trace.layer_frac"], 0.5)
        self.assertLess(values["trace.layer_frac"], 1.0)
        self.assertEqual(values["semigroup.perron_minimum.calls"], 0.5)
        self.assertGreater(values["exactcore.surd.calls"], 0)
        self.assertGreater(values["semigroup.perron_minimum.L4.self_ms"], 0)

    def test_layer_frac_counts_only_layer_time_inside_items(self):
        t = _tree(
            ("harness.item", -1, 0.0, 10.0), ("semigroup.f", 0, 1.0, 7.0), ("exactcore.g", 1, 2.0, 4.0),
            ("oracle.h", 0, 8.0, 9.0), ("harness.check", -1, 11.0, 20.0), ("semigroup.f", 4, 12.0, 19.0),
        )
        self.assertEqual(t.covered("harness.item", harness.LAYERS), 0.6)


class Patching(unittest.TestCase):
    def test_every_binding_is_traced_and_restored(self):
        library = lib()
        original = library.exactcore.det_exact
        t = spans.Tracer()
        t.install()
        try:
            for mod in (library.exactcore, library.wugsnake, library.contfrac, library.semigroup,
                        library.classicmarkov):
                self.assertIsNot(mod.det_exact, original, mod.__name__)
            snake = library.wugsnake.WugSnake(3, {(1, 1): 1, (1, 2): 2, (2, 3): 1, (3, 3): 2})
            library.wugsnake.matching_count_det(snake)
        finally:
            t.uninstall()
        names = [t.names[i] for i in t.name]
        self.assertEqual(names, ["wugsnake.matching_count_det", "wugsnake.build", "exactcore.det_exact"])
        self.assertEqual(list(t.parent), [-1, 0, 0])
        for mod in (library.exactcore, library.wugsnake, library.semigroup):
            self.assertIs(mod.det_exact, original)
        self.assertNotIn("traced", library.exactcore.IntMatrix.__mul__.__qualname__)


class Failures(unittest.TestCase):
    def test_hang_guard_stops_a_stalled_call(self):
        t0 = time.perf_counter()
        with self.assertRaisesRegex(harness.Stalled, "hang guard"):
            harness.guarded(_spin, 0.2)
        self.assertLess(time.perf_counter() - t0, 5.0)

    def test_a_stalled_item_is_a_failure_and_the_run_goes_on(self):
        # the item's own 0.2 s guard stands in for the harness's GUARD_S
        kinds = ["stall"] + ["ok"] * (harness.MIN_ITEMS - 1)
        stall = SimpleNamespace(
            ROUND=kinds,
            generate=lambda seed, i: {"kind": kinds[i % len(kinds)]},
            execute=lambda lib, item: harness.guarded(_spin, 0.2) if item["kind"] == "stall" else 1,
            check=lambda lib, item, result: None,
        )
        t0 = time.perf_counter()
        loop = harness.closed_loop(stall, None, 0, seconds=0.1)
        self.assertLess(time.perf_counter() - t0, 5.0)
        self.assertEqual(loop.count, harness.MIN_ITEMS)
        self.assertEqual([(i, k) for i, k, _ in loop.failures], [(0, "stall")])
        self.assertIn("hang guard", loop.failures[0][2])

    def test_corrupted_results_are_failures(self):
        library = lib()
        wl = run.WORKLOADS["wug-crosscheck"]
        item = next(x for x in (wl.generate(1, i) for i in range(30)) if x["kind"] == "small")
        result = wl.execute(library, item)
        self.assertIsNone(harness.verify(wl, library, item, result, None))
        for path in ("permanent", "bruteforce", "det"):
            bad = dict(result, **{path: result[path] + 1})
            self.assertIn("Mismatch", harness.verify(wl, library, item, bad, None))
        mt = run.WORKLOADS["mediant-trees"]
        fam = {"kind": "family", "a": 1, "b": 2, "depth": 6}
        values = mt.execute(library, fam)
        values[-1] = (values[-1][0], values[-1][1] + 1)
        self.assertIn("Mismatch", harness.verify(mt, library, fam, values, None))
        ps = run.WORKLOADS["perron-spectrum"]
        item = ps.roundtrip_item([1, 2, 3])
        result = ps.execute(library, item)
        self.assertIn("Mismatch", harness.verify(ps, library, item, dict(result, reduced=not result["reduced"]), None))

    def test_non_markovnum_exception_is_a_failure(self):
        def boom(lib, item):
            raise KeyError("boom")

        wl = SimpleNamespace(ROUND=["x"], generate=lambda s, i: {"kind": "x"},
                             execute=boom, check=lambda *a: None)
        loop = harness.closed_loop(wl, None, 0, seconds=0.0)
        self.assertEqual(len(loop.failures), harness.MIN_ITEMS)
        self.assertEqual(harness.end_to_end(wl, loop, loop.latencies, [1.0])["items_per_s"][0], 0.0)


class Spec(unittest.TestCase):
    def test_benchmark_json_matches_the_harness(self):
        spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], layers.metric_names())
        e2e = {m["name"] for m in spec["end_to_end"]}
        self.assertEqual(e2e, {"items_per_s", "item_ms_p50", "item_ms_p90", "verified_frac", "setup_s", "peak_rss_mb"})


def _tree(*spans_):
    """A tracer holding the given (name, parent, start, end[, size]) spans."""
    t = spans.Tracer()
    for name, parent, start, end, *size in spans_:
        t.name.append(t._id(name))
        t.parent.append(parent)
        t.item.append(0)
        t.size.append(size[0] if size else -1)
        t.error.append(0)
        t.start.append(start)
        t.end.append(end)
    return t


def _spin():
    while True:
        pass


if __name__ == "__main__":
    unittest.main()
