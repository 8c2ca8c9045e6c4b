"""The traced run and the per-layer metrics it reports.

Every workload reports the same metric names (zero where a layer does
no work), so runs of different workloads line up.  The traced loop runs
whole rounds for a fixed time, so a faster program runs more items; to
keep one layer's speed-up from moving the others, every total is
reported per traced item: `<f>.calls` is calls per item and
`<f>.self_ms` self time per item.  A size bucket
`<f>.<bucket>.self_ms` is the mean self time of one call of that size,
which gives the growth curves: n = matrix size, d = tree depth,
L = period length.
"""

from __future__ import annotations

import harness
from spans import Tracer

CALLS_SELF = (
    "exactcore.permanent", "exactcore.det_exact", "exactcore.matmul", "exactcore.surd",
    "contfrac.plls_decompose", "contfrac.cf_eval",
    "wugsnake.matching_count_bruteforce", "wugsnake.matching_sequence",
    "wugsnake.wug_determinant",
    "classicmarkov.markov_tree", "classicmarkov.cohn_tree", "classicmarkov.frobenius_index",
    "classicmarkov.cohn_matrix", "classicmarkov.mu_domino", "classicmarkov.domino_mu_shift",
    "semigroup.perron_minimum",
)
SELF_ONLY = (
    "wugsnake.build", "semigroup.farey_set_2", "semigroup.farey_set_3",
    "subtractive.run_mcf", "subtractive.reconstruct",
    "lattice.cubes_for_vector", "lattice.model531_count", "render.svg", "cli.main",
)
BUCKETS = {
    "exactcore.permanent": ("n", range(12, 19)),
    "exactcore.det_exact": ("n", (100, 125, 150, 200)),
    "semigroup.farey_set_2": ("d", range(6, 11)),
    "semigroup.farey_set_3": ("d", range(2, 5)),
    "semigroup.perron_minimum": ("L", range(1, 13)),
}
COUNTERS = (
    ("exactcore.max_bits", "bits"),
    ("subtractive.run_mcf.steps", "count/item"),
    ("lattice.cubes_for_vector.errors", "count/item"),
)
EXTERNAL = (("cli.spawn_ms", "ms"), ("cli.contract_violations", "count"))


def metric_names() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name in CALLS_SELF:
        out += [(f"{name}.calls", "count/item"), (f"{name}.self_ms", "ms/item")]
    out += [(f"{name}.self_ms", "ms/item") for name in SELF_ONLY]
    for name, (letter, sizes) in BUCKETS.items():
        out += [(f"{name}.{letter}{k}.self_ms", "ms/call") for k in sizes]
    out += list(COUNTERS)
    out += [(f"{m}.self_ms", "ms/item") for m in harness.LAYERS]
    out += [
        ("harness.self_ms", "ms/item"),
        ("trace.wall_ms", "ms/item"),
        ("trace.layer_frac", "ratio"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.spans", "count/item"),
    ]
    out += list(EXTERNAL)
    return out


def per_layer(tracer: Tracer, items: int, wall_s: float, overhead: float) -> dict:
    """Per-layer values of a traced loop that ran `items` items in `wall_s`."""
    agg = tracer.aggregate()
    values = {}
    for name in CALLS_SELF:
        calls, self_s, _ = agg.get(name, (0, 0.0, {}))
        values[f"{name}.calls"] = calls / items
        values[f"{name}.self_ms"] = self_s * 1e3 / items
    for name in SELF_ONLY:
        values[f"{name}.self_ms"] = agg.get(name, (0, 0.0, {}))[1] * 1e3 / items
    for name, (letter, sizes) in BUCKETS.items():
        buckets = agg.get(name, (0, 0.0, {}))[2]
        for k in sizes:
            calls, self_s = buckets.get(k, (0, 0.0))
            values[f"{name}.{letter}{k}.self_ms"] = self_s / calls * 1e3 if calls else 0.0
    # over a fixed prefix of the items, so that it does not grow with the item count
    values["exactcore.max_bits"] = float(max(
        (b for i, b in tracer.max_bits.items() if i < harness.MIN_ITEMS), default=0))
    values["subtractive.run_mcf.steps"] = tracer.mcf_steps / items
    values["lattice.cubes_for_vector.errors"] = tracer.errors("lattice.cubes_for_vector") / items
    layer_s = {m: 0.0 for m in harness.LAYERS}
    harness_s = 0.0
    for name, (_, self_s, _) in agg.items():
        module = name.split(".", 1)[0]
        if module in layer_s:
            layer_s[module] += self_s
        else:
            harness_s += self_s
    root_s = sum(tracer.end[i] - tracer.start[i] for i in tracer.roots())
    # time between root spans: item generation and the loop itself
    harness_s += wall_s - root_s
    for m in harness.LAYERS:
        values[f"{m}.self_ms"] = layer_s[m] * 1e3 / items
    values["harness.self_ms"] = harness_s * 1e3 / items
    values["trace.wall_ms"] = wall_s * 1e3 / items
    values["trace.layer_frac"] = tracer.covered("harness.item", harness.LAYERS)
    values["trace.overhead_ratio"] = overhead
    values["trace.spans"] = len(tracer.name) / items
    return values


def traced_run(wl, lib, seed: int, seconds: float, dump_path):
    """Traced closed loop, then an untraced replay of the same items.

    Returns the traced loop and its per-layer metrics as (value, unit).
    The overhead is the traced items' summed latency over the untraced
    replay's.
    """
    tracer = Tracer()
    tracer.install()
    try:
        loop = harness.closed_loop(wl, lib, seed, seconds, tracer=tracer)
    finally:
        tracer.uninstall()
    done, plain = harness.replay(wl, lib, seed, loop.count, harness.wall_cap(seconds))
    values = per_layer(tracer, loop.count, loop.wall, sum(loop.latencies[:done]) / plain)
    tracer.dump(dump_path)
    # cli.* externals are filled in by the cli-readme workload; zero elsewhere
    return loop, {name: (values.get(name, 0.0), unit) for name, unit in metric_names()}
