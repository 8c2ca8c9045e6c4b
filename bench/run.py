"""markovnum benchmark entry point.

    python3 bench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

With --trace 0 it measures the end-to-end metrics of one workload; with
--trace 1 it runs the same items with spans recorded around the
library's public calls and reports per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Times are scaled to the reference speed (see harness.py); the lines
before it also give each unscaled value.
--workload all runs each workload in a child process of its own and
prefixes its metric names with the workload name.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = False
sys.path.insert(0, str(Path(__file__).resolve().parent))

import cli_readme  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import mediant_trees  # noqa: E402
import perron_spectrum  # noqa: E402
import wug_crosscheck  # noqa: E402

WORKLOADS = {
    wl.NAME: wl for wl in (wug_crosscheck, mediant_trees, perron_spectrum, cli_readme)
}
OUT = Path(__file__).resolve().parent / "out"


def measure(wl, seed: int, seconds: float, trace: bool):
    """(loop, metrics at reference speed, unscaled metrics, set-up times)."""
    setup_times, setup_factors = [], []
    for _ in range(harness.SETUP_REPEATS):
        before = harness.timed_reference()
        lib, took, passed = harness.setup(wl, seed, OUT / "work" / wl.NAME, trace)
        setup_factors.append(harness.reference_factor(before, harness.timed_reference()))
        setup_times.append(took)
        if not passed:
            print("# a warm-up item failed; set-up not repeated")
            break
    after = getattr(wl, "after", lambda lib, traced: {})  # cli-readme's defect probes
    if not trace:
        loop = harness.closed_loop(wl, lib, seed, seconds)
        raw = harness.end_to_end(wl, loop, loop.latencies, setup_times)
        metrics = harness.end_to_end(wl, loop, harness.scaled(loop.latencies, loop.factors),
                                     harness.scaled(setup_times, setup_factors))
        after(lib, traced=False)
    else:
        loop, raw = layers.traced_run(wl, lib, seed, seconds, OUT / f"spans-{wl.NAME}")
        raw.update(after(lib, traced=True))
        # per-layer times: the loop's overall ratio of scaled to unscaled time
        factor = sum(harness.scaled(loop.latencies, loop.factors)) / sum(loop.latencies)
        metrics = harness.at_reference_speed(raw, factor)
    return loop, metrics, raw, setup_times


def report(name: str, loop, metrics: dict, raw: dict, setup_times) -> None:
    n = len(loop.latencies)
    beyond = sum(1 for x in loop.latencies if x * 1e3 > raw.get("item_ms_p90", (float("inf"),))[0])
    print(f"# workload {name}: {n} items in {loop.busy:.2f} s of item time "
          f"({loop.wall:.2f} s wall); {len(loop.failures)} failed")
    factors = loop.factors
    print(f"# item times scaled to the reference speed by factors {min(factors):.3f} .. "
          f"{max(factors):.3f} (median {statistics.median(factors):.3f}) from {2 * len(factors)} reference calls")
    for key, (value, unit) in metrics.items():
        note = ""
        if key == "item_ms_p90":
            note = f"  (n={n}, {beyond} beyond)"
        elif key == "item_ms_p50":
            note = f"  (n={n})"
        elif key == "setup_s":
            note = f"  (median of {len(setup_times)}: " + ", ".join(f"{s:.3f}" for s in setup_times) + ")"
        if raw[key][0] != value:
            note = f"  (unscaled {raw[key][0]:.6g}){note}"
        print(f"#   {key:<48} {value:>14.6g} {unit}{note}")
    for index, kind, reason in loop.failures[:10]:
        print(f"#   FAILED item {index} ({kind}): {reason}")
    print(f"# verdict: {'correct' if not loop.failures else 'INCORRECT'}")


def run_all(args) -> int:
    """Every workload in a child process of its own, so that each one's
    peak_rss_mb is its own; metric names get the workload as a prefix."""
    attempted = failed = 0
    combined = {}
    for name in sorted(WORKLOADS):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        if len(lines) > 1:
            print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"# workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for key, metric in result["metrics"].items():
            combined[f"{name}.{key}"] = metric
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": combined}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    wl = WORKLOADS[args.workload]
    loop, metrics, raw, setup_times = measure(wl, args.seed, args.seconds, bool(args.trace))
    report(wl.NAME, loop, metrics, raw, setup_times)
    print(json.dumps({
        "correct": not loop.failures,
        "attempted": len(loop.latencies),
        "failed": len(loop.failures),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
