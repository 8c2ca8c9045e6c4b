"""Closed-loop runner: one client, one item at a time, whole rounds.

A workload module supplies:

    NAME            the workload name
    ROUND           item kinds of one round; item i has kind ROUND[i % len(ROUND)]
    generate(seed, index) -> item      pure function of its arguments
    execute(lib, item) -> result       the timed call into the program
    check(lib, item, result)           raises oracle.Mismatch on a wrong answer
    digest(result) -> str              stable fingerprint of a result
    warmup(seed) -> [item]             cheap items generated and run during set-up

The timed phase runs whole rounds until the items' summed latency
reaches the requested seconds and at least MIN_ITEMS items have run, so
every run holds the same mix of item kinds.  Item generation and oracle
checks run between items, outside the latencies.  An item still running
after GUARD_S seconds is stopped and counted as a failure.

The host's speed drifts by up to 2x, for a second or for minutes,
because other tenants share its cores and caches.  So the loop times
reference(), a fixed piece of pure-Python work that touches no program
state, just before and just after every item, and reports each item's
latency scaled to the reference speed: t becomes
t * REF_MS / (mean of the two reference times in ms).  The unscaled
values are printed beside the scaled ones.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYERS = (
    "exactcore", "contfrac", "wugsnake", "classicmarkov", "semigroup",
    "subtractive", "lattice", "render", "cli",
)
SETUP_REPEATS = 7
MIN_ITEMS = 100  # so that at least 10 latencies lie beyond the 90th percentile
GUARD_S = 15.0  # per-item hang guard
# About the median of one reference() call on the 2-vCPU 2.1 GHz Xeon host
# the benchmark was written on, so scaled times read as milliseconds there.
REF_MS = 1.0


class Stalled(BaseException):
    """Raised by the hang guard; a BaseException so library handlers pass it on."""


class LibraryMissing(RuntimeError):
    pass


def stratified(name: str, round_, seed: int, index: int, values, key: str = None):
    """The value for item `index` among `values`, stratified by kind.

    The occurrences of the item's kind, counted across rounds, fall into
    blocks of len(values); each block visits every value once, in an
    order seeded by (workload, seed, key, block).  `key` defaults to the
    kind; pass another to stratify a second property of the same kind.
    """
    kind = round_[index % len(round_)]
    r, pos = divmod(index, len(round_))
    k = r * round_.count(kind) + round_[:pos].count(kind)
    block, slot = divmod(k, len(values))
    order = list(values)
    random.Random(f"{name}:{seed}:{key or kind}:{block}").shuffle(order)
    return order[slot]


def json_digest(result) -> str:
    return hashlib.sha256(json.dumps(result, sort_keys=True, default=str).encode()).hexdigest()


def import_library():
    """Fresh import of markovnum from this checkout's src/."""
    for key in [k for k in sys.modules if k == "markovnum" or k.startswith("markovnum.")]:
        del sys.modules[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    pkg = importlib.import_module("markovnum")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise LibraryMissing(f"markovnum imported from {pkg.__file__}, not {SRC}")
    mods = {name: importlib.import_module(f"markovnum.{name}") for name in LAYERS}
    mods["errors"] = importlib.import_module("markovnum.errors")
    return SimpleNamespace(**mods)


def guarded(fn, seconds: float):
    """Run fn(); raise Stalled if it is still running after `seconds`."""

    def on_alarm(signum, frame):
        raise Stalled(f"item exceeded the {seconds:g} s hang guard")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def reference() -> int:
    """Fixed pure-Python integer work that allocates no tracked objects."""
    acc = 0
    for i in range(10_000):
        acc = (acc * 31 + i * i) % 1_000_003
    return acc


def timed_reference() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def reference_factor(before: float, after: float) -> float:
    """Multiplier taking a time measured between two reference calls
    that took `before` and `after` seconds to the reference speed."""
    return REF_MS / ((before + after) / 2 * 1e3)


def scaled(times, factors) -> list:
    return [t * f for t, f in zip(times, factors, strict=True)]


def at_reference_speed(metrics: dict, factor: float) -> dict:
    """Multiply every value of {name: (value, unit)} measured in ms by factor."""
    return {key: (value * factor if unit.startswith("ms") else value, unit)
            for key, (value, unit) in metrics.items()}


def attempt(wl, lib, item):
    """(latency_s, result, error) of one timed item."""
    t0 = time.perf_counter()
    try:
        result = guarded(lambda: wl.execute(lib, item), GUARD_S)
    except (Exception, Stalled) as exc:
        return time.perf_counter() - t0, None, exc
    return time.perf_counter() - t0, result, None


def verify(wl, lib, item, result, error):
    """None when the item is correct, else a one-line reason."""
    if error is not None:
        return f"{type(error).__name__}: {error}"
    try:
        wl.check(lib, item, result)
    except Exception as exc:  # an oracle mismatch or a malformed result
        return f"{type(exc).__name__}: {exc}"
    return None


def setup(wl, seed: int, work: Path, traced: bool = False):
    """Import, generation of the warm-up inputs, and warm-up.

    Returns (lib, seconds, warm-up passed).  The timed items are
    generated between items, not here: their rejection sampling costs a
    seed-dependent amount that would make set-up time vary with the seed
    rather than with the program.  A warm-up item that fails stops the
    warm-up; the timed phase then reports the program's failures.
    """
    t0 = time.perf_counter()
    lib = import_library()
    if hasattr(wl, "prepare"):
        wl.prepare(lib, work, traced)
    passed = True
    for item in wl.warmup(seed):
        _, result, error = attempt(wl, lib, item)
        if verify(wl, lib, item, result, error):
            passed = False
            break
    return lib, time.perf_counter() - t0, passed


def closed_loop(wl, lib, seed: int, seconds: float, tracer=None):
    """Run whole rounds; returns per-item latencies, their reference
    factors, failures and wall time.

    A run still going after wall_cap(seconds) of wall time (a program
    that stalls or fails on every item) stops after the current item.
    """
    cap = wall_cap(seconds)
    latencies, factors, failures = [], [], []
    busy = 0.0
    index = 0
    t_start = time.perf_counter()
    while True:
        for _ in range(len(wl.ROUND)):
            item = wl.generate(seed, index)
            before = timed_reference()
            if tracer is None:
                latency, result, error = attempt(wl, lib, item)
                factors.append(reference_factor(before, timed_reference()))
                reason = verify(wl, lib, item, result, error)
            else:
                tracer.item_id = index
                with tracer.span("harness.item"):
                    latency, result, error = attempt(wl, lib, item)
                factors.append(reference_factor(before, timed_reference()))
                with tracer.span("harness.check"):
                    reason = verify(wl, lib, item, result, error)
            latencies.append(latency)
            busy += latency
            if reason:
                failures.append((index, item.get("kind"), reason))
            index += 1
            if time.perf_counter() - t_start > cap:
                break
        if (busy >= seconds and index >= MIN_ITEMS) or time.perf_counter() - t_start > cap:
            break
    return SimpleNamespace(
        latencies=latencies, factors=factors, failures=failures, busy=busy,
        wall=time.perf_counter() - t_start, count=index,
    )


def wall_cap(seconds: float) -> float:
    """Wall-time limit of a timed phase; keeps a broken program's run under 180 s."""
    return 2.5 * seconds + 10.0


def replay(wl, lib, seed: int, count: int, cap: float):
    """Run items 0..count-1 again, unchecked, for at most `cap` seconds.

    Returns (items run, their summed latency).
    """
    t_start = time.perf_counter()
    busy = 0.0
    for i in range(count):
        if time.perf_counter() - t_start > cap:
            return i, busy
        busy += attempt(wl, lib, wl.generate(seed, i))[0]
    return count, busy


def percentile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q) - 1]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(wl, loop, latencies, setup_times) -> dict:
    """End-to-end metrics of a loop, from the given per-item latencies
    and set-up times (scaled or not)."""
    n = len(latencies)
    verified = n - len(loop.failures)
    return {
        "items_per_s": (verified / sum(latencies), "items/s"),
        "item_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
        "item_ms_p90": (percentile(latencies, 90) * 1e3, "ms"),
        "verified_frac": (verified / n, "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(getattr(wl, "CHILD_PROCESSES", False)), "MB"),
    }
