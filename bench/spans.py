"""Span tracing from outside the library.

The tracer wraps markovnum's public entry points and the IntMatrix /
QuadraticSurd operators, records one span per call (name, start, end,
parent, item id, size) in flat arrays, and turns them into per-layer
counts and self times.  A layer is a markovnum module.

Names bound by ``from .x import y`` live in several module namespaces;
every binding of a wrapped function is replaced, so a call is traced
wherever it is looked up.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

# (module, attribute, span name, size of the call or None)
FUNCTIONS = (
    ("exactcore", "permanent", "exactcore.permanent", lambda a, k: a[0].n),
    ("exactcore", "det_exact", "exactcore.det_exact", lambda a, k: a[0].n),
    ("contfrac", "plls_decompose", "contfrac.plls_decompose", None),
    ("contfrac", "cf_eval", "contfrac.cf_eval", None),
    ("wugsnake", "matching_count_bruteforce", "wugsnake.matching_count_bruteforce", None),
    ("wugsnake", "matching_sequence", "wugsnake.matching_sequence", None),
    ("wugsnake", "matching_count_det", "wugsnake.matching_count_det", None),
    ("wugsnake", "wug_determinant", "wugsnake.wug_determinant", None),
    ("classicmarkov", "markov_tree", "classicmarkov.markov_tree", None),
    ("classicmarkov", "cohn_tree", "classicmarkov.cohn_tree", None),
    ("classicmarkov", "frobenius_index", "classicmarkov.frobenius_index", None),
    ("classicmarkov", "cohn_matrix", "classicmarkov.cohn_matrix", None),
    ("classicmarkov", "mu_domino", "classicmarkov.mu_domino", None),
    ("classicmarkov", "domino_mu_shift", "classicmarkov.domino_mu_shift", None),
    ("semigroup", "farey_set_2", "semigroup.farey_set_2", lambda a, k: k.get("depth", a[2] if len(a) > 2 else None)),
    ("semigroup", "farey_set_3", "semigroup.farey_set_3", lambda a, k: k.get("depth", a[4] if len(a) > 4 else None)),
    ("semigroup", "aa_bb_family", "semigroup.aa_bb_family", None),
    ("semigroup", "perron_minimum", "semigroup.perron_minimum", lambda a, k: len(tuple(a[0]))),
    ("semigroup", "is_markov_reduced", "semigroup.is_markov_reduced", None),
    ("semigroup", "markov_from_plls", "semigroup.markov_from_plls", None),
    ("subtractive", "run_mcf", "subtractive.run_mcf", None),
    ("subtractive", "reconstruct", "subtractive.reconstruct", None),
    ("lattice", "cubes_for_vector", "lattice.cubes_for_vector", None),
    ("lattice", "model531_count", "lattice.model531_count", None),
    ("render", "render_cells", "render.svg", None),
    ("render", "render_wug", "render.svg", None),
    ("render", "render_embedding2", "render.svg", None),
    ("render", "render_embedding3", "render.svg", None),
    ("cli", "main", "cli.main", None),
)

# (module, class, methods, span name)
METHODS = (
    ("exactcore", "IntMatrix", ("__mul__", "__pow__"), "exactcore.matmul"),
    (
        "exactcore",
        "QuadraticSurd",
        ("__add__", "__neg__", "__sub__", "__mul__", "scale", "invert", "sign",
         "compare", "__lt__", "__le__", "square"),
        "exactcore.surd",
    ),
    ("wugsnake", "WugSnake", ("biadjacency", "continuant_matrix"), "wugsnake.build"),
)

def _bits(x) -> int:
    return abs(x).bit_length() if isinstance(x, int) else 0


def _result_bits(name, result) -> int:
    """Bit length of the largest integer an exactcore call produced."""
    if name == "exactcore.matmul":
        return max(_bits(x) for row in result.rows for x in row)
    if name == "exactcore.surd":
        if not hasattr(result, "d"):
            return 0
        return max(
            _bits(result.a.numerator), _bits(result.a.denominator),
            _bits(result.b.numerator), _bits(result.b.denominator), _bits(result.d),
        )
    return _bits(result)


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.size = array("i")
        self.error = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.item_id = -1
        self.max_bits: dict[int, int] = {}  # item id -> largest exactcore result, in bits
        self.mcf_steps = 0
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int, size: int = -1) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.item.append(self.item_id)
        self.size.append(size)
        self.error.append(0)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start[idx] = time.perf_counter()
        return idx

    def close(self, idx: int, failed: bool = False) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()
        if failed:
            self.error[idx] = 1

    def span(self, name: str):
        return _Span(self, self._id(name))

    def wrap(self, func, name: str, size_of=None):
        tracer = self
        name_id = self._id(name)
        bits = name.startswith("exactcore.")

        def traced(*args, **kwargs):
            size = size_of(args, kwargs) if size_of else -1
            idx = tracer.open(name_id, -1 if size is None else size)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                tracer.close(idx, failed=True)
                raise
            tracer.close(idx)
            if bits:
                b = _result_bits(name, result)
                if b > tracer.max_bits.get(tracer.item_id, 0):
                    tracer.max_bits[tracer.item_id] = b
            if name == "subtractive.run_mcf":
                tracer.mcf_steps += len(result.steps)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = {
            key: mod for key, mod in list(sys.modules.items())
            if key == "markovnum" or key.startswith("markovnum.")
        }
        replace = {}
        for mod_name, attr, name, size_of in FUNCTIONS:
            func = getattr(modules[f"markovnum.{mod_name}"], attr)
            replace[id(func)] = (func, self.wrap(func, name, size_of))
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit and hit[0] is value:
                    setattr(mod, key, hit[1])
                    self._undo.append((mod, key, value))
        for mod_name, cls_name, methods, name in METHODS:
            cls = getattr(modules[f"markovnum.{mod_name}"], cls_name)
            for meth in methods:
                original = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(original, name))
                self._undo.append((cls, meth, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> array:
        """Per span: duration minus the time its direct children cover."""
        n = len(self.name)
        own = array("d", [0.0]) * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            d = end[i] - start[i]
            own[i] += d
            p = parent[i]
            if p >= 0:
                own[p] -= d
        return own

    def aggregate(self):
        """{name: [calls, self_s, {size: [calls, self_s]}]} over all spans."""
        out = {}
        names = self.names
        for i, s in enumerate(self.self_times()):
            entry = out.setdefault(names[self.name[i]], [0, 0.0, {}])
            entry[0] += 1
            entry[1] += s
            size = self.size[i]
            if size >= 0:
                bucket = entry[2].setdefault(size, [0, 0.0])
                bucket[0] += 1
                bucket[1] += s
        return out

    def roots(self):
        """Indices of the spans that have no parent."""
        return [i for i, p in enumerate(self.parent) if p < 0]

    def covered(self, root_name: str, modules) -> float:
        """Share of the time of the `root_name` root spans that lies in
        spans of the given modules (their self time), below 1 by the time
        spent in the roots' own code or in untraced calls."""
        root_id = self._ids.get(root_name)
        own = self.self_times()
        top = array("i", [-1]) * len(self.name)
        total = inside = 0.0
        prefixes = tuple(f"{m}." for m in modules)
        for i, p in enumerate(self.parent):
            top[i] = i if p < 0 else top[p]
            if self.name[top[i]] != root_id:
                continue
            if p < 0:
                total += self.end[i] - self.start[i]
            elif self.names[self.name[i]].startswith(prefixes):
                inside += own[i]
        return inside / total if total else 0.0

    def errors(self, name: str) -> int:
        name_id = self._ids.get(name)
        return sum(1 for i, e in enumerate(self.error) if e and self.name[i] == name_id)

    def dump(self, path: Path) -> None:
        """Write the spans: a JSON header and the raw arrays beside it."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".bin"), "wb") as handle:
            for arr in (self.name, self.parent, self.item, self.size, self.error, self.start, self.end):
                arr.tofile(handle)
        header = {
            "spans": len(self.name),
            "names": self.names,
            "arrays": [
                ["name", "i"], ["parent", "i"], ["item", "i"], ["size", "i"],
                ["error", "b"], ["start", "d"], ["end", "d"],
            ],
        }
        path.with_suffix(".json").write_text(json.dumps(header) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name_id: int):
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        self.idx = self.tracer.open(self.name_id)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer.close(self.idx, failed=exc_type is not None)
        return False
