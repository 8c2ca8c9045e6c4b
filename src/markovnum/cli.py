"""Command-line interface.

Every subcommand prints JSON lines to stdout (or writes SVG for
render).  Big integers are serialized as decimal strings so downstream
consumers never overflow.  Exit codes: 0 success, 1 usage error,
2 validation error.

Each handler imports the modules it uses, so a process loads only what
its command needs: `farey index` imports classicmarkov and exactcore,
not the whole package.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import MarkovNumError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _emit(obj):
    print(json.dumps(obj, separators=(",", ":")))


def _s(x):
    """Serialize an integer (or nested ints) as decimal strings."""
    if isinstance(x, bool):
        return x
    if isinstance(x, int):
        return str(x)
    if isinstance(x, (list, tuple)):
        return [_s(v) for v in x]
    return x


def _fraction_arg(text: str) -> Fraction:
    try:
        p, q = text.split("/")
        return Fraction(int(p), int(q))
    except (ValueError, ZeroDivisionError):
        raise SystemExit(_fail(f"expected a fraction like 2/3, got {text!r}"))


def _ints_arg(text: str) -> list:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise SystemExit(_fail(f"expected comma-separated integers: {text!r}"))


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _matrix_arg(text: str):
    from .exactcore import IntMatrix

    vals = _ints_arg(text)
    n = int(len(vals) ** 0.5)
    if n * n != len(vals):
        raise SystemExit(_fail("matrix needs a square number of entries"))
    return IntMatrix([vals[i * n : (i + 1) * n] for i in range(n)])


# --- JSON input loaders: each checks the shape of its input and raises
# ValueError, which main() reports as a validation error (exit 2).


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _json_field(text: str, key: str):
    data = json.loads(text)
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f'expected a JSON object with "{key}"')
    return data[key]


def _load_cells(text: str) -> list:
    """The cells of ``{"cells": [[x, y], ...]}``."""
    cells = _json_field(text, "cells")
    if not isinstance(cells, list) or not all(
        isinstance(c, list) and len(c) == 2 and all(map(_is_int, c)) for c in cells
    ):
        raise ValueError('"cells" must be a list of integer pairs [x, y]')
    return [tuple(c) for c in cells]


def _load_word(text: str, letters: int) -> list:
    """The word of ``{"word": [...]}`` over the letters 0 .. letters - 1."""
    word = _json_field(text, "word")
    if not isinstance(word, list) or not all(_is_int(x) and 0 <= x < letters for x in word):
        raise ValueError(f'"word" must be a list of letters 0..{letters - 1}')
    return word


def _load_generators(text: str, count: int) -> list:
    """``count`` matrices from a JSON list of integer row lists."""
    from .exactcore import IntMatrix

    gens = json.loads(text)
    if not isinstance(gens, list) or len(gens) != count:
        raise ValueError(f"expected a JSON list of {count} generator matrices")
    for rows in gens:
        if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(map(_is_int, row)) for row in rows
        ):
            raise ValueError(f"generator {rows!r} is not a list of integer rows")
    return [IntMatrix(rows) for rows in gens]


# --- subcommand handlers ---------------------------------------------------


def cmd_markov(args):
    from . import classicmarkov as cm

    if args.action == "tree":
        for node in cm.markov_tree(args.depth):
            _emit({"depth": node.depth, "triple": _s(list(node.triple))})
    else:
        _emit({"numbers": _s(cm.markov_numbers(args.depth))})
    return 0


def cmd_farey(args):
    from . import classicmarkov as cm

    if args.action == "tree":
        for node in cm.farey_tree(args.depth):
            _emit(
                {
                    "depth": node.depth,
                    "fractions": [str(f) for f in node.fractions],
                }
            )
    else:
        t = _fraction_arg(args.t)
        m = cm.frobenius_index(t.numerator, t.denominator)
        _emit({"farey": str(t), "markov": _s(m)})
    return 0


def cmd_cohn(args):
    from . import classicmarkov as cm

    if args.action == "tree":
        for node in cm.cohn_tree(args.depth, args.param):
            _emit(
                {
                    "depth": node.depth,
                    "matrices": [_s([list(r) for r in m.rows]) for m in node.matrices],
                }
            )
    else:
        t = _fraction_arg(args.t)
        p, q = t.numerator, t.denominator
        _emit(
            {
                "farey": str(t),
                "christoffel": cm.christoffel(p, q),
                "word": cm.cohn_word(p, q),
                "mu": _s(cm.mu_domino(p, q)),
            }
        )
    return 0


def cmd_cf(args):
    from .contfrac import ContinuedFraction, cf_eval_pq, plls_decompose

    if args.action == "eval":
        cf = ContinuedFraction.parse(args.cf)
        p, q = cf_eval_pq(cf)
        if q == 0:
            return _fail("zero denominator")
        _emit({"cf": cf.format(), "p": _s(p), "q": _s(q)})
    else:
        from .semigroup import algebraic_markov

        m = _matrix_arg(args.matrix)
        plls = plls_decompose(m)
        _emit(
            {
                "matrix": _s([list(r) for r in m.rows]),
                "plls": _s(list(plls.period)),
                "markov": _s(algebraic_markov(m)),
            }
        )
    return 0


def cmd_wug(args):
    from .exactcore import permanent
    from .wugsnake import WugSnake, matching_count_bruteforce, matching_count_det

    if args.action == "count":
        if not args.file:
            return _fail("count requires --file")
        with open(args.file, encoding="utf-8") as handle:
            snake = WugSnake.from_json(handle.read())
        _emit(
            {
                "bruteforce": _s(matching_count_bruteforce(snake)),
                "permanent": _s(permanent(snake.biadjacency())),
                "det": _s(matching_count_det(snake)),
            }
        )
    else:  # fuzz
        import random

        rng = random.Random(args.seed)
        failures = 0
        for _ in range(args.count):
            n = rng.randint(1, 8)
            weights = {
                (i, j): rng.randint(0, 3)
                for i in range(1, n + 1)
                for j in range(i, n + 1)
            }
            snake = WugSnake(n, weights)
            counts = {
                "bruteforce": matching_count_bruteforce(snake),
                "permanent": permanent(snake.biadjacency()),
                "det": matching_count_det(snake),
            }
            ok = len(set(counts.values())) == 1
            failures += not ok
            _emit({"n": n, "agree": ok, **{k: _s(v) for k, v in counts.items()}})
        if failures:
            return 2
    return 0


def cmd_semigroup(args):
    from . import semigroup

    if args.action == "enum":
        if not args.gens:
            return _fail("enum requires --gens")
        with open(args.gens, encoding="utf-8") as handle:
            gens = _load_generators(handle.read(), 2 if args.scheme == "fraction" else 3)
        if args.scheme == "fraction":
            for node in semigroup.farey_set_2(gens[0], gens[1], args.depth):
                _emit(
                    {
                        "farey": str(node.coordinate),
                        "word": list(node.word),
                        "element": _s([list(r) for r in node.element.rows]),
                    }
                )
        else:
            nodes = semigroup.farey_set_3(
                gens[0], gens[1], gens[2], args.scheme, args.depth
            )
            for node in nodes:
                _emit(
                    {
                        "coordinate": list(node.coordinate),
                        "word": list(node.word),
                        "element": _s([list(r) for r in node.element.rows]),
                    }
                )
    elif args.action == "collide":
        a, b = _ints_arg(args.family)
        values = {}
        hits = []
        for i in range(1, 9):
            for j in range(1, 9):
                seq = (a, a) * i + (b, b) * j
                value = semigroup.markov_from_plls(seq)
                key = values.get(value)
                coord = Fraction(j, i + j)
                if key and key != coord:
                    hits.append((key, coord, value))
                else:
                    values[value] = coord
        for first, second, value in hits:
            _emit({"farey": [str(first), str(second)], "value": _s(value)})
        if not hits:
            return _fail("no collision found")
    else:  # family
        for coord, value in semigroup.aa_bb_family(args.a, args.b, args.depth):
            _emit({"farey": str(coord), "markov": _s(value)})
    return 0


def cmd_perron(args):
    from . import semigroup
    from .contfrac import PLLS

    plls = PLLS(tuple(_ints_arg(args.plls)))
    surd = semigroup.perron_minimum(plls)
    _emit(
        {
            "plls": list(plls.period),
            "rational": str(surd.a),
            "coefficient": str(surd.b),
            "radicand": _s(surd.d),
            "display": str(surd),
        }
    )
    return 0


def cmd_subtract(args):
    from . import subtractive

    triple = _ints_arg(args.triple)
    if len(triple) != 3:
        return _fail("expected three comma-separated values")
    strategy = args.strategy.replace("_", "-")
    trace = subtractive.run_mcf(triple, strategy)
    payload = {
        "start": _s(list(trace.start)),
        "strategy": trace.strategy,
        "final": _s(list(trace.final)),
        "gcd": _s(trace.terminal),
    }
    if args.trace:
        payload["steps"] = [
            {"alpha": _s(al), "beta": _s(be), "rotations": k}
            for (al, be), k in trace.steps
        ]
    _emit(payload)
    return 0


def cmd_tetris(args):
    from . import lattice

    vector = _ints_arg(args.vector)
    seq = lattice.cubes_for_vector(vector)
    word = lattice.representative(seq)
    _emit(
        {
            "vector": _s(vector),
            "cells": len(seq.points),
            "word": lattice.word_display(word),
            "letters": [w + 1 for w in word],
            "count": _s(lattice.model531_word_count(word)),
        }
    )
    return 0


def cmd_render(args):
    from . import render

    with open(args.infile, encoding="utf-8") as handle:
        text = handle.read()
    if args.kind == "wug":
        from .wugsnake import WugSnake

        svg = render.render_wug(WugSnake.from_json(text))
    elif args.kind == "snake":
        svg = render.render_cells(_load_cells(text))
    elif args.kind == "embedding2":
        from .lattice import embed2

        svg = render.render_embedding2(embed2(_load_word(text, 2)))
    else:
        from .lattice import embed3

        svg = render.render_embedding3(embed3(_load_word(text, 3)))
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(svg)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="markovnum")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized commands")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("markov")
    p.add_argument("action", choices=["tree", "numbers"])
    p.add_argument("--depth", type=int, default=3)
    p.set_defaults(func=cmd_markov)

    p = sub.add_parser("farey")
    p.add_argument("action", choices=["tree", "index"])
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--t", default="1/2")
    p.set_defaults(func=cmd_farey)

    p = sub.add_parser("cohn")
    p.add_argument("action", choices=["tree", "word"])
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--param", type=int, default=1)
    p.add_argument("--t", default="1/2")
    p.set_defaults(func=cmd_cohn)

    p = sub.add_parser("cf")
    p.add_argument("action", choices=["eval", "plls"])
    p.add_argument("--cf", default="[1; 1]")
    p.add_argument("--matrix", default="1,1,1,2")
    p.set_defaults(func=cmd_cf)

    p = sub.add_parser("wug")
    p.add_argument("action", choices=["count", "fuzz"])
    p.add_argument("--file")
    p.add_argument("--count", type=int, default=20)
    p.set_defaults(func=cmd_wug)

    p = sub.add_parser("semigroup")
    p.add_argument("action", choices=["enum", "collide", "family"])
    p.add_argument("--gens")
    p.add_argument(
        "--scheme",
        choices=["fraction", "pairwise", "simultaneous", "barycentric"],
        default="fraction",
    )
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--family", default="4,11")
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--b", type=int, default=2)
    p.set_defaults(func=cmd_semigroup)

    p = sub.add_parser("perron")
    p.add_argument("--plls", required=True)
    p.set_defaults(func=cmd_perron)

    p = sub.add_parser("subtract")
    p.add_argument("--triple", required=True)
    p.add_argument(
        "--strategy",
        choices=["max-b", "max-c", "b-then-c", "min-remainder"],
        default="max-b",
    )
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_subtract)

    p = sub.add_parser("tetris")
    p.add_argument("--vector", required=True)
    p.set_defaults(func=cmd_tetris)

    p = sub.add_parser("render")
    p.add_argument("--kind", choices=["snake", "wug", "embedding2", "embedding3"], required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for option in ("depth", "count"):
        if getattr(args, option, 0) < 0:
            value = getattr(args, option)
            return _fail(f"--{option} must be nonnegative, got {value}")
    try:
        code = args.func(args)
    except SystemExit:
        raise
    except MarkovNumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
