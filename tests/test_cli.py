"""Command-line interface: payloads, exit codes, deterministic output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import markovnum
from markovnum.cli import main


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


EIGHT_SNAKE = {
    "n": 8,
    "weights": [
        [1, 1, 1], [1, 2, 1], [2, 2, 1], [2, 3, 1], [3, 3, 1], [3, 4, 1],
        [3, 5, 1], [4, 4, 1], [5, 5, 1], [5, 6, 1], [5, 7, 1], [6, 6, 1],
        [7, 7, 1], [7, 8, 1], [8, 8, 1],
    ],
}


class TestCommands:
    def test_markov_numbers(self, run):
        code, out, _ = run("markov", "numbers", "--depth", "6")
        assert code == 0
        numbers = [int(x) for x in lines(out)[0]["numbers"]]
        assert numbers[:5] == [1, 2, 5, 13, 29]

    def test_farey_index(self, run):
        code, out, _ = run("farey", "index", "--t", "2/3")
        assert code == 0
        assert lines(out)[0] == {"farey": "2/3", "markov": "29"}

    def test_cohn_word(self, run):
        code, out, _ = run("cohn", "word", "--t", "1/2")
        assert code == 0
        payload = lines(out)[0]
        assert payload["christoffel"] == payload["word"] == "AB"
        assert payload["mu"] == "5"

    def test_cf_eval(self, run):
        code, out, _ = run("cf", "eval", "--cf", "[3; 2 : 1 : 3 : 2 : 1]")
        assert code == 0
        payload = lines(out)[0]
        assert (payload["p"], payload["q"]) == ("121", "36")

    def test_cf_plls(self, run):
        code, out, _ = run("cf", "plls", "--matrix", "25,36,84,121")
        assert code == 0
        payload = lines(out)[0]
        assert payload["plls"] == ["1", "2", "3", "1", "2", "3"]
        assert payload["markov"] == "36"

    def test_wug_count(self, run, tmp_path):
        path = tmp_path / "snake.json"
        path.write_text(json.dumps(EIGHT_SNAKE))
        code, out, _ = run("wug", "count", "--file", str(path))
        assert code == 0
        payload = lines(out)[0]
        assert payload == {"bruteforce": "29", "permanent": "29", "det": "29"}

    def test_wug_count_beyond_fourteen(self, run, tmp_path):
        # a path of squares: the count is a Fibonacci number; Ryser stops at n = 22
        for n, want in ((20, 10946), (23, None)):
            weights = [[i, j, 1] for i in range(1, n + 1) for j in (i, i + 1) if j <= n]
            path = tmp_path / f"snake{n}.json"
            path.write_text(json.dumps({"n": n, "weights": weights}))
            code, out, err = run("wug", "count", "--file", str(path))
            if want:
                assert code == 0
                assert lines(out)[0] == dict.fromkeys(("bruteforce", "permanent", "det"), str(want))
            else:
                assert code == 2 and out == ""
                assert err.startswith("error:") and err.count("\n") == 1

    def test_wug_fuzz_deterministic(self, run):
        code1, out1, _ = run("--seed", "7", "wug", "fuzz", "--count", "10")
        code2, out2, _ = run("--seed", "7", "wug", "fuzz", "--count", "10")
        assert code1 == code2 == 0
        assert out1 == out2
        assert all(payload["agree"] for payload in lines(out1))

    def test_semigroup_collide(self, run):
        code, out, _ = run("semigroup", "collide", "--family", "4,11")
        assert code == 0
        payloads = lines(out)
        assert {"farey": ["4/5", "1/7"], "value": "355318099"} in payloads

    def test_semigroup_family(self, run):
        code, out, _ = run("semigroup", "family", "--a", "2", "--b", "3", "--depth", "2")
        assert code == 0
        values = sorted({int(p["markov"]) for p in lines(out)})
        assert values[:4] == [2, 3, 17, 99]

    def test_semigroup_enum(self, run, tmp_path):
        gens = tmp_path / "gens.json"
        gens.write_text(json.dumps([[[1, 2], [1, 3]], [[2, 3], [3, 5]]]))
        code, out, _ = run(
            "semigroup", "enum", "--gens", str(gens), "--depth", "1"
        )
        assert code == 0
        by_coord = {p["farey"]: p for p in lines(out)}
        # the element at the mediant is the second generator times the first
        assert by_coord["1/2"]["element"] == [["5", "13"], ["8", "21"]]

    def test_perron(self, run):
        code, out, _ = run("perron", "--plls", "1,1")
        assert code == 0
        payload = lines(out)[0]
        assert payload["radicand"] == "5"
        assert payload["rational"] == "0"
        assert payload["coefficient"] == "1"

    def test_subtract(self, run):
        code, out, _ = run(
            "subtract", "--triple", "7,5,3", "--strategy", "min-remainder",
            "--trace",
        )
        assert code == 0
        payload = lines(out)[0]
        assert payload["gcd"] == "1"
        first = payload["steps"][0]
        assert (first["alpha"], first["beta"]) == ("0", "2")

    def test_tetris(self, run):
        code, out, _ = run("tetris", "--vector", "7,5,3")
        assert code == 0
        payload = lines(out)[0]
        assert payload["cells"] == 13
        assert payload["word"] == "A2^5 A1 A3^4 A2 A1"
        assert payload["count"] == "36313494507"

    def test_render_deterministic(self, run, tmp_path):
        spec = tmp_path / "word.json"
        spec.write_text(json.dumps({"word": [0, 1, 1]}))
        out1 = tmp_path / "a.svg"
        out2 = tmp_path / "b.svg"
        for out in (out1, out2):
            code, _, _ = run(
                "render", "--kind", "embedding2",
                "--in", str(spec), "--out", str(out),
            )
            assert code == 0
        body = out1.read_text()
        assert body == out2.read_text()
        assert body.startswith("<svg") and body.rstrip().endswith("</svg>")


class TestExitCodes:
    def test_usage_error(self, run):
        code, _, err = run("markov", "sideways")
        assert code == 1
        assert "error" in err

    def test_unknown_command(self, run):
        code, _, _ = run("frobnicate")
        assert code == 1

    def test_validation_error_bad_fraction(self, run):
        code, _, err = run("farey", "index", "--t", "1/0")
        assert code == 2
        assert "error" in err

    def test_validation_error_missing_file(self, run):
        code, _, _ = run("wug", "count", "--file", "/nonexistent/snake.json")
        assert code == 2

    def test_validation_error_requires_file(self, run):
        code, _, _ = run("wug", "count")
        assert code == 2

    def test_validation_error_not_reduced(self, run):
        code, _, _ = run("cf", "plls", "--matrix", "1,0,0,1")
        assert code == 2

    def test_validation_error_wug_count_json_list(self, run, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([1, 2]))
        code, _, err = run("wug", "count", "--file", str(path))
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    def test_validation_error_render_wug_json_list(self, run, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([1, 2]))
        code, _, err = run(
            "render", "--kind", "wug", "--in", str(path), "--out", str(tmp_path / "w.svg")
        )
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["snake", "embedding2", "embedding3"])
    @pytest.mark.parametrize(
        "data", [[1, 2], {"cells": [[0, "a"]]}, {"word": [0, 5]}, {"word": 3}]
    )
    def test_validation_error_render_malformed_json(self, run, tmp_path, kind, data):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(data))
        code, _, err = run(
            "render", "--kind", kind, "--in", str(path), "--out", str(tmp_path / "x.svg")
        )
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("markov", "numbers", "--depth", "-1"),
            ("markov", "tree", "--depth", "-1"),
            ("semigroup", "family", "--depth", "-1"),
            ("wug", "fuzz", "--count", "-1"),
        ],
    )
    def test_validation_error_negative_depth(self, run, argv):
        code, out, err = run(*argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("tetris", "--vector", "10000000,9999999,9999997"),
            ("markov", "tree", "--depth", "30"),
            ("tetris", "--vector", "6,4,3"),
            ("tetris", "--vector", "2,3,5,7"),
            ("tetris", "--vector", "2,3,5,7,11,13,17,19,23,29,31,37,41"),
        ],
    )
    def test_validation_error_over_budget_or_non_generic(self, run, argv):
        code, out, err = run(*argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "scheme, gens",
        [
            ("fraction", [[[1, 1], [1, 2]]]),
            ("pairwise", [[[1, 1], [1, 2]], [[2, 3], [3, 5]]]),
            ("fraction", [[[1, 1], [1, 2]], [1, 2]]),
            ("fraction", {"gens": []}),
        ],
    )
    def test_validation_error_semigroup_enum_generators(self, run, tmp_path, scheme, gens):
        path = tmp_path / "gens.json"
        path.write_text(json.dumps(gens))
        code, _, err = run("semigroup", "enum", "--gens", str(path), "--scheme", scheme)
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err


class TestImports:
    def test_farey_index_loads_only_its_modules(self):
        script = (
            "import json, sys\n"
            "from markovnum import cli\n"
            "assert cli.main(['farey', 'index', '--t', '2/3']) == 0\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('markovnum.'))))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(markovnum.__file__).parent.parent)}
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        loaded = json.loads(proc.stdout.splitlines()[-1])
        assert loaded == [
            "markovnum.classicmarkov",
            "markovnum.cli",
            "markovnum.errors",
            "markovnum.exactcore",
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["farey", "index", "--t", "2/3"],
            ["wug", "count", "--file", "{snake}"],
            ["subtract", "--triple", "7,5,3", "--strategy", "min-remainder", "--trace"],
            ["tetris", "--vector", "7,5,3"],
            ["render", "--kind", "embedding2", "--in", "{word}", "--out", "{svg}"],
            ["semigroup", "family", "--a", "1", "--b", "2", "--depth", "3"],
            ["perron", "--plls", "1,2"],
        ],
        ids=lambda argv: " ".join(a for a in argv[:2] if not a.startswith("-")),
    )
    def test_commands_load_no_dataclasses(self, tmp_path, argv):
        files = {"snake": tmp_path / "snake.json", "word": tmp_path / "word.json",
                 "svg": tmp_path / "out.svg"}
        files["snake"].write_text(json.dumps(EIGHT_SNAKE))
        files["word"].write_text(json.dumps({"word": [0, 1, 1]}))
        argv = [arg.format(**files) for arg in argv]
        script = (
            "import json, sys\n"
            "from markovnum import cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            "print(json.dumps([m in sys.modules for m in ('dataclasses', 'inspect')]))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(markovnum.__file__).parent.parent)}
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        assert json.loads(proc.stdout.splitlines()[-1]) == [False, False]
