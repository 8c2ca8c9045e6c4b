"""Package surface: the lazy exports and the README's worked examples."""

import doctest
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import markovnum

README = Path(__file__).resolve().parent.parent / "README.md"

EXPORTS = [
    "Body", "CompanionSpec", "ContinuedFraction", "Embedding", "Head", "IntMatrix",
    "MCFTrace", "MDForm", "MarkovNumError", "PLLS", "QuadraticSurd", "SlowSequence",
    "WugSnake", "aa_bb_family", "algebraic_markov", "body_for_matrix", "cf_eval",
    "christoffel", "classicmarkov", "cohn_matrix", "cohn_tree", "cohn_word", "companion",
    "companion2", "contfrac", "continuant_pq", "cubes_for_vector", "det_exact", "embed2",
    "embed3", "errors", "exactcore", "farey_set_2", "farey_set_3", "fricke_check",
    "frobenius_index", "geometric_markov_search", "is_markov_reduced", "is_reduced_2",
    "lattice", "markov_form", "markov_from_plls", "markov_numbers", "markov_tree",
    "matching_count_bruteforce", "matching_count_det", "matching_sequence", "md_form",
    "md_form_eval", "model531_count", "mu_domino", "permanent", "perron_minimum",
    "plls_decompose", "reconstruct", "recurrence_system", "representative", "run_mcf",
    "semigroup", "simple_head", "snake_for", "snake_operator", "subtract_step",
    "subtractive", "tangent", "tangent_fraction", "wug_determinant", "wug_sum", "wugsnake",
]


class TestExports:
    def test_all_is_unchanged(self):
        assert sorted(markovnum.__all__) == EXPORTS
        assert set(EXPORTS) <= set(dir(markovnum))

    def test_every_name_resolves(self):
        for name in EXPORTS:
            value = getattr(markovnum, name)
            if isinstance(value, types.ModuleType):
                assert value.__name__ == f"markovnum.{name}"
            else:
                assert getattr(sys.modules[value.__module__], name) is value
                # resolved on each access, never bound in the package namespace
                assert name not in vars(markovnum)

    def test_star_import(self):
        namespace = {}
        exec("from markovnum import *", namespace)
        assert set(EXPORTS) <= set(namespace)

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            markovnum.no_such_name

    def test_import_loads_no_submodule(self):
        script = "import sys, markovnum; print([m for m in sys.modules if m.startswith('markovnum.')])"
        env = {**os.environ, "PYTHONPATH": str(Path(markovnum.__file__).parent.parent)}
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        assert proc.stdout.strip() == "[]"


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0
