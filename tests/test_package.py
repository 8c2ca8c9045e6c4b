"""Package surface: the lazy exports and the README's worked examples."""

import copy
import doctest
import os
import pickle
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import markovnum
from markovnum.classicmarkov import CohnNode, FareyNode, TripleNode, cohn_root_matrices
from markovnum.contfrac import PLLS, CompanionSpec, ContinuedFraction, RecurrenceSystem
from markovnum.errors import ArityMismatchError, NotUnitStepError
from markovnum.exactcore import IntMatrix, QuadraticSurd
from markovnum.lattice import Embedding, SlowSequence
from markovnum.semigroup import FareyNode2, FareyNode3, MDForm
from markovnum.subtractive import MCFTrace
from markovnum.wugsnake import Body, Head

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


M = IntMatrix([[1, 1], [1, 2]])

# (class, keyword fields, repr, invalid keyword fields and the error they
# raise, or None for a record without validation)
RECORDS = [
    (QuadraticSurd, {"a": 1, "b": 2, "d": 8},
     "QuadraticSurd(a=Fraction(1, 1), b=Fraction(4, 1), d=2)",
     ({"a": 1, "b": 2, "d": -1}, ValueError)),
    (ContinuedFraction, {"terms": ((1, 1), (2, 1))},
     "ContinuedFraction(terms=((1, 1), (2, 1)))", ({"terms": ()}, ValueError)),
    (CompanionSpec, {"coeffs": (1, 2)}, "CompanionSpec(coeffs=(1, 2))",
     ({"coeffs": ()}, ValueError)),
    (PLLS, {"period": (1, 2)}, "PLLS(period=(1, 2))", ({"period": (1, 0)}, ValueError)),
    (RecurrenceSystem, {"steps": (CompanionSpec((1,)), CompanionSpec((2,)))},
     "RecurrenceSystem(steps=(CompanionSpec(coeffs=(1,)), CompanionSpec(coeffs=(2,))))",
     ({"steps": (CompanionSpec((1,)), CompanionSpec((1, 1)))}, ArityMismatchError)),
    (MCFTrace, {"start": (7, 5, 3), "strategy": "max-b", "steps": (((1, 0), 0),),
                "final": (0, 0, 1)},
     "MCFTrace(start=(7, 5, 3), strategy='max-b', steps=(((1, 0), 0),), final=(0, 0, 1))",
     None),
    (Embedding, {"dimension": 2, "cells": ((0, 0), (1, 0))},
     "Embedding(dimension=2, cells=((0, 0), (1, 0)))", None),
    (SlowSequence, {"points": ((0, 0), (1, 0))}, "SlowSequence(points=((0, 0), (1, 0)))",
     ({"points": ((0, 0), (1, 1))}, NotUnitStepError)),
    (Head, {"target": (1, 2)}, "Head(target=(1, 2))", ({"target": ()}, ValueError)),
    (Body, {"columns": ((1,), (2, 1))}, "Body(columns=((1,), (2, 1)))",
     ({"columns": ((),)}, ValueError)),
    (TripleNode, {"triple": (1, 5, 2), "depth": 0}, "TripleNode(triple=(1, 5, 2), depth=0)",
     None),
    (FareyNode, {"fractions": (Fraction(0), Fraction(1, 2), Fraction(1)), "depth": 0},
     "FareyNode(fractions=(Fraction(0, 1), Fraction(1, 2), Fraction(1, 1)), depth=0)", None),
    (CohnNode, {"matrices": cohn_root_matrices(1), "depth": 0},
     "CohnNode(matrices=(IntMatrix([[1, 1], [1, 2]]), IntMatrix([[7, 5], [11, 8]]), "
     "IntMatrix([[3, 2], [4, 3]])), depth=0)", None),
    (FareyNode2, {"coordinate": Fraction(1, 2), "word": (0, 1), "element": M, "depth": 1},
     "FareyNode2(coordinate=Fraction(1, 2), word=(0, 1), "
     "element=IntMatrix([[1, 1], [1, 2]]), depth=1)", None),
    (FareyNode3, {"coordinate": (1, 1, 0), "word": (1, 0), "element": M,
                  "scheme": "pairwise", "depth": 1},
     "FareyNode3(coordinate=(1, 1, 0), word=(1, 0), element=IntMatrix([[1, 1], [1, 2]]), "
     "scheme='pairwise', depth=1)", None),
    (MDForm, {"n": 2, "coeffs": (((0, 2), -1), ((1, 1), 1), ((2, 0), 1))},
     "MDForm(n=2, coeffs=(((0, 2), -1), ((1, 1), 1), ((2, 0), 1)))", None),
]


@pytest.mark.parametrize(
    "cls, fields, text, invalid", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_record_semantics(cls, fields, text, invalid):
    record = cls(**fields)
    assert record == cls(*fields.values())
    assert hash(record) == hash(cls(**fields))
    twin = type("Twin", (cls,), {"__slots__": ()})
    assert record != twin(**fields)
    assert repr(record) == text
    with pytest.raises(AttributeError):
        setattr(record, next(iter(fields)), None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.copy(record) == record and copy.deepcopy(record) == record
    if invalid is not None:
        bad, error = invalid
        with pytest.raises(error):
            cls(**bad)
