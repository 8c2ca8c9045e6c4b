"""Exact arithmetic for classical and semigroup-generalized Markov numbers.

The package computes matching counts of wug-snake graphs four ways
(direct enumeration, permanents, continuant determinants, and
homogeneous determinant forms) and cross-validates them, alongside the
classical Markov/Farey/Cohn machinery, subtractive algorithms, and the
lattice-geometry layer.

Submodules load on first use (PEP 562): ``import markovnum`` imports
none of them, and ``markovnum.perron_minimum`` imports only what
``markovnum.semigroup`` needs.
"""

import importlib

_EXPORTS = {
    "errors": ("MarkovNumError",),
    "exactcore": ("IntMatrix", "QuadraticSurd", "det_exact", "permanent"),
    "contfrac": (
        "CompanionSpec",
        "ContinuedFraction",
        "PLLS",
        "cf_eval",
        "companion",
        "companion2",
        "continuant_pq",
        "is_reduced_2",
        "plls_decompose",
        "recurrence_system",
    ),
    "wugsnake": (
        "Body",
        "Head",
        "WugSnake",
        "body_for_matrix",
        "matching_count_bruteforce",
        "matching_count_det",
        "matching_sequence",
        "simple_head",
        "snake_for",
        "wug_determinant",
    ),
    "classicmarkov": (
        "christoffel",
        "cohn_matrix",
        "cohn_tree",
        "cohn_word",
        "fricke_check",
        "frobenius_index",
        "markov_form",
        "markov_numbers",
        "markov_tree",
        "mu_domino",
    ),
    "semigroup": (
        "MDForm",
        "aa_bb_family",
        "algebraic_markov",
        "farey_set_2",
        "farey_set_3",
        "geometric_markov_search",
        "is_markov_reduced",
        "markov_from_plls",
        "md_form",
        "md_form_eval",
        "perron_minimum",
    ),
    "subtractive": ("MCFTrace", "reconstruct", "run_mcf", "subtract_step"),
    "lattice": (
        "Embedding",
        "SlowSequence",
        "cubes_for_vector",
        "embed2",
        "embed3",
        "model531_count",
        "representative",
        "snake_operator",
        "tangent",
        "tangent_fraction",
        "wug_sum",
    ),
}
# Looked up on every access rather than stored in the package namespace,
# so that a name rebound in its submodule is seen here too.
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_SOURCE])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _SOURCE:
        return getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
