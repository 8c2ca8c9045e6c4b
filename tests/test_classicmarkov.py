"""Classical pipeline: trees, words, domino geometry, forms."""

import random
from math import gcd

import pytest

from markovnum.classicmarkov import (
    LETTER_MATRIX,
    MAX_TREE_DEPTH,
    christoffel,
    cohn_matrix,
    cohn_root_matrices,
    cohn_tree,
    cohn_word,
    domino_geometry,
    domino_mu_bruteforce,
    domino_mu_shift,
    fricke_check,
    frobenius_index,
    farey_tree,
    is_markov_triple,
    markov_form,
    markov_numbers,
    markov_tree,
    mediant,
    mu_domino,
)
from markovnum.errors import NotCoprimeError, NotUnimodularError, TooLargeError
from markovnum.exactcore import IntMatrix, det_exact
from markovnum.semigroup import farey_set_2, farey_set_3
from fractions import Fraction

PREFIX = [1, 2, 5, 13, 29, 34, 89, 169, 194, 233, 433, 610, 985, 1325, 1597]


def coprime_fractions(max_q):
    for q in range(1, max_q + 1):
        for p in range(0, q + 1):
            if gcd(p, q) == 1:
                yield p, q


class TestTrees:
    def test_small_triples_present(self):
        triples = {tuple(sorted(n.triple)) for n in markov_tree(3)}
        for t in [(1, 2, 5), (1, 5, 13), (2, 5, 29), (1, 13, 34)]:
            assert t in triples

    def test_left_child_of_root(self):
        assert markov_tree(1)[1].triple == (1, 13, 5)

    def test_equation_holds_everywhere(self):
        for node in markov_tree(6):
            assert is_markov_triple(tuple(sorted(node.triple)))

    def test_no_triple_repeats_to_depth_8(self):
        seen = [tuple(sorted(n.triple)) for n in markov_tree(8)]
        assert len(seen) == len(set(seen))

    def test_number_prefix(self):
        assert markov_numbers(6)[:15] == PREFIX

    def test_mediant(self):
        assert mediant(Fraction(0, 1), Fraction(1, 1)) == Fraction(1, 2)

    def test_farey_tree_mediants(self):
        for node in farey_tree(4):
            l, m, r = node.fractions
            assert m == mediant(l, r)

    def test_frobenius_anchors(self):
        assert [frobenius_index(*t) for t in [(0, 1), (1, 1), (1, 2)]] == [1, 2, 5]
        assert frobenius_index(2, 3) == 29
        assert frobenius_index(1, 3) == 13

    def test_frobenius_rejects_noncoprime(self):
        with pytest.raises(NotCoprimeError):
            frobenius_index(2, 4)

    @pytest.mark.parametrize(
        "build",
        [
            markov_tree,
            farey_tree,
            cohn_tree,
            lambda d: farey_set_2(IntMatrix.identity(2), IntMatrix.identity(2), d),
            lambda d: farey_set_3(*[IntMatrix.identity(2)] * 3, "pairwise", d),
        ],
        ids=["markov_tree", "farey_tree", "cohn_tree", "farey_set_2", "farey_set_3"],
    )
    @pytest.mark.parametrize("depth", [-1, -4])
    def test_negative_depth_rejected(self, build, depth):
        with pytest.raises(ValueError):
            build(depth)

    @pytest.mark.parametrize(
        "build",
        [
            markov_tree,
            markov_numbers,
            farey_tree,
            cohn_tree,
            # farey_set_2's depth counts its generators as the top level
            lambda d: farey_set_2(IntMatrix.identity(2), IntMatrix.identity(2), d + 1),
        ],
        ids=["markov_tree", "markov_numbers", "farey_tree", "cohn_tree", "farey_set_2"],
    )
    def test_depth_over_budget_rejected(self, build):
        with pytest.raises(TooLargeError):
            build(MAX_TREE_DEPTH + 1)

    @pytest.mark.parametrize("depth", range(7))
    def test_trees_agree_with_descents(self, depth):
        # the word tree: forward words over the Cohn roots A, B of a = 1
        a, b = LETTER_MATRIX["A"], LETTER_MATRIX["B"]
        words = {
            n.coordinate: n
            for n in farey_set_2(a, b, depth + 1, order="forward")
        }
        markov = markov_tree(depth)
        cohn = {x: cohn_tree(depth, x) for x in (-2, 0, 1, 3)}
        for k, node in enumerate(farey_tree(depth)):
            p, q = node.fractions[1].numerator, node.fractions[1].denominator
            assert markov[k].triple[1] == frobenius_index(p, q)
            for x, tree in cohn.items():
                assert tree[k].matrices[1] == cohn_matrix(p, q, x)
            word = words[node.fractions[1]]
            assert "".join("AB"[i] for i in word.word) == cohn_word(p, q)
            assert word.element == cohn_matrix(p, q)


class TestWords:
    def test_anchors(self):
        assert christoffel(0, 1) == "A"
        assert christoffel(1, 1) == "B"
        assert christoffel(1, 2) == "AB"
        assert christoffel(2, 3) == "ABB"

    def test_cohn_equals_christoffel(self):
        for p, q in coprime_fractions(12):
            assert cohn_word(p, q) == christoffel(p, q)

    def test_palindrome_factorization(self):
        for p, q in coprime_fractions(12):
            if (p, q) in ((0, 1), (1, 1)):
                continue
            word = christoffel(p, q)
            assert word[0] == "A" and word[-1] == "B"
            middle = word[1:-1]
            assert middle == middle[::-1]


class TestDomino:
    def test_mu_word_product(self):
        assert mu_domino(1, 2) == 5
        assert mu_domino(0, 1) == 1
        assert mu_domino(2, 3) == 29

    def test_mu_equals_tree_index(self):
        for p, q in coprime_fractions(10):
            assert mu_domino(p, q) == frobenius_index(p, q)

    def test_shift_operator_counts(self):
        for p, q in coprime_fractions(8):
            assert domino_mu_shift(p, q) == frobenius_index(p, q)

    def test_bruteforce_counts(self):
        for p, q in coprime_fractions(5):
            assert domino_mu_bruteforce(p, q) == frobenius_index(p, q)

    def test_bruteforce_row_budget(self):
        # every q < 60 fits the counter's 256 rows (one per even vertex,
        # cells + 1); 34/89 has 243 cells and 55/89 has 285
        for p, q in coprime_fractions(59):
            assert domino_mu_bruteforce(p, q) == frobenius_index(p, q)
        assert domino_mu_bruteforce(34, 89) == frobenius_index(34, 89)
        with pytest.raises(TooLargeError):
            domino_mu_bruteforce(55, 89)

    def test_domino_cells_connected(self):
        cells = domino_geometry(2, 3)
        assert len(cells) == len(set(cells))
        for a, b in zip(cells, cells[1:]):
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1


class TestCohnMatrices:
    def test_roots_at_one(self):
        left, middle, right = cohn_root_matrices(1)
        assert left == IntMatrix([[1, 1], [1, 2]])
        assert middle == IntMatrix([[7, 5], [11, 8]])
        assert right == IntMatrix([[3, 2], [4, 3]])

    def test_invariants_at_any_parameter(self):
        for a in (-2, 0, 1, 3):
            for node in cohn_tree(3, a):
                l, m, r = node.matrices
                assert l * r == m
                for mat in node.matrices:
                    assert det_exact(mat) == 1
                    assert mat.trace() == 3 * mat[0, 1]

    def test_matrix_lookup_matches_index(self):
        for p, q in coprime_fractions(6):
            assert cohn_matrix(p, q)[0, 1] == frobenius_index(p, q)

    def test_fricke(self):
        left, _, right = cohn_root_matrices(1)
        assert fricke_check(left, right)
        commutator = (
            left
            * right
            * left.inverse_unimodular()
            * right.inverse_unimodular()
        )
        assert commutator.trace() == -2
        eye = IntMatrix.identity(2)
        assert fricke_check(eye, eye)

    def test_fricke_random_words(self):
        rng = random.Random(31)
        gens = [IntMatrix([[1, 1], [0, 1]]), IntMatrix([[1, 0], [1, 1]])]
        for _ in range(100):
            a = IntMatrix.identity(2)
            b = IntMatrix.identity(2)
            for _ in range(rng.randint(1, 6)):
                a = a * gens[rng.randint(0, 1)]
                b = b * gens[rng.randint(0, 1)]
            assert fricke_check(a, b)

    def test_fricke_rejects_nonunimodular(self):
        with pytest.raises(NotUnimodularError):
            fricke_check(IntMatrix([[2, 0], [0, 1]]), IntMatrix.identity(2))


class TestMarkovForm:
    def test_anchors(self):
        assert markov_form((1, 1, 2)) == (2, 4, -2)
        assert markov_form((1, 2, 5)) == (5, 11, -5)
        assert markov_form((1, 1, 1)) == (1, 1, -1)

    def test_discriminant(self):
        for node in markov_tree(5):
            a, b, c = markov_form(tuple(sorted(node.triple)))
            assert b * b - 4 * a * c == 9 * a * a - 4
