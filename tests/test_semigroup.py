"""Semigroup families, determinant forms, and exact periodic-tail minima."""

import random
from fractions import Fraction

import pytest

from markovnum.contfrac import PLLS, companion2, plls_decompose
from markovnum.errors import DimensionMismatchError
from markovnum.exactcore import IntMatrix, QuadraticSurd, det_exact, matrix_product
from markovnum.semigroup import (
    aa_bb_family,
    aa_bb_generators,
    algebraic_markov,
    farey_set_2,
    farey_set_3,
    geometric_markov_search,
    is_markov_reduced,
    markov_from_plls,
    md_form,
    md_form_eval,
    perron_minimum,
)

M1 = IntMatrix([[0, 1], [1, 1]]) ** 2
M2 = IntMatrix([[0, 1], [1, 2]]) ** 2


def random_reduced(rng, length):
    m = IntMatrix.identity(2)
    for _ in range(length):
        m = m * companion2(rng.randint(1, 4))
    return m


class TestFareySet2:
    def test_depth_zero(self):
        nodes = farey_set_2(M1, M2, 0)
        assert [n.coordinate for n in nodes] == [Fraction(0), Fraction(1)]
        assert nodes[0].element == M1
        assert nodes[1].element == M2

    def test_mediant_anchor(self):
        nodes = farey_set_2(M1, M2, 2)
        by_coord = {n.coordinate: n for n in nodes}
        assert by_coord[Fraction(1, 2)].element == IntMatrix([[3, 5], [7, 12]])
        assert [n.coordinate for n in nodes] == [
            Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3),
            Fraction(2, 3),
        ]

    def test_order_parameter(self):
        rev = {n.coordinate: n for n in farey_set_2(M1, M2, 1)}
        fwd = {n.coordinate: n for n in farey_set_2(M1, M2, 1, order="forward")}
        assert rev[Fraction(1, 2)].element == M2 * M1
        assert fwd[Fraction(1, 2)].element == M1 * M2

    def test_words_match_elements(self):
        gens = (M1, M2)
        for node in farey_set_2(M1, M2, 3):
            letters = (gens[i] for i in node.word)
            assert matrix_product(IntMatrix.identity(2), letters) == node.element

    def test_dimension_guard(self):
        with pytest.raises(DimensionMismatchError):
            farey_set_2(M1, IntMatrix.identity(3), 1)


class TestFareySet3:
    GENS = (
        IntMatrix([[1, 1], [1, 2]]),
        IntMatrix([[3, 2], [4, 3]]),
        IntMatrix([[1, 0], [3, 1]]),
    )

    def test_pairwise_depth_one(self):
        nodes = farey_set_3(*self.GENS, scheme="pairwise", depth=1)
        new = [n for n in nodes if n.depth == 1]
        assert len(new) == 3
        assert sorted(len(n.word) for n in new) == [2, 2, 2]

    def test_simultaneous_center(self):
        nodes = farey_set_3(*self.GENS, scheme="simultaneous", depth=1)
        new = [n for n in nodes if n.depth == 1]
        assert len(new) == 1
        assert len(new[0].word) == 3
        assert new[0].coordinate == (1, 1, 1)

    def test_barycentric_depth_one(self):
        nodes = farey_set_3(*self.GENS, scheme="barycentric", depth=1)
        new = [n for n in nodes if n.depth == 1]
        assert len(new) == 4  # three pair sums and the center

    def test_letter_counts_are_primitive(self):
        from math import gcd
        for scheme in ("pairwise", "simultaneous", "barycentric"):
            for node in farey_set_3(*self.GENS, scheme=scheme, depth=2):
                g = 0
                for c in node.coordinate:
                    g = gcd(g, c)
                assert g == 1

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            farey_set_3(*self.GENS, scheme="spiral", depth=1)


class TestMDForm:
    def test_two_by_two_anchor(self):
        form = md_form(IntMatrix([[3, 5], [7, 12]]))
        assert form.as_dict() == {(2, 0): 7, (1, 1): 9, (0, 2): -5}

    def test_three_by_three_anchor(self):
        from markovnum.contfrac import CompanionSpec, companion

        a = (
            companion(CompanionSpec((1, 1, 1)))
            * companion(CompanionSpec((1, 0, 1))) ** 5
        )
        expected = {
            (3, 0, 0): 18, (2, 1, 0): 18, (2, 0, 1): 12,
            (1, 2, 0): 26, (1, 1, 1): -22, (1, 0, 2): -14,
            (0, 3, 0): 14, (0, 2, 1): 18, (0, 1, 2): -28,
            (0, 0, 3): 11,
        }
        assert md_form(a).as_dict() == expected

    def test_identity_gives_zero_form(self):
        assert md_form(IntMatrix.identity(3)).as_dict() == {}

    def test_eval_matches_symbolic(self):
        rng = random.Random(41)
        for _ in range(30):
            n = rng.randint(2, 3)
            a = IntMatrix(
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            )
            form = md_form(a)
            v = tuple(rng.randint(-4, 4) for _ in range(n))
            direct = sum(
                c * _power_product(v, e) for e, c in form.coeffs
            )
            assert direct == md_form_eval(a, v)

    def test_conjugation_changes_value_set_only_by_sign(self):
        a = IntMatrix([[3, 5], [7, 12]])
        s = IntMatrix([[2, 1], [1, 1]])
        conj = s * a * s.inverse_unimodular()
        # the form transforms by the substitution v -> S^{-1} v
        sinv = s.inverse_unimodular()
        for v in [(1, 0), (0, 1), (2, -3), (5, 7)]:
            assert md_form_eval(conj, s.apply(v)) == md_form_eval(a, v)
        assert algebraic_markov(conj) == abs(md_form_eval(a, sinv.apply((0, 1))))

    def test_transpose_symmetric_agreement(self):
        a = IntMatrix([[3, 5], [7, 12]])
        sym = a * a.transpose()
        assert md_form(sym).as_dict() == {
            e: -c for e, c in md_form(sym.transpose()).negated().coeffs
        }


def _power_product(v, exponents):
    out = 1
    for x, e in zip(v, exponents):
        out *= x ** e
    return out


class TestMarkovValues:
    def test_algebraic_anchor(self):
        assert algebraic_markov(IntMatrix([[3, 5], [7, 12]])) == 5
        assert algebraic_markov(IntMatrix([[25, 36], [84, 121]])) == 36

    def test_geometric_anchor(self):
        assert geometric_markov_search(IntMatrix([[3, 5], [7, 12]]), 50) == 5

    def test_search_bounded_by_algebraic(self):
        rng = random.Random(42)
        for _ in range(25):
            m = random_reduced(rng, rng.randint(2, 6))
            assert geometric_markov_search(m, 10) <= algebraic_markov(m)

    def test_search_general_path_matches_fast_path(self):
        m = IntMatrix([[3, 5], [7, 12]])
        brute = min(
            abs(md_form_eval(m, (x, y)))
            for x in range(-6, 7)
            for y in range(-6, 7)
            if (x, y) != (0, 0)
        )
        assert geometric_markov_search(m, 6) == brute


class TestPerron:
    def test_anchors(self):
        assert perron_minimum(PLLS((1, 1))) == QuadraticSurd.sqrt(5)
        assert perron_minimum(PLLS((2, 2))) == QuadraticSurd.sqrt(8)
        five = perron_minimum(PLLS((1, 1, 2, 2)))
        assert five.scale(5).square() == QuadraticSurd.from_rational(221)

    def test_rotation_invariance(self):
        rng = random.Random(43)
        for _ in range(20):
            period = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 6)))
            base = perron_minimum(PLLS(period))
            k = rng.randrange(len(period))
            rotated = period[k:] + period[:k]
            assert perron_minimum(PLLS(rotated)) == base

    def test_empty_period(self):
        with pytest.raises(ValueError):
            PLLS(())

    def test_is_markov_reduced(self):
        assert is_markov_reduced(IntMatrix([[3, 5], [7, 12]]))
        assert is_markov_reduced(IntMatrix([[1, 1], [1, 2]]))
        assert not is_markov_reduced(IntMatrix.identity(2))
        # reduced in the classical sense but window starts mid-period
        assert not is_markov_reduced(
            companion2(1) * companion2(2) * companion2(2) * companion2(1)
        )

    def test_dimension_guard(self):
        with pytest.raises(DimensionMismatchError):
            is_markov_reduced(IntMatrix.identity(3))


class TestFamilies:
    def test_aa_bb_classical(self):
        values = [v for _, v in aa_bb_family(1, 2, 2)]
        assert sorted(set(values))[:5] == [1, 2, 5, 13, 29]

    def test_aa_bb_generalized(self):
        values = [v for _, v in aa_bb_family(2, 3, 2)]
        assert sorted(set(values))[:5] == [2, 3, 17, 99, 185]

    def test_generators_unimodular(self):
        for a, b in [(1, 2), (2, 3), (3, 5)]:
            for g in aa_bb_generators(a, b):
                assert det_exact(g) == 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            aa_bb_family(3, 2, 1)

    def test_markov_from_plls_collision(self):
        assert markov_from_plls((4, 4) + (11, 11) * 4) == 355318099
        assert markov_from_plls((4, 4) * 6 + (11, 11)) == 355318099

    def test_markov_from_plls_small(self):
        assert markov_from_plls((1, 1)) == 1
        assert markov_from_plls((1, 1, 2, 2)) == 5

    def test_roundtrip_with_decomposition(self):
        rng = random.Random(44)
        for _ in range(25):
            m = random_reduced(rng, 2 * rng.randint(1, 4))
            plls = plls_decompose(m)
            assert markov_from_plls(tuple(plls)) == algebraic_markov(m)
