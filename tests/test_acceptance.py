"""End-to-end acceptance checks.

Each test covers one headline criterion and prints a single
"criterion N: PASS" line when it succeeds (run pytest with -s or -v to
see them).  All arithmetic is exact; randomized suites use fixed seeds.
"""

import random
from fractions import Fraction
from math import gcd

from markovnum.classicmarkov import (
    christoffel,
    cohn_word,
    domino_mu_bruteforce,
    domino_mu_shift,
    fricke_check,
    frobenius_index,
    markov_tree,
)
from markovnum.contfrac import (
    PLLS,
    CompanionSpec,
    ContinuedFraction,
    cf_eval,
    companion,
    companion2,
    plls_decompose,
)
from markovnum.exactcore import IntMatrix, QuadraticSurd, permanent
from markovnum.lattice import (
    cubes_for_vector,
    embed2,
    model531_count,
    representative,
    word_display,
)
from markovnum.semigroup import (
    aa_bb_family,
    aa_bb_generators,
    algebraic_markov,
    farey_set_2,
    geometric_markov_search,
    is_markov_reduced,
    markov_from_plls,
    md_form,
    md_form_eval,
    perron_minimum,
)
from markovnum.subtractive import STRATEGIES, reconstruct, run_mcf
from markovnum.wugsnake import (
    Body,
    Head,
    WugSnake,
    body_for_matrix,
    matching_count_bruteforce,
    matching_count_det,
    matching_sequence,
    snake_for,
    wug_determinant,
)


def _coprime(max_q):
    for q in range(1, max_q + 1):
        for p in range(0, q + 1):
            if gcd(p, q) == 1:
                yield p, q


def _passed(n):
    print(f"criterion {n}: PASS")


def test_criterion_1_triple_agreement():
    positions = [
        (1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4), (3, 5), (4, 4),
        (5, 5), (5, 6), (5, 7), (6, 6), (7, 7), (7, 8), (8, 8),
    ]
    snake = WugSnake(8, {p: 1 for p in positions})
    assert matching_count_bruteforce(snake) == 29
    assert permanent(snake.biadjacency()) == 29
    assert matching_count_det(snake) == 29
    _passed(1)


def test_criterion_2_markov_number_prefix():
    values = sorted({max(n.triple) for n in markov_tree(7)} | {1, 2})
    assert values[:15] == [
        1, 2, 5, 13, 29, 34, 89, 169, 194, 233, 433, 610, 985, 1325, 1597,
    ]
    _passed(2)


def test_criterion_3_domino_counts_match_tree():
    for p, q in _coprime(8):
        assert domino_mu_shift(p, q) == frobenius_index(p, q)
    for p, q in _coprime(5):
        assert domino_mu_bruteforce(p, q) == frobenius_index(p, q)
    _passed(3)


def test_criterion_4_words_and_palindromes():
    for p, q in _coprime(12):
        word = christoffel(p, q)
        assert cohn_word(p, q) == word
        if (p, q) not in ((0, 1), (1, 1)):
            assert word[0] == "A" and word[-1] == "B"
            assert word[1:-1] == word[-2:0:-1]
    _passed(4)


def test_criterion_5_plls_pipeline():
    assert plls_decompose(IntMatrix([[25, 36], [84, 121]])).period == (
        1, 2, 3, 1, 2, 3,
    )
    cf = ContinuedFraction.parse("[3; 2 : 1 : 3 : 2 : 1]")
    assert cf_eval(cf) == Fraction(121, 36)
    second = IntMatrix([[119, 194], [284, 463]])
    assert plls_decompose(second).period == (1, 1, 1, 1, 2, 2, 1, 1, 2, 2)
    assert algebraic_markov(second) == 194
    _passed(5)


def test_criterion_6_three_dimensional_anchor():
    specs = [CompanionSpec((1, 1, 1))] + [CompanionSpec((1, 0, 1))] * 5
    a = IntMatrix.identity(3)
    for s in specs:
        a = a * companion(s)
    body = body_for_matrix(a, specs)
    assert wug_determinant(Head((0, 0, 1)), body) == 11
    form = md_form(a).as_dict()
    # ten printed coefficients, matched up to one global sign; the cubic
    # leading coefficient is corrected from a source typo (18, not 8)
    expected = {
        (3, 0, 0): 18, (2, 1, 0): 18, (2, 0, 1): 12,
        (1, 2, 0): 26, (1, 1, 1): -22, (1, 0, 2): -14,
        (0, 3, 0): 14, (0, 2, 1): 18, (0, 1, 2): -28,
        (0, 0, 3): 11,
    }
    negated = {e: -c for e, c in expected.items()}
    assert form in (expected, negated)
    _passed(6)


def test_criterion_7_perron_minima():
    assert perron_minimum(PLLS((1, 1))) == QuadraticSurd.sqrt(5)
    assert perron_minimum(PLLS((2, 2))) == QuadraticSurd.sqrt(8)
    third = perron_minimum(PLLS((1, 1, 2, 2)))
    assert third.scale(5).square() == QuadraticSurd.from_rational(221)
    assert is_markov_reduced(IntMatrix([[3, 5], [7, 12]]))
    assert geometric_markov_search(IntMatrix([[3, 5], [7, 12]]), 50) == 5
    _passed(7)


def test_criterion_8_collision():
    assert markov_from_plls((4, 4) + (11, 11) * 4) == 355318099
    assert markov_from_plls((4, 4) * 6 + (11, 11)) == 355318099
    _passed(8)


def test_criterion_9_two_parameter_families():
    classical = sorted({v for _, v in aa_bb_family(1, 2, 3)})
    assert classical[:5] == [1, 2, 5, 13, 29]
    generalized = sorted({v for _, v in aa_bb_family(2, 3, 3)})
    assert generalized[:5] == [2, 3, 17, 99, 185]
    _passed(9)


def test_criterion_10_cube_model():
    word = representative(cubes_for_vector((7, 5, 3)))
    assert word_display(word) == "A2^5 A1 A3^4 A2 A1"
    assert model531_count((7, 5, 3)) == 36313494507
    _passed(10)


def test_criterion_11_property_suites():
    rng = random.Random(2024)

    # 100 wug-snakes: three counting methods agree
    for _ in range(100):
        n = rng.randint(1, 8)
        weights = {
            (i, j): rng.randint(0, 3)
            for i in range(1, n + 1)
            for j in range(i, n + 1)
        }
        snake = WugSnake(n, weights)
        det = matching_count_det(snake)
        assert matching_count_bruteforce(snake) == det
        assert permanent(snake.biadjacency()) == det

    # 100 SL2 word pairs satisfy the trace identity
    gens = [IntMatrix([[1, 1], [0, 1]]), IntMatrix([[1, 0], [1, 1]])]
    for _ in range(100):
        a = IntMatrix.identity(2)
        b = IntMatrix.identity(2)
        for _ in range(rng.randint(1, 6)):
            a = a * gens[rng.randint(0, 1)]
            b = b * gens[rng.randint(0, 1)]
        assert fricke_check(a, b)

    # 100 subtractive runs per strategy preserve gcd and round-trip
    for strategy in STRATEGIES:
        for _ in range(100):
            t = tuple(rng.randint(1, 120) for _ in range(3))
            trace = run_mcf(t, strategy)
            assert trace.terminal == gcd(gcd(t[0], t[1]), t[2])
            assert reconstruct(trace).apply(trace.final) == t

    # 100 word pairs satisfy the tangent mediant law
    checked = 0
    while checked < 100:
        u = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 5)))
        v = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 5)))
        du = embed2(u).displacement()
        dv = embed2(v).displacement()
        if any(x % 2 for x in du + dv):
            continue
        if gcd(du[0] // 2, du[1] // 2) != 1 or gcd(dv[0] // 2, dv[1] // 2) != 1:
            continue
        dm = embed2(u + v).displacement()
        assert dm == tuple(a + b for a, b in zip(du, dv))
        checked += 1

    # 50 random reduced products: form value at the head equals the
    # wug-snake determinant
    for _ in range(50):
        k = rng.choice([2, 3])
        specs = [
            CompanionSpec(tuple(rng.randint(0, 2) for _ in range(k)))
            for _ in range(rng.randint(1, 4))
        ]
        a = IntMatrix.identity(k)
        for s in specs:
            a = a * companion(s)
        body = body_for_matrix(a, specs)
        head = tuple(rng.randint(0, 3) for _ in range(k))
        assert wug_determinant(Head(head), body) == md_form_eval(a, head)
    _passed(11)


def test_criterion_12_semigroup_certification():
    m1 = companion2(1) ** 2
    m2 = companion2(2) ** 2
    for node in farey_set_2(m1, m2, 4):
        assert is_markov_reduced(node.element)
        upper_right = node.element[0, 1]
        assert geometric_markov_search(node.element, 50) == upper_right
    _passed(12)


def test_criterion_13_semigroup_snakes():
    # m2 = C(a) C(b)^2 C(a)^-1, so a node element is C(a) Q C(a)^-1 with Q
    # the positive companion word (m1 -> a, a; m2 -> b, b), and its Markov
    # number is the last matching count of the snake of Q with head (1, 0)
    for a, b in [(1, 2), (2, 3), (1, 3), (3, 5), (2, 7)]:
        nodes = farey_set_2(*aa_bb_generators(a, b), 6, order="forward")
        family = []
        for node in nodes:
            letters = [x for g in node.word for x in ((a, a), (b, b))[g]]
            body = Body(tuple((x, 1) for x in reversed(letters)))
            snake = snake_for(Head((1, 0)), body)
            want = algebraic_markov(node.element)
            assert matching_count_bruteforce(snake) == want
            assert matching_count_det(snake) == want
            assert matching_sequence(snake)[-1] == want
            if snake.n <= 22:
                assert permanent(snake.biadjacency()) == want
            family.append((node.coordinate, want))
        assert family == aa_bb_family(a, b, 6)
    _passed(13)
