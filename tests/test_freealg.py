import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from downup.errors import CertificationError, InputError
from downup.freealg import (COMPLETE, COMPLETE_UP_TO_BOUND, FreePoly,
                            GroebnerWitness, MonomialAlgebra, Presentation, RelationSet,
                            WeightedOrder, complete, count_normal_words,
                            format_poly, hilbert, is_groebner, leading,
                            leading_homogeneous, normal_form, s_elements,
                            series_coefficients, word_degree)
from downup.gdu import GDUParams, defining_relations
from downup.solvable import PBWGrlexOrder

from oracles import (canonical, enumerate_normal_words, exhaustive_normal_forms,
                     groebner_by_dimension, ideal_member, normal_form_by_compare,
                     reduce_rightmost, two_sided_span)

# generator indices throughout: X1=0, X2=1, X3=2
ORDER111 = WeightedOrder((1, 1, 1), (1, 0, 2))


def sl2_relations():
    return defining_relations(GDUParams.make(1, 1, 2, [0, -1]))


def sl2_relation_set():
    return RelationSet(sl2_relations(), ORDER111)


# ---------------------------------------------------------------- ordering

def test_compare_x2_below_x1_below_x3():
    assert ORDER111.compare((1,), (0,)) == -1
    assert ORDER111.compare((0,), (2,)) == -1
    assert ORDER111.compare((1,), (2,)) == -1


def test_compare_equal_iff_same_word():
    for word in [(), (0,), (1, 0, 2), (2, 2)]:
        assert ORDER111.compare(word, word) == 0
    assert ORDER111.compare((0, 1), (1, 0)) != 0


def test_compare_degree_dominates_length():
    order = WeightedOrder((1, 3), (0, 1))
    assert order.compare((0, 0), (1,)) == -1  # degree 2 < 3


def test_compare_unknown_generator():
    with pytest.raises(InputError):
        ORDER111.compare((0,), (5,))
    with pytest.raises(InputError):
        ORDER111.compare((0,), (-1,))


@st.composite
def words(draw, ngens=3, max_len=8):
    return tuple(draw(st.lists(st.integers(0, ngens - 1), max_size=max_len)))


@st.composite
def orders(draw, ngens=3):
    weights = tuple(draw(st.integers(1, 3)) for _ in range(ngens))
    precedence = draw(st.permutations(list(range(ngens))))
    return WeightedOrder(weights, precedence)


@given(orders(), words(), words())
def test_order_antisymmetric_total(order, u, v):
    assert order.compare(u, v) == -order.compare(v, u)
    assert (order.compare(u, v) == 0) == (u == v)


@given(orders(), words(max_len=5), words(max_len=5), words(max_len=3), words(max_len=3))
def test_order_compatible_with_concatenation(order, u, v, w, z):
    cmp = order.compare(u, v)
    assert order.compare(w + u + z, w + v + z) == cmp


@given(orders(), st.lists(words(max_len=6), min_size=1, max_size=12))
def test_order_bounded_sets_have_minimum(order, bag):
    smallest = min(bag, key=order.key)
    assert all(order.compare(smallest, other) <= 0 for other in bag)


# ----------------------------------------------------------------- leading

def test_leading_of_first_relation(sl2):
    r31 = defining_relations(sl2.params)[0]
    assert leading(r31, ORDER111) == ((2, 0), Fraction(1))


def test_leading_constant():
    assert leading(FreePoly({(): Fraction(5, 3)}), ORDER111) == ((), Fraction(5, 3))


def test_leading_with_quadratic_f_by_exhaustive_compare():
    # f = X1^2: the three degree-2 candidate words, compared exhaustively
    r32 = FreePoly({(2, 1): 1, (1, 2): -1, (0, 0): 1})
    candidates = [(2, 1), (1, 2), (0, 0)]
    biggest = candidates[0]
    for w in candidates[1:]:
        if ORDER111.compare(w, biggest) > 0:
            biggest = w
    assert biggest == (2, 1)
    assert leading(r32, ORDER111) == ((2, 1), Fraction(1))


def test_leading_zero_rejected():
    with pytest.raises(InputError):
        leading(FreePoly.zero(), ORDER111)


def test_leading_homogeneous_drops_low_terms():
    r31 = FreePoly({(2, 0): 1, (0, 2): Fraction(-3, 2), (2,): 7})
    lh = leading_homogeneous(r31, (1, 1, 1))
    assert lh == FreePoly({(2, 0): 1, (0, 2): Fraction(-3, 2)})


def test_leading_homogeneous_fixes_homogeneous_input():
    p = FreePoly({(2, 0): 1, (0, 2): -1})
    assert leading_homogeneous(p, (1, 1, 1)) == p


def test_leading_homogeneous_weighted():
    # deg f = n >= 1 under weights (1, n, n): the f part stays below 2n
    n = 3
    f_part = FreePoly({(0,) * n: 1, (0,): 2})
    r32 = FreePoly({(2, 1): 1, (1, 2): -5}) + f_part
    lh = leading_homogeneous(r32, (1, n, n))
    assert lh == FreePoly({(2, 1): 1, (1, 2): -5})


# ------------------------------------------------------------- normal form

def test_normal_form_single_rewrite():
    rels = sl2_relation_set()
    nf = normal_form(FreePoly.word((2, 0)), rels, ORDER111)
    assert nf == FreePoly({(0, 2): 1, (2,): -2})  # X1X3 - 2 X3


def test_normal_form_rejects_an_order_other_than_the_relations():
    # the sites come from the set's sorted leading words, the terms from order
    rels = sl2_relation_set()
    with pytest.raises(InputError):
        normal_form(FreePoly.word((2, 0)), rels, WeightedOrder((1, 1, 1)))
    same = WeightedOrder(ORDER111.weights, ORDER111.precedence)
    assert normal_form(FreePoly.word((2, 0)), rels, same) == \
        normal_form(FreePoly.word((2, 0)), rels, ORDER111)


def test_normal_form_rejects_an_order_without_precedence():
    # an exponent-vector order has weights but no precedence to compare
    rels = sl2_relation_set()
    with pytest.raises(InputError):
        normal_form(FreePoly.word((2, 0)), rels, PBWGrlexOrder((1, 1, 1)))


def test_normal_form_fixes_normal_words():
    rels = sl2_relation_set()
    p = FreePoly({(1, 0, 2): 1, (0, 0): Fraction(1, 2)})
    assert normal_form(p, rels, ORDER111) == p


X3X1X2_NORMAL_FORM = FreePoly({
    (1, 0, 2): 1,      # X2 X1 X3
    (0, 0): 1,         # X1^2
    (1, 2): -4,        # X2 X3
    (0,): -2,          # X1
})


def test_normal_form_x3x1x2_confluent_oracle():
    rels = sl2_relation_set()
    results = exhaustive_normal_forms(FreePoly.word((2, 0, 1)), rels, ORDER111)
    assert results == {canonical(X3X1X2_NORMAL_FORM)}
    assert normal_form(FreePoly.word((2, 0, 1)), rels, ORDER111) == X3X1X2_NORMAL_FORM


@st.composite
def sl2_polys(draw):
    terms = draw(st.dictionaries(words(max_len=4),
                                 st.fractions(max_denominator=6), max_size=4))
    return FreePoly(terms)


@given(sl2_polys())
@settings(max_examples=60)
def test_normal_form_idempotent(p):
    rels = sl2_relation_set()
    nf = normal_form(p, rels, ORDER111)
    assert all(normal_form(FreePoly.word(w), rels, ORDER111) == FreePoly.word(w)
               for w in nf.terms)
    assert normal_form(nf, rels, ORDER111) == nf


@given(sl2_polys(), sl2_polys(), st.fractions(max_denominator=4))
@settings(max_examples=40)
def test_normal_form_linear_over_groebner_basis(f, g, c):
    rels = sl2_relation_set()
    lhs = normal_form(f + c * g, rels, ORDER111)
    rhs = normal_form(f, rels, ORDER111) + c * normal_form(g, rels, ORDER111)
    assert lhs == rhs


def test_difference_lies_in_ideal_span():
    rels = sl2_relation_set()
    span = two_sided_span(rels.polys, ORDER111, 6)
    rng = random.Random(7)
    for _ in range(15):
        terms = {tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 3))):
                 Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(rng.randint(1, 4))}
        p = FreePoly(terms)
        diff = p - normal_form(p, rels, ORDER111)
        assert ideal_member(span, diff)


def test_strategy_independence_on_groebner_basis():
    rels = sl2_relation_set()
    rng = random.Random(11)
    for _ in range(100):
        terms = {tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 4))):
                 Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                 for _ in range(rng.randint(1, 3))}
        p = FreePoly(terms)
        assert normal_form(p, rels, ORDER111) == reduce_rightmost(p, rels, ORDER111)


@st.composite
def small_relation_sets(draw):
    """2-4 relations over three generators, each a nonempty word of length
    <= 2 plus up to three words of length <= 2 with small coefficients.
    Leading words may repeat, and most such sets are not Groebner bases."""
    order = WeightedOrder((1, 1, 1), draw(st.permutations([0, 1, 2])))
    short = st.lists(st.integers(0, 2), max_size=2).map(tuple)
    polys = []
    for _ in range(draw(st.integers(2, 4))):
        terms = {w: draw(st.integers(-2, 2)) for w in draw(st.lists(short, max_size=3))}
        terms[draw(st.lists(st.integers(0, 2), min_size=1, max_size=2).map(tuple))] = 1
        polys.append(FreePoly(terms))
    return RelationSet(polys, order)


@settings(max_examples=150, deadline=None)
@given(small_relation_sets(),
       st.lists(st.lists(st.integers(0, 2), min_size=2, max_size=6).map(tuple),
                min_size=1, max_size=5))
def test_normal_form_matches_compare_strategy(rels, word_list):
    for word in word_list:
        p = FreePoly.word(word)
        assert normal_form(p, rels, rels.order) == normal_form_by_compare(p, rels, rels.order)


# -------------------------------------------------------------- s_elements

def test_s_elements_g31_g12_single_window():
    r31, r12, _ = sl2_relations()
    expected = r31 * FreePoly.word((1,)) - FreePoly.word((2,)) * r12
    # each operand is made monic first, so its scale does not matter
    for g, h in ((r31, r12), (2 * r31, Fraction(-3, 2) * r12)):
        found = [elem for _, elem in s_elements(g, h, ORDER111)]
        assert found == [expected]


def test_s_elements_g12_g31_empty():
    r31, r12, _ = sl2_relations()
    assert s_elements(r12, r31, ORDER111) == []


def test_s_elements_commutator_self_empty():
    order = WeightedOrder((1, 1, 1, 1), (3, 1, 0, 2))
    commutator = FreePoly({(0, 3): 1, (3, 0): -1})  # X1 T - T X1
    assert s_elements(commutator, commutator, order) == []


# -------------------------------------------------------------- is_groebner

def test_is_groebner_sl2(sl2):
    assert is_groebner(sl2.relations, sl2.order).ok


def test_is_groebner_single_commutator():
    rels = RelationSet([FreePoly({(0, 1): 1, (1, 0): -1})], ORDER111)
    assert is_groebner(rels, ORDER111).ok


def test_is_groebner_mutant_false_with_witness():
    polys = sl2_relations()
    polys[0] = polys[0] + FreePoly({(0, 2): 3})  # perturb the X1X3 coefficient
    rels = RelationSet(polys, ORDER111)
    result = is_groebner(rels, ORDER111)
    assert not result.ok
    assert result.witness is not None
    assert not result.witness.remainder.is_zero()
    assert groebner_by_dimension(rels, ORDER111, 6) is False


def test_presentation_raises_with_witness():
    polys = sl2_relations()
    polys[0] = polys[0] + FreePoly({(0, 2): 3})  # the mutant above
    rels = RelationSet(polys, ORDER111)
    with pytest.raises(CertificationError) as info:
        Presentation(("X1", "X2", "X3"), ORDER111, polys, "mutated relations")
    assert info.value.args[0] == "mutated relations failed the Groebner check"
    witness = info.value.args[1]
    assert isinstance(witness, GroebnerWitness)
    assert witness == is_groebner(rels, ORDER111).witness
    assert info.value.args == ("mutated relations failed the Groebner check", witness)
    assert Presentation(("X1", "X2", "X3"), ORDER111, sl2_relations(), "sl2").certificate.ok


# ----------------------------------------------------------------- complete

def test_complete_leaves_certified_relations_unchanged(sl2, conformal_degf):
    for alg in (sl2, conformal_degf):
        bound = max(p.degree(alg.order.weights) for p in alg.relations) + 4
        out, flag = complete(alg.relations, alg.order, bound)
        assert out.polys == alg.relations.polys
        assert flag == COMPLETE


def test_complete_single_commutator_unchanged():
    rels = RelationSet([FreePoly({(0, 1): 1, (1, 0): -1})], ORDER111)
    out, flag = complete(rels, ORDER111, 6)
    assert out.polys == rels.polys and flag == COMPLETE


def test_complete_already_closed_pair():
    # X2 X1^2 - X1 and X2^2 X1 - X2: the single overlap cancels identically,
    # so the pair is already a Groebner basis and must pass through unchanged
    order = WeightedOrder((1, 1), (0, 1))
    g1 = FreePoly({(1, 0, 0): 1, (0,): -1})
    g2 = FreePoly({(1, 1, 0): 1, (1,): -1})
    rels = RelationSet([g1, g2], order)
    assert is_groebner(rels, order).ok
    out, flag = complete(rels, order, 8)
    assert out.polys == rels.polys and flag == COMPLETE
    span = two_sided_span(rels.polys, order, 6)
    member = FreePoly.word((1,)) * g1 - g2 * FreePoly.word((0,))  # X2 g1 - g2 X1
    assert ideal_member(span, member)
    assert normal_form(member, out, order).is_zero()


def test_complete_grows_and_closes():
    order = WeightedOrder((1, 1), (1, 0))  # y < x with x=0, y=1
    rels = RelationSet([FreePoly({(0, 0): 1, (1, 1): -1})], order)  # x^2 - y^2
    assert not is_groebner(rels, order).ok
    out, flag = complete(rels, order, 8)
    assert flag == COMPLETE
    assert len(out) == 2
    assert is_groebner(out, order).ok
    span = two_sided_span(rels.polys, order, 6)
    rng = random.Random(3)
    for _ in range(20):
        terms = {tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 3))):
                 Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))}
        p = FreePoly(terms)
        assert normal_form(p, out, order).is_zero() == ideal_member(span, p)


def test_complete_reports_open_elements_above_bound():
    order = WeightedOrder((1, 1), (1, 0))
    rels = RelationSet([FreePoly({(0, 0): 1, (0, 1): -1})], order)  # x^2 - x y
    out, flag = complete(rels, order, 7)
    assert flag == COMPLETE_UP_TO_BOUND
    assert len(out) > 1
    deeper, _ = complete(rels, order, 9)
    assert len(deeper) > len(out)


def test_complete_rejects_bound_below_relations():
    rels = sl2_relation_set()
    with pytest.raises(InputError):
        complete(rels, ORDER111, 1)


# ------------------------------------------------------------ normal words

def test_normal_word_counts_match_pbw_triples(sl2):
    counts = count_normal_words(sl2.relations.leading_words, (1, 1, 1), 8)
    assert counts == [(q + 1) * (q + 2) // 2 for q in range(9)]


@st.composite
def obstruction_sets(draw):
    """(obstructions, weights): words of length 1..3 over 2..4 generators of
    weight 1..3; some sets also hold a word containing another one."""
    ngens = draw(st.integers(2, 4))
    letters = st.integers(0, ngens - 1)
    obstructions = draw(st.lists(st.lists(letters, min_size=1, max_size=3).map(tuple),
                                 min_size=1, max_size=4))
    if draw(st.booleans()):
        inner = draw(st.sampled_from(obstructions))[:2]
        extra = draw(st.lists(letters, min_size=1, max_size=3 - len(inner)))
        cut = draw(st.integers(0, len(extra)))
        obstructions += [inner, tuple(extra[:cut]) + inner + tuple(extra[cut:])]
    weights = tuple(draw(st.lists(st.integers(1, 3), min_size=ngens, max_size=ngens)))
    return obstructions, weights


@settings(max_examples=80, deadline=None)
@given(obstruction_sets(), st.integers(0, 8))
# obstructions of length 4 and mixed weights: two short layers below the root
@example(([(0, 1, 1, 0)], (1, 2)), 9)
@example(([(0, 0, 0, 0), (1, 0), (2, 1, 2)], (2, 1, 3)), 10)
def test_count_normal_words_matches_enumeration(case, max_degree):
    obstructions, weights = case
    expected = [0] * (max_degree + 1)
    for word in enumerate_normal_words(obstructions, weights, max_degree):
        expected[word_degree(word, weights)] += 1
    assert count_normal_words(obstructions, weights, max_degree) == expected


def test_count_normal_words_rejects_negative_generator():
    # a negative index used to be read as absent and left the counts free
    with pytest.raises(InputError):
        count_normal_words([(-1,)], (1, 1), 3)


@pytest.mark.parametrize("weights", [(0, 1), (1, -1)])
def test_nonpositive_weights_are_input_errors(weights):
    # a zero weight used to give counts 2, 2, 2, ... and a negative one an
    # IndexError in the series expansion
    with pytest.raises(InputError, match="positive"):
        count_normal_words([(0, 0)], weights, 4)
    with pytest.raises(InputError, match="positive"):
        hilbert(MonomialAlgebra(("x0", "x1"), weights, [(0, 0)]), 3)
    with pytest.raises(InputError, match="positive"):
        series_coefficients(weights, 4)


def test_non_integer_weights_are_input_errors():
    # int(w) used to truncate 1.5 to 1 and accept True and "2" as weights
    for make in (lambda: WeightedOrder((1.5, 1)), lambda: WeightedOrder((True, 1)),
                 lambda: PBWGrlexOrder(("2", 1)),
                 lambda: series_coefficients((1.9, 1), 3),
                 lambda: count_normal_words([(0, 0)], (1.5, 2.7), 4)):
        with pytest.raises(InputError, match="weights must be positive integers"):
            make()


def test_series_coefficients_rejects_negative_degree():
    # it used to return [1], where hilbert raises for the same degree
    with pytest.raises(InputError, match="degree must be >= 0"):
        series_coefficients((1,), -2)


def test_word_degree_rejects_negative_generator():
    # a negative index used to be read from the end of the weights
    with pytest.raises(InputError):
        word_degree((-1,), (1, 2))
    with pytest.raises(InputError):
        FreePoly({(-1,): 1, (): 1}).degree((1, 1, 1))


# ------------------------------------------------------------- formatting

def test_format_poly_matches_reduction_example():
    assert format_poly(X3X1X2_NORMAL_FORM, ORDER111, ("X1", "X2", "X3")) == \
        "X2*X1*X3 + X1^2 - 4*X2*X3 - 2*X1"


def test_relation_set_rejects_zero_and_constant_leading():
    with pytest.raises(InputError):
        RelationSet([FreePoly.zero()], ORDER111)
    with pytest.raises(InputError):
        RelationSet([FreePoly({(): Fraction(1)})], ORDER111)
