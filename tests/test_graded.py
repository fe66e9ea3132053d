import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from downup.errors import CertificationError, HypothesisError, InputError
from downup.freealg import (FreePoly, RelationSet, WeightedOrder, format_poly,
                            is_groebner, leading_homogeneous, normal_form)
from downup.gdu import GDUParams, WeightScheme, build, preset, random_params
from downup.graded import (EXPONENTIAL, HOMOG_LEADING_WORDS, HomogenizedAlgebra,
                           MonomialAlgebra, T, assoc_graded, build_ufn_graph, hilbert,
                           homogenize_algebra, homogenize_poly, quadratic_check,
                           rees_dims, series_coefficients, series_form,
                           solvable_homogenized, ufn_growth)
from downup.solvable import verify_solvable

from oracles import (enumerate_normal_words, groebner_by_dimension,
                     ufn_growth_reference)

X1, X2, X3 = 0, 1, 2


@pytest.fixture(scope="session")
def conformal_allones():
    return preset("conformal", b=1, scheme="all-ones")


# ------------------------------------------------------------ assoc_graded

def test_assoc_graded_all_ones_keeps_quadratic_f_part(conformal_allones):
    lam, omega = Fraction(1), Fraction(1)
    result = assoc_graded(conformal_allones)
    expected = {
        FreePoly({(X3, X1): 1, (X1, X3): -lam}),
        FreePoly({(X1, X2): 1, (X2, X1): -lam}),
        FreePoly({(X3, X2): 1, (X2, X3): -omega, (X1, X1): 1}),
    }
    assert set(result.relations.polys) == expected
    assert result.certificate.ok and result.dims(10).ok


def test_assoc_graded_weighted_drops_f_entirely(degf3):
    result = assoc_graded(degf3)
    lam, omega = degf3.params.lam, degf3.params.omega
    expected = {
        FreePoly({(X3, X1): 1, (X1, X3): -lam}),
        FreePoly({(X1, X2): 1, (X2, X1): -lam}),
        FreePoly({(X3, X2): 1, (X2, X3): -omega}),
    }
    assert set(result.relations.polys) == expected
    assert result.certificate.ok and result.dims(10).ok


def test_assoc_graded_of_homogeneous_relations_is_identity():
    alg = build(GDUParams.make(1, 1, 0, [0, 0, 1]), WeightScheme.ALL_ONES)
    result = assoc_graded(alg)
    assert set(result.relations.polys) == set(alg.relations.polys)


def test_assoc_graded_gated_for_constant_f():
    alg = build(GDUParams.make(1, 1, 2, [5]), WeightScheme.ALL_ONES)
    with pytest.raises(HypothesisError):
        assoc_graded(alg)


def test_lh_transfer_on_seeded_mutants(sl2):
    # each of the original and leading-homogeneous mutant sets must agree
    # with its own degree-bounded linear-algebra oracle
    rng = random.Random(414)
    base = list(sl2.relations.polys)
    order = sl2.order
    seen_outcomes = set()
    for _ in range(20):
        idx = rng.randrange(3)
        target = base[idx]
        lm = max(target.terms, key=order.key)
        word = rng.choice(sorted(w for w in target.terms if w != lm))
        delta = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))
        mutated = list(base)
        mutated[idx] = target + FreePoly({word: delta})
        mutant = RelationSet(mutated, order)
        lh_mutant = RelationSet(
            [leading_homogeneous(p, order.weights) for p in mutant], order)
        direct = is_groebner(mutant, order).ok
        direct_lh = is_groebner(lh_mutant, order).ok
        assert direct == groebner_by_dimension(mutant, order, 5)
        assert direct_lh == groebner_by_dimension(lh_mutant, order, 5)
        seen_outcomes.add((direct, direct_lh))
    assert len(seen_outcomes) > 1  # both verdicts exercised


# ------------------------------------------------------------ homogenization

def test_homogenize_poly_pads_low_terms(sl2):
    r31 = FreePoly({(X3, X1): 1, (X1, X3): -1, (X3,): 2})
    homog = homogenize_poly(r31, (1, 1, 1))
    assert homog == FreePoly({(X3, X1): 1, (X1, X3): -1, (T, X3): 2})


def test_homogenize_poly_fixes_homogeneous_input():
    p = FreePoly({(X3, X1): 1, (X1, X3): -5})
    assert homogenize_poly(p, (1, 1, 1)) == p


def test_homogenize_poly_weighted_f_padding(degf3):
    # f = 1 + X1^3 under weights (1, 3, 3): pads to T^6 and T^3 X1^3
    r32 = next(p for p in degf3.relations if (X3, X2) in p.terms)
    homog = homogenize_poly(r32, degf3.order.weights)
    assert homog == FreePoly({
        (X3, X2): 1, (X2, X3): -degf3.params.omega,
        (T,) * 6: 1, (T, T, T, X1, X1, X1): 1,
    })
    with pytest.raises(InputError):
        homogenize_poly(FreePoly.zero(), (1, 1, 1))


def test_homogenize_algebra_certificate_and_leading_words(sl2, conformal_degf, degf3):
    for alg in (sl2, conformal_degf, degf3):
        homog = homogenize_algebra(alg)
        assert homog.certificate.ok
        assert set(homog.leading_words) == set(HOMOG_LEADING_WORDS)
        assert len(homog.relations) == 6


def test_homogenized_algebra_requires_the_leading_word_set():
    # with T largest the same relations are a certified basis whose leading
    # words are T*Xi: its normal words are not T^a w, which normal_form needs
    alg = build(GDUParams.make(1, 1, 0, [0, 0, 1]), WeightScheme.ALL_ONES)
    homog = homogenize_algebra(alg)
    t_largest = WeightedOrder(homog.order.weights, (X2, X1, X3, T))
    with pytest.raises(CertificationError, match="leading-word set"):
        HomogenizedAlgebra(alg, t_largest, homog.relations.polys, ())


def test_homogenize_already_homogeneous_adds_only_commutators():
    alg = build(GDUParams.make(1, 1, 0, [0, 0, 1]), WeightScheme.ALL_ONES)
    homog = homogenize_algebra(alg)
    commutators = {FreePoly({(i, T): 1, (T, i): -1}) for i in (X1, X2, X3)}
    assert set(homog.relations.polys) == set(alg.relations.polys) | commutators


def test_dehomogenize_recovers_relations(sl2, conformal_degf, degf3):
    for alg in (sl2, conformal_degf, degf3):
        homog = homogenize_algebra(alg)
        recovered = {repr(homog.dehomogenize(p)) for p in homog.relations}
        for g in alg.relations:
            assert repr(g) in recovered
        zero = homog.dehomogenize(FreePoly({(X1, T): 1, (T, X1): -1}))
        assert zero.is_zero()


def test_homogenize_note_flags_lower_term_variant(sl2):
    homog = homogenize_algebra(sl2)
    note = next(n for n in homog.notes if "homogenization note" in n)
    assert "T*X2" in note and "T*X3" in note
    quiet = homogenize_algebra(build(GDUParams.make(1, 1, 0, [0, 1]),
                                     WeightScheme.DEG_F))
    assert not any("homogenization note" in n for n in quiet.notes)


def test_homogenized_relation_strings_match_formulas(sl2):
    homog = homogenize_algebra(sl2)
    names = homog.gen_names
    rendered = {format_poly(p, homog.order, names) for p in homog.relations}
    assert "X3*X1 - X1*X3 + 2*T*X3" in rendered
    assert "X1*X2 - X2*X1 + 2*T*X2" in rendered
    assert "X3*X2 - X2*X3 - T*X1" in rendered
    assert "X1*T - T*X1" in rendered


DEHOMOGENIZATION_CASES = {
    "sl2": {},
    "conformal": {"b": 1, "scheme": "all-ones"},
    "conformal-deg-f": {"b": 1, "scheme": "deg-f"},
    "woronowicz": {},
}


@functools.cache
def _homogenized(case):
    alg = preset(case.split("-")[0], **DEHOMOGENIZATION_CASES[case])
    return alg, homogenize_algebra(alg)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(DEHOMOGENIZATION_CASES)),
       st.lists(st.sampled_from((X1, X2, X3, T)), max_size=5))
def test_dehomogenization_commutes_with_normal_form(case, word):
    # NF_T(p)|_{T=1} == NF(p|_{T=1})
    alg, homog = _homogenized(case)
    p = FreePoly.word(word)
    reduced = homog.dehomogenize(normal_form(p, homog.relations, homog.order))
    assert reduced == normal_form(homog.dehomogenize(p), alg.relations, alg.order)


HOMOG_NF_PRESETS = {"sl2": {}, "smith": {}, "woronowicz": {}, "conformal": {},
                    "down_up": {"alpha": 1, "beta": 2, "gamma": 1}}


def _words(max_size):
    return st.lists(st.sampled_from((X1, X2, X3, T)), max_size=max_size).map(tuple)


@functools.cache
def _homogenization(source, seed, deg_f, scheme):
    if source == "random":
        alg = build(random_params(random.Random(seed), deg_f), WeightScheme(scheme))
    else:
        alg = preset(source, scheme=scheme, **HOMOG_NF_PRESETS[source])
    return homogenize_algebra(alg)


SL2 = ("sl2", 0, 0, "all-ones")


@settings(max_examples=150, deadline=None)
@given(st.one_of(
           st.tuples(st.sampled_from(sorted(HOMOG_NF_PRESETS)), st.just(0), st.just(0),
                     st.sampled_from(("all-ones", "deg-f"))),
           st.tuples(st.just("random"), st.integers(0, 40), st.integers(1, 3),
                     st.sampled_from(("all-ones", "deg-f"))).filter(
               lambda c: c[2] <= 2 or c[3] == "deg-f")),
       st.dictionaries(_words(6), st.sampled_from(
           (Fraction(1), Fraction(-1), Fraction(2), Fraction(-3, 2))), min_size=1, max_size=4),
       st.none() | st.tuples(st.integers(0, 2), _words(2), _words(2)))
@example(SL2, {(): 3}, None)  # a constant
@example(SL2, {(T, X3, X1): 1, (X1,): 2, (): -1}, None)  # mixed degrees, T inside
@example(SL2, {(X1, X2): 1, (X2, X1): -1}, None)  # the top degree cancels
@example(("conformal", 0, 0, "deg-f"), {(X1,): 1}, (2, (T,), (X1,)))
def test_homogenized_normal_form_matches_generic_reduction(case, terms, cancel):
    # the override, read off the base algebra, against reduction by the
    # homogenized relations themselves
    homog = _homogenization(*case)
    p = FreePoly(terms)
    if cancel is not None:  # u * (top part of a base relation) * v
        i, u, v = cancel
        top = leading_homogeneous(homog.base.relations.polys[i], homog.base.order.weights)
        p = p + FreePoly.word(u) * top * FreePoly.word(v)
    assert homog.normal_form(p) == normal_form(p, homog.relations, homog.order)


# -------------------------------------------------------------------- rees

def test_rees_dimensions_sl2(sl2):
    homog = homogenize_algebra(sl2)
    result = rees_dims(sl2, homog, 10)
    assert result.ok
    for q, dim_h, dim_f in result.rows:
        assert dim_h == dim_f == math.comb(q + 3, 3)


def test_rees_degree_zero(sl2):
    homog = homogenize_algebra(sl2)
    assert rees_dims(sl2, homog, 0).rows == ((0, 1, 1),)


def test_rees_dimensions_weighted(conformal_degf, degf3):
    for alg in (conformal_degf, degf3):
        homog = homogenize_algebra(alg)
        result = rees_dims(alg, homog, 10)
        assert result.ok
        # independent recomputation of the filtration column
        w = alg.x2_weight
        for q, _, dim_f in result.rows:
            count = sum(1 for i in range(q // w + 1)
                        for l in range(q // w - i + 1)
                        for j in range(q - w * (i + l) + 1))
            assert dim_f == count


def test_rees_dims_rejects_a_mismatched_pair(sl2, conformal_degf):
    with pytest.raises(InputError):
        rees_dims(sl2, homogenize_algebra(conformal_degf), 10)


# --------------------------------------------------------------------- dims

def _exponent_counts(weights, max_degree):
    counts = [0] * (max_degree + 1)
    for exp in itertools.product(range(max_degree + 1), repeat=len(weights)):
        degree = sum(e * w for e, w in zip(exp, weights))
        if degree <= max_degree:
            counts[degree] += 1
    return counts


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from([(1, WeightScheme.ALL_ONES), (2, WeightScheme.ALL_ONES),
                        (1, WeightScheme.DEG_F), (2, WeightScheme.DEG_F),
                        (3, WeightScheme.DEG_F)]),
       st.integers(0, 6))
def test_dims_match_the_oracles(seed, case, max_degree):
    deg_f, scheme = case
    alg = build(random_params(random.Random(seed), deg_f), scheme)
    for pres in (alg, assoc_graded(alg), homogenize_algebra(alg)):
        weights = pres.order.weights
        normal = [0] * (max_degree + 1)
        for word in enumerate_normal_words(pres.leading_words, weights, max_degree):
            normal[sum(weights[g] for g in word)] += 1
        dims = pres.dims(max_degree)
        assert [q for q, _, _ in dims.rows] == list(range(max_degree + 1))
        assert [n for _, n, _ in dims.rows] == normal
        assert [e for _, _, e in dims.rows] == _exponent_counts(weights, max_degree)
        assert dims.ok


# ------------------------------------------------------------------ hilbert

def test_hilbert_homogenized_all_ones(sl2):
    homog = homogenize_algebra(sl2)
    data = hilbert(homog.monomial_algebra(), 12)
    assert list(data.coefficients) == [math.comb(q + 3, 3) for q in range(13)]


def test_hilbert_free_monoid_single_generator():
    mono = MonomialAlgebra(("x",), (1,), [])
    assert list(hilbert(mono, 6).coefficients) == [1] * 7


def test_hilbert_lh_monomials_match_enumeration(sl2):
    lh = assoc_graded(sl2).relations
    mono = MonomialAlgebra(sl2.gen_names, sl2.order.weights, lh.leading_words)
    data = hilbert(mono, 8)
    assert list(data.coefficients) == [math.comb(q + 2, 2) for q in range(9)]
    enumerated = enumerate_normal_words(lh.leading_words, sl2.order.weights, 8)
    by_degree = [0] * 9
    for w in enumerated:
        by_degree[sum(sl2.order.weights[g] for g in w)] += 1
    assert list(data.coefficients) == by_degree


def test_hilbert_weighted_matches_enumeration(degf3):
    homog = homogenize_algebra(degf3)
    mono = homog.monomial_algebra()
    data = hilbert(mono, 8)
    enumerated = enumerate_normal_words(mono.obstructions, mono.weights, 8)
    by_degree = [0] * 9
    for w in enumerated:
        by_degree[sum(mono.weights[g] for g in w)] += 1
    assert list(data.coefficients) == by_degree
    assert list(data.coefficients) == series_coefficients(mono.weights, 8)


def test_hilbert_with_window_three_obstructions():
    # obstruction of length 3: checks the short-word path of the counter
    mono = MonomialAlgebra(("x", "y"), (1, 1), [(0, 0, 0)])  # forbid x^3
    data = hilbert(mono, 7)
    enumerated = enumerate_normal_words(mono.obstructions, mono.weights, 7)
    by_degree = [0] * 8
    for w in enumerated:
        by_degree[len(w)] += 1
    assert list(data.coefficients) == by_degree


# ------------------------------------------------------------------- growth

def test_growth_three_for_base_algebra(sl2, conformal_degf, degf3):
    for alg in (sl2, conformal_degf, degf3):
        lh = assoc_graded(alg).relations
        mono = MonomialAlgebra(alg.gen_names, alg.order.weights, lh.leading_words)
        assert ufn_growth(mono) == 3


def test_growth_four_for_homogenized(sl2, conformal_degf, degf3):
    for alg in (sl2, conformal_degf, degf3):
        homog = homogenize_algebra(alg)
        assert ufn_growth(homog.monomial_algebra()) == 4


def test_growth_single_free_generator():
    assert ufn_growth(MonomialAlgebra(("x",), (1,), [])) == 1


def test_growth_free_pair_exponential():
    assert ufn_growth(MonomialAlgebra(("x", "y"), (1, 1), [])) == EXPONENTIAL


def test_growth_fibonacci_words_exponential():
    # forbid yy only: the 2-cycle x<->y plus the loop at x share a vertex
    mono = MonomialAlgebra(("x", "y"), (1, 1), [(1, 1)])
    assert ufn_growth(mono) == EXPONENTIAL
    data = hilbert(mono, 10)
    fib = [1, 2, 3]
    while len(fib) <= 10:
        fib.append(fib[-1] + fib[-2])
    assert list(data.coefficients) == fib[:11]


def test_growth_with_longer_obstruction_window():
    # x^2 normal but x^3 forbidden: one loop chain x -> .. plus y loop
    mono = MonomialAlgebra(("x", "y"), (1, 1), [(0, 0, 0), (1, 0), (1, 1)])
    # normal words: x^a then at most one y? obstructions: xxx, yx, yy
    # words avoiding them: x^a y^b with a<=2, b<=1 -- finite: growth 0
    assert ufn_growth(mono) == 0


@st.composite
def monomial_algebras(draw):
    ngens = draw(st.integers(1, 3))
    letters = st.integers(0, ngens - 1)
    obstructions = draw(st.lists(st.lists(letters, min_size=1, max_size=3).map(tuple),
                                 max_size=5))
    return MonomialAlgebra(tuple(f"x{g}" for g in range(ngens)), (1,) * ngens,
                           obstructions)


@settings(max_examples=150, deadline=None)
@given(monomial_algebras())
@example(MonomialAlgebra(("x", "y"), (1, 1), []))
@example(MonomialAlgebra(("x", "y"), (1, 1), [(1, 1)]))
@example(MonomialAlgebra(("x", "y", "z"), (1, 1, 1), [(1, 0), (2, 0), (2, 1)]))
# obstructions of length 4 and mixed weights: two short layers below the root
@example(MonomialAlgebra(("x", "y"), (1, 2), [(0, 1, 1, 0)]))
@example(MonomialAlgebra(("x", "y", "z"), (2, 1, 3), [(0, 0, 0, 0), (1, 0), (2, 0), (2, 1)]))
def test_ufn_growth_matches_reachability_reference(mono):
    assert ufn_growth(mono) == ufn_growth_reference(mono)


def test_ufn_graph_shape(sl2):
    lh = assoc_graded(sl2).relations
    mono = MonomialAlgebra(sl2.gen_names, sl2.order.weights, lh.leading_words)
    graph = build_ufn_graph(mono)
    assert set(graph.vertices) == {(), (X1,), (X2,), (X3,)}
    assert ((X2,), (X1,), X1) in graph.edges
    assert all((u, v) != ((X3,), (X1,)) for u, v, _ in graph.edges)


# ---------------------------------------------------------------- quadratic

def test_quadratic_true_for_all_ones(sl2, conformal_allones):
    for alg in (sl2, conformal_allones):
        homog = homogenize_algebra(alg)
        assert quadratic_check(homog.relations, homog.order.weights)


def test_quadratic_single_commutator():
    order_weights = (1, 1, 1, 1)
    from downup.freealg import WeightedOrder
    order = WeightedOrder(order_weights, (3, 1, 0, 2))
    rels = RelationSet([FreePoly({(X1, T): 1, (T, X1): -1})], order)
    assert quadratic_check(rels, order_weights)


def test_quadratic_false_for_weighted_scheme(conformal_degf, degf3):
    for alg in (conformal_degf, degf3):
        homog = homogenize_algebra(alg)
        assert not quadratic_check(homog.relations, homog.order.weights)


# ------------------------------------------------------- solvable structure

def test_solvable_homogenized_central_t(sl2):
    sol = solvable_homogenized(homogenize_algebra(sl2))
    assert verify_solvable(sol).ok
    for j in (1, 2, 3):
        rule = sol.rules[(j, 0)]
        assert rule.lam == 1 and rule.f.is_zero()


def test_solvable_homogenized_quadratic_f_all_ones(conformal_allones):
    # deg f = 2 under all-ones weights: the X1^2 tail must still verify
    sol = solvable_homogenized(homogenize_algebra(conformal_allones))
    assert verify_solvable(sol).ok
    assert sol.weights == (1, 2, 1, 2)


def test_solvable_homogenized_weighted(degf3):
    sol = solvable_homogenized(homogenize_algebra(degf3))
    assert verify_solvable(sol).ok
    assert sol.weights == (1, 3, 1, 3)


def test_solvable_homogenized_requires_units():
    alg = build(GDUParams.make(0, 1, 1, [0, 1]), WeightScheme.DEG_F)
    homog = homogenize_algebra(alg)
    with pytest.raises(HypothesisError):
        solvable_homogenized(homog)


def test_solvable_homogenized_random_instances():
    rng = random.Random(77)
    from downup.gdu import random_params
    count = 0
    while count < 6:
        params = random_params(rng)
        if params.lam * params.omega == 0:
            continue
        count += 1
        alg = build(params, WeightScheme.DEG_F)
        sol = solvable_homogenized(homogenize_algebra(alg))
        assert verify_solvable(sol).ok


# ------------------------------------------------------------------- series

def test_series_form_strings():
    assert series_form((1, 1, 1, 1)) == "1/(1-t)^4"
    assert series_form((1, 2, 2, 1)) == "1/((1-t)^2*(1-t^2)^2)"
    assert series_form((1,)) == "1/(1-t)"


def test_series_coefficients_all_ones():
    assert series_coefficients((1, 1, 1, 1), 6) == \
        [math.comb(q + 3, 3) for q in range(7)]


def test_degree_arguments_validated(sl2):
    homog = homogenize_algebra(sl2)
    with pytest.raises(InputError):
        hilbert(homog.monomial_algebra(), -1)
    with pytest.raises(InputError):
        rees_dims(sl2, homog, -2)


def test_monomial_algebra_interreduces_obstructions():
    mono = MonomialAlgebra(("x", "y"), (1, 1), [(0, 1), (0, 1, 1), (1, 1)])
    assert mono.obstructions == ((0, 1), (1, 1))
    with pytest.raises(InputError):
        MonomialAlgebra(("x",), (1,), [()])
