import random
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from downup.errors import InputError
from downup.freealg import FreePoly, normal_form, series_coefficients
from downup.gdu import (exponent_of_normal_word, normal_word_of_exponent,
                        preset, to_solvable)
from downup.graded import homogenize_algebra, solvable_homogenized
from downup.solvable import (CommutationRule, PBWGrlexOrder, PBWPoly,
                             SolvableAlgebra, exponents_up_to, leading_exp,
                             left_buchberger, nf_left, verify_ordering_axioms,
                             verify_solvable, word_of_exponent)

import oracles
from oracles import left_span, multiply_by_words


@pytest.fixture(scope="session")
def sl2_solvable(sl2):
    return to_solvable(sl2)


# ------------------------------------------------------------------ orders

def test_grlex_degree_first():
    order = PBWGrlexOrder((1, 1, 1))
    assert order.compare((1, 0, 0), (1, 1, 0)) == -1
    assert order.compare((0, 1, 0), (0, 0, 1)) == -1  # a_1 < a_3


def test_grlex_weighted_unit_below_products():
    order = PBWGrlexOrder((2, 1, 2))
    assert order.compare((0, 1, 0), (0, 1, 1)) == -1  # a_1 < a_1 a_3
    assert order.compare((0, 0, 0), (1, 0, 0)) == -1


@pytest.mark.parametrize("weights", [(1,), (1, 1, 1), (1, 2, 2), (2, 1, 2),
                                     (1, 2, 2, 1), (3, 1, 2)])
def test_exponents_up_to_counts_and_order(weights):
    order = PBWGrlexOrder(weights)
    for bound in range(9):
        exps = exponents_up_to(weights, bound)
        counts = [0] * (bound + 1)
        for e in exps:
            counts[order.degree(e)] += 1
        assert counts == series_coefficients(weights, bound)
        keys = [order.key(e) for e in exps]
        assert all(a < b for a, b in zip(keys, keys[1:]))


# --------------------------------------------------------- ordering axioms

def test_ordering_axioms_hold_for_presets(sl2_solvable, conformal_degf):
    assert verify_ordering_axioms(sl2_solvable, bound=4).ok
    assert verify_ordering_axioms(to_solvable(conformal_degf), bound=4).ok


class KeyOrder:
    """An order given by its sort key alone; need not be a monomial order."""

    def __init__(self, key):
        self.key = key

    def compare(self, e1, e2):
        k1, k2 = self.key(e1), self.key(e2)
        return -1 if k1 < k2 else (0 if k1 == k2 else 1)


class WordLexOrder(KeyOrder):
    """Degree-ignoring left-to-right word comparison; not a monomial order."""

    def __init__(self):
        super().__init__(word_of_exponent)


def test_ordering_axioms_reject_pure_word_lex(sl2_solvable):
    check = verify_ordering_axioms(sl2_solvable, bound=4, order=WordLexOrder())
    assert not check.ok
    assert check.violations


def test_ordering_axioms_bound_validation(sl2_solvable):
    with pytest.raises(InputError):
        verify_ordering_axioms(sl2_solvable, bound=1)


# ------------------------------------------------------------ verify_solvable

def test_presets_are_solvable(sl2_solvable, conformal_degf, degf3):
    assert verify_solvable(sl2_solvable).ok
    assert verify_solvable(to_solvable(conformal_degf)).ok
    assert verify_solvable(to_solvable(degf3)).ok


def test_zero_unit_coefficient_rejected():
    alg = SolvableAlgebra(("a", "b"), (1, 1),
                          [CommutationRule(1, 0, Fraction(0), PBWPoly())])
    check = verify_solvable(alg)
    assert not check.ok and "unit coefficient" in check.violations[0]


def test_swap_monomial_in_tail_rejected():
    alg = SolvableAlgebra(("a", "b"), (1, 1),
                          [CommutationRule(1, 0, Fraction(1),
                                           PBWPoly({(1, 1): 1}))])
    check = verify_solvable(alg)
    assert not check.ok


# ---------------------------------------------------------------- multiply

def test_multiply_swap_rule(sl2_solvable):
    # a_3 a_1 = lambda a_1 a_3 - gamma a_3 with lambda=1, gamma=2
    p = sl2_solvable.multiply(sl2_solvable.generator(2), sl2_solvable.generator(1))
    assert p == PBWPoly({(0, 1, 1): 1, (0, 0, 1): -2})


def test_multiply_identity(sl2_solvable):
    p = PBWPoly({(2, 1, 0): Fraction(3, 7), (0, 0, 1): -1})
    assert sl2_solvable.multiply(sl2_solvable.one(), p) == p
    assert sl2_solvable.multiply(p, sl2_solvable.one()) == p


def test_multiply_a3_a2(sl2, sl2_solvable):
    # a_3 a_2 = omega a_2 a_3 - f(a_1) = a_2 a_3 + a_1 for sl2
    p = sl2_solvable.multiply(sl2_solvable.generator(2), sl2_solvable.generator(0))
    assert p == PBWPoly({(1, 0, 1): 1, (0, 1, 0): 1})
    # cross-check in the free algebra: NF(X3 X2)
    nf = normal_form(FreePoly.word((2, 1)), sl2.relations, sl2.order)
    assert {exponent_of_normal_word(w): c for w, c in nf.terms.items()} == p.terms


def test_multiply_associative_on_random_triples(sl2_solvable, conformal_degf):
    rng = random.Random(5)
    for alg in (sl2_solvable, to_solvable(conformal_degf)):
        for _ in range(100):
            exps = [tuple(rng.randint(0, 1) for _ in range(3)) for _ in range(3)]
            coeffs = [Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(3)]
            a, b, c = (coeffs[k] * alg.monomial(exps[k]) for k in range(3))
            assert alg.multiply(alg.multiply(a, b), c) == \
                alg.multiply(a, alg.multiply(b, c))


def test_leading_monomial_multiplicative(sl2_solvable):
    order = sl2_solvable.order
    monos = [e for e in exponents_up_to(sl2_solvable.weights, 3)]
    for u in monos:
        for v in monos:
            prod = sl2_solvable.multiply(sl2_solvable.monomial(u),
                                         sl2_solvable.monomial(v))
            lm, lc = leading_exp(prod, order)
            assert lm == tuple(a + b for a, b in zip(u, v))
            assert lc != 0


def test_product_agrees_with_free_algebra_reduction(sl2, sl2_solvable):
    rng = random.Random(12)
    for _ in range(200):
        e1 = tuple(rng.randint(0, 2) for _ in range(3))
        e2 = tuple(rng.randint(0, 2) for _ in range(3))
        product = sl2_solvable.multiply(sl2_solvable.monomial(e1),
                                        sl2_solvable.monomial(e2))
        word = normal_word_of_exponent(e1) + normal_word_of_exponent(e2)
        nf = normal_form(FreePoly.word(word), sl2.relations, sl2.order)
        assert {exponent_of_normal_word(w): c for w, c in nf.terms.items()} == \
            product.terms


def test_generator_rejects_out_of_range_position(sl2_solvable):
    assert sl2_solvable.generator(2) == PBWPoly({(0, 0, 1): 1})
    for position in (-1, 3):
        with pytest.raises(InputError):
            sl2_solvable.generator(position)


# ------------------------------------------------------------ product table

TABLE_PRESETS = {  # table name: (preset, args)
    "sl2": ("sl2", {}), "woronowicz": ("woronowicz", {}), "smith": ("smith", {}),
    "conformal": ("conformal", {"b": 1}),
    "down_up": ("down_up", {"alpha": 2, "beta": -1, "gamma": 1}),
    # lambda and omega differ from 1 and from each other
    "conformal-lam2": ("conformal", {"b": 1, "lam": 2, "omega": -3}),
}
TABLES = [f"{name}/{scheme}/{gens}" for name in TABLE_PRESETS
          for scheme in ("all-ones", "deg-f") for gens in ("base", "homogenized")]


@pytest.fixture(scope="session")
def product_tables():
    """Each table with the word cache its reference product keeps."""
    tables = {}
    for table in TABLES:
        name, scheme, gens = table.split("/")
        family, args = TABLE_PRESETS[name]
        alg = preset(family, scheme=scheme, **args)
        sol = (to_solvable(alg) if gens == "base"
               else solvable_homogenized(homogenize_algebra(alg)))
        tables[table] = (sol, {})
    return tables


# a wrong product is reported as drawn: shrinking its large operands took
# many minutes
FAIL_FAST = (Phase.explicit, Phase.reuse, Phase.generate)


def pbw_operands(ngens: int, top: int):
    exps = st.tuples(*[st.integers(0, top)] * ngens)
    coeffs = st.fractions(-3, 3, max_denominator=3).filter(bool)
    return st.dictionaries(exps, coeffs, min_size=1, max_size=2).map(PBWPoly)


@pytest.mark.parametrize("table", TABLES)
@given(data=st.data())
@settings(max_examples=10, deadline=None, phases=FAIL_FAST)
def test_multiply_matches_word_rewriting(product_tables, table, data):
    alg, cache = product_tables[table]
    p = data.draw(pbw_operands(alg.ngens, 4))
    q = data.draw(pbw_operands(alg.ngens, 4))
    assert alg.multiply(p, q) == multiply_by_words(alg, p, q, cache)


@pytest.mark.parametrize("table", TABLES)
@given(data=st.data())
@settings(max_examples=5, deadline=None, phases=FAIL_FAST)
def test_multiply_associative(product_tables, table, data):
    alg, _ = product_tables[table]
    p, q, r = (data.draw(pbw_operands(alg.ngens, 3)) for _ in range(3))
    assert alg.multiply(alg.multiply(p, q), r) == alg.multiply(p, alg.multiply(q, r))


@pytest.mark.parametrize("table", TABLES)
def test_leading_monomial_adds_exponents(product_tables, table):
    alg, _ = product_tables[table]
    monos = exponents_up_to(alg.weights, 6)
    for u in monos:
        for v in exponents_up_to(alg.weights, 6 - alg.order.degree(u)):
            prod = alg.multiply(alg.monomial(u), alg.monomial(v))
            assert leading_exp(prod, alg.order)[0] == tuple(a + b for a, b in zip(u, v))


def test_products_never_alias_the_memo(sl2):
    alg = to_solvable(sl2)
    a, b = alg.monomial((0, 2, 1)), alg.monomial((2, 0, 1))
    first = alg.multiply(a, b)
    second = alg.multiply(a, b)
    first.terms.clear()
    first.terms[(9, 9, 9)] = 1
    assert second == multiply_by_words(alg, a, b, {})
    assert alg.multiply(a, b) == second


def test_left_division_unchanged_by_a_warm_table(sl2):
    gens = [PBWPoly({(1, 1, 0): 1, (0, 0, 1): 2}), PBWPoly({(2, 0, 0): 1})]
    probe = PBWPoly({(2, 1, 2): 1, (1, 0, 1): Fraction(1, 2)})
    results = []
    for warm in (False, True):
        alg = to_solvable(sl2)
        if warm:
            alg.multiply(alg.monomial((2, 1, 1)), alg.monomial((1, 1, 1)))
        basis = left_buchberger(alg, gens)
        results.append((basis, nf_left(alg, probe, basis), nf_left(alg, probe, gens)))
    assert results[0] == results[1]
    # both runs share one table, so compare a warm table with word rewriting
    # too, on a table with lambda != 1.  Left division cannot tell a cofactor
    # a^e from its letters in another order (both products lie in the left
    # ideal), so the warming product is compared as well.
    alg, ref = to_solvable(preset("woronowicz")), to_solvable(preset("woronowicz"))
    cache = {}
    ref.multiply = lambda p, q: multiply_by_words(ref, p, q, cache)
    warm = alg.monomial((2, 1, 1)), alg.monomial((1, 1, 1))
    assert alg.multiply(*warm) == ref.multiply(*warm)
    basis = left_buchberger(alg, gens)
    assert basis == left_buchberger(ref, gens)
    assert nf_left(alg, probe, basis) == nf_left(ref, probe, basis)
    assert nf_left(alg, probe, gens) == nf_left(ref, probe, gens)


# ------------------------------------ ordering axioms against the reference

AXIOM_ORDERS = ("own", "word-lex", "degree-reversed", "lex")


def axiom_order(alg, name):
    """The table's own order, or one of three keys that are not it; "lex"
    compares exponent vectors alone and ignores degree."""
    own = alg.order
    return {"own": own,
            "word-lex": WordLexOrder(),
            "degree-reversed": KeyOrder(lambda e: (-own.degree(e), own.key(e))),
            "lex": KeyOrder(lambda e: e)}[name]


@pytest.fixture(scope="session")
def table_algebras(product_tables):
    """The tables' algebras without their word caches: Hypothesis prints
    every argument of an explicit example, and the caches grow to millions
    of terms."""
    return {table: alg for table, (alg, _) in product_tables.items()}


@pytest.fixture(scope="session")
def reference_verdicts():
    """The exhaustive reference's Verdict per (table, bound, order name)."""
    return {}


@pytest.mark.parametrize("table", TABLES)
@given(bound=st.integers(2, 4),
       names=st.permutations(AXIOM_ORDERS).map(lambda p: p[:2]))
@example(bound=3, names=("own", "lex"))
@settings(max_examples=3, deadline=None)
def test_ordering_axioms_match_exhaustive_reference(table_algebras, reference_verdicts,
                                                    table, bound, names):
    # two orders one after the other on one algebra: each verdict, violation
    # text included, must match the reference whatever ran on it before
    alg = table_algebras[table]
    for name in names:
        order = axiom_order(alg, name)
        key = (table, bound, name)
        if key not in reference_verdicts:
            reference_verdicts[key] = oracles.verify_ordering_axioms(alg, bound, order)
        assert verify_ordering_axioms(alg, bound, order) == reference_verdicts[key]


# ---------------------------------------------------------- left Buchberger

def test_left_basis_of_unit_ideal(sl2_solvable):
    basis = left_buchberger(sl2_solvable, [sl2_solvable.one() * 5])
    assert basis == [sl2_solvable.one()]
    probe = PBWPoly({(2, 0, 1): Fraction(1, 3)})
    assert nf_left(sl2_solvable, probe, basis).is_zero()


def test_malformed_exponents_rejected(sl2_solvable):
    # a wrong length or a negative entry used to pass through unnoticed
    with pytest.raises(InputError):
        left_buchberger(sl2_solvable, [PBWPoly({(1, 0): 1})])
    with pytest.raises(InputError):
        nf_left(sl2_solvable, PBWPoly({(0, -1, 2): 1}),
                [sl2_solvable.monomial((0, 0, 1))])
    with pytest.raises(InputError):
        nf_left(sl2_solvable, sl2_solvable.one(), [PBWPoly({(0, 0, 1, 0): 1})])


def test_monomial_rejects_negative_exponents(sl2_solvable):
    # a negative count would become no letters and a wrong product
    with pytest.raises(InputError):
        sl2_solvable.monomial((0, -1, 2))


def test_left_basis_empty_generators(sl2_solvable):
    assert left_buchberger(sl2_solvable, []) == []


def test_left_basis_of_a1(sl2_solvable):
    a1 = sl2_solvable.generator(1)
    basis = left_buchberger(sl2_solvable, [a1])
    assert basis == [a1]
    # the left multiple a_3 . a_1 reduces to zero, the unit does not
    prod = sl2_solvable.multiply(sl2_solvable.generator(2), a1)
    assert nf_left(sl2_solvable, prod, basis).is_zero()
    assert nf_left(sl2_solvable, sl2_solvable.one(), basis) == sl2_solvable.one()


def test_left_basis_of_a2_a3_closes_with_a1(sl2_solvable):
    gens = [sl2_solvable.generator(0), sl2_solvable.generator(2)]
    basis = left_buchberger(sl2_solvable, gens)
    expected = [sl2_solvable.generator(0), sl2_solvable.generator(1),
                sl2_solvable.generator(2)]
    assert basis == expected


def test_left_nf_of_generator_in_own_basis(sl2_solvable):
    g = PBWPoly({(1, 1, 0): 1, (0, 0, 1): Fraction(-1, 2)})
    assert nf_left(sl2_solvable, g, [g]).is_zero()


def test_left_membership_matches_linear_oracle(sl2_solvable, conformal_degf):
    rng = random.Random(23)
    cases = [
        (sl2_solvable, [sl2_solvable.generator(1)]),
        (sl2_solvable, [sl2_solvable.generator(0), sl2_solvable.generator(2)]),
        (to_solvable(conformal_degf),
         [to_solvable(conformal_degf).generator(1)]),
    ]
    for alg, gens in cases:
        basis = left_buchberger(alg, gens)
        span = left_span(alg, gens, 6)
        members = disagreements = 0
        for _ in range(50):
            if rng.random() < 0.5:
                # seeded combination of generators: a true member
                p = PBWPoly()
                for g in gens:
                    m = tuple(rng.randint(0, 1) for _ in range(3))
                    p = p + alg.multiply(alg.monomial(m, rng.randint(1, 3)), g)
            else:
                p = PBWPoly({tuple(rng.randint(0, 1) for _ in range(3)):
                             Fraction(rng.randint(-2, 2))
                             for _ in range(rng.randint(1, 3))})
            by_basis = nf_left(alg, p, basis).is_zero()
            by_span = span.contains(dict(p.terms))
            members += by_basis
            disagreements += (by_basis != by_span)
        assert disagreements == 0
        assert members > 0


NOT_MONIC_TABLES = {  # lambda != 1: a left multiple m . g is not monic at LM(m) + LM(g)
    "woronowicz": ("woronowicz", {}),
    "conformal-lam2": TABLE_PRESETS["conformal-lam2"],
    "down_up-lam2": ("down_up", {"alpha": 1, "beta": 2, "gamma": 1}),  # lambda 2, omega -1
}


@pytest.mark.parametrize("name", NOT_MONIC_TABLES)
def test_left_membership_where_multiples_are_not_monic(name):
    family, args = NOT_MONIC_TABLES[name]
    alg = to_solvable(preset(family, **args))
    a2, a1, a3 = (alg.generator(k) for k in range(alg.ngens))
    rng = random.Random(41)
    low = exponents_up_to(alg.weights, 4)
    for gens in ([a1], [a1, alg.multiply(a2, a2)], [a2 + a1, a3]):
        basis = left_buchberger(alg, gens)
        span = left_span(alg, gens, 6)
        # cofactor monomials stay inside the oracle's degree-6 window
        cofactors = [exponents_up_to(
            alg.weights, 6 - alg.order.degree(leading_exp(g, alg.order)[0])) for g in gens]
        for _ in range(12):
            member = PBWPoly()
            for g, monos in zip(gens, cofactors):
                cofactor = alg.monomial(rng.choice(monos), rng.randint(1, 2))
                member = member + alg.multiply(cofactor, g)
            assert nf_left(alg, member, basis).is_zero()
            p = PBWPoly({rng.choice(low): Fraction(rng.randint(-2, 2))
                         for _ in range(rng.randint(1, 3))})
            assert nf_left(alg, p, basis).is_zero() == span.contains(dict(p.terms))


def test_left_basis_interreduced_and_sorted(sl2_solvable):
    gens = [sl2_solvable.generator(0) + sl2_solvable.generator(1) * 3,
            sl2_solvable.generator(2)]
    basis = left_buchberger(sl2_solvable, gens)
    order = sl2_solvable.order
    lms = [leading_exp(b, order)[0] for b in basis]
    assert lms == sorted(lms, key=order.key)
    for idx, b in enumerate(basis):
        assert leading_exp(b, order)[1] == 1
        rest = basis[:idx] + basis[idx + 1:]
        assert nf_left(sl2_solvable, b, rest) == b
