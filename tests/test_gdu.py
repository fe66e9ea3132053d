import random
from fractions import Fraction

import pytest

from downup.errors import CertificationError, HypothesisError, InputError
from downup.freealg import (FreePoly, RelationSet, WeightedOrder, normal_form,
                            series_coefficients)
from downup.gdu import (X1, X2, X3, GDUParams, WeightScheme, build, check_pbw,
                        defining_relations, exponent_of_normal_word,
                        normal_word_of_exponent, preset,
                        random_params, solvable_from_relations, to_solvable)

from oracles import pbw_triples


def test_build_sl2_relations_exact(sl2):
    lam, omega, gamma = Fraction(1), Fraction(1), Fraction(2)
    expected = {
        FreePoly({(2, 0): 1, (0, 2): -lam, (2,): gamma}),
        FreePoly({(0, 1): 1, (1, 0): -lam, (1,): gamma}),
        FreePoly({(2, 1): 1, (1, 2): -omega, (0,): -1}),
    }
    assert set(sl2.relations.polys) == expected
    assert sl2.certificate.ok
    assert sl2.order.weights == (1, 1, 1)


def test_scheme_constraints():
    cubic = GDUParams.make(1, 1, 0, [0, 0, 0, 1])
    with pytest.raises(InputError):
        build(cubic, WeightScheme.ALL_ONES)
    constant = GDUParams.make(1, 1, 0, [3])
    with pytest.raises(InputError):
        build(constant, WeightScheme.DEG_F)
    build(constant, WeightScheme.ALL_ONES)  # allowed, graded ops gated off


def test_gamma_zero_drops_terms():
    alg = build(GDUParams.make(1, 1, 0, [0, 1]), WeightScheme.DEG_F)
    assert alg.certificate.ok
    assert len(alg.relations) == 3
    assert sorted(len(p.terms) for p in alg.relations) == [2, 2, 3]


def test_random_instances_certify_both_schemes():
    rng = random.Random(2024)
    for _ in range(5):
        params = random_params(rng)
        for scheme in (WeightScheme.ALL_ONES, WeightScheme.DEG_F):
            assert build(params, scheme).certificate.ok


def test_params_trailing_zeros_trimmed():
    params = GDUParams.make(1, 1, 0, [0, 1, 0, 0])
    assert params.f_coeffs == (0, 1)
    assert params.deg_f == 1
    zero_f = GDUParams.make(1, 1, 0, [0])
    assert zero_f.deg_f == 0
    with pytest.raises(InputError):
        GDUParams.make(1, 1, 0, [])


# ------------------------------------------------------------------ presets

def test_preset_sl2_matches_build(sl2):
    same = build(GDUParams.make(1, 1, 2, [0, -1]), WeightScheme.ALL_ONES)
    assert sl2.params == same.params
    assert sl2.relations.polys == same.relations.polys


def test_preset_down_up_double_root():
    alg = preset("down_up", alpha=2, beta=-1, gamma=1)
    assert (alg.params.lam, alg.params.omega) == (1, 1)
    assert alg.params.f_coeffs == (0, 1)


def test_preset_down_up_split_roots():
    alg = preset("down_up", alpha=3, beta=-2, gamma=0)
    assert (alg.params.lam, alg.params.omega) == (2, 1)
    # alpha = lam + omega, beta = -lam*omega
    assert alg.params.lam + alg.params.omega == 3
    assert -alg.params.lam * alg.params.omega == -2


def test_preset_down_up_irrational_roots_rejected():
    with pytest.raises(InputError):
        preset("down_up", alpha=1, beta=1, gamma=0)


def test_preset_woronowicz():
    alg = preset("woronowicz", zeta=2)
    p = alg.params
    assert (p.lam, p.omega, p.gamma) == (16, 4, -5)
    assert p.f_coeffs == (0, -2)
    with pytest.raises(InputError):
        preset("woronowicz", zeta=0)


def test_preset_smith_sign_conversion():
    alg = preset("smith", f=[0, 0, 1])
    p = alg.params
    assert (p.lam, p.omega, p.gamma) == (1, 1, 1)
    assert p.f_coeffs == (0, 0, -1)
    assert any("converted" in note for note in alg.notes)


def test_preset_conformal_constraints():
    alg = preset("conformal", b="1/2")
    assert alg.params.f_coeffs == (0, 1, Fraction(1, 2))
    with pytest.raises(InputError):
        preset("conformal", b=0)
    with pytest.raises(InputError):
        preset("conformal", b=1, gamma=0)


def test_preset_unknown_or_bad_args():
    with pytest.raises(InputError):
        preset("weyl")
    with pytest.raises(InputError):
        preset("sl2", zeta=3)
    with pytest.raises(InputError):
        preset("sl2", scheme="nope")


# ---------------------------------------------------------------- PBW check

def test_check_pbw_all_ones_closed_form(sl2):
    result = check_pbw(sl2, 8)
    assert result.ok
    for q, normal, expo in result.rows:
        assert normal == expo == (q + 1) * (q + 2) // 2


def test_check_pbw_degree_zero(sl2):
    result = check_pbw(sl2, 0)
    assert result.rows == ((0, 1, 1),)


def test_check_pbw_weighted_matches_triple_enumeration(degf3):
    result = check_pbw(degf3, 9)
    assert result.ok
    for q, normal, expo in result.rows:
        assert expo == len(pbw_triples(degf3.x2_weight, q))
        assert normal == expo


def test_pbw_degree_counts_match_enumeration():
    for w in (1, 2, 3):
        counts = series_coefficients((1, w, w), 8)
        assert counts == [len(pbw_triples(w, q)) for q in range(9)]


# --------------------------------------------------------------- solvable

def test_to_solvable_weights_follow_deg_f(conformal_degf, degf3):
    assert to_solvable(conformal_degf).weights == (2, 1, 2)
    assert to_solvable(degf3).weights == (3, 1, 3)


def test_to_solvable_rejects_degenerate_parameters():
    for lam, omega in ((0, 1), (1, 0), (0, 0)):
        alg = build(GDUParams.make(lam, omega, 2, [0, -1]), WeightScheme.ALL_ONES)
        with pytest.raises(HypothesisError):
            to_solvable(alg)
    constant_f = build(GDUParams.make(1, 1, 2, [5]), WeightScheme.ALL_ONES)
    with pytest.raises(HypothesisError):
        to_solvable(constant_f)


def test_to_solvable_commutation_table(sl2):
    sol = to_solvable(sl2)
    # a_1 a_2 = a_2 a_1 - 2 a_2 ; a_3 a_2 = a_2 a_3 + a_1 ; a_3 a_1 = a_1 a_3 - 2 a_3
    assert sol.rules[(1, 0)].lam == 1
    assert sol.rules[(1, 0)].f.terms == {(1, 0, 0): Fraction(-2)}
    assert sol.rules[(2, 0)].lam == 1
    assert sol.rules[(2, 0)].f.terms == {(0, 1, 0): Fraction(1)}
    assert sol.rules[(2, 1)].lam == 1
    assert sol.rules[(2, 1)].f.terms == {(0, 0, 1): Fraction(-2)}


# ---------------------------------------------------------------- bijection

def test_normal_word_bijection_roundtrip():
    rng = random.Random(1)
    for _ in range(50):
        exp = tuple(rng.randint(0, 4) for _ in range(3))
        assert exponent_of_normal_word(normal_word_of_exponent(exp)) == exp
    with pytest.raises(InputError):
        exponent_of_normal_word((0, 1))  # X1 X2 is not normal-sorted


def test_exponent_of_normal_word_rejects_unknown_generator():
    with pytest.raises(InputError):
        exponent_of_normal_word((3,))


# ------------------------------------------------------ solvable derivation

def _derive(rels, order):
    assert rels.order is order  # the PBW sequence is read off this order
    return solvable_from_relations(rels, ("X1", "X2", "X3"), weights=(1, 1, 1))


def test_solvable_from_relations_reads_the_sequence_off_the_order():
    # x1 < x0: the leading word of x0*x1 - x1*x0 - x1 is x0*x1, so with the
    # PBW sequence (x1, x0) the rule is a_1 a_0 = a_0 a_1 + a_0
    order = WeightedOrder((1, 1), (1, 0))
    rels = RelationSet([FreePoly({(0, 1): 1, (1, 0): -1, (1,): -1})], order)
    sol = solvable_from_relations(rels, ("x0", "x1"), weights=(1, 1))
    assert sol.names == ("x1", "x0")
    rule = sol.rules[(1, 0)]
    assert (rule.lam, rule.f.terms) == (1, {(1, 0): 1})


def test_solvable_from_relations_and_normal_form_read_one_rule():
    # two relations share the leading word x0*x1; both readings use the first
    order = WeightedOrder((1, 1), (1, 0))
    first = FreePoly({(0, 1): 1, (1, 0): -1, (1,): -1})
    rels = RelationSet([first, FreePoly({(0, 1): 1, (1, 0): -2})], order)
    assert rels.rewrites == (((0, 1), first),)
    assert rels.rewrites[0][1] is rels.polys[0]
    assert normal_form(FreePoly.word((0, 1)), rels, order) == FreePoly({(1, 0): 1, (1,): 1})
    rule = solvable_from_relations(rels, ("x0", "x1"), weights=(1, 1)).rules[(1, 0)]
    assert (rule.lam, rule.f.terms) == (1, {(1, 0): 1})


def test_solvable_from_relations_rejects_zero_lambda():
    alg = build(GDUParams.make(0, 1, 1, [0, 1]), WeightScheme.ALL_ONES)
    assert alg.certificate.ok
    with pytest.raises(CertificationError, match="not solvable") as info:
        _derive(alg.relations, alg.order)
    assert any("unit coefficient is 0" in v for v in info.value.args[1])


def test_solvable_from_relations_rejects_unsorted_tail(sl2):
    # X3*X2 - X2*X3 + X1*X2: the tail X1*X2 is not sorted X2 < X1 < X3
    r31, r12, _ = defining_relations(sl2.params)
    unsorted = FreePoly({(X3, X2): 1, (X2, X3): -1, (X1, X2): 1})
    rels = RelationSet([r31, r12, unsorted], sl2.order)
    with pytest.raises(CertificationError, match="not a PBW monomial"):
        _derive(rels, sl2.order)
