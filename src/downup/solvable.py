"""Arithmetic in solvable polynomial algebras via PBW normal forms.

Monomials are exponent vectors over a fixed generator sequence (listed
smallest-first in the monomial order); the product is driven by one
commutation rule per generator pair,

    a_j a_i  =  lambda_ji a_i a_j + f_ji        (i < j, lambda_ji != 0),

with the lower part f_ji preceding a_i a_j in the order.  On top of the
product the module provides checks for the monomial-ordering and
solvable-algebra axioms, left-ideal Groebner bases, and left normal forms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import InputError
from .freealg import (GradedOrder, SparsePoly, ScalarLike, Verdict, add_terms,
                      interreduce_with, leading, monic, rewrite_terms)

Exponent = tuple[int, ...]

leading_exp = leading  # the exponent-vector name of the shared leading term


class PBWGrlexOrder(GradedOrder):
    """Graded lexicographic order on exponent vectors.

    Weighted degree first; equal degrees are broken by the corresponding
    sorted words read left to right, i.e. more copies of an earlier (smaller)
    generator make the monomial smaller.
    """

    def degree(self, exp: Exponent) -> int:
        return sum(w * a for w, a in zip(self.weights, exp))

    def key(self, exp: Exponent):
        return (self.degree(exp), tuple(-a for a in exp))


class PBWPoly(SparsePoly):
    """Finite rational combination of PBW monomials (exponent vectors)."""

    __slots__ = ()


@dataclass(frozen=True)
class CommutationRule:
    """Rewrite data for one generator pair: a_j a_i = lam * a_i a_j + f."""

    j: int
    i: int
    lam: Fraction
    f: PBWPoly

    def __post_init__(self):
        if not 0 <= self.i < self.j:
            raise InputError("commutation rule requires generator positions i < j")


def word_of_exponent(exp: Exponent) -> tuple[int, ...]:
    """Flatten an exponent vector into the sorted generator word it denotes."""
    out: list[int] = []
    for g, a in enumerate(exp):
        out.extend([g] * a)
    return tuple(out)


def exponent_of_word(word: Sequence[int], sequence: Sequence[int]) -> Exponent:
    """Exponent vector of a word whose letters follow ``sequence`` (generator
    indices, smallest first); InputError for any other word."""
    exp = [0] * len(sequence)
    last = 0
    for g in word:
        pos = sequence.index(g) if g in sequence else -1
        if pos < last:
            raise InputError(f"word {word} is not a PBW monomial in the "
                             f"generator sequence {tuple(sequence)}")
        last = pos
        exp[pos] += 1
    return tuple(exp)


def exponents_up_to(weights: Sequence[int], bound: int) -> list[Exponent]:
    """All exponent vectors of weighted degree <= bound, sorted by degree-lex."""
    order = PBWGrlexOrder(weights)
    boxes = itertools.product(*(range(bound // w + 1) for w in order.weights))
    return sorted((e for e in boxes if order.degree(e) <= bound), key=order.key)


class SolvableAlgebra:
    """A PBW algebra presented by one commutation rule per generator pair.

    Generators are listed smallest-first under the weighted graded
    lexicographic order.  Construction validates only the shape of the
    data -- use :func:`verify_solvable` / :func:`verify_ordering_axioms` for
    the axioms themselves.  The product assumes the solvable axioms hold
    (rewriting may fail to terminate otherwise).
    """

    def __init__(self, names: Sequence[str], weights: Sequence[int],
                 rules: Iterable[CommutationRule]):
        self.order = PBWGrlexOrder(weights)
        self.weights = self.order.weights
        self.names = tuple(names)
        if len(self.names) != len(self.weights):
            raise InputError("one weight per generator required")
        n = len(self.names)
        self.rules: dict[tuple[int, int], CommutationRule] = {}
        for rule in rules:
            if rule.j >= n:
                raise InputError(f"rule for unknown generator position {rule.j}")
            self.rules[(rule.j, rule.i)] = rule
        for j in range(n):
            for i in range(j):
                if (j, i) not in self.rules:
                    raise InputError(f"missing commutation rule for pair ({j}, {i})")
        self._letters = [tuple(int(t == g) for t in range(n)) for g in range(n)]
        self._table: dict[tuple[Exponent, Exponent], dict[Exponent, Fraction]] = {}

    @property
    def ngens(self) -> int:
        return len(self.names)

    def check_exponents(self, polys: Iterable[PBWPoly]) -> None:
        """InputError unless every monomial is an exponent vector with one
        nonnegative entry per generator."""
        for p in polys:
            for exp in p.terms:
                if len(exp) != self.ngens or any(a < 0 for a in exp):
                    raise InputError(f"malformed exponent vector {exp}")

    def unit_exponent(self) -> Exponent:
        return (0,) * self.ngens

    def one(self) -> PBWPoly:
        return PBWPoly({self.unit_exponent(): 1})

    def generator(self, position: int) -> PBWPoly:
        if not 0 <= position < self.ngens:
            raise InputError(f"unknown generator position {position}")
        return PBWPoly({self._letters[position]: 1})

    def monomial(self, exp: Exponent, coeff: ScalarLike = 1) -> PBWPoly:
        if len(exp) != self.ngens or min(exp, default=0) < 0:
            raise InputError(f"malformed exponent vector {exp}")
        return PBWPoly({tuple(exp): coeff})

    def _times(self, e1: Exponent, e2: Exponent) -> dict[Exponent, Fraction]:
        """Terms of a^e1 * a^e2, memoized in one table.  A letter x_g (a unit
        e1) either sorts into a^e2 already (g <= h, h the first generator of
        a^e2) or, e' being e2 less one x_h, gives
        x_g a^e2 = lam_gh * x_h (x_g a^e') + f_gh * a^e'; a longer a^e1 is
        folded into a^e2 letter by letter from right to left."""
        cached = self._table.get((e1, e2))
        if cached is not None:
            return cached
        word = word_of_exponent(e1)
        g = word[0] if word else 0
        h = next((t for t, a in enumerate(e2) if a), g)
        if len(word) != 1:
            result = {e2: Fraction(1)}
            for letter in reversed(word):
                step: dict[Exponent, Fraction] = {}
                for m, c in result.items():
                    add_terms(step, self._times(self._letters[letter], m).items(), c)
                result = step
        elif g <= h:
            result = {tuple(a + b for a, b in zip(e1, e2)): Fraction(1)}
        else:
            rest = e2[:h] + (e2[h] - 1,) + e2[h + 1:]
            rule = self.rules[(g, h)]
            result = {}
            for m, c in self._times(e1, rest).items():
                add_terms(result, self._times(self._letters[h], m).items(), rule.lam * c)
            for ef, c in rule.f.terms.items():
                add_terms(result, self._times(ef, rest).items(), c)
        self._table[(e1, e2)] = result
        return result

    def multiply(self, p: PBWPoly, q: PBWPoly) -> PBWPoly:
        """Bilinear associative product in the PBW basis.  The operands'
        exponents are not checked: they come from :meth:`monomial` or from an
        entry that ran :meth:`check_exponents`."""
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in p.terms.items():
            for e2, c2 in q.terms.items():
                add_terms(out, self._times(e1, e2).items(), c1 * c2)
        return PBWPoly._raw(out)


def verify_solvable(alg: SolvableAlgebra) -> Verdict:
    """Check lambda_ji != 0 and LM(f_ji) < a_i a_j for every rule."""
    problems = []
    order = alg.order
    for (j, i), rule in sorted(alg.rules.items()):
        pair = [0] * alg.ngens
        pair[i] += 1
        pair[j] += 1
        swap = tuple(pair)
        if rule.lam == 0:
            problems.append(
                f"rule {alg.names[j]}*{alg.names[i]}: unit coefficient is 0")
        if not rule.f.is_zero():
            lm, _ = leading(rule.f, order)
            if order.compare(lm, swap) >= 0:
                problems.append(
                    f"rule {alg.names[j]}*{alg.names[i]}: lower part leads with "
                    f"{lm}, not below {swap}")
    return Verdict(not problems, violations=tuple(problems))


def verify_ordering_axioms(alg: SolvableAlgebra, bound: int,
                           order=None) -> Verdict:
    """Exhaustively certify the monomial-ordering axioms on bounded monomials.

    Checks, over all PBW monomials of weighted degree <= bound and all
    bounded products formed with the algebra's multiplication:

    1. the comparison is a (finitely certified) total order;
    2. a monomial never exceeds a nonunit product it divides into, i.e.
       whenever gamma = LM(a^alpha a^beta a^eta) != 1 and beta != gamma,
       beta precedes gamma;
    3. taking leading monomials of products is strictly monotone in each
       factor, skipping the degenerate zero/unit branches (unreachable here).

    Returns the first violation found.
    """
    if bound < 2:
        raise InputError("bound must be at least 2")
    if order is None:
        order = alg.order
    monos = exponents_up_to(alg.weights, bound)
    unit = alg.unit_exponent()
    wdeg = {m: sum(w * a for w, a in zip(alg.weights, m)) for m in monos}

    keys = {}
    for m in monos:
        k = order.key(m)
        if k in keys:
            return Verdict(False, violations=(
                f"order ties distinct monomials {keys[k]} and {m}",))
        keys[k] = m

    monomial = {m: alg.monomial(m) for m in monos}  # checked once, not per product
    lms: dict[tuple[Exponent, Exponent, Exponent], Optional[Exponent]] = {}

    def lm_of_product(x: Exponent, y: Exponent, z: Exponent) -> Optional[Exponent]:
        """LM(a^x a^y a^z) under ``order``, None for a zero product; each
        triple is multiplied once per call, since ``order`` moves the LM."""
        if (x, y, z) not in lms:
            prod = alg.multiply(alg.multiply(monomial[x], monomial[y]), monomial[z])
            lms[x, y, z] = None if prod.is_zero() else max(prod.terms, key=order.key)
        return lms[x, y, z]

    for alpha in monos:
        for beta in monos:
            if wdeg[alpha] + wdeg[beta] > bound:
                continue
            for eta in monos:
                if wdeg[alpha] + wdeg[beta] + wdeg[eta] > bound:
                    continue
                gamma = lm_of_product(alpha, beta, eta)
                if gamma is None or gamma == unit or beta == gamma:
                    continue
                if order.compare(beta, gamma) >= 0:
                    return Verdict(False, violations=(
                        f"axiom 2: beta={beta} does not precede "
                        f"gamma=LM({alpha}*{beta}*{eta})={gamma}",))

    for a_pos, alpha in enumerate(monos):
        for beta in monos[a_pos + 1:]:
            if order.compare(alpha, beta) >= 0:
                alpha2, beta2 = beta, alpha
            else:
                alpha2, beta2 = alpha, beta
            top = max(wdeg[alpha2], wdeg[beta2])
            for gamma in monos:
                if wdeg[gamma] + top > bound:
                    continue
                for eta in monos:
                    if wdeg[gamma] + top + wdeg[eta] > bound:
                        continue
                    left = lm_of_product(gamma, alpha2, eta)
                    right = lm_of_product(gamma, beta2, eta)
                    if left is None or right is None or right == unit:
                        continue
                    if order.compare(left, right) >= 0:
                        return Verdict(False, violations=(
                            f"axiom 3: alpha={alpha2} < beta={beta2} but "
                            f"LM({gamma}*{alpha2}*{eta})={left} does not precede "
                            f"LM({gamma}*{beta2}*{eta})={right}",))
    return Verdict(True)


def _divides(d: Exponent, e: Exponent) -> bool:
    return all(a <= b for a, b in zip(d, e))


def _monic_multiple(alg: SolvableAlgebra, g: PBWPoly, lm: Exponent,
                    target: Exponent) -> PBWPoly:
    """a^(target - lm) * g, with lm = LM(g), divided by its coefficient at target."""
    sigma = tuple(a - b for a, b in zip(target, lm))
    h = alg.multiply(PBWPoly._raw({sigma: Fraction(1)}), g)
    rho = h.terms[target]
    return h if rho == 1 else PBWPoly._raw({e: c / rho for e, c in h.terms.items()})


def nf_left(alg: SolvableAlgebra, p: PBWPoly, basis: Sequence[PBWPoly]) -> PBWPoly:
    """Left normal form: no term of the remainder is left-divisible by any
    basis leading monomial.  ``p`` lies in the left ideal iff the result is 0."""
    alg.check_exponents([p, *basis])
    order = alg.order
    lms = [leading(b, order)[0] for b in basis]

    def rewrite(exp: Exponent):
        hit = next((t for t, lm in enumerate(lms) if _divides(lm, exp)), None)
        return None if hit is None else _monic_multiple(alg, basis[hit], lms[hit], exp).terms

    return PBWPoly._raw(rewrite_terms(p.terms, order.key, rewrite))


def _left_spoly(alg: SolvableAlgebra, g1: PBWPoly, g2: PBWPoly) -> PBWPoly:
    (lm1, _), (lm2, _) = leading(g1, alg.order), leading(g2, alg.order)
    lcm = tuple(max(a, b) for a, b in zip(lm1, lm2))
    return _monic_multiple(alg, g1, lm1, lcm) - _monic_multiple(alg, g2, lm2, lcm)


def interreduce_left(alg: SolvableAlgebra, polys: Sequence[PBWPoly]) -> list[PBWPoly]:
    return interreduce_with(polys, alg.order,
                            lambda p, rest: nf_left(alg, p, rest))


def left_buchberger(alg: SolvableAlgebra, gens: Iterable[PBWPoly]) -> list[PBWPoly]:
    """Finite left Groebner basis of the left ideal generated by ``gens``.

    S-polynomials are formed on componentwise least common multiples of the
    leading exponents and reduced by left division; Dickson's lemma bounds
    the chain of new leading exponents, so the loop terminates.  The output
    is inter-reduced, monic and sorted by leading monomial.
    """
    order = alg.order
    basis = [monic(g, order) for g in gens if not g.is_zero()]
    alg.check_exponents(basis)
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    for i, j in pairs:  # first in, first out: the list grows while it is walked
        rem = nf_left(alg, _left_spoly(alg, basis[i], basis[j]), basis)
        if rem.is_zero():
            continue
        basis.append(monic(rem, order))
        new = len(basis) - 1
        pairs.extend((k, new) for k in range(new))
    return interreduce_left(alg, basis)
