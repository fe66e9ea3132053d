"""Generalized down-up algebras from their defining relations.

The family is presented on free generators X1, X2, X3 by three relations

    X3*X1 - lambda*X1*X3 + gamma*X3
    X1*X2 - lambda*X2*X1 + gamma*X2
    X3*X2 - omega*X2*X3  + f(X1)

under the graded lexicographic order X2 < X1 < X3, with one of two weight
schemes.  Construction certifies that the relations form a Groebner basis
(a failed certificate is an internal error, not user error), and the module
derives the PBW count check and the solvable-algebra structure from the
certified data.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import CertificationError, HypothesisError, InputError
from .freealg import (FreePoly, Presentation, RelationSet, Verdict, WeightedOrder,
                      scalar, ScalarLike, Word)
from .solvable import (CommutationRule, PBWPoly, SolvableAlgebra, exponent_of_word,
                       verify_solvable, word_of_exponent)

# free-algebra generator indices
X1, X2, X3 = 0, 1, 2
GEN_NAMES = ("X1", "X2", "X3")
PRECEDENCE = (X2, X1, X3)  # X2 < X1 < X3


@dataclass(frozen=True)
class GDUParams:
    """Parameters (lambda, omega, gamma, f) of a generalized down-up algebra.

    ``f_coeffs`` lists the coefficients of f(X1) constant-first; trailing
    zeros are trimmed so the last entry is nonzero whenever deg f >= 1.
    """

    lam: Fraction
    omega: Fraction
    gamma: Fraction
    f_coeffs: tuple[Fraction, ...]

    @classmethod
    def make(cls, lam: ScalarLike, omega: ScalarLike, gamma: ScalarLike,
             f_coeffs: Sequence[ScalarLike]) -> "GDUParams":
        if not isinstance(f_coeffs, (list, tuple)) or not f_coeffs:
            raise InputError("f must be a nonempty list of coefficients, constant first")
        coeffs = [scalar(c) for c in f_coeffs]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        return cls(scalar(lam), scalar(omega), scalar(gamma), tuple(coeffs))

    @property
    def deg_f(self) -> int:
        return len(self.f_coeffs) - 1

    def f_poly(self) -> FreePoly:
        """f(X1) as a free polynomial."""
        return FreePoly({(X1,) * k: c for k, c in enumerate(self.f_coeffs)})


class WeightScheme(enum.Enum):
    """Generator weight assignment: all generators weight 1 (needs deg f <= 2),
    or X1 weight 1 with X2, X3 weight deg f (needs deg f >= 1)."""

    ALL_ONES = "all-ones"
    DEG_F = "deg-f"

    def validate(self, deg_f: int) -> None:
        if self is WeightScheme.ALL_ONES and deg_f > 2:
            raise InputError(f"all-ones weights require deg f <= 2 (got {deg_f})")
        if self is WeightScheme.DEG_F and deg_f < 1:
            raise InputError("deg-f weights require deg f >= 1")

    def weights(self, deg_f: int) -> tuple[int, int, int]:
        if self is WeightScheme.ALL_ONES:
            return (1, 1, 1)
        return (1, deg_f, deg_f)


class GDUAlgebra(Presentation):
    """A certified generalized down-up algebra presentation.

    The Groebner certificate is established at construction; use
    :func:`build`, which validates the scheme, rather than calling the
    constructor directly.
    """

    def __init__(self, params: GDUParams, scheme: WeightScheme,
                 order: WeightedOrder, notes: tuple[str, ...] = ()):
        super().__init__(GEN_NAMES, order, defining_relations(params),
                         "defining relations", notes)
        self.params = params
        self.scheme = scheme

    @property
    def deg_f(self) -> int:
        return self.params.deg_f

    @property
    def x2_weight(self) -> int:
        return self.order.weights[X2]

    def __repr__(self):
        p = self.params
        return (f"GDUAlgebra(lambda={p.lam}, omega={p.omega}, gamma={p.gamma}, "
                f"f={list(p.f_coeffs)}, scheme={self.scheme.value})")


def defining_relations(params: GDUParams) -> list[FreePoly]:
    """The three defining relations, leading words X3X1, X1X2, X3X2."""
    lam, omega, gamma = params.lam, params.omega, params.gamma
    r31 = FreePoly({(X3, X1): 1, (X1, X3): -lam, (X3,): gamma})
    r12 = FreePoly({(X1, X2): 1, (X2, X1): -lam, (X2,): gamma})
    r32 = FreePoly({(X3, X2): 1, (X2, X3): -omega}) + params.f_poly()
    return [r31, r12, r32]


def build(params: GDUParams, scheme: WeightScheme,
          notes: tuple[str, ...] = ()) -> GDUAlgebra:
    """Construct and certify the algebra for the given parameters and scheme."""
    scheme.validate(params.deg_f)
    order = WeightedOrder(scheme.weights(params.deg_f), PRECEDENCE)
    return GDUAlgebra(params, scheme, order, notes)


def _rational_sqrt(value: Fraction) -> Optional[Fraction]:
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return Fraction(rn, rd)


def _preset_sl2() -> tuple[GDUParams, str]:
    return GDUParams.make(1, 1, 2, [0, -1]), "preset sl2"


def _preset_smith(f: Sequence[ScalarLike] = (0, 1)) -> tuple[GDUParams, str]:
    given = GDUParams.make(1, 1, 1, f).f_coeffs
    note = ("preset smith: relations [X1,X3]=X3, [X1,X2]=-X2, [X3,X2]=f(X1) "
            "converted to the standard form with lambda=omega=1, gamma=1 and "
            "the f coefficients negated")
    return GDUParams.make(1, 1, 1, [-c for c in given]), note


def _preset_woronowicz(zeta: ScalarLike = 2) -> tuple[GDUParams, str]:
    z = scalar(zeta)
    if z == 0:
        raise InputError("woronowicz requires zeta != 0")
    note = ("preset woronowicz: lambda=zeta^4, omega=zeta^2, gamma=-(1+zeta^2), "
            "f(X1) = -zeta*X1 (reading a, b, c as the coefficients of "
            "f = a*X1^2 + b*X1 + c)")
    return GDUParams.make(z ** 4, z ** 2, -(1 + z ** 2), [0, -z]), note


def _preset_conformal(b: ScalarLike = 1, lam: ScalarLike = 1,
                      omega: ScalarLike = 1,
                      gamma: ScalarLike = 1) -> tuple[GDUParams, str]:
    bb, ll, ww, gg = scalar(b), scalar(lam), scalar(omega), scalar(gamma)
    if ll * ww * gg * bb == 0:
        raise InputError("conformal requires lambda*omega*gamma*b != 0")
    return (GDUParams.make(ll, ww, gg, [0, 1, bb]),
            "preset conformal: f(X1) = b*X1^2 + X1")


def _preset_down_up(alpha: ScalarLike, beta: ScalarLike,
                    gamma: ScalarLike) -> tuple[GDUParams, str]:
    a, b, g = scalar(alpha), scalar(beta), scalar(gamma)
    root = _rational_sqrt(a * a + 4 * b)
    if root is None:
        raise InputError(
            "down_up over the rationals requires z^2 - alpha*z - beta to have "
            f"rational roots; alpha^2 + 4*beta = {a * a + 4 * b} is not a "
            "rational square")
    lam = (a + root) / 2
    omega = (a - root) / 2
    note = (f"preset down_up: alpha=lambda+omega, beta=-lambda*omega with "
            f"lambda={lam}, omega={omega} (lambda takes the larger root), f(X1)=X1")
    return GDUParams.make(lam, omega, g, [0, 1]), note


PRESETS = {
    "sl2": (_preset_sl2, "lambda=omega=1, gamma=2, f=-X1 (enveloping algebra of sl2)"),
    "smith": (_preset_smith, "args: f (coefficient list, constant first); "
                             "Smith's family, converted to the standard form"),
    "woronowicz": (_preset_woronowicz, "args: zeta (nonzero rational)"),
    "conformal": (_preset_conformal, "args: b (nonzero), lam, omega, gamma "
                                     "(nonzero, default 1); f = b*X1^2 + X1"),
    "down_up": (_preset_down_up, "args: alpha, beta, gamma; requires rational "
                                 "roots of z^2 - alpha*z - beta"),
}


def preset(name: str, /, scheme: Optional[str] = None, **kwargs) -> GDUAlgebra:
    """Build a named member of the family; see PRESETS for the argument docs.
    The scheme defaults to all-ones when deg f <= 2 and deg-f otherwise."""
    if not isinstance(name, str) or name not in PRESETS:
        raise InputError(f"unknown preset {name!r}; known: {', '.join(sorted(PRESETS))}")
    make, _ = PRESETS[name]
    try:
        params, note = make(**kwargs)
    except TypeError as exc:
        raise InputError(f"bad arguments for preset {name!r}: {exc}")
    default = WeightScheme.ALL_ONES if params.deg_f <= 2 else WeightScheme.DEG_F
    try:
        resolved = default if scheme is None else WeightScheme(scheme)
    except ValueError:
        raise InputError(f"unknown weight scheme {scheme!r}")
    return build(params, resolved, (note,))


def check_pbw(alg: GDUAlgebra, max_degree: int) -> Verdict:
    """Compare normal-word counts against PBW exponent counts per degree."""
    return alg.dims(max_degree)


def solvable_from_relations(relations: RelationSet, gen_names: Sequence[str],
                            weights: Sequence[int]) -> SolvableAlgebra:
    """Derive a solvable-algebra commutation table from certified relations.

    The PBW generator sequence is the precedence of ``relations.order``
    (smallest first), and ``weights`` are listed in that sequence.  For each
    pair the rule of ``relations.rewrites`` with leading word a_j*a_i reads
    a_j*a_i = lam*a_i*a_j + f with f expressed in the PBW basis; tails that
    are not PBW-sorted, and tables that fail :func:`verify_solvable`, are
    rejected with CertificationError.
    """
    sequence = relations.order.precedence
    names = tuple(gen_names[g] for g in sequence)
    by_lm = dict(relations.rewrites)
    rules = []
    for pj in range(len(sequence)):
        for pi in range(pj):
            pair_word, swap = (sequence[pj], sequence[pi]), (sequence[pi], sequence[pj])
            rel = by_lm.get(pair_word)  # a_j a_i = -(the tail of rel)
            if rel is None:
                raise CertificationError(
                    f"no relation with leading word {names[pi]}-after-{names[pj]}")
            lam = -rel.coeff(swap)
            try:
                f_terms = {exponent_of_word(w, sequence): -c
                           for w, c in rel.terms.items() if w not in (pair_word, swap)}
            except InputError as exc:
                raise CertificationError(f"relation tail: {exc}") from exc
            rules.append(CommutationRule(pj, pi, lam, PBWPoly(f_terms)))
    sol = SolvableAlgebra(names, weights, rules)
    check = verify_solvable(sol)
    if not check.ok:
        raise CertificationError("derived commutation table is not solvable",
                                 check.violations)
    return sol


def require_solvable(params: GDUParams) -> None:
    """Raise HypothesisError unless lambda*omega != 0 and deg f >= 1, the
    hypotheses of the solvable structure."""
    if params.lam * params.omega == 0:
        raise HypothesisError("hypothesis lambda*omega != 0 fails")
    if params.deg_f < 1:
        raise HypothesisError("hypothesis deg f >= 1 fails")


def to_solvable(alg: GDUAlgebra) -> SolvableAlgebra:
    """The solvable polynomial algebra on the PBW basis a_2^i a_1^j a_3^l.

    Requires lambda*omega != 0 and deg f >= 1; the order weights are
    (n, 1, n) on (a_2, a_1, a_3) with n = deg f, independent of the free
    algebra's weight scheme.
    """
    require_solvable(alg.params)
    n = alg.deg_f
    return solvable_from_relations(alg.relations, alg.gen_names, weights=(n, 1, n))


def normal_word_of_exponent(exp: Sequence[int]) -> Word:
    """The normal word X2^i X1^j X3^l for a PBW exponent (i, j, l)."""
    return tuple(PRECEDENCE[p] for p in word_of_exponent(exp))


def exponent_of_normal_word(word: Word) -> tuple[int, int, int]:
    """Inverse of :func:`normal_word_of_exponent`; rejects non-normal words."""
    return exponent_of_word(word, PRECEDENCE)


def random_params(rng, deg_f: Optional[int] = None) -> GDUParams:
    """A seeded random parameter tuple with lambda, omega nonzero and the
    leading f coefficient nonzero; deg f defaults to a draw from {1, 2}."""
    def nonzero() -> Fraction:
        num = rng.choice([-3, -2, -1, 1, 2, 3])
        den = rng.choice([1, 2, 3])
        return Fraction(num, den)

    def any_rational() -> Fraction:
        return Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))

    n = rng.choice([1, 2]) if deg_f is None else deg_f
    coeffs = [any_rational() for _ in range(n)] + [nonzero()]
    return GDUParams.make(nonzero(), nonzero(), any_rational(), coeffs)
