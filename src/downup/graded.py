"""Graded structure of a certified algebra: associated graded presentation,
central homogenization, filtration dimensions, Hilbert series and growth.

Hilbert coefficients come from the overlap-graph counter of ``freealg``
(``MonomialAlgebra``, ``hilbert``), re-exported here; the graph's cycle
structure also decides polynomial versus exponential growth and, for
polynomial growth, the Gelfand-Kirillov dimension of the monomial algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .errors import CertificationError, HypothesisError, InputError
from .freealg import (FreePoly, GroebnerResult, RelationSet, WeightedOrder,
                      is_groebner, leading_homogeneous, word_degree, Word)
from .freealg import (HilbertData, MonomialAlgebra, UfnGraph,  # noqa: F401 (re-exported)
                      build_ufn_graph, hilbert)
from .gdu import (GDUAlgebra, RowCheck, X1, X2, X3, pbw_degree_counts,
                  require_solvable, solvable_from_relations)
from .solvable import SolvableAlgebra, verify_solvable

T = 3
HOMOG_GEN_NAMES = ("X1", "X2", "X3", "T")
HOMOG_PRECEDENCE = (T, X2, X1, X3)  # T < X2 < X1 < X3
HOMOG_LEADING_WORDS = frozenset({
    (X3, X1), (X1, X2), (X3, X2), (X1, T), (X2, T), (X3, T)})


EXPONENTIAL = "exponential"


def ufn_growth(mono: MonomialAlgebra) -> Union[int, str]:
    """Growth of the monomial algebra read off the overlap graph.

    Exponential iff two distinct cycles share a vertex (a strongly connected
    block with more internal edges than vertices); otherwise the growth is
    polynomial and the returned integer -- the maximum number of cycle blocks
    met along a directed path -- equals the Gelfand-Kirillov dimension.
    """
    graph = build_ufn_graph(mono)
    verts = graph.vertices
    succ: dict[Word, set[Word]] = {v: set() for v in verts}
    for u, v, _ in graph.edges:
        succ[u].add(v)

    reach: dict[Word, set[Word]] = {}
    for v in verts:
        seen: set[Word] = set()
        stack = [v]
        while stack:
            cur = stack.pop()
            for nxt in succ[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        reach[v] = seen

    assigned: dict[Word, int] = {}
    components: list[list[Word]] = []
    for v in verts:
        if v in assigned:
            continue
        comp = [u for u in verts if u not in assigned
                and (u == v or (u in reach[v] and v in reach[u]))]
        idx = len(components)
        for u in comp:
            assigned[u] = idx
        components.append(comp)

    weights = []
    for idx, comp in enumerate(components):
        members = set(comp)
        internal = sum(1 for u, v, _ in graph.edges
                       if u in members and v in members)
        if internal > len(comp):
            return EXPONENTIAL
        weights.append(1 if internal == len(comp) else 0)

    dag: dict[int, set[int]] = {i: set() for i in range(len(components))}
    for u, v, _ in graph.edges:
        cu, cv = assigned[u], assigned[v]
        if cu != cv:
            dag[cu].add(cv)

    best: dict[int, int] = {}

    def longest(i: int) -> int:
        if i not in best:
            best[i] = weights[i] + max((longest(j) for j in dag[i]), default=0)
        return best[i]

    return max((longest(i) for i in range(len(components))), default=0)


@dataclass(frozen=True)
class AssocGraded:
    relations: RelationSet
    certificate: GroebnerResult
    dim_rows: tuple[tuple[int, int, int], ...]  # (degree, graded dim, filtration step)
    dims_ok: bool


def assoc_graded(alg: GDUAlgebra, check_degree: int = 10) -> AssocGraded:
    """Presentation of the associated graded algebra by leading homogeneous
    parts, certified as a homogeneous Groebner basis, with the per-degree
    dimension ladder against the PBW filtration."""
    if not alg.supports_graded():
        raise HypothesisError("graded structure requires deg f >= 1")
    lh = RelationSet([leading_homogeneous(g, alg.order.weights)
                      for g in alg.relations], alg.order)
    certificate = is_groebner(lh, alg.order)
    if not certificate.ok:
        raise CertificationError(
            "leading homogeneous parts failed the Groebner check",
            certificate.witness)
    mono = MonomialAlgebra(alg.gen_names, alg.order.weights, lh.leading_words)
    graded_dims = hilbert(mono, check_degree)
    steps = pbw_degree_counts(alg.x2_weight, check_degree)
    rows = tuple((q, graded_dims[q], steps[q]) for q in range(check_degree + 1))
    return AssocGraded(lh, certificate, rows, all(a == b for _, a, b in rows))


def homogenize_poly(poly: FreePoly, weights: Sequence[int],
                    t_index: Optional[int] = None) -> FreePoly:
    """Left-pad each homogeneous component with powers of the degree-1
    central variable so the result is homogeneous of the top degree."""
    if poly.is_zero():
        raise InputError("cannot homogenize the zero polynomial")
    if t_index is None:
        t_index = len(weights)
    top = poly.degree(weights)
    return FreePoly({(t_index,) * (top - word_degree(w, weights)) + w: c
                     for w, c in poly.terms.items()})


class HomogenizedAlgebra:
    """Central homogenization of a certified algebra, itself certified.

    Generators (X1, X2, X3, T) with T of weight 1 and order
    T < X2 < X1 < X3; relations are the homogenized defining relations plus
    the three commutators making T central.
    """

    def __init__(self, base: GDUAlgebra, order: WeightedOrder,
                 relations: RelationSet, certificate: GroebnerResult,
                 notes: tuple[str, ...]):
        self.base = base
        self.gen_names = HOMOG_GEN_NAMES
        self.order = order
        self.relations = relations
        self.certificate = certificate
        self.notes = notes

    @property
    def leading_words(self) -> tuple[Word, ...]:
        return self.relations.leading_words

    def dehomogenize(self, poly: FreePoly) -> FreePoly:
        """Send T to 1, back into the three-generator free algebra."""
        out = FreePoly.zero()
        for word, coeff in poly.terms.items():
            out = out + FreePoly({tuple(g for g in word if g != T): coeff})
        return out

    def monomial_algebra(self) -> MonomialAlgebra:
        return MonomialAlgebra(self.gen_names, self.order.weights,
                               self.relations.leading_words)


def homogenize_algebra(alg: GDUAlgebra) -> HomogenizedAlgebra:
    """Homogenize the defining relations with a central T and certify."""
    if not alg.supports_graded():
        raise HypothesisError("homogenization requires deg f >= 1")
    nw = alg.x2_weight
    order = WeightedOrder((1, nw, nw, 1), HOMOG_PRECEDENCE)
    hrels = [homogenize_poly(g, alg.order.weights, T) for g in alg.relations]
    hrels += [FreePoly({(i, T): 1, (T, i): -1}) for i in (X1, X2, X3)]
    relations = RelationSet(hrels, order)
    certificate = is_groebner(relations, order)
    if not certificate.ok:
        raise CertificationError(
            "homogenized relations failed the Groebner check",
            certificate.witness)
    if set(relations.leading_words) != set(HOMOG_LEADING_WORDS):
        raise CertificationError(
            "unexpected leading-word set after homogenization",
            relations.leading_words)
    notes = tuple(alg.notes)
    if alg.params.gamma != 0:
        notes += (
            "homogenization note: the relation with leading word X1*X2 "
            "homogenizes with lower term gamma*T*X2; a variant ending in "
            "gamma*T*X3 is not the homogenization of that relation and is "
            "not used",)
    return HomogenizedAlgebra(alg, order, relations, certificate, notes)


def rees_dims(alg: GDUAlgebra, homog: HomogenizedAlgebra,
              max_degree: int = 10) -> RowCheck:
    """Compare per-degree dimensions of the homogenized algebra against the
    cumulative PBW filtration of the base algebra (the computable shadow of
    the Rees-algebra identification)."""
    if max_degree < 0:
        raise InputError("degree must be >= 0")
    homog_dims = hilbert(homog.monomial_algebra(), max_degree)
    step = pbw_degree_counts(alg.x2_weight, max_degree)
    rows = []
    total = 0
    for q in range(max_degree + 1):
        total += step[q]
        rows.append((q, homog_dims[q], total))
    return RowCheck(all(a == b for _, a, b in rows), tuple(rows))


def quadratic_check(rels: RelationSet, weights: Sequence[int]) -> bool:
    """True iff every relation is homogeneous of weighted degree exactly 2."""
    for p in rels:
        degs = {word_degree(w, weights) for w in p.terms}
        if degs != {2}:
            return False
    return True


def solvable_homogenized(homog: HomogenizedAlgebra) -> SolvableAlgebra:
    """Solvable structure of the homogenized algebra on (T, a_2, a_1, a_3).

    T is central; the order weights are (1, n, 1, n) with n = deg f, under
    which every lower part stays below its swap monomial.
    """
    base = homog.base
    require_solvable(base.params)
    n = base.deg_f
    sol = solvable_from_relations(
        homog.relations, homog.order, sequence=(T, X2, X1, X3),
        names=("T", "X2", "X1", "X3"), weights=(1, n, 1, n))
    check = verify_solvable(sol)
    if not check.ok:
        raise CertificationError(
            "homogenized commutation table is not solvable", check.violations)
    return sol


def series_coefficients(weights: Sequence[int], max_degree: int) -> list[int]:
    """Taylor coefficients of the product of 1/(1 - t^w) over the weights."""
    coeffs = [1] + [0] * max_degree
    for w in weights:
        for q in range(w, max_degree + 1):
            coeffs[q] += coeffs[q - w]
    return coeffs


def series_form(weights: Sequence[int]) -> str:
    """Closed-form string for the product of 1/(1 - t^w) over the weights."""
    counts: dict[int, int] = {}
    for w in weights:
        counts[w] = counts.get(w, 0) + 1
    factors = []
    for w in sorted(counts):
        base = "(1-t)" if w == 1 else f"(1-t^{w})"
        k = counts[w]
        factors.append(base if k == 1 else f"{base}^{k}")
    joined = "*".join(factors)
    if len(factors) > 1:
        return f"1/({joined})"
    return f"1/{joined}"
