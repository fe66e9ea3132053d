"""Graded structure of a certified algebra: associated graded presentation,
central homogenization, filtration dimensions, Hilbert series and growth.

Every per-degree dimension check is ``Presentation.dims`` of ``freealg``,
whose overlap-graph counter (``MonomialAlgebra``, ``hilbert``) and expected
counts (``series_coefficients``) are re-exported here; the graph's cycle
structure also decides polynomial versus exponential growth and, for
polynomial growth, the Gelfand-Kirillov dimension of the monomial algebra.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Union

from .errors import CertificationError, HypothesisError, InputError
from .freealg import (EMPTY, FreePoly, Presentation, RelationSet, Verdict, WeightedOrder,
                      add_terms, leading_homogeneous, word_degree, Word)
from .freealg import (HilbertData, MonomialAlgebra, UfnGraph,  # noqa: F401 (re-exported)
                      build_ufn_graph, hilbert, series_coefficients)
from .gdu import (GDUAlgebra, X1, X2, X3, require_solvable,
                  solvable_from_relations)
from .solvable import SolvableAlgebra

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
    Tarjan's algorithm, entered once at the root, closes each block after
    every block it reaches, so the longest chain below a block is known when
    the block closes.  The words shorter than the window are singleton blocks
    with no internal edge, so they add no cycle block to any chain.
    """
    graph = build_ufn_graph(mono)
    succ: dict[Word, list[Word]] = {v: [] for v in graph.vertices}
    for u, v, _ in graph.edges:
        succ[u].append(v)
    index: dict[Word, int] = {}
    low: dict[Word, int] = {}
    block: dict[Word, int] = {}
    excess: list[int] = []  # internal edges minus vertices, per block
    depth: list[int] = []   # most cycle blocks on a path starting in the block
    stack: list[Word] = []
    path: list[tuple[Word, Iterator[Word]]] = []

    def enter(v: Word) -> None:
        index[v] = low[v] = len(index)
        stack.append(v)
        path.append((v, iter(succ[v])))

    enter(EMPTY)  # the root reaches every vertex
    while path:
        v, todo = path[-1]
        w = next(todo, None)
        if w is not None:
            if w not in index:
                enter(w)
            elif w not in block:
                low[v] = min(low[v], index[w])
            continue
        path.pop()
        if path:
            low[path[-1][0]] = min(low[path[-1][0]], low[v])
        if low[v] < index[v]:
            continue
        c, pos = len(depth), stack.index(v)
        members = stack[pos:]
        del stack[pos:]
        block.update((u, c) for u in members)
        targets = [block[t] for u in members for t in succ[u]]
        excess.append(targets.count(c) - len(members))
        depth.append((1 if excess[c] == 0 else 0)
                     + max((depth[d] for d in targets if d != c), default=0))
    return EXPONENTIAL if any(e > 0 for e in excess) else max(depth)


def assoc_graded(alg: GDUAlgebra) -> Presentation:
    """The associated graded algebra, presented by the leading homogeneous
    parts of the relations and certified as a homogeneous Groebner basis."""
    if alg.deg_f < 1:
        raise HypothesisError("graded structure requires deg f >= 1")
    lh = [leading_homogeneous(g, alg.order.weights) for g in alg.relations]
    return Presentation(alg.gen_names, alg.order, lh, "leading homogeneous parts")


def homogenize_poly(poly: FreePoly, weights: Sequence[int]) -> FreePoly:
    """Left-pad each homogeneous component with powers of the degree-1
    central variable T so the result is homogeneous of the top degree."""
    if poly.is_zero():
        raise InputError("cannot homogenize the zero polynomial")
    top = poly.degree(weights)
    return FreePoly({(T,) * (top - word_degree(w, weights)) + w: c
                     for w, c in poly.terms.items()})


class HomogenizedAlgebra(Presentation):
    """Central homogenization of a certified algebra, itself certified.

    Generators (X1, X2, X3, T) with T of weight 1 and order
    T < X2 < X1 < X3; relations are the homogenized defining relations plus
    the three commutators making T central.
    """

    def __init__(self, base: GDUAlgebra, order: WeightedOrder,
                 polys: Sequence[FreePoly], notes: tuple[str, ...]):
        super().__init__(HOMOG_GEN_NAMES, order, polys, "homogenized relations", notes)
        self.base = base
        if set(self.leading_words) != HOMOG_LEADING_WORDS:
            raise CertificationError(
                "unexpected leading-word set after homogenization", self.leading_words)

    def normal_form(self, poly: FreePoly) -> FreePoly:
        """The normal form read off the base algebra: the degree-d component
        of ``poly``, with T set to 1, is reduced there, and each word w of the
        result is padded to T^(d - deg w) w.  This is NF_T(poly): the relations
        are a certified Groebner basis, so NF_T(p) is unique and homogeneous,
        and by the leading-word set its words are T^a w with w base-normal.
        T = 1 is injective on words of one degree and maps the homogenized
        ideal into the base ideal, so NF_T(p)|_{T=1} is the base NF(p|_{T=1}).
        """
        weights, parts = self.order.weights, {}
        for word, c in poly.terms.items():
            parts.setdefault(word_degree(word, weights), {})[word] = c
        reduced = {d: self.base.normal_form(self.dehomogenize(FreePoly._raw(terms)))
                   for d, terms in parts.items()}
        return FreePoly._raw({(T,) * (d - word_degree(w, weights)) + w: c
                              for d, nf in reduced.items() for w, c in nf.terms.items()})

    def dehomogenize(self, poly: FreePoly) -> FreePoly:
        """Send T to 1, back into the three-generator free algebra."""
        dropped = ((tuple(g for g in word if g != T), c) for word, c in poly.terms.items())
        return FreePoly._raw(add_terms({}, dropped))


def homogenize_algebra(alg: GDUAlgebra) -> HomogenizedAlgebra:
    """Homogenize the defining relations with a central T and certify."""
    if alg.deg_f < 1:
        raise HypothesisError("homogenization requires deg f >= 1")
    order = WeightedOrder(alg.order.weights + (1,), HOMOG_PRECEDENCE)
    hrels = [homogenize_poly(g, alg.order.weights) for g in alg.relations]
    hrels += [FreePoly({(i, T): 1, (T, i): -1}) for i in (X1, X2, X3)]
    notes = alg.notes
    if alg.params.gamma != 0:
        notes += (
            "homogenization note: the relation with leading word X1*X2 "
            "homogenizes with lower term gamma*T*X2; a variant ending in "
            "gamma*T*X3 is not the homogenization of that relation and is "
            "not used",)
    return HomogenizedAlgebra(alg, order, hrels, notes)


def rees_dims(alg: GDUAlgebra, homog: HomogenizedAlgebra,
              max_degree: int) -> Verdict:
    """Compare per-degree dimensions of the homogenized algebra against the
    cumulative PBW filtration of the base algebra (the computable shadow of
    the Rees-algebra identification); InputError unless ``homog`` is the
    homogenization of ``alg``."""
    if homog.base is not alg:
        raise InputError("rees_dims needs the homogenization of the same algebra")
    # T's weight 1 adds a factor 1/(1 - t): the running totals of the PBW steps
    return homog.dims(max_degree)


def quadratic_check(rels: RelationSet, weights: Sequence[int]) -> bool:
    """True iff every relation is homogeneous of weighted degree exactly 2."""
    return all(p.is_homogeneous(weights) and p.degree(weights) == 2 for p in rels)


def solvable_homogenized(homog: HomogenizedAlgebra) -> SolvableAlgebra:
    """Solvable structure of the homogenized algebra on (T, a_2, a_1, a_3).

    T is central; the order weights are (1, n, 1, n) with n = deg f, under
    which every lower part stays below its swap monomial.
    """
    base = homog.base
    require_solvable(base.params)
    n = base.deg_f
    return solvable_from_relations(homog.relations, homog.gen_names, weights=(1, n, 1, n))


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
