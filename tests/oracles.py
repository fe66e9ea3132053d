"""Independent brute-force oracles the tests freeze expected values against.

Nothing here shares code paths with the reducers under test: reduction is
re-done by exhaustive position exploration, and ideal membership / Groebner
detection is re-done with dense linear algebra over the rationals on a
degree-bounded slice of the ideal.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from downup.errors import InputError
from downup.freealg import (FreePoly, RelationSet, Verdict, WeightedOrder,
                            build_ufn_graph, find_subword, rewrite_terms,
                            word_degree)
from downup.graded import EXPONENTIAL
from downup.solvable import (Exponent, PBWPoly, SolvableAlgebra,
                             exponents_up_to, leading_exp, word_of_exponent)


def canonical(poly: FreePoly) -> tuple:
    return tuple(sorted(poly.terms.items()))


def exhaustive_normal_forms(poly: FreePoly, rels: RelationSet,
                            order: WeightedOrder) -> set[tuple]:
    """All irreducible results reachable by single-step rewrites at every
    position of every term with every relation.  A singleton set certifies
    confluence on this input."""
    results: set[tuple] = set()
    seen: set[tuple] = set()

    def rewrites(p: FreePoly):
        found = False
        for word, coeff in sorted(p.terms.items()):
            for lm, rel in zip(rels.leading_words, rels.polys):
                pos = find_subword(word, lm)
                while pos >= 0:
                    found = True
                    tail = rel - FreePoly.word(lm)
                    replacement = (FreePoly.word(word[:pos]) * (-tail)
                                   * FreePoly.word(word[pos + len(lm):]))
                    yield p - FreePoly.word(word, coeff) + coeff * replacement
                    pos = find_subword(word, lm, pos + 1)
        if not found:
            results.add(canonical(p))

    stack = [poly]
    while stack:
        p = stack.pop()
        key = canonical(p)
        if key in seen:
            continue
        seen.add(key)
        stack.extend(rewrites(p))
    return results


def reduce_rightmost(poly: FreePoly, rels: RelationSet,
                     order: WeightedOrder) -> FreePoly:
    """Alternative reduction strategy: smallest reducible term first, and
    within it the rightmost occurrence of the smallest applicable leading
    word.  Must agree with normal_form whenever the set is a Groebner basis."""
    work = dict(poly.terms)
    done: dict[tuple, Fraction] = {}
    while work:
        reducible = None
        for word in sorted(work, key=order.key):
            sites = []
            for lm, rel in zip(rels.leading_words, rels.polys):
                pos = -1
                nxt = find_subword(word, lm)
                while nxt >= 0:
                    pos = nxt
                    nxt = find_subword(word, lm, nxt + 1)
                if pos >= 0:
                    sites.append((order.key(lm), -pos, lm, rel))
            if sites:
                sites.sort()
                _, negpos, lm, rel = sites[0]
                reducible = (word, -negpos, lm, rel)
                break
        if reducible is None:
            for word, coeff in work.items():
                done[word] = done.get(word, 0) + coeff
            break
        word, pos, lm, rel = reducible
        coeff = work.pop(word)
        tail = rel - FreePoly.word(lm)
        update = (FreePoly.word(word[:pos]) * (-coeff * tail)
                  * FreePoly.word(word[pos + len(lm):]))
        for w, c in update.terms.items():
            s = work.get(w, 0) + c
            if s:
                work[w] = s
            else:
                work.pop(w, None)
    return FreePoly({w: c for w, c in done.items() if c})


def normal_form_by_compare(poly: FreePoly, rels: RelationSet,
                           order: WeightedOrder) -> FreePoly:
    """normal_form's strategy with its reduction site chosen by pairwise
    ``order.compare`` over every applicable leading word, not by the sorted
    position of the relations: rewrite the largest term at the leftmost
    occurrence of the order-largest leading word, taking the first relation
    among those that share it.  On a set that is not a Groebner basis the
    result depends on the strategy, so it pins normal_form's choice."""
    def rewrite(word):
        best = None
        for lm, rel in zip(rels.leading_words, rels.polys):
            pos = find_subword(word, lm)
            if pos < 0:
                continue
            if best is None:
                best = (lm, pos, rel)
            else:
                cmp = order.compare(lm, best[0])
                if cmp > 0 or (cmp == 0 and pos < best[1]):
                    best = (lm, pos, rel)
        if best is None:
            return None
        lm, pos, rel = best  # rel is monic, so the multiple has coefficient 1 at word
        return {word[:pos] + t + word[pos + len(lm):]: c for t, c in rel.terms.items()}

    return FreePoly(rewrite_terms(poly.terms, order.key, rewrite))


def words_up_to(weights, max_degree):
    """All words of weighted degree <= max_degree (not only normal ones)."""
    ngens = len(weights)
    out = [()]
    frontier = [()]
    while frontier:
        nxt = []
        for word in frontier:
            base = word_degree(word, weights)
            for g in range(ngens):
                if base + weights[g] <= max_degree:
                    new = word + (g,)
                    nxt.append(new)
        out.extend(nxt)
        frontier = nxt
    return out


class Echelon:
    """Sparse row echelon over the rationals keyed by arbitrary monomials."""

    def __init__(self, sort_key):
        self.sort_key = sort_key
        self.rows: dict = {}

    def _reduce(self, vec: dict) -> dict:
        vec = {k: v for k, v in vec.items() if v}
        while vec:
            pivot = max(vec, key=self.sort_key)
            row = self.rows.get(pivot)
            if row is None:
                return vec
            coeff = vec[pivot]
            for k, v in row.items():
                s = vec.get(k, 0) - coeff * v
                if s:
                    vec[k] = s
                else:
                    vec.pop(k, None)
        return vec

    def insert(self, vec: dict) -> bool:
        red = self._reduce(dict(vec))
        if not red:
            return False
        pivot = max(red, key=self.sort_key)
        lead = red[pivot]
        self.rows[pivot] = {k: v / lead for k, v in red.items()}
        return True

    def contains(self, vec: dict) -> bool:
        return not self._reduce(dict(vec))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def pivots(self):
        return set(self.rows)


def two_sided_span(polys, order: WeightedOrder, max_degree: int) -> Echelon:
    """Echelon basis of span{p * g * q : deg(p g q) <= max_degree}."""
    span = Echelon(order.key)
    words = [(w, word_degree(w, order.weights))
             for w in words_up_to(order.weights, max_degree)]
    for g in polys:
        gdeg = g.degree(order.weights)
        for p, pdeg in words:
            if pdeg + gdeg > max_degree:
                continue
            for q, qdeg in words:
                if pdeg + gdeg + qdeg > max_degree:
                    continue
                span.insert((FreePoly.word(p) * g * FreePoly.word(q)).terms)
    return span


def reducible_word_count(leading_words, weights, max_degree: int) -> int:
    return sum(1 for w in words_up_to(weights, max_degree)
               if any(find_subword(w, lm) >= 0 for lm in leading_words))


def groebner_by_dimension(rels: RelationSet, order: WeightedOrder,
                          max_degree: int) -> bool:
    """Degree-bounded Groebner detection by pure linear algebra.

    The span of {p*g*q} always has every reducible word among its pivots;
    the set is a Groebner basis up to the bound iff no extra pivot (a normal
    word) shows up, i.e. iff the span dimension equals the reducible count.
    """
    span = two_sided_span(rels.polys, order, max_degree)
    expected = reducible_word_count(rels.leading_words, order.weights, max_degree)
    assert span.dim >= expected
    return span.dim == expected


def ideal_member(span: Echelon, poly: FreePoly) -> bool:
    return span.contains(poly.terms)


def left_span(alg: SolvableAlgebra, gens, max_degree: int) -> Echelon:
    """Echelon basis of span{m . g : PBW monomials m, deg(m g) <= max_degree}."""
    span = Echelon(alg.order.key)
    for g in gens:
        gdeg = alg.order.degree(leading_exp(g, alg.order)[0])
        for m in exponents_up_to(alg.weights, max_degree - gdeg):
            span.insert(alg.multiply(alg.monomial(m), g).terms)
    return span


def normalize_word(alg: SolvableAlgebra, word: tuple[int, ...],
                   cache: dict) -> PBWPoly:
    """Rewrite an arbitrary generator word into the PBW basis one adjacent
    swap at a time, memoized on whole words in ``cache``: the reference for
    the product table behind ``SolvableAlgebra.multiply``."""
    cached = cache.get(word)
    if cached is not None:
        return cached
    descent = next((t for t in range(len(word) - 1) if word[t] > word[t + 1]), None)
    if descent is None:
        exp = [0] * alg.ngens
        for g in word:
            exp[g] += 1
        result = PBWPoly({tuple(exp): 1})
    else:
        j, i = word[descent], word[descent + 1]
        prefix, suffix = word[:descent], word[descent + 2:]
        rule = alg.rules[(j, i)]
        result = rule.lam * normalize_word(alg, prefix + (i, j) + suffix, cache)
        for exp, c in rule.f.terms.items():
            result = result + c * normalize_word(
                alg, prefix + word_of_exponent(exp) + suffix, cache)
    cache[word] = result
    return result


def multiply_by_words(alg: SolvableAlgebra, p: PBWPoly, q: PBWPoly,
                      cache: dict) -> PBWPoly:
    """The PBW product term by term through :func:`normalize_word`."""
    result = PBWPoly.zero()
    for e1, c1 in p.terms.items():
        w1 = word_of_exponent(e1)
        for e2, c2 in q.terms.items():
            result = result + (c1 * c2) * normalize_word(
                alg, w1 + word_of_exponent(e2), cache)
    return result


def verify_ordering_axioms(alg: SolvableAlgebra, bound: int = 4,
                           order=None) -> Verdict:
    """Exhaustively certify the monomial-ordering axioms on bounded monomials.

    The reference for ``solvable.verify_ordering_axioms``: every bounded
    product is formed afresh, as a left fold of ``multiply`` from the unit,
    each time an axiom needs it.

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

    def lm_of_product(*exps: Exponent) -> Optional[Exponent]:
        prod = alg.one()
        for e in exps:
            prod = alg.multiply(prod, monomial[e])
        if prod.is_zero():
            return None
        return max(prod.terms, key=order.key)

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


def brute_multiply_check(alg: SolvableAlgebra, exps) -> bool:
    """Associativity probe on a triple of monomials, fully parenthesized both ways."""
    a, b, c = (alg.monomial(e) for e in exps)
    left = alg.multiply(alg.multiply(a, b), c)
    right = alg.multiply(a, alg.multiply(b, c))
    return left == right


def pbw_triples(x2_weight: int, degree: int):
    """Exponent triples (i, j, l) with x2_weight*(i+l) + j == degree."""
    out = []
    for i in range(degree // x2_weight + 1):
        for l in range(degree // x2_weight - i + 1):
            j = degree - x2_weight * (i + l)
            out.append((i, j, l))
    return out


def enumerate_normal_words(leading_words, weights, max_degree):
    """Direct DFS enumeration of obstruction-free words, degree-capped."""
    ngens = len(weights)
    found = []

    def rec(word):
        found.append(word)
        for g in range(ngens):
            new = word + (g,)
            if word_degree(new, weights) > max_degree:
                continue
            if any(find_subword(new, lm) >= 0 for lm in leading_words):
                continue
            rec(new)

    rec(())
    return found


def ufn_growth_reference(mono) -> int | str:
    """Growth read off the overlap graph with strongly connected blocks found
    by all-pairs reachability: the quadratic reference for ``ufn_growth``."""
    graph = build_ufn_graph(mono)
    verts = graph.vertices
    succ = {v: set() for v in verts}
    for u, v, _ in graph.edges:
        succ[u].add(v)

    reach = {}
    for v in verts:
        seen = set()
        stack = [v]
        while stack:
            cur = stack.pop()
            for nxt in succ[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        reach[v] = seen

    assigned = {}
    components = []
    for v in verts:
        if v in assigned:
            continue
        comp = [u for u in verts if u not in assigned
                and (u == v or (u in reach[v] and v in reach[u]))]
        for u in comp:
            assigned[u] = len(components)
        components.append(comp)

    weights = []
    for comp in components:
        members = set(comp)
        internal = sum(1 for u, v, _ in graph.edges
                       if u in members and v in members)
        if internal > len(comp):
            return EXPONENTIAL
        weights.append(1 if internal == len(comp) else 0)

    dag = {i: set() for i in range(len(components))}
    for u, v, _ in graph.edges:
        if assigned[u] != assigned[v]:
            dag[assigned[u]].add(assigned[v])

    best = {}

    def longest(i):
        if i not in best:
            best[i] = weights[i] + max((longest(j) for j in dag[i]), default=0)
        return best[i]

    return max((longest(i) for i in range(len(components))), default=0)
