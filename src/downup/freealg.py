"""Noncommutative polynomial arithmetic in a weighted free algebra.

Words are tuples of generator indices (the empty tuple is the identity),
polynomials are sparse maps from words to exact rational coefficients, and
all comparisons go through a weighted graded lexicographic order.  The sparse
arithmetic, the graded-order base, ``leading``, ``monic``, the
term-rewriting loop and the inter-reduction loop are shared with the PBW
layer in ``solvable``, and every check returns one ``Verdict``.  On top of
the arithmetic this module provides reduction to normal form by the rewrite
rules a ``RelationSet`` builds once, overlap (S-element) analysis, one scan
of S-element remainders behind the Groebner check and the degree-bounded
completion, ``Presentation`` (relations certified by that check), and the
count of normal words: one dynamic program over the paths of Ufnarovski's
overlap automaton, rooted at the empty word.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import CertificationError, InputError

Word = tuple[int, ...]
ScalarLike = Union[Fraction, int, str]

EMPTY: Word = ()


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def scalar(value: ScalarLike) -> Fraction:
    """Coerce an int, a Fraction or an optionally signed 'p' or 'p/q' string
    of decimal integers to an exact rational; InputError for anything else."""
    if isinstance(value, Fraction):
        return value
    if (isinstance(value, int) and not isinstance(value, bool)) or (
            isinstance(value, str) and _RATIONAL.fullmatch(value)):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):  # too many digits, or q = 0
            pass
    raise InputError(f"not an exact rational: {value!r}")


def word_degree(word: Word, weights: Sequence[int]) -> int:
    """Weighted degree of a word; the empty word has degree 0."""
    if not all(0 <= g < len(weights) for g in word):
        raise InputError(f"word {word} uses a generator unknown to the order")
    return sum(weights[g] for g in word)


def find_subword(word: Word, pattern: Word, start: int = 0) -> int:
    """Index of the first occurrence of ``pattern`` in ``word`` at or after
    ``start``, or -1.  The empty pattern matches at ``start``."""
    n, m = len(word), len(pattern)
    for i in range(start, n - m + 1):
        if word[i:i + m] == pattern:
            return i
    return -1


class GradedOrder:
    """Base of the weighted graded orders.

    Holds the positive generator weights and compares through the subclass's
    ``key``, which sorts ascending in the order with the weighted degree as
    its first component.
    """

    def __init__(self, weights: Sequence[int]):
        self.weights = tuple(weights)
        if not self.weights or any(type(w) is not int or w < 1 for w in self.weights):
            raise InputError("weights must be positive integers")

    def compare(self, u, v) -> int:
        """-1, 0 or 1 as u precedes, equals or follows v."""
        ku, kv = self.key(u), self.key(v)
        return -1 if ku < kv else (0 if ku == kv else 1)


class WeightedOrder(GradedOrder):
    """Graded lexicographic order on words.

    Compares weighted degree first; equal degrees are broken by reading the
    words left to right through a precedence permutation (listed smallest
    generator first).  With positive weights two distinct words of equal
    degree always disagree at some position, so the comparison is total.
    """

    def __init__(self, weights: Sequence[int], precedence: Optional[Sequence[int]] = None):
        super().__init__(weights)
        n = len(self.weights)
        if precedence is None:
            precedence = range(n)
        self.precedence = tuple(precedence)
        if sorted(self.precedence) != list(range(n)):
            raise InputError("precedence must be a permutation of the generator indices")
        self._rank = {g: r for r, g in enumerate(self.precedence)}
        self._weight = dict(enumerate(self.weights))

    def key(self, word: Word):
        """Sort key: ascending in the order.  Usable with max()/sorted().
        The dict lookups are the only check of the generator indices."""
        try:
            return (sum(map(self._weight.__getitem__, word)),
                    tuple(map(self._rank.__getitem__, word)))
        except KeyError as exc:
            raise InputError(f"unknown generator index {exc.args[0]}") from None


class SparsePoly:
    """A finite rational combination of monomials (words or exponent
    vectors); zero coefficients are never stored.  Equality is type-strict."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[tuple, ScalarLike]] = None):
        clean: dict[tuple, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                c = scalar(coeff)
                if c:
                    clean[tuple(mono)] = c
        self.terms = clean

    @classmethod
    def _raw(cls, terms: dict[tuple, Fraction]):
        """Wrap an already clean term dict without copying or coercing it."""
        poly = cls.__new__(cls)
        poly.terms = terms
        return poly

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, mono: tuple) -> Fraction:
        return self.terms.get(tuple(mono), Fraction(0))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        return self._raw({m: -c for m, c in self.terms.items()})

    def __add__(self, other):
        return self._raw(add_terms(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():  # in place, with no negated copy of other
            out[m] = out.get(m, 0) - c
        return self._raw({m: c for m, c in out.items() if c})

    def __mul__(self, other):
        c = scalar(other)
        return self._raw({m: c * a for m, a in self.terms.items()} if c else {})

    __rmul__ = __mul__

    def __repr__(self):
        return f"{type(self).__name__}({self.terms!r})"


class FreePoly(SparsePoly):
    """A finite rational combination of words."""

    __slots__ = ()

    @classmethod
    def one(cls) -> "FreePoly":
        return cls({EMPTY: 1})

    @classmethod
    def word(cls, word: Iterable[int], coeff: ScalarLike = 1) -> "FreePoly":
        return cls({tuple(word): coeff})

    def __mul__(self, other) -> "FreePoly":
        if not isinstance(other, FreePoly):
            return super().__mul__(other)
        out: dict[Word, Fraction] = {}
        for u, a in self.terms.items():
            add_terms(out, ((u + v, b) for v, b in other.terms.items()), a)
        return FreePoly._raw(out)

    def degree(self, weights: Sequence[int]) -> int:
        """Maximal weighted degree over the terms; raises on the zero polynomial."""
        if not self.terms:
            raise InputError("the zero polynomial has no degree")
        return max(word_degree(w, weights) for w in self.terms)

    def is_homogeneous(self, weights: Sequence[int]) -> bool:
        degs = {word_degree(w, weights) for w in self.terms}
        return len(degs) <= 1


def leading(poly: SparsePoly, order: GradedOrder) -> tuple[tuple, Fraction]:
    """Leading (monomial, coefficient) pair of a nonzero polynomial."""
    if poly.is_zero():
        raise InputError("the zero polynomial has no leading term")
    lm = max(poly.terms, key=order.key)
    return lm, poly.terms[lm]


def leading_homogeneous(poly: FreePoly, weights: Sequence[int]) -> FreePoly:
    """Sum of the terms of maximal weighted degree of a nonzero polynomial."""
    if poly.is_zero():
        raise InputError("the zero polynomial has no leading homogeneous part")
    top = poly.degree(weights)
    return FreePoly({w: c for w, c in poly.terms.items()
                     if word_degree(w, weights) == top})


def monic(poly: SparsePoly, order: GradedOrder) -> SparsePoly:
    _, lc = leading(poly, order)
    return poly if lc == 1 else poly * (1 / lc)


class RelationSet:
    """A finite list of nonzero monic relations, sorted by leading monomial.

    Relations are normalized monic on ingestion; zero relations are rejected
    and leading monomials must be nonempty words (a relation with leading
    word 1 would collapse the algebra).  ``rewrites`` holds the rules of
    ``normal_form`` and of ``gdu.solvable_from_relations``.
    """

    def __init__(self, polys: Iterable[FreePoly], order: WeightedOrder):
        self.order = order
        normalized = []
        for p in polys:
            if p.is_zero():
                raise InputError("zero relation rejected")
            q = monic(p, order)
            lm, _ = leading(q, order)
            if lm == EMPTY:
                raise InputError("relation with constant leading term rejected")
            normalized.append((lm, q))
        normalized.sort(key=lambda item: order.key(item[0]))
        self.polys: tuple[FreePoly, ...] = tuple(q for _, q in normalized)
        self.leading_words: tuple[Word, ...] = tuple(lm for lm, _ in normalized)
        # per leading word the first relation that has it, largest word first
        rules: dict[Word, FreePoly] = {}
        for lm, q in normalized:
            rules.setdefault(lm, q)
        self.rewrites: tuple[tuple[Word, FreePoly], ...] = tuple(reversed(rules.items()))

    def __len__(self):
        return len(self.polys)

    def __iter__(self):
        return iter(self.polys)

    def __eq__(self, other):
        return isinstance(other, RelationSet) and self.polys == other.polys

    def __repr__(self):
        return f"RelationSet({list(self.polys)!r})"


def normal_form(poly: FreePoly, rels: RelationSet, order: WeightedOrder) -> FreePoly:
    """Reduce ``poly`` modulo ``rels`` until no term contains a leading word.

    Strategy: always rewrite the order-largest reducible term by the first
    of ``rels.rewrites`` that applies -- the order-largest leading word it
    contains, from the first relation that has it -- at its leftmost
    occurrence.  Each step strictly decreases the rewritten term, so the
    loop terminates; when ``rels`` is a Groebner basis the result is
    independent of the strategy.
    ``order`` must equal ``rels.order``, by which the relations are sorted;
    InputError otherwise.
    """
    if order is not rels.order and not (isinstance(order, WeightedOrder) and (
            order.weights, order.precedence) == (rels.order.weights, rels.order.precedence)):
        raise InputError("normal_form order differs from the relation set's order")
    def rewrite(word: Word):
        for lm, rel in rels.rewrites:  # rel is monic, so its multiple is 1 at word
            pos = find_subword(word, lm)
            if pos >= 0:
                return _monic_multiple(word[:pos], rel, word[pos + len(lm):], 1).terms
        return None

    return FreePoly._raw(rewrite_terms(poly.terms, order.key, rewrite))


def _monic_multiple(prefix: Word, g: FreePoly, suffix: Word, lc: Fraction) -> FreePoly:
    """prefix . g . suffix / lc, with lc = LC(g): monic at prefix . LM(g) . suffix."""
    if lc == 1:
        return FreePoly._raw({prefix + t + suffix: c for t, c in g.terms.items()})
    return FreePoly._raw({prefix + t + suffix: c / lc for t, c in g.terms.items()})


def _overlap_windows(u: Word, v: Word, same: bool) -> Iterator[tuple[Word, Word]]:
    """Cofactor pairs (p, s) with u+s == p+v, covering proper overlap windows
    and inclusions of v inside u.  ``same`` suppresses the trivial self-match."""
    # proper overlap: a nonempty proper suffix of u equals a proper prefix of v
    for k in range(1, min(len(u), len(v))):
        if u[len(u) - k:] == v[:k]:
            yield u[:len(u) - k], v[k:]
    # inclusions: v occurs inside u (u = p.v.s)
    if len(v) <= len(u):
        pos = find_subword(u, v)
        while pos >= 0:
            if not (same and len(u) == len(v)):
                yield u[:pos], u[pos + len(v):]
            pos = find_subword(u, v, pos + 1)


def s_elements(g: FreePoly, h: FreePoly, order: WeightedOrder) -> list[tuple[Word, FreePoly]]:
    """All S-elements of the ordered pair (g, h), with their common word.

    For each window u+s == p+v (u = LM(g), v = LM(h)) the S-element is
    g*s - p*h; its two leading terms cancel, so a nonzero reduced remainder
    witnesses a genuinely new ideal element.
    """
    (u, a), (v, b) = leading(g, order), leading(h, order)
    return [(u + s, _monic_multiple(EMPTY, g, s, a) - _monic_multiple(p, h, EMPTY, b))
            for p, s in _overlap_windows(u, v, same=g is h)]


@dataclass(frozen=True)
class GroebnerWitness:
    i: int
    j: int
    word: Word
    remainder: FreePoly


@dataclass(frozen=True)
class Verdict:
    """The outcome of every check: ``ok`` with what shows it -- a Groebner
    ``witness``, axiom ``violations`` or per-degree ``rows``."""

    ok: bool
    witness: Optional[GroebnerWitness] = None
    violations: tuple[str, ...] = ()
    rows: tuple[tuple[int, int, int], ...] = ()  # (degree, computed, expected)

    def __bool__(self):
        return self.ok

    @classmethod
    def compare(cls, computed: Sequence[int], expected: Sequence[int]) -> "Verdict":
        """Rows (q, computed[q], expected[q]) for q = 0, 1, ... of both."""
        rows = tuple((q, a, b) for q, (a, b) in enumerate(zip(computed, expected)))
        return cls(all(a == b for _, a, b in rows), rows=rows)


def s_remainders(rels: RelationSet, order: WeightedOrder) -> Iterator[GroebnerWitness]:
    """The nonzero normal forms of the S-elements of every ordered pair of
    relations, lazily, in pair order."""
    for i, g in enumerate(rels.polys):
        for j, h in enumerate(rels.polys):
            for word, elem in s_elements(g, h, order):
                rem = normal_form(elem, rels, order)
                if not rem.is_zero():
                    yield GroebnerWitness(i, j, word, rem)


def is_groebner(rels: RelationSet, order: WeightedOrder) -> Verdict:
    """Check that every S-element of every ordered pair reduces to zero.

    Returns the first offending pair with its nonzero remainder otherwise.
    Complete for finite relation sets: by the diamond lemma the check is
    equivalent to the Groebner property under a compatible order.
    """
    witness = next(s_remainders(rels, order), None)
    return Verdict(witness is None, witness)


class Presentation:
    """Named generators, an order and relations certified as a Groebner
    basis at construction; raises CertificationError naming ``what``
    otherwise.  The passing check is kept as ``certificate``."""

    def __init__(self, gen_names: Sequence[str], order: WeightedOrder,
                 polys: Iterable[FreePoly], what: str, notes: Sequence[str] = ()):
        self.gen_names = tuple(gen_names)
        self.order = order
        self.relations = RelationSet(polys, order)
        self.certificate = is_groebner(self.relations, order)
        if not self.certificate.ok:
            raise CertificationError(f"{what} failed the Groebner check",
                                     self.certificate.witness)
        self.notes = tuple(notes)

    @property
    def leading_words(self) -> tuple[Word, ...]:
        return self.relations.leading_words

    def normal_form(self, poly: FreePoly) -> FreePoly:
        """The normal form of ``poly`` modulo the relations."""
        return normal_form(poly, self.relations, self.order)

    def monomial_algebra(self) -> "MonomialAlgebra":
        """The monomial algebra of the leading words, which has the same
        normal words and hence the same Hilbert series."""
        return MonomialAlgebra(self.gen_names, self.order.weights, self.leading_words)

    def dims(self, max_degree: int) -> Verdict:
        """Rows (q, normal words, exponent vectors) of weighted degree q for
        q = 0..max_degree: the normal words against the expansion of the
        product of 1/(1 - t^w) over the generator weights."""
        return Verdict.compare(hilbert(self.monomial_algebra(), max_degree).coefficients,
                               series_coefficients(self.order.weights, max_degree))


def rewrite_terms(terms: Mapping[tuple, Fraction], key, rewrite) -> dict[tuple, Fraction]:
    """Rewrite the key-largest term until no term is rewritable.

    ``rewrite(mono)`` returns None for an irreducible monomial, or the stored
    terms of an ideal element whose coefficient at ``mono`` is 1 and whose
    other monomials all precede ``mono``: c * mono becomes -c times those
    others, so the loop terminates.  Returns the irreducible remainder's terms.
    """
    work = dict(terms)
    done: dict[tuple, Fraction] = {}
    while work:
        mono = max(work, key=key)
        coeff = work.pop(mono)
        multiple = rewrite(mono)
        if multiple is None:  # popped monomials strictly decrease
            done[mono] = coeff
            continue
        add_terms(work, ((m, c) for m, c in multiple.items() if m != mono), -coeff)
    return done


def add_terms(out: dict[tuple, Fraction], terms: Iterable[tuple[tuple, Fraction]],
              scale: Optional[Fraction] = None) -> dict[tuple, Fraction]:
    """Add the (monomial, coefficient) pairs of ``terms``, each times
    ``scale`` when given, into the term dict ``out`` in place, dropping the
    monomials whose coefficient cancels to zero; returns ``out``."""
    for m, c in terms:
        s = out.get(m, 0) + (c if scale is None else scale * c)
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def interreduce_with(polys: Sequence[SparsePoly], order: GradedOrder,
                     reduce) -> list[SparsePoly]:
    """Reduce each polynomial by the others with ``reduce(poly, others)``
    until stable; monic output, sorted by leading monomial."""
    current = [monic(p, order) for p in polys if not p.is_zero()]
    changed = True
    while changed:
        changed = False
        for idx in range(len(current)):
            reduced = reduce(current[idx], current[:idx] + current[idx + 1:])
            if reduced.is_zero():
                current.pop(idx)
                changed = True
                break
            reduced = monic(reduced, order)
            if reduced != current[idx]:
                current[idx] = reduced
                changed = True
                break
    current.sort(key=lambda p: order.key(leading(p, order)[0]))
    return current


def interreduce(polys: Sequence[FreePoly], order: WeightedOrder) -> list[FreePoly]:
    """Reduce each polynomial modulo the others until stable; monic output,
    sorted by leading word."""
    return interreduce_with(polys, order, lambda p, rest: (
        normal_form(p, RelationSet(rest, order), order) if rest else p))


COMPLETE = "complete"
COMPLETE_UP_TO_BOUND = "complete up to bound"


def complete(rels: RelationSet, order: WeightedOrder,
             degree_bound: int) -> tuple[RelationSet, str]:
    """Degree-bounded completion.

    Adds reduced nonzero S-element remainders of weighted degree <= bound
    until none remain below the bound, then inter-reduces.  The flag is
    ``COMPLETE`` when no unresolved S-element exists at all and
    ``COMPLETE_UP_TO_BOUND`` when remainders above the bound were left open.
    Termination: every added leading word is a new word of bounded degree.
    """
    if rels.polys and degree_bound < max(p.degree(order.weights) for p in rels):
        raise InputError("degree_bound must be at least the maximal relation degree")
    current = RelationSet(rels.polys, order)
    while True:
        rem = next((w.remainder for w in s_remainders(current, order)
                    if w.remainder.degree(order.weights) <= degree_bound), None)
        if rem is None:
            break
        current = RelationSet(list(current.polys) + [rem], order)
    reduced = RelationSet(interreduce(list(current.polys), order), order)
    return reduced, (COMPLETE if is_groebner(reduced, order) else COMPLETE_UP_TO_BOUND)


class MonomialAlgebra:
    """Generators with weights plus a finite obstruction set of words.

    Obstructions are inter-reduced on construction: any word containing
    another obstruction as a subword is dropped.
    """

    def __init__(self, gen_names: Sequence[str], weights: Sequence[int],
                 obstructions: Iterable[Word]):
        self.gen_names = tuple(gen_names)
        self.weights = GradedOrder(weights).weights
        if len(self.gen_names) != len(self.weights):
            raise InputError("one weight per generator required")
        words = sorted({tuple(o) for o in obstructions}, key=lambda w: (len(w), w))
        for w in words:
            if not w:
                raise InputError("the empty word cannot be an obstruction")
            if any(not 0 <= g < len(self.weights) for g in w):
                raise InputError(f"obstruction {w} uses an unknown generator")
        minimal: list[Word] = []
        for w in words:
            if not any(find_subword(w, o) >= 0 for o in minimal):
                minimal.append(w)
        self.obstructions: tuple[Word, ...] = tuple(minimal)

    def avoids_obstructions(self, word: Word) -> bool:
        return all(find_subword(word, o) < 0 for o in self.obstructions)

    def __repr__(self):
        return f"MonomialAlgebra({self.gen_names}, {self.weights}, {self.obstructions})"


@dataclass(frozen=True)
class UfnGraph:
    """Overlap automaton rooted at the empty word (L = max obstruction length).

    Vertices are the normal words of length <= L-1.  An edge (source, target,
    generator) appends the generator to the source and drops the first letter
    once the word would reach length L; it exists iff the appended word is
    obstruction-free.  The normal words are the paths from the root.
    """

    vertices: tuple[Word, ...]
    edges: tuple[tuple[Word, Word, int], ...]


def build_ufn_graph(mono: MonomialAlgebra) -> UfnGraph:
    window = max((len(o) for o in mono.obstructions), default=1)
    vertices, seen, edges = [EMPTY], {EMPTY}, []
    for u in vertices:  # breadth-first: the list grows while it is walked
        for g in range(len(mono.weights)):
            full = u + (g,)
            if not mono.avoids_obstructions(full):
                continue
            v = full if len(full) < window else full[1:]
            edges.append((u, v, g))
            if v not in seen:
                seen.add(v)
                vertices.append(v)
    return UfnGraph(tuple(vertices), tuple(edges))


@dataclass(frozen=True)
class HilbertData:
    coefficients: tuple[int, ...]


def hilbert(mono: MonomialAlgebra, max_degree: int) -> HilbertData:
    """Exact count of obstruction-free words per weighted degree 0..max_degree.

    Each normal word is one path from the overlap automaton's root, so one
    dynamic program on (degree, end vertex) counts them all: seeded with 1 at
    (root, 0), each vertex's count at degree q is pushed along its out-edges,
    and since every weight is positive, degree q is final once the loop
    reaches it.
    """
    if max_degree < 0:
        raise InputError("degree must be >= 0")
    graph = build_ufn_graph(mono)
    weights = mono.weights
    ways = {v: [0] * (max_degree + 1) for v in graph.vertices}
    ways[EMPTY][0] = 1
    h = []
    for q in range(max_degree + 1):
        for u, v, g in graph.edges:
            if ways[u][q] and q + weights[g] <= max_degree:
                ways[v][q + weights[g]] += ways[u][q]
        h.append(sum(counts[q] for counts in ways.values()))
    return HilbertData(tuple(h))


def count_normal_words(obstructions: Iterable[Word], weights: Sequence[int],
                       max_degree: int) -> list[int]:
    """Number of obstruction-free words at each weighted degree 0..max_degree,
    counted on the overlap graph by :func:`hilbert`."""
    names = tuple(f"x{g}" for g in range(len(weights)))
    mono = MonomialAlgebra(names, weights, obstructions)
    return list(hilbert(mono, max_degree).coefficients)


def series_coefficients(weights: Sequence[int], max_degree: int) -> list[int]:
    """Taylor coefficients of the product of 1/(1 - t^w) over the weights:
    the count of exponent vectors per weighted degree 0..max_degree."""
    if max_degree < 0:
        raise InputError("degree must be >= 0")
    coeffs = [1] + [0] * max_degree
    for w in GradedOrder(weights).weights:
        for q in range(w, max_degree + 1):
            coeffs[q] += coeffs[q - w]
    return coeffs


def format_word(word: Word, names: Sequence[str]) -> str:
    """Render a word with runs grouped into powers; the empty word is '1'."""
    if not word:
        return "1"
    parts = []
    for g, run in ((g, len(tuple(r))) for g, r in itertools.groupby(word)):
        parts.append(names[g] if run == 1 else f"{names[g]}^{run}")
    return "*".join(parts)


def format_poly(poly: FreePoly, order: WeightedOrder, names: Sequence[str]) -> str:
    """Render a polynomial with terms in descending order."""
    if poly.is_zero():
        return "0"
    pieces = []
    for word in sorted(poly.terms, key=order.key, reverse=True):
        coeff = poly.terms[word]
        mag = -coeff if coeff < 0 else coeff
        body = format_word(word, names)
        if word and mag == 1:
            text = body
        elif not word:
            text = str(mag)
        else:
            text = f"{mag}*{body}"
        if not pieces:
            pieces.append(text if coeff > 0 else f"-{text}")
        else:
            pieces.append(f"+ {text}" if coeff > 0 else f"- {text}")
    return " ".join(pieces)
