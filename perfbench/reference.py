"""Reference answers the benchmark checks the package against.

Nothing here imports ``downup``.  The PBW product is derived directly from
the three defining relations

    X3*X1 = lambda*X1*X3 - gamma*X3
    X1*X2 = lambda*X2*X1 - gamma*X2
    X3*X2 = omega*X2*X3 - f(X1)

by right multiplication with one generator at a time, which is a different
route from both the free-algebra rewriting and the solvable-algebra table.
Elements are dicts from exponent triples (i, j, l), meaning
X2^i X1^j X3^l, to Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

# generator positions in free-algebra words, as the package numbers them
X1, X2, X3, T = 0, 1, 2, 3
NAMES = {"X1": X1, "X2": X2, "X3": X3, "T": T}
RANK = {X2: 0, X1: 1, X3: 2}  # X2 < X1 < X3


def add_term(out: dict, key, value) -> None:
    s = out.get(key, 0) + value
    if s:
        out[key] = s
    else:
        out.pop(key, None)


class GDUReference:
    """PBW arithmetic of one generalized down-up algebra, from its parameters."""

    def __init__(self, lam, omega, gamma, f):
        self.lam = Fraction(lam)
        self.omega = Fraction(omega)
        self.gamma = Fraction(gamma)
        self.f = [Fraction(c) for c in f]
        self._sigma_pow: dict[int, dict[int, Fraction]] = {}
        self._a3_a2: dict[int, dict] = {0: {(1, 0, 0): Fraction(1)}}

    def _sigma_power(self, j: int) -> dict[int, Fraction]:
        """(lambda*X1 - gamma)^j as {power of X1: coeff}."""
        got = self._sigma_pow.get(j)
        if got is None:
            got = {}
            for k in range(j + 1):
                c = comb(j, k) * self.lam ** k * (-self.gamma) ** (j - k)
                if c:
                    got[k] = c
            self._sigma_pow[j] = got
        return got

    def _f_shifted(self, m: int) -> dict[int, Fraction]:
        """f(sigma^m(X1)) with sigma(X1) = lambda*X1 - gamma, as {power: coeff}."""
        lam_m = self.lam ** m
        shift = -self.gamma * sum((self.lam ** t for t in range(m)), Fraction(0))
        out: dict[int, Fraction] = {}
        for d, coeff in enumerate(self.f):
            if not coeff:
                continue
            for k in range(d + 1):
                add_term(out, k, coeff * comb(d, k) * lam_m ** k * shift ** (d - k))
        return out

    def _a3_power_a2(self, l: int) -> dict:
        """X3^l * X2 in PBW form: X3^l X2 = omega*(X3^(l-1) X2)*X3 - f(sigma^(l-1)(X1))*X3^(l-1)."""
        got = self._a3_a2.get(l)
        if got is None:
            prev = self._a3_power_a2(l - 1)
            got = {(i, j, k + 1): self.omega * c for (i, j, k), c in prev.items()
                   if self.omega}
            for power, c in self._f_shifted(l - 1).items():
                add_term(got, (0, power, l - 1), -c)
            self._a3_a2[l] = got
        return got

    def times_generator(self, poly: dict, gen: int) -> dict:
        """poly * gen, for gen one of X1, X2, X3."""
        out: dict = {}
        if gen == X3:
            for (i, j, l), c in poly.items():
                add_term(out, (i, j, l + 1), c)
        elif gen == X1:
            for (i, j, l), c in poly.items():
                # X3^l X1 = (lambda^l X1 - gamma*(1 + ... + lambda^(l-1))) X3^l
                add_term(out, (i, j + 1, l), c * self.lam ** l)
                shift = self.gamma * sum((self.lam ** t for t in range(l)), Fraction(0))
                if shift:
                    add_term(out, (i, j, l), -c * shift)
        else:
            for (i, j, l), c in poly.items():
                for (i2, j2, l2), c2 in self._a3_power_a2(l).items():
                    if i2 == 0:
                        add_term(out, (i, j + j2, l2), c * c2)
                    else:
                        # X1^j X2 = X2 (lambda*X1 - gamma)^j
                        for k, c3 in self._sigma_power(j).items():
                            add_term(out, (i + 1, k + j2, l2), c * c2 * c3)
        return out

    def times_word(self, poly: dict, word) -> dict:
        for g in word:
            poly = self.times_generator(poly, g)
        return poly

    def multiply(self, p: dict, q: dict) -> dict:
        """Product of two PBW polynomials."""
        out: dict = {}
        for exp, c in q.items():
            word = (X2,) * exp[0] + (X1,) * exp[1] + (X3,) * exp[2]
            for e, c2 in self.times_word(p, word).items():
                add_term(out, e, c * c2)
        return out


def one() -> dict:
    return {(0, 0, 0): Fraction(1)}


# ---- counting ---------------------------------------------------------------

def exponent_triple_counts(x2_weight: int, max_degree: int) -> list[int]:
    """#{(i, j, l) : w*(i + l) + j == q} for q = 0..max_degree."""
    w = x2_weight
    return [sum(1 for s in range(q // w + 1)
                for _ in range(s + 1))  # (i, l) with i + l == s, then j = q - w*s
            for q in range(max_degree + 1)]


def cumulative(values: list[int]) -> list[int]:
    out, total = [], 0
    for v in values:
        total += v
        out.append(total)
    return out


def series_coefficients(weights, max_degree: int) -> list[int]:
    """Taylor coefficients of prod 1/(1 - t^w), by direct convolution."""
    coeffs = [1] + [0] * max_degree
    for w in weights:
        nxt = [0] * (max_degree + 1)
        for q in range(max_degree + 1):
            nxt[q] = sum(coeffs[q - w * k] for k in range(q // w + 1))
        coeffs = nxt
    return coeffs


# ---- orders -----------------------------------------------------------------

def word_key(word, weights, rank) -> tuple:
    """Weighted graded lexicographic key on free words."""
    return (sum(weights[g] for g in word), tuple(rank[g] for g in word))


def pbw_key(exp, weights) -> tuple:
    """Weighted graded key on exponent vectors: more of an earlier generator is smaller."""
    return (sum(w * a for w, a in zip(weights, exp)), tuple(-a for a in exp))


def divides(d, e) -> bool:
    return all(a <= b for a, b in zip(d, e))


# ---- parsing rendered polynomials -------------------------------------------

def parse_rendered(text: str, names: dict[str, int]) -> dict:
    """Parse the CLI's rendering of a polynomial into {word: Fraction}.

    The rendering is ``[-]term {(+|-) term}`` where a term is ``coeff``,
    ``word`` or ``coeff*word`` and a word is ``Name[^k]`` factors joined by
    ``*``.  Raises ValueError on anything else.
    """
    text = text.strip()
    if text == "0":
        return {}
    tokens = text.split(" ")
    pieces = [("-", tokens[0][1:]) if tokens[0].startswith("-") else ("+", tokens[0])]
    rest = tokens[1:]
    if len(rest) % 2:
        raise ValueError(f"unbalanced rendering {text!r}")
    for sign, body in zip(rest[::2], rest[1::2]):
        if sign not in ("+", "-"):
            raise ValueError(f"bad sign {sign!r} in {text!r}")
        pieces.append((sign, body))
    out: dict = {}
    for sign, body in pieces:
        factors = body.split("*")
        coeff = Fraction(1)
        if factors[0][:1].isdigit():
            coeff = Fraction(factors.pop(0))
        word: list[int] = []
        for factor in factors:
            name, _, power = factor.partition("^")
            if name not in names:
                raise ValueError(f"unknown generator {name!r} in {text!r}")
            word.extend([names[name]] * (int(power) if power else 1))
        if coeff == 0:
            raise ValueError(f"zero coefficient in {text!r}")
        key = tuple(word)
        if key in out:
            raise ValueError(f"repeated term {body!r} in {text!r}")
        out[key] = coeff if sign == "+" else -coeff
    return out


def sorted_word_exponent(word, order=(X2, X1, X3)):
    """Exponents of a word of the form order[0]^a order[1]^b ..., or None."""
    counts = [0] * len(order)
    pos = 0
    for g in word:
        while pos < len(order) and order[pos] != g:
            pos += 1
        if pos == len(order):
            return None
        counts[pos] += 1
    return tuple(counts)
