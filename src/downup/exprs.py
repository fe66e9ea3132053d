"""Infix expression parser for noncommutative polynomials.

Grammar (whitespace insignificant):

    expr    := term {('+' | '-') term}
    term    := factor {'*' factor}
    factor  := '-' factor | primary ['^' INT]
    primary := INT ['/' INT] | NAME | '(' expr ')'

Products are noncommutative concatenation; INT '/' INT is an exact rational
literal.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping

from .errors import InputError
from .freealg import FreePoly

_TOKEN = re.compile(r"(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*^/()])|(\S)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.group(4):
            raise InputError(f"unexpected character {m.group(4)!r} at column {m.start() + 1}")
        kind = "int" if m.group(1) else ("name" if m.group(2) else "op")
        tokens.append((kind, m.group(0), m.start()))
    return tokens


class _Parser:
    def __init__(self, text: str, gens: Mapping[str, int]):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.gens = gens

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise InputError("unexpected end of expression")
        self.pos += 1
        return tok

    def accept(self, ops: str):
        tok = self.peek()
        if tok is None or tok[0] != "op" or tok[1] not in ops:
            return None
        self.pos += 1
        return tok[1]

    def integer(self, tok) -> int:
        try:
            return int(tok[1])
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise InputError(f"integer literal too long at column {tok[2] + 1}") from None

    def parse(self) -> FreePoly:
        poly = self.expr()
        if self.peek() is not None:
            tok = self.peek()
            raise InputError(f"trailing input {tok[1]!r} at column {tok[2] + 1}")
        return poly

    def expr(self) -> FreePoly:
        poly = self.term()
        while op := self.accept("+-"):
            poly = poly + self.term() if op == "+" else poly - self.term()
        return poly

    def term(self) -> FreePoly:
        poly = self.factor()
        while self.accept("*"):
            poly = poly * self.factor()
        return poly

    def factor(self) -> FreePoly:
        if self.accept("-"):
            return -self.factor()
        poly = self.primary()
        if self.accept("^"):
            exp_tok = self.take()
            if exp_tok[0] != "int":
                raise InputError(f"expected integer exponent at column {exp_tok[2] + 1}")
            power = FreePoly.one()
            for _ in range(self.integer(exp_tok)):
                power = power * poly
            return power
        return poly

    def primary(self) -> FreePoly:
        tok = self.take()
        kind, value, col = tok
        if kind == "int":
            if self.accept("/"):
                den_tok = self.take()
                if den_tok[0] != "int":
                    raise InputError(
                        f"expected integer denominator at column {den_tok[2] + 1}")
                den = self.integer(den_tok)
                if den == 0:
                    raise InputError(f"zero denominator at column {den_tok[2] + 1}")
                return FreePoly({(): Fraction(self.integer(tok), den)})
            return FreePoly({(): Fraction(self.integer(tok))})
        if kind == "name":
            if value not in self.gens:
                raise InputError(f"unknown generator {value!r} at column {col + 1}")
            return FreePoly.word((self.gens[value],))
        if kind == "op" and value == "(":
            inner = self.expr()
            tok = self.take()
            if tok[:2] != ("op", ")"):
                raise InputError(f"expected ')' at column {tok[2] + 1}")
            return inner
        raise InputError(f"unexpected token {value!r} at column {col + 1}")


def parse_expression(text: str, gens: Mapping[str, int]) -> FreePoly:
    """Parse an infix expression over the named generators."""
    if not text.strip():
        raise InputError("empty expression")
    return _Parser(text, gens).parse()
