"""Expression parser for polynomials and fractions on a coordinate ring.

Grammar (whitespace ignored, ^ binds tightest, one top-level / splits a
fraction):

    fraction :=  sum [ '/' sum ]
    sum      :=  [ '-' ] term  ( ('+' | '-') term )*
    term     :=  factor ( '*' factor )*
    factor   :=  atom [ '^' INT ]
    atom     :=  INT  |  VAR  |  '(' sum ')'

Coefficients are reduced mod p; exponents must be non-negative integers;
parentheses nest at most MAX_DEPTH deep.  Errors carry the offset of the
offending token.  The canonical rendering produced by Poly/RatFunc
round-trips through this parser.
"""

from __future__ import annotations

from .polys import Poly, RatFunc, Ring

__all__ = ["ParseError", "parse_expr", "tokenize"]

# each open parenthesis costs four stack frames (sum, term, factor, atom)
MAX_DEPTH = 100


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} at offset {position}")


_SYMBOLS = set("+-*^/()")
# str.isdigit also takes digits such as '²', which int() rejects, and
# Arabic-Indic ones, which int() reads; an INT is ASCII only
_DIGITS = set("0123456789")


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, value, offset) triples; kind is 'int', 'name' or the symbol."""
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            out.append(("int", text[i:j], i))
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            out.append(("name", text[i:j], i))
            i = j
        elif ch in _SYMBOLS:
            out.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    return out


class _Parser:
    def __init__(self, text: str, ring: Ring):
        self.text = text
        self.ring = ring
        self.tokens = tokenize(text)
        self.pos = self.depth = 0  # the next token; the parentheses open

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return ("end", "", len(self.text))

    def take(self):
        tok = self.peek()
        self.pos += 1
        self.depth += (tok[0] == "(") - (tok[0] == ")")
        return tok

    def fraction(self) -> Poly | RatFunc:
        num = self.sum()
        kind, _, off = self.peek()
        if kind != "/":
            self.expect_end()
            return num
        self.take()
        den = self.sum()
        self.expect_end()
        if den.is_zero():
            raise ParseError("denominator is zero", off)
        return RatFunc(num, den)

    def expect_end(self):
        kind, val, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {val!r}", off)

    def sum(self) -> Poly:
        kind, _, _ = self.peek()
        if kind == "-":
            self.take()
            acc = -self.term()
        else:
            acc = self.term()
        while True:
            kind, _, _ = self.peek()
            if kind == "+":
                self.take()
                acc = acc + self.term()
            elif kind == "-":
                self.take()
                acc = acc - self.term()
            else:
                return acc

    def term(self) -> Poly:
        acc = self.factor()
        while self.peek()[0] == "*":
            self.take()
            acc = acc * self.factor()
        return acc

    def factor(self) -> Poly:
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        self.take()
        kind, val, off = self.peek()
        if kind == "-":
            raise ParseError("negative exponent", off)
        if kind != "int":
            raise ParseError(f"expected integer exponent, got {val!r}", off)
        self.take()
        return base ** int(val)

    def atom(self) -> Poly:
        kind, val, off = self.take()
        if kind == "int":
            return Poly.const(self.ring, int(val))
        if kind == "name":
            if val not in self.ring.vars:
                raise ParseError(f"unknown variable {val!r}", off)
            return Poly.var(self.ring, val)
        if kind == "(":
            if self.depth > MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_DEPTH}", off)
            inner = self.sum()
            kind2, val2, off2 = self.take()
            if kind2 != ")":
                raise ParseError(f"expected ')', got {val2!r}", off2)
            return inner
        raise ParseError(f"unexpected {val!r}" if val else "unexpected end of input", off)


def parse_expr(text: str, ring: Ring) -> Poly | RatFunc:
    """Parse an expression; returns a Poly, or a RatFunc when '/' appears."""
    return _Parser(text, ring).fraction()
