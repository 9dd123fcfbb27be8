"""Text grammar for polynomials.

One parser reads every polynomial text.  ``parse_factored`` returns its
product structure, and ``parse_multipoly`` (and ``parse_unipoly``, with the
single variable ``t``) multiply that out.  The grammar:

    expr   := ('+' | '-')? term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' NAT)?
    atom   := '(' expr ')' | '-' atom | RATIONAL | VAR

A leading unary minus binds to the first term alone, so ``-z1 + 5`` is
5 - z1.  Variables are z1..zk, rationals are integer or ``p/q`` literals in
ASCII digits, and exponents must be nonnegative integer literals.  Implicit
multiplication is not allowed; whitespace is insignificant.

A power, and a text read by ``parse_factored``, whose total degree (the
sum of exponent times base degree over its factors) is more than
``DEGREE_LIMIT`` raises ``LimitError`` before it is multiplied out.  So
does a power or a product, before it is multiplied out, when a bound of
its term count passes ``TERM_LIMIT`` or its powers of constants hold more
than ``CONSTANT_BITS_LIMIT`` bits (``_check_size``): the check costs a few
operations per factor, whatever the term count.

The module holds the grammar only.  A polynomial prints itself in it
(``MultiPoly.__str__``, ``UniPoly.__str__``), and parsing the printed text
gives the polynomial back.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb, log2

from .errors import LimitError, ParseError
from .poly import MultiPoly, UniPoly, expand


# literals are ASCII: str.isdigit also holds for '²' and '٣'
_DIGITS = frozenset("0123456789")


class _Lexer:
    def __init__(self, text: str, variables: dict[str, int]):
        self.text = text
        self.pos = 0
        self.variables = variables
        self.tokens: list[tuple[str, object, int]] = []
        self._scan()
        self.index = 0

    def _scan(self) -> None:
        text = self.text
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in "+-*^()":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            if ch in _DIGITS:
                j = i
                while j < len(text) and text[j] in _DIGITS:
                    j += 1
                self.tokens.append(("num", int(text[i:j]), i))
                i = j
                continue
            if ch == "/":
                self.tokens.append(("/", "/", i))
                i += 1
                continue
            if ch.isalpha():
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                name = text[i:j]
                if name not in self.variables:
                    raise ParseError(f"unknown variable {name!r}", i)
                self.tokens.append(("var", self.variables[name], i))
                i = j
                continue
            raise ParseError(f"unexpected character {ch!r}", i)
        self.tokens.append(("end", None, len(text)))

    def peek(self) -> tuple[str, object, int]:
        return self.tokens[self.index]

    def next(self) -> tuple[str, object, int]:
        tok = self.tokens[self.index]
        self.index += 1
        return tok


_Factors = list[tuple[MultiPoly, int]]

# the largest total degree of a power or a text: the specs, tests and
# benchmarks state 6 at most; `structure` on specs/binomial.json with one
# side z1^1000 takes a quarter of a second, with z1^5000 four seconds
DEGREE_LIMIT = 100
# the most terms a power or a product may expand to, by the bound of
# ``_check_size``: the specs, tests and benchmarks reach 216; with Python
# 3.11, (z1 + z2 + z3 + 1)^29, 4,960 terms, expands in 0.13 s,
# (z1 + z2 + 1)^98, 4,950 terms, in 0.4 s, and (z1 + z2 + z3 + 1)^60,
# 39,711 terms, in 2.1 s; the worst load inside the limits is a product of
# two dense sums, ((z1 + z2 + 1)^49 + 1)^2, 1,276^2 term products, 1.0 s
TERM_LIMIT = 5_000
# the most bits the powers of constants in a power or a product may hold:
# no spec holds one; 3^200000 has 316,993 bits, and Python refuses to
# print an int of more than 4,300 digits (about 14,000 bits)
CONSTANT_BITS_LIMIT = 1_000


def _check_degree(factors: _Factors) -> _Factors:
    degree = 0
    for base, exp in factors:
        degree += exp * base.total_degree()
    if degree > DEGREE_LIMIT:
        raise LimitError(f"total degree {degree} is more than DEGREE_LIMIT = {DEGREE_LIMIT}")
    return factors


def _check_size(factors: _Factors) -> _Factors:
    """Refuse a product of powers before it is multiplied out, at a cost
    per factor, not per term: when an upper bound of its term count passes
    ``TERM_LIMIT``, or its powers of constants hold more than
    ``CONSTANT_BITS_LIMIT`` bits.  The bound is the product of each power's
    multinomial count C(n + e - 1, e), n the terms of its base, and, when
    that passes the limit, the count C(k + D, k) of the monomials of total
    degree at most D in k variables, D the product's degree.  The bits of
    c^e, floor(e log2 c) + 1, are summed over the constants, c the larger
    of numerator and denominator.  A base of more than one term has an
    exponent of at most ``DEGREE_LIMIT``, since the degree of each power
    is checked where it is read."""
    terms, bits = 1, 0.0
    for base, exp in factors:
        n = len(base.terms)
        if n > 1:
            if exp != 1:
                n = comb(n + exp - 1, exp)
        elif n and exp > 1 and not any(base.terms[0][0]):
            c = base.terms[0][1]
            bits += exp * log2(max(abs(c.numerator), c.denominator))
        terms *= n
    if bits >= CONSTANT_BITS_LIMIT:
        raise LimitError(
            f"a constant power of {int(bits) + 1} bits is more than "
            f"CONSTANT_BITS_LIMIT = {CONSTANT_BITS_LIMIT}"
        )
    if terms > TERM_LIMIT:
        k = factors[0][0].arity
        terms = min(terms, comb(k + sum(exp * base.total_degree() for base, exp in factors), k))
        if terms > TERM_LIMIT:
            raise LimitError(f"an expansion of up to {terms} terms is more than TERM_LIMIT = {TERM_LIMIT}")
    return factors


@functools.lru_cache(maxsize=16)
def _one(arity: int) -> MultiPoly:
    """The constant 1 that ``poly.expand`` gives for an empty product."""
    return MultiPoly.constant(arity, 1)


class _Parser:
    """Recursive descent over the grammar.  Every production returns a list
    of (base, exponent) pairs whose product is its value: a sum is one base,
    a product concatenates its factors' lists, and ``^n`` multiplies their
    exponents by n."""

    def __init__(self, lexer: _Lexer, arity: int):
        self.lex = lexer
        self.arity = arity

    def parse(self) -> _Factors:
        factors = self.expr()
        kind, _, pos = self.lex.peek()
        if kind != "end":
            raise ParseError("trailing input", pos)
        return factors

    def expr(self) -> _Factors:
        kind, _, _ = self.lex.peek()
        sign = 1
        if kind == "-":
            self.lex.next()
            sign = -1
        elif kind == "+":
            self.lex.next()
        factors = self.term()
        if self.lex.peek()[0] not in ("+", "-"):
            # a leading minus belongs to the first term alone
            if sign < 0:
                factors.insert(0, (MultiPoly.constant(self.arity, -1), 1))
            return factors
        total: dict = {}
        while True:
            for mono, c in expand(_one(self.arity), factors)[0].terms:
                total[mono] = total.get(mono, 0) + sign * c
            kind = self.lex.peek()[0]
            if kind == "+":
                sign = 1
            elif kind == "-":
                sign = -1
            else:
                return [(MultiPoly.from_dict(self.arity, total), 1)]
            self.lex.next()
            factors = self.term()

    def term(self) -> _Factors:
        factors = self.factor()
        if self.lex.peek()[0] != "*":
            return factors
        while self.lex.peek()[0] == "*":
            self.lex.next()
            factors.extend(self.factor())
        return _check_size(factors)

    def factor(self) -> _Factors:
        factors = self.atom()
        if self.lex.peek()[0] == "^":
            self.lex.next()
            kind, value, pos = self.lex.next()
            if kind != "num":
                raise ParseError("exponent must be a nonnegative integer literal", pos)
            factors = _check_size(_check_degree([(base, exp * int(value)) for base, exp in factors]))
            # the limits pass 0, 1 and -1 at any exponent, so their powers
            # are taken on the coefficient, not by n - 1 products
            factors = [
                (MultiPoly.constant(self.arity, base.constant_value() ** exp), 1)
                if base.is_constant and base.constant_value() in (0, 1, -1)
                else (base, exp)
                for base, exp in factors
            ]
        return factors

    def atom(self) -> _Factors:
        kind, value, pos = self.lex.next()
        if kind == "(":
            factors = self.expr()
            kind, _, pos = self.lex.next()
            if kind != ")":
                raise ParseError("expected ')'", pos)
            return factors
        if kind == "-":
            factors = self.atom()
            factors.insert(0, (MultiPoly.constant(self.arity, -1), 1))
            return factors
        if kind == "num":
            num = int(value)
            if self.lex.peek()[0] == "/":
                self.lex.next()
                kind, den, pos = self.lex.next()
                if kind != "num":
                    raise ParseError("expected integer denominator", pos)
                if den == 0:
                    raise ParseError("zero denominator", pos)
                return [(MultiPoly.constant(self.arity, Fraction(num, int(den))), 1)]
            return [(MultiPoly.constant(self.arity, num), 1)]
        if kind == "var":
            return [(MultiPoly.variable(self.arity, int(value)), 1)]
        raise ParseError(f"unexpected token {value!r}", pos)


def parse_factored(text: str, arity: int) -> list[tuple[MultiPoly, int]]:
    """Parse polynomial text in variables z1..z<arity>, keeping its product
    structure: ``(z1 + 1)^2 * (z1*z2 + 1)`` yields the two bases with
    exponents 2 and 1, and a unary minus or a constant is a factor of its
    own.  A sum is one base, expanded.  Downstream factor refinement relies
    on input arriving in the finest form the user can supply."""
    variables = {f"z{i + 1}": i for i in range(arity)}
    return _check_degree(_Parser(_Lexer(text, variables), arity).parse())


def parse_multipoly(text: str, arity: int) -> MultiPoly:
    """Parse polynomial text in variables z1..z<arity>."""
    return expand(_one(arity), parse_factored(text, arity))[0]


def parse_unipoly(text: str) -> UniPoly:
    """Parse univariate polynomial text in the variable t."""
    p = expand(_one(1), _Parser(_Lexer(text, {"t": 0}), 1).parse())[0]
    coeffs = [0] * (p.total_degree() + 1)
    for (e,), c in p.terms:
        coeffs[e] = c
    return UniPoly.make(coeffs)

