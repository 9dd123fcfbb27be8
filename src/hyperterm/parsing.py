"""Text grammar for polynomials.

Grammar accepted by ``parse_multipoly`` (and by ``parse_unipoly`` with the
single variable ``t``):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' NAT)?
    atom   := '(' expr ')' | '-' atom | RATIONAL | VAR

Variables are z1..zk, rationals are integer or ``p/q`` literals, and
exponents must be nonnegative integer literals.  Implicit multiplication is
not allowed; whitespace is insignificant.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError
from .poly import MultiPoly, UniPoly


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
            if ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
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


class _Parser:
    def __init__(self, lexer: _Lexer, arity: int):
        self.lex = lexer
        self.arity = arity

    def parse(self) -> MultiPoly:
        p = self.expr()
        kind, _, pos = self.lex.peek()
        if kind != "end":
            raise ParseError("trailing input", pos)
        return p

    def expr(self) -> MultiPoly:
        kind, _, _ = self.lex.peek()
        negate = False
        if kind == "-":
            self.lex.next()
            negate = True
        elif kind == "+":
            self.lex.next()
        p = self.term()
        if negate:
            p = -p
        while True:
            kind, _, _ = self.lex.peek()
            if kind == "+":
                self.lex.next()
                p = p + self.term()
            elif kind == "-":
                self.lex.next()
                p = p - self.term()
            else:
                return p

    def term(self) -> MultiPoly:
        p = self.factor()
        while self.lex.peek()[0] == "*":
            self.lex.next()
            p = p * self.factor()
        return p

    def factor(self) -> MultiPoly:
        p = self.atom()
        if self.lex.peek()[0] == "^":
            self.lex.next()
            kind, value, pos = self.lex.next()
            if kind != "num":
                raise ParseError("exponent must be a nonnegative integer literal", pos)
            p = p ** int(value)
        return p

    def atom(self) -> MultiPoly:
        kind, value, pos = self.lex.next()
        if kind == "(":
            p = self.expr()
            kind, _, pos = self.lex.next()
            if kind != ")":
                raise ParseError("expected ')'", pos)
            return p
        if kind == "-":
            return -self.atom()
        if kind == "num":
            num = int(value)
            if self.lex.peek()[0] == "/":
                self.lex.next()
                kind, den, pos = self.lex.next()
                if kind != "num":
                    raise ParseError("expected integer denominator", pos)
                if den == 0:
                    raise ParseError("zero denominator", pos)
                return MultiPoly.constant(self.arity, Fraction(num, int(den)))
            return MultiPoly.constant(self.arity, num)
        if kind == "var":
            return MultiPoly.variable(self.arity, int(value))
        raise ParseError(f"unexpected token {value!r}", pos)

    # -- factored parsing: same grammar, but top-level products are kept
    # as factor lists instead of being multiplied out

    def factor_list(self) -> list[tuple[MultiPoly, int]]:
        if self.lex.peek()[0] == "-":
            self.lex.next()
            rest = self.factor_list()
            return [(MultiPoly.constant(self.arity, -1), 1)] + rest
        factors = self._power_factors()
        while self.lex.peek()[0] == "*":
            self.lex.next()
            factors.extend(self._power_factors())
        # anything joined by + or - at this level is a single base after all
        if self.lex.peek()[0] in ("+", "-"):
            product = MultiPoly.constant(self.arity, 1)
            for base, exp in factors:
                product = product * base**exp
            p = product
            while True:
                kind = self.lex.peek()[0]
                if kind == "+":
                    self.lex.next()
                    p = p + self.term()
                elif kind == "-":
                    self.lex.next()
                    p = p - self.term()
                else:
                    break
            return [(p, 1)]
        return factors

    def _power_factors(self) -> list[tuple[MultiPoly, int]]:
        kind, _, _ = self.lex.peek()
        if kind == "(":
            self.lex.next()
            inner = self.factor_list()
            kind, _, pos = self.lex.next()
            if kind != ")":
                raise ParseError("expected ')'", pos)
            exp = 1
            if self.lex.peek()[0] == "^":
                self.lex.next()
                kind, value, pos = self.lex.next()
                if kind != "num":
                    raise ParseError("exponent must be a nonnegative integer literal", pos)
                exp = int(value)
            return [(base, e * exp) for base, e in inner]
        return [(self.factor(), 1)]


def parse_multipoly(text: str, arity: int) -> MultiPoly:
    """Parse polynomial text in variables z1..z<arity>."""
    variables = {f"z{i + 1}": i for i in range(arity)}
    return _Parser(_Lexer(text, variables), arity).parse()


def parse_factored(text: str, arity: int) -> list[tuple[MultiPoly, int]]:
    """Parse polynomial text, preserving its top-level product structure.

    ``(z1 + 1)^2 * (z1*z2 + 1)`` yields the two bases with exponents 2 and
    1 instead of one expanded polynomial; sums are never expanded apart.
    Downstream factor refinement relies on input arriving in the finest
    form the user can supply."""
    variables = {f"z{i + 1}": i for i in range(arity)}
    parser = _Parser(_Lexer(text, variables), arity)
    factors = parser.factor_list()
    kind, _, pos = parser.lex.peek()
    if kind != "end":
        raise ParseError("trailing input", pos)
    return factors


def parse_unipoly(text: str) -> UniPoly:
    """Parse univariate polynomial text in the variable t."""
    p = _Parser(_Lexer(text, {"t": 0}), 1).parse()
    coeffs = [0] * (p.total_degree() + 1)
    for (e,), c in p.terms:
        coeffs[e] = c
    return UniPoly.make(coeffs)


def format_fraction(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def _format_terms(items: list[tuple[tuple[int, ...], Fraction]], names: list[str]) -> str:
    if not items:
        return "0"
    parts: list[str] = []
    for mono, coeff in items:
        factors = []
        for name, e in zip(names, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(coeff)
        if not factors:
            body = format_fraction(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([format_fraction(mag)] + factors)
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)


def format_multipoly(p: MultiPoly) -> str:
    names = [f"z{i + 1}" for i in range(p.arity)]
    return _format_terms(list(p.terms), names)


def format_unipoly(p: UniPoly) -> str:
    items = [((e,), c) for e, c in enumerate(p.coeffs) if c != 0]
    items.sort(key=lambda t: t[0], reverse=True)
    return _format_terms(items, ["t"])
