"""Exact polynomial arithmetic over the rationals.

Two representations are used throughout the package:

  MultiPoly  -- sparse multivariate polynomial: a sorted tuple of
                (exponent tuple, coefficient) pairs.  The zero polynomial
                has no terms.
  UniPoly    -- dense univariate polynomial: coefficient tuple, constant
                term first, leading coefficient nonzero.

Coefficients follow one rule: a coefficient is an ``int`` when it is
integral and a ``Fraction`` otherwise, never a ``float``.  The constructors
apply it, and a float raises TypeError.  Normalized polynomials therefore
have ``int`` coefficients only, so the gcd and the factor refinement on them
run in int arithmetic; a division of coefficients goes through ``Fraction``
explicitly.

Both types print themselves (``__str__``) in the grammar that ``parsing``
reads back.

One routine, ``expand``, multiplies out a product of powers into a
(numerator, denominator) pair, for both types.  A power is repeated
products with its base, never squaring: squaring the dense top half of a
power costs more than all the products with a small base, so
(z1 + z2 + 1)^98 takes 0.4 s this way and 1.2 s by squaring.  Each type
has one evaluation loop, ``evaluate_cleared`` over its integer-cleared
form (``cleared``); ``evaluate`` divides it by the cleared denominator.

Both types are immutable and hashable, so they can be dict keys and shared
freely between threads.  A ``MultiPoly`` computes three things once and
keeps them on itself, outside its fields, so that equality, hashing, the
repr and ``_frozen.replace`` do not see them: its hash (``_hash``), its
integer-cleared terms (``cleared``) and its normal form (``_normal``, which
``normalized`` returns).  Five functions are memoized by value in bounded
``lru_cache``s: ``MultiPoly.shift``, ``UniPoly.as_multipoly``, ``gcd``,
``detect_simple`` and ``orbit_anchor``.  The pipeline asks for the same few
hundred shifts and substitutions thousands of times, from many equal
instances; a shift vector or substitution direction follows the integer
rule of ``_integer``, so equal arguments share one entry.

Shift equivalence is exact: ``orbit_anchor`` gives every polynomial the
canonical anchor of its orbit under integer shifts, and its offset there,
by exact linear algebra and a Hermite normal form, with no search; two
polynomials are shifts of each other exactly when their anchors are equal.
The linear algebra keeps the coefficient rule, so it runs in ints and makes
a Fraction only for a value that is not integral, such as the centre -1/2
of z1^2 + z1.

Monomials are ordered graded-lexicographically (total degree first, then
lexicographic on the exponent tuple).  Normalization of a polynomial means
dividing it by the rational scalar, of the sign of its graded-lex leading
coefficient, that leaves coprime integer coefficients and a positive
leading one: ``(-2*z1).normalized()`` is ``(-2, z1)``.  This gives every
nonzero polynomial a canonical associate.

``gcd`` feeds the factor refinement ``coprime_base``, through which every
factored rational function is built; the refinement takes its input in
coprime runs and takes no gcd between two polynomials of one run.  ``gcd``
decides a linear argument by one exact division, otherwise evaluates both
arguments at integers and rebuilds the gcd from an integer gcd (GCDHEU),
and only when that finds no candidate dividing both runs the
pseudo-remainder sequence.  ``exact_div``, the trial division of both
rules, divides by leading terms in place.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from ._frozen import Frozen, set_field
from .errors import DimensionError, PreconditionError

Monomial = tuple[int, ...]
Point = tuple[int, ...]
Coeff = int | Fraction


def _coeff(c) -> Coeff:
    """The coefficient rule: c as an int when it is integral, as a Fraction
    otherwise.  A float raises TypeError, since it is not exact."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        if isinstance(c, float):
            raise TypeError(f"float {c!r} cannot be an exact coefficient")
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _integer(x, what: str) -> int:
    """The integer rule for coordinates, normals and levels: x as an int
    when it is an integral real number (an integral float included); a
    bool or anything else raises TypeError naming ``what``."""
    if type(x) is int:
        return x
    if isinstance(x, bool) or not isinstance(x, numbers.Real) or x % 1:
        raise TypeError(f"{what} must be an integer, got {x!r}")
    return int(x)


def _integer_point(z: Sequence) -> Point:
    """z as a tuple of ints under the integer rule of ``_integer``; a
    coordinate that breaks it raises TypeError naming the point."""
    z = tuple(z)
    for x in z:
        if type(x) is not int:
            return tuple(_integer(x, f"coordinate of the point {z!r}") for x in z)
    return z


def _primitive(coeffs: list[Coeff], lead: Coeff) -> tuple[Coeff, Optional[list[int]]]:
    """(s, [c / s for c in coeffs]) for the rational s, of the sign of lead,
    that makes the coefficients coprime integers; (1, None) when they
    already are and lead is positive."""
    content, den = 0, 1
    for c in coeffs:
        content = math.gcd(content, c.numerator)
        if c.denominator != 1:
            den = math.lcm(den, c.denominator)
    if lead < 0:
        content = -content
    if den == 1:
        if content == 1:
            return 1, None
        return content, [c // content for c in coeffs]
    return Fraction(content, den), [
        c.numerator * (den // c.denominator) // content for c in coeffs
    ]


def _glex_key(mono: Monomial):
    return (sum(mono), mono)


def _term_key(term: tuple[Monomial, Coeff]):
    """The graded-lex key of a (monomial, coefficient) term."""
    mono = term[0]
    return (sum(mono), mono)


def format_fraction(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def _format_terms(items: Iterable[tuple[Monomial, Coeff]], names: list[str]) -> str:
    """The terms in the grammar ``parsing`` reads, in the given order."""
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
    return " ".join(parts) or "0"


# ---------------------------------------------------------------------------
# multivariate polynomials
# ---------------------------------------------------------------------------


class MultiPoly(Frozen):
    """Sparse multivariate polynomial with rational coefficients, each an
    int when integral and a Fraction otherwise.

    ``terms`` is sorted by descending graded-lex order and never contains a
    zero coefficient, so equality and hashing are structural.  The hash is
    that of (arity, terms), computed once and kept on the polynomial.
    """

    arity: int
    terms: tuple[tuple[Monomial, Coeff], ...]

    def __init__(self, arity, terms):
        set_field(self, "arity", arity)
        set_field(self, "terms", terms)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.arity == other.arity and self.terms == other.terms
        return NotImplemented

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.arity, self.terms))

    def __hash__(self) -> int:
        return self._hash

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_dict(arity: int, coeffs: Mapping[Monomial, Coeff]) -> "MultiPoly":
        items = []
        for mono, c in coeffs.items():
            if len(mono) != arity:
                raise DimensionError(f"monomial {mono} has wrong length for arity {arity}")
            c = _coeff(c)
            if c:
                items.append((tuple(mono), c))
        items.sort(key=_term_key, reverse=True)
        return MultiPoly(arity, tuple(items))

    @staticmethod
    def constant(arity: int, value) -> "MultiPoly":
        value = _coeff(value)
        return MultiPoly(arity, (((0,) * arity, value),) if value else ())

    @staticmethod
    def variable(arity: int, index: int) -> "MultiPoly":
        if not 0 <= index < arity:
            raise DimensionError(f"variable index {index} out of range for arity {arity}")
        mono = tuple(1 if i == index else 0 for i in range(arity))
        return MultiPoly(arity, ((mono, 1),))

    @staticmethod
    def linear(coeffs: Sequence[int], constant=0) -> "MultiPoly":
        """The polynomial coeffs . z + constant."""
        arity = len(coeffs)
        d: dict[Monomial, Coeff] = {}
        for i, c in enumerate(coeffs):
            if c:
                mono = tuple(1 if j == i else 0 for j in range(arity))
                d[mono] = c
        if constant:
            d[(0,) * arity] = constant
        return MultiPoly.from_dict(arity, d)

    # -- basic queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        # the leading term has the largest total degree
        return not self.terms or not any(self.terms[0][0])

    def constant_value(self) -> Coeff:
        if self.is_zero:
            return 0
        if not self.is_constant:
            raise PreconditionError("polynomial is not constant")
        return self.terms[0][1]

    def total_degree(self) -> int:
        """Total degree; 0 for the zero polynomial.  ``terms`` is in
        descending graded-lex order, so it is the leading term's degree."""
        return sum(self.terms[0][0]) if self.terms else 0

    def degree_in(self, index: int) -> int:
        return max((m[index] for m, _ in self.terms), default=0)

    def leading(self) -> tuple[Monomial, Coeff]:
        if self.is_zero:
            raise PreconditionError("zero polynomial has no leading term")
        return self.terms[0]

    def coefficient(self, mono: Monomial) -> Coeff:
        for m, c in self.terms:
            if m == mono:
                return c
        return 0

    def as_dict(self) -> dict[Monomial, Coeff]:
        return dict(self.terms)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.arity != other.arity:
            raise DimensionError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        d = self.as_dict()
        for m, c in other.terms:
            d[m] = d.get(m, 0) + c
        return MultiPoly.from_dict(self.arity, d)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + other.scale(-1)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        d: dict[Monomial, Coeff] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = tuple(map(operator.add, m1, m2))
                d[m] = d.get(m, 0) + c1 * c2
        return MultiPoly.from_dict(self.arity, d)

    def scale(self, c) -> "MultiPoly":
        c = _coeff(c)
        if not c:
            return MultiPoly(self.arity, ())
        return MultiPoly(self.arity, tuple((m, _coeff(c * k)) for m, k in self.terms))

    def __pow__(self, n: int) -> "MultiPoly":
        """p ** n for n >= 0 by ``expand``: n - 1 products with p, no
        squaring (see the module docstring)."""
        if n < 0:
            raise PreconditionError("negative polynomial power")
        return expand(MultiPoly.constant(self.arity, 1), [(self, n)])[0]

    def evaluate(self, point: Sequence) -> Fraction:
        """p(point), ``evaluate_cleared`` over ``cleared[0]``; a coordinate
        that is not an int is converted with ``Fraction`` first."""
        if len(point) != self.arity:
            raise DimensionError("evaluation point has wrong length")
        point = [x if type(x) is int else Fraction(x) for x in point]
        return Fraction(self.evaluate_cleared(point), self.cleared[0])

    @functools.cached_property
    def cleared(self) -> tuple[int, tuple[tuple[int, tuple[int, ...]], ...]]:
        """(d, terms): d is the least positive integer making d * p
        integral, and terms lists d * p as (integer coefficient, variable
        indices repeated by exponent) pairs.  Built once per polynomial and
        kept on it for ``evaluate_cleared``."""
        d = math.lcm(*(c.denominator for _, c in self.terms))
        terms = tuple(
            (
                c.numerator * (d // c.denominator),
                tuple(i for i, e in enumerate(mono) for _ in range(e)),
            )
            for mono, c in self.terms
        )
        return d, terms

    def evaluate_cleared(self, point: Sequence[int]) -> int:
        """d * p(point), d = ``cleared[0]``, at a point of length ``arity``;
        in int arithmetic only at an integer point."""
        total = 0
        for c, variables in self.cleared[1]:
            for i in variables:
                c *= point[i]
            total += c
        return total

    def shift(self, v: Sequence[int]) -> "MultiPoly":
        """The polynomial z -> p(z + v).  v is a lattice vector: its
        coordinates follow the integer rule of ``_integer``, so equal vectors
        share one entry of the memo ``_shift``."""
        if len(v) != self.arity:
            raise DimensionError("shift vector has wrong length")
        v = tuple(_integer(x, "shift coordinate") for x in v)
        if not any(v):
            return self
        return _shift(self, v)

    def partial(self, index: int) -> "MultiPoly":
        """Formal partial derivative with respect to variable ``index``."""
        d: dict[Monomial, Coeff] = {}
        for mono, coeff in self.terms:
            e = mono[index]
            if e == 0:
                continue
            m = list(mono)
            m[index] = e - 1
            d[tuple(m)] = coeff * e
        return MultiPoly.from_dict(self.arity, d)

    def normalized(self) -> tuple[Coeff, "MultiPoly"]:
        """Split p = scalar * q with q having coprime integer coefficients
        and positive graded-lex leading coefficient, so the scalar has the
        sign of p's leading coefficient.  The zero polynomial normalizes to
        (1, 0), and a normalized p to (1, p).  Computed once per polynomial
        and kept on it (``_normal``)."""
        return self._normal

    @functools.cached_property
    def _normal(self) -> tuple[Coeff, "MultiPoly"]:
        if self.is_zero:
            return 1, self
        scalar, prim = _primitive([c for _, c in self.terms], self.terms[0][1])
        if prim is None:
            return 1, self
        return scalar, MultiPoly(self.arity, tuple(zip((m for m, _ in self.terms), prim)))

    def __str__(self) -> str:
        """The polynomial in z1..zk, leading term first, as
        ``parsing.parse_multipoly`` reads it back."""
        return _format_terms(self.terms, [f"z{i + 1}" for i in range(self.arity)])


@functools.lru_cache(maxsize=4096)
def _shift(p: MultiPoly, v: Point) -> MultiPoly:
    """p(z + v) for a nonzero vector v of p's arity, by binomial
    expansion; the memo behind ``MultiPoly.shift``, which passes int
    vectors.  ``_orbit`` calls the function unmemoized with rational ones."""
    # expand each (z_i + v_i)^e with binomial coefficients
    d: dict[Monomial, Coeff] = {}
    for mono, coeff in p.terms:
        partial: dict[Monomial, Coeff] = {(0,) * p.arity: coeff}
        for i, e in enumerate(mono):
            if e == 0:
                continue
            vi = v[i]
            nxt: dict[Monomial, Coeff] = {}
            for m0, c0 in partial.items():
                for j in range(e + 1):
                    c = c0 * math.comb(e, j) * vi ** (e - j)
                    if c == 0:
                        continue
                    m = list(m0)
                    m[i] += j
                    key = tuple(m)
                    nxt[key] = nxt.get(key, 0) + c
            partial = nxt
        for m, c in partial.items():
            d[m] = d.get(m, 0) + c
    return MultiPoly.from_dict(p.arity, d)


def expand(one, factors):
    """(num, den): the product of the bases of positive exponent and that
    of the others, each base taken |exponent| times, for ``MultiPoly`` and
    ``UniPoly`` alike.  Each side starts from its first base, so a lone
    base of exponent 1 comes back as itself; it is ``one`` only when no
    factor lands on it, as an exponent 0 does not."""
    num = den = None
    for base, exp in factors:
        for _ in range(abs(exp)):
            if exp > 0:
                num = base if num is None else num * base
            else:
                den = base if den is None else den * base
    return (one if num is None else num), (one if den is None else den)


# ---------------------------------------------------------------------------
# exact division and gcd
# ---------------------------------------------------------------------------


def _mono_div(a: Monomial, b: Monomial) -> Optional[Monomial]:
    out = []
    for x, y in zip(a, b):
        if x < y:
            return None
        out.append(x - y)
    return tuple(out)


def exact_div(p: MultiPoly, q: MultiPoly) -> Optional[MultiPoly]:
    """Return p / q when q divides p exactly, else None.

    Division by leading terms in graded-lex order: the remainder is a dict
    from which c * x^m * q is subtracted in place, where c * x^m is the
    remainder's leading term divided by q's.  The division fails as soon as
    q's leading monomial does not divide the remainder's."""
    if q.is_zero:
        return None
    if p.is_zero:
        return p
    if p.arity != q.arity:
        raise DimensionError("arity mismatch in division")
    (lq_mono, lq_coeff), q_rest = q.terms[0], q.terms[1:]
    quotient: dict[Monomial, Coeff] = {}
    rem = dict(p.terms)
    while rem:
        lr_mono = max(rem, key=_glex_key)
        lr_coeff = rem.pop(lr_mono)
        m = _mono_div(lr_mono, lq_mono)
        if m is None:
            return None
        if type(lr_coeff) is int and type(lq_coeff) is int:
            c, r = divmod(lr_coeff, lq_coeff)
            if r:
                c = Fraction(lr_coeff, lq_coeff)
        else:
            c = Fraction(lr_coeff, lq_coeff)
        quotient[m] = c
        for mono, k in q_rest:
            key = tuple(a + b for a, b in zip(m, mono))
            v = rem.get(key, 0) - c * k
            if v:
                rem[key] = v
            else:
                del rem[key]
    return MultiPoly.from_dict(p.arity, quotient)


def _coeffs_in(p: MultiPoly, index: int) -> dict[int, MultiPoly]:
    """View p as a polynomial in variable ``index``: exponent -> coefficient
    (a MultiPoly of the same arity not involving that variable)."""
    out: dict[int, dict[Monomial, Coeff]] = {}
    for mono, coeff in p.terms:
        e = mono[index]
        m = list(mono)
        m[index] = 0
        out.setdefault(e, {})[tuple(m)] = coeff
    return {e: MultiPoly.from_dict(p.arity, d) for e, d in out.items()}


def _content_in(p: MultiPoly, index: int) -> MultiPoly:
    parts = list(_coeffs_in(p, index).values())
    g = MultiPoly(p.arity, ())
    for part in parts:
        g = gcd(g, part)
    return g


def _pseudo_rem(a: MultiPoly, b: MultiPoly, index: int) -> MultiPoly:
    """Pseudo-remainder of a by b with respect to variable ``index``."""
    db = b.degree_in(index)
    b_coeffs = _coeffs_in(b, index)
    lb = b_coeffs[db]
    r = a
    while not r.is_zero and r.degree_in(index) >= db:
        dr = r.degree_in(index)
        r_coeffs = _coeffs_in(r, index)
        lr = r_coeffs[dr]
        shift_mono = tuple(dr - db if i == index else 0 for i in range(a.arity))
        r = r * lb - b * (lr * MultiPoly.from_dict(a.arity, {shift_mono: 1}))
    return r


def gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Greatest common divisor, normalized (coprime integer coefficients,
    positive graded-lex leading coefficient).  gcd(p, 0) is the normalized p.

    Three rules decide it, the first that applies:

    - **Linear.** A polynomial of total degree 1 is irreducible, so the gcd
      is that argument, normalized, when ``exact_div`` divides the other
      argument by it, and 1 otherwise.
    - **GCDHEU** (Char, Geddes & Gonnet, J. Symbolic Comput. 7, 1989).  On
      the primitive integer parts, evaluate one variable at a time at an
      integer xi >= 2 * min(|p|_inf, |q|_inf) + 2, take the integer gcd at
      the bottom, and at each level rebuild a polynomial from the symmetric
      xi-adic digits and take its primitive part.  A candidate is accepted
      only when ``exact_div`` divides both inputs by it; by the GCDHEU
      theorem it is then the gcd, so no result rests on the heuristic.
    - **PRS.** After six values of xi, content/primitive-part recursion on
      the variable of lowest degree with the primitive pseudo-remainder
      sequence of Collins (J. ACM 14, 1967); on integer coefficients every
      step stays in int arithmetic.

    The arguments are put in (total degree, terms) order before the cached
    computation, so gcd(q, p) is a cache hit after gcd(p, q)."""
    if p.arity != q.arity:
        raise DimensionError("arity mismatch in gcd")
    if (q.total_degree(), q.terms) < (p.total_degree(), p.terms):
        p, q = q, p
    return _gcd(p, q)


@functools.lru_cache(maxsize=8192)
def _gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    if p.is_zero and q.is_zero:
        return p
    if p.is_zero:
        return q.normalized()[1]
    if q.is_zero:
        return p.normalized()[1]
    if p.is_constant or q.is_constant:
        return MultiPoly.constant(p.arity, 1)
    if p.total_degree() == 1:
        # gcd passes p as the argument of lower total degree, so a linear
        # argument is p; it is irreducible
        p = p.normalized()[1]
        return p if exact_div(q, p) is not None else MultiPoly.constant(p.arity, 1)
    g = _gcdheu(p, q)
    return g if g is not None else _prs_gcd(p, q)


_HEU_GCD_MAX = 6


def _gcdheu(p: MultiPoly, q: MultiPoly) -> Optional[MultiPoly]:
    """The normalized gcd of two nonzero polynomials by GCDHEU, or None
    when no value of xi gave a candidate dividing both."""
    g = _heu(p.normalized()[1], q.normalized()[1])
    return None if g is None else g.normalized()[1]


def _heu(f: MultiPoly, g: MultiPoly) -> Optional[MultiPoly]:
    """gcd of two nonzero integer polynomials over Z, up to sign, by
    evaluating the first variable at xi and recursing on the rest."""
    n = f.arity
    if n == 0:
        return MultiPoly.constant(0, math.gcd(f.terms[0][1], g.terms[0][1]))
    if not any(m[0] for m, _ in f.terms + g.terms):
        # the first variable is absent: drop it, so that no digit lands on it
        h = _heu(_drop_first(f), _drop_first(g))
        return None if h is None else MultiPoly(n, tuple(((0,) + m, c) for m, c in h.terms))
    content = math.gcd(*(c for _, c in f.terms), *(c for _, c in g.terms))
    if content != 1:
        f = MultiPoly(n, tuple((m, c // content) for m, c in f.terms))
        g = MultiPoly(n, tuple((m, c // content) for m, c in g.terms))
    xi = 2 * min(max(abs(c) for _, c in f.terms), max(abs(c) for _, c in g.terms)) + 2
    for _ in range(_HEU_GCD_MAX):
        ff, gg = _evaluate_first(f, xi), _evaluate_first(g, xi)
        if not ff.is_zero and not gg.is_zero:
            h = _heu(ff, gg)
            if h is not None:
                cand = _interpolate_first(h, xi)
                if cand.is_constant or (
                    exact_div(f, cand) is not None and exact_div(g, cand) is not None
                ):
                    return cand.scale(content)
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _drop_first(f: MultiPoly) -> MultiPoly:
    """f, free of its first variable, with that variable removed."""
    return MultiPoly(f.arity - 1, tuple((m[1:], c) for m, c in f.terms))


def _evaluate_first(f: MultiPoly, xi: int) -> MultiPoly:
    """f with its first variable set to xi, one variable fewer.  Each power
    of xi is computed once, by one product from the power below it."""
    powers = [1]
    for _ in range(max((m[0] for m, _ in f.terms), default=0)):
        powers.append(powers[-1] * xi)
    d: dict[Monomial, int] = {}
    for m, c in f.terms:
        key = m[1:]
        d[key] = d.get(key, 0) + c * powers[m[0]]
    return MultiPoly.from_dict(f.arity - 1, d)


def _interpolate_first(h: MultiPoly, xi: int) -> MultiPoly:
    """The primitive part of the polynomial, one variable more than h, whose
    coefficient of x^i * m is the i-th symmetric xi-adic digit of h's
    coefficient of m."""
    d: dict[Monomial, int] = {}
    half = xi // 2
    for m, c in h.terms:
        i = 0
        while c:
            digit = c % xi
            if digit > half:
                digit -= xi
            c = (c - digit) // xi
            if digit:
                d[(i,) + m] = digit
            i += 1
    return MultiPoly.from_dict(h.arity + 1, d).normalized()[1]


def _prs_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """The normalized gcd of two nonconstant polynomials by content and
    primitive-part recursion with the primitive PRS."""
    # variable of lowest positive degree in either argument
    best = None
    for i in range(p.arity):
        d = max(p.degree_in(i), q.degree_in(i))
        if d > 0 and (best is None or d < best[1]):
            best = (i, d)
    assert best is not None
    i = best[0]
    cp = _content_in(p, i)
    cq = _content_in(q, i)
    cont = gcd(cp, cq)
    pp = exact_div(p, cp)
    qq = exact_div(q, cq)
    assert pp is not None and qq is not None
    a, b = pp, qq
    if a.degree_in(i) < b.degree_in(i):
        a, b = b, a
    while not b.is_zero:
        r = _pseudo_rem(a, b, i)
        if not r.is_zero:
            rc = _content_in(r, i)
            r = exact_div(r, rc)
            assert r is not None
        a, b = b, r
    result = cont * a.normalized()[1]
    return result.normalized()[1]


def coprime_base(
    runs: Iterable[Iterable[tuple[MultiPoly, Sequence[int]]]],
) -> list[tuple[MultiPoly, tuple[int, ...]]]:
    """Factor refinement (Bach, Driscoll & Shallit, J. Algorithms 15, 1993):
    the natural coprime base of normalized nonconstant polynomials, each
    carrying an exponent vector.

    The input comes in coprime runs: the polynomials of one run are known to
    be pairwise coprime, such as the factors of one ``FactoredRational``, so
    no gcd is taken between two of them.  A run of one polynomial claims
    nothing.  An incoming p that shares g = gcd(p, b) with a base element b
    replaces b by g, b/g and p/g, each in a run of its own, the exponents of
    b and p adding up on g; identical bases merge, whatever their runs.  The
    product of base ** exponent is kept in every exponent coordinate, and
    the result is normalized, nonconstant and pairwise coprime.  The bases
    depend on the input polynomials alone, and those whose exponents all
    cancel are dropped only once refinement is done, so the result, sorted
    by (total degree, terms), does not depend on the input order or on how
    it is cut into runs."""
    # base element -> (exponents, run, whether it is linear)
    base: dict[MultiPoly, tuple[tuple[int, ...], int, bool]] = {}
    work = [(p, tuple(e), r) for r, run in enumerate(runs) for p, e in run]
    fresh = itertools.count(-1, -1)
    while work:
        p, e, r = work.pop()
        if p in base:
            f, s, linear = base[p]
            base[p] = (tuple(x + y for x, y in zip(f, e)), s, linear)
            continue
        linear = p.total_degree() == 1
        for b, (f, s, b_linear) in base.items():
            # p is not in base, so it is coprime to b when both come from one
            # run, or when both are linear: distinct normalized linear
            # polynomials are coprime, linear ones being irreducible
            if s == r or (linear and b_linear):
                continue
            g = gcd(p, b)
            if not g.is_constant:
                del base[b]
                work.append((g, tuple(x + y for x, y in zip(e, f)), next(fresh)))
                for rest, exps in ((exact_div(b, g), f), (exact_div(p, g), e)):
                    if not rest.is_constant:
                        work.append((rest, exps, next(fresh)))
                break
        else:
            base[p] = (e, r, linear)
    return sorted(((b, e) for b, (e, _, _) in base.items() if any(e)), key=_base_order)


def _base_order(factor: tuple[MultiPoly, object]) -> tuple:
    """The sort key of a (base, exponent) pair in ``coprime_base``'s result:
    the base's total degree, then its terms."""
    return factor[0].total_degree(), factor[0].terms


# ---------------------------------------------------------------------------
# univariate polynomials
# ---------------------------------------------------------------------------


class UniPoly(Frozen):
    """Dense univariate polynomial, constant coefficient first; each
    coefficient is an int when integral and a Fraction otherwise."""

    coeffs: tuple[Coeff, ...]

    def __init__(self, coeffs):
        set_field(self, "coeffs", coeffs)

    @staticmethod
    def make(coeffs: Iterable) -> "UniPoly":
        cs = [_coeff(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        return UniPoly(tuple(cs))

    @staticmethod
    def constant(value) -> "UniPoly":
        return UniPoly.make([value])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def degree(self) -> int:
        """Degree; 0 for the zero polynomial."""
        return max(len(self.coeffs) - 1, 0)

    def evaluate(self, x) -> Fraction:
        """p(x), ``evaluate_cleared`` over ``cleared[0]``; an x that is not
        an int is converted with ``Fraction`` first."""
        x = x if type(x) is int else Fraction(x)
        return Fraction(self.evaluate_cleared(x), self.cleared[0])

    @functools.cached_property
    def cleared(self) -> tuple[int, tuple[int, ...]]:
        """(d, coeffs): d is the least positive integer making d * p
        integral, and coeffs are those of d * p, constant first.  Built
        once per polynomial and kept on it for ``evaluate_cleared``."""
        d = math.lcm(*(c.denominator for c in self.coeffs))
        return d, tuple(c.numerator * (d // c.denominator) for c in self.coeffs)

    def evaluate_cleared(self, x: int) -> int:
        """d * p(x), d = ``cleared[0]``, by Horner's rule; in int
        arithmetic only at an integer x."""
        total = 0
        for c in reversed(self.cleared[1]):
            total = total * x + c
        return total

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly.make(
            [
                (self.coeffs[i] if i < len(self.coeffs) else 0)
                + (other.coeffs[i] if i < len(other.coeffs) else 0)
                for i in range(n)
            ]
        )

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero or other.is_zero:
            return UniPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly.make(out)

    def scale(self, c) -> "UniPoly":
        c = _coeff(c)
        if not c:
            return UniPoly(())
        return UniPoly(tuple(_coeff(c * k) for k in self.coeffs))

    def shift_arg(self, c) -> "UniPoly":
        """The polynomial t -> p(t + c), by Taylor shift: n passes of
        synthetic division by t - c over the coefficient list in place."""
        c = _coeff(c)
        b = list(self.coeffs)
        n = len(b) - 1
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                b[j] += c * b[j + 1]
        return UniPoly.make(b)

    def reflect(self, c) -> "UniPoly":
        """The polynomial t -> p(c - t)."""
        shifted = self.shift_arg(c)
        return UniPoly.make(
            [(-1) ** i * coeff for i, coeff in enumerate(shifted.coeffs)]
        )

    def divmod_linear(self, root: Coeff) -> tuple["UniPoly", Coeff]:
        """Divide by (t - root); return (quotient, remainder value)."""
        q = []
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * root + c
            q.append(acc)
        rem = q.pop() if q else 0
        q.reverse()
        return UniPoly.make(q), rem

    def normalized(self) -> tuple[Coeff, "UniPoly"]:
        """Split p = scalar * q, q with coprime integer coefficients and
        positive leading coefficient; a normalized p gives (1, p)."""
        if self.is_zero:
            return 1, self
        scalar, prim = _primitive(self.coeffs, self.coeffs[-1])
        if prim is None:
            return 1, self
        return scalar, UniPoly(tuple(prim))

    def as_multipoly(self, direction: Sequence[int], offset: int = 0) -> MultiPoly:
        """Substitute t = direction . z + offset, producing a MultiPoly.  The
        direction and the offset follow the integer rule of ``_integer``, so
        equal arguments share one entry of the memo ``_substitute``."""
        direction = tuple(_integer(x, "direction coordinate") for x in direction)
        return _substitute(self, direction, _integer(offset, "offset"))

    def __str__(self) -> str:
        """The polynomial in t, highest degree first, as
        ``parsing.parse_unipoly`` reads it back."""
        return _format_terms(
            (((e,), c) for e, c in reversed(list(enumerate(self.coeffs))) if c), ["t"]
        )


@functools.lru_cache(maxsize=4096)
def _substitute(p: UniPoly, direction: Point, offset: int) -> MultiPoly:
    """p(direction . z + offset) by Horner's rule; the memo behind
    ``UniPoly.as_multipoly``."""
    arity = len(direction)
    linear = MultiPoly.linear(direction, offset)
    result = MultiPoly(arity, ())
    for coeff in reversed(p.coeffs):
        result = result * linear + MultiPoly.constant(arity, coeff)
    return result


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = set()
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            out.add(d)
            out.add(n // d)
    return sorted(out)


def rational_roots(p: UniPoly) -> tuple[list[Coeff], UniPoly]:
    """All rational roots of p with multiplicity (sorted ascending), each an
    int when integral, plus the root-free cofactor q with
    p = q * prod(t - root).

    Roots of a factor of degree >= 2 are found among the candidates a/b of
    the rational root theorem; once what is left is linear, c0 + c1 t, its
    root is -c0/c1 and its cofactor the constant c1, as dividing it by
    (t - root) would give."""
    if p.is_zero:
        raise PreconditionError("zero polynomial has no well-defined roots")
    roots: list[Coeff] = []
    work = p
    # strip powers of t
    while not work.is_constant and work.coeffs[0] == 0:
        roots.append(0)
        work = UniPoly(work.coeffs[1:])
    if work.degree() >= 2:
        _, prim = work.normalized()
        trailing = prim.coeffs[0].numerator
        lead = prim.coeffs[-1].numerator
        candidates = sorted(
            {
                _coeff(Fraction(sign * a, b))
                for a in _divisors(trailing)
                for b in _divisors(lead)
                for sign in (1, -1)
            }
        )
        for cand in candidates:
            if work.degree() < 2:
                break
            while work.evaluate(cand) == 0:
                work, rem = work.divmod_linear(cand)
                assert rem == 0
                roots.append(cand)
    if work.degree() == 1:
        c0, c1 = work.coeffs
        roots.append(_coeff(Fraction(-c0) / c1))
        work = UniPoly.make([c1])
    roots.sort()
    return roots, work


def integer_roots(p: UniPoly) -> list[int]:
    roots, _ = rational_roots(p)
    return [r for r in roots if type(r) is int]


# ---------------------------------------------------------------------------
# integer vector helpers
# ---------------------------------------------------------------------------


def primitive_vector(values: Sequence[Coeff]) -> Optional[Point]:
    """Scale a rational vector to a coprime integer vector whose first
    nonzero entry is positive (``_primitive``).  None for the zero vector."""
    lead = next((v for v in values if v), None)
    if lead is None:
        return None
    _, ints = _primitive(values, lead)
    return tuple(map(int, ints or values))


# ---------------------------------------------------------------------------
# simple-polynomial detection
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=8192)
def detect_simple(p: MultiPoly) -> Optional[tuple[Point, UniPoly]]:
    """Recognize p(z) = q(v . z) for a univariate q and a primitive integer
    direction v; constants report the zero direction, and None means there
    is no such q.

    With j0 the first variable p depends on, each partial must equal c_i
    times the j0-th exactly, so grad p = (dp/dz_j0) r with r_j0 = 1.  No
    expansion of q(v . z) checks the q read off the axis, since it is p:
    every u orthogonal to r has u . grad p = 0, so p is constant on each
    coset of r's orthogonal complement, which holds z - (r . z) e_j0; so
    p(z) = q~(r . z) with q~(s) = p(s e_j0).  Then v = lambda r with
    lambda > 0 (r's first nonzero entry is r_j0 = 1), and q(t) = q~(t /
    lambda) has as coefficient of t^n p's coefficient of z_j0^n over
    v_j0^n, as read below; so q(v . z) = p(z).
    """
    if p.is_zero:
        raise PreconditionError("detect_simple requires a nonzero polynomial")
    partials = [p.partial(i) for i in range(p.arity)]
    used = [i for i, q in enumerate(partials) if not q.is_zero]
    if not used:
        return (0,) * p.arity, UniPoly.constant(p.constant_value())
    j0 = used[0]
    base = partials[j0]
    ratios: list[Coeff] = [0] * p.arity
    ratios[j0] = 1
    base_lead_mono, base_lead_coeff = base.leading()
    for i in used[1:]:
        ci = Fraction(partials[i].coefficient(base_lead_mono), base_lead_coeff)
        if ci == 0 or partials[i] != base.scale(ci):
            return None
        ratios[i] = ci
    v = primitive_vector(ratios)
    assert v is not None
    # on the axis j0, p(s e_j0) = q(v[j0] s): q's coefficient of t^n is p's
    # coefficient of z_j0^n over v[j0]^n
    vj = v[j0]
    axis = [0] * (p.total_degree() + 1)
    for m, c in p.terms:
        if sum(m) == m[j0]:
            axis[m[j0]] = Fraction(c, vj ** m[j0])
    return v, UniPoly.make(axis)


# ---------------------------------------------------------------------------
# box search
# ---------------------------------------------------------------------------


def find_nonzero_in_box(p: MultiPoly, corner: Sequence[int], size: int) -> Optional[Point]:
    """A point of the box {z : corner_i <= z_i <= corner_i + size} where p is
    nonzero, or None when p is the zero polynomial.

    Requires size >= total_degree(p): a nonzero polynomial of total degree n
    cannot vanish on a whole box of size n, so the scan is guaranteed to
    succeed.
    """
    if len(corner) != p.arity:
        raise DimensionError("box corner has wrong length")
    if p.is_zero:
        return None
    if size < p.total_degree():
        raise PreconditionError(
            f"box size {size} is smaller than total degree {p.total_degree()}"
        )
    for offset in itertools.product(range(size + 1), repeat=p.arity):
        z = tuple(c + o for c, o in zip(corner, offset))
        if p.evaluate(z) != 0:
            return z
    raise PreconditionError("no nonzero point found; this should be impossible")


# ---------------------------------------------------------------------------
# shift equivalence
# ---------------------------------------------------------------------------


def _solve_linear(rows: list[list[Coeff]], rhs: list[Coeff]):
    """(particular solution, nullspace basis) of the first basis of the rows
    met in row order; a row in the span of the rows before it is dropped
    with its right-hand side.  Both are read off the reduced row echelon
    form of the rows kept, which depends only on them.  Entries follow the
    coefficient rule, so integral ones are ints throughout."""
    n_vars = len(rows[0]) if rows else 0
    echelon: dict[int, list[Coeff]] = {}  # pivot column -> row scaled to 1 there
    for row, b in zip(rows, rhs):
        row = [_coeff(x) for x in (*row, b)]
        for col, e in echelon.items():
            if f := row[col]:
                row = [_coeff(x - f * y) for x, y in zip(row, e)]
        col = next((c for c in range(n_vars) if row[c]), None)
        if col is None:
            continue
        if (pivot := row[col]) != 1:
            row = [_coeff(Fraction(x, pivot)) for x in row]
        for c, e in echelon.items():
            if f := e[col]:
                echelon[c] = [_coeff(x - f * y) for x, y in zip(e, row)]
        echelon[col] = row
    particular = [echelon[c][n_vars] if c in echelon else 0 for c in range(n_vars)]
    basis = [
        [-echelon[c][f] if c in echelon else int(c == f) for c in range(n_vars)]
        for f in range(n_vars)
        if f not in echelon
    ]
    return particular, basis


def _hnf(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[list[int]]]:
    """Row Hermite normal form of an integer matrix A by unimodular row
    operations: (H, T) with T * A = H.  The nonzero rows of H come first, in
    echelon form, each pivot positive and the entries above it reduced into
    [0, pivot); the rows of T beside the zero rows of H are a basis of the
    integer left kernel of A.  H's nonzero rows depend only on the lattice
    the rows of A span."""
    a = [list(r) for r in rows]
    m = len(a)
    t = [[int(i == j) for j in range(m)] for i in range(m)]
    r = 0
    for c in range(ncols):
        if r == m:
            break
        while True:
            # Euclid on column c: the smallest nonzero entry divides the rest
            live = [i for i in range(r, m) if a[i][c]]
            if not live:
                break
            low = min(live, key=lambda i: abs(a[i][c]))
            a[r], a[low], t[r], t[low] = a[low], a[r], t[low], t[r]
            done = True
            for i in range(r + 1, m):
                if a[i][c]:
                    q = a[i][c] // a[r][c]
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    t[i] = [x - q * y for x, y in zip(t[i], t[r])]
                    done = done and not a[i][c]
            if done:
                break
        if not a[r][c]:
            continue
        if a[r][c] < 0:
            a[r], t[r] = [-x for x in a[r]], [-x for x in t[r]]
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                t[i] = [x - q * y for x, y in zip(t[i], t[r])]
        r += 1
    return a, t


def _reduce(u: Sequence[int], lattice: tuple[Point, ...]) -> Point:
    """The canonical representative of u modulo the lattice spanned by
    ``lattice``, rows in the form ``_orbit`` gives them: each row's last
    nonzero entry is its positive pivot, pivots strictly decrease, so the
    representative has its pivot coordinates in [0, pivot)."""
    u = list(u)
    for row in lattice:
        c = max(i for i, x in enumerate(row) if x)
        q = u[c] // row[c]
        if q:
            u = [x - q * y for x, y in zip(u, row)]
    return tuple(u)


def _combine(weights: list[Coeff], vectors: list[list[Coeff]], k: int) -> list[Coeff]:
    """sum_i weights[i] * vectors[i], of length k, by the coefficient rule."""
    return [_coeff(sum(x * w[j] for x, w in zip(weights, vectors))) for j in range(k)]


@functools.lru_cache(maxsize=4096)
def _orbit(p: MultiPoly) -> tuple[MultiPoly, Point, tuple[Point, ...]]:
    """(anchor, offset, lattice) for ``orbit_anchor``; lattice is a basis of
    the integer translations that fix p, V ∩ Z^k with
    V = {u : sum_i u_i dp/dz_i = 0}, as ``_reduce`` takes it."""
    k = p.arity
    # the rational centre c, canonical modulo the still-free directions:
    # from degree d - 1 down, the coefficients of p(z + c + w) of that degree
    # are affine in w over the free directions (the higher ones no longer
    # move), and c is moved to zero the pivot monomials among them
    centre: list[Coeff] = [0] * k
    free = [[int(i == j) for j in range(k)] for i in range(k)]
    q = p
    for deg in range(p.total_degree(), 0, -1):
        if not free:
            break
        grads = [dict() for _ in free]  # (w . grad) of q's degree-deg part
        for mono, c in q.terms:
            if sum(mono) != deg:
                continue
            for g, w in zip(grads, free):
                for i, e in enumerate(mono):
                    if e and w[i]:
                        m = mono[:i] + (e - 1,) + mono[i + 1 :]
                        g[m] = g.get(m, 0) + c * e * w[i]
        monos = sorted({m for g in grads for m, c in g.items() if c}, key=_glex_key, reverse=True)
        if not monos:
            continue
        lower = dict(q.terms)
        lam, null = _solve_linear(
            [[g.get(m, 0) for g in grads] for m in monos], [-lower.get(m, 0) for m in monos]
        )
        step = _combine(lam, free, k)
        if any(step):
            centre = [_coeff(a + b) for a, b in zip(centre, step)]
            if all(type(x) is int for x in step):
                q = q.shift(step)
            else:
                q = _shift.__wrapped__(q, tuple(step))  # a rational shift, not memoized
        free = [_combine(n, free, k) for n in null]
    if not free:
        s = [math.floor(x) for x in centre]
        lattice: tuple[Point, ...] = ()
    else:
        # P (n x k, integer, kernel V) maps the orbit onto the quotient by V,
        # where the integer shifts form the lattice of the HNF rows of P^T;
        # s is the shift that brings P c into that lattice's fundamental box
        _, perp = _solve_linear(free, [0] * len(free))
        proj = [primitive_vector(v) for v in perp]
        n = len(proj)
        h, t = _hnf([[row[i] for row in proj] for i in range(k)], n)
        x = [sum(a * b for a, b in zip(row, centre)) for row in proj]
        s = [0] * k
        for i in range(n):
            a = x[i] // h[i][i]
            x = [xj - a * hj for xj, hj in zip(x, h[i])]
            s = [sj + a * tj for sj, tj in zip(s, t[i])]
        # the last nonzero entry of each row is its pivot
        flipped, _ = _hnf([row[::-1] for row in t[n:]], k)
        lattice = tuple(tuple(row[::-1]) for row in flipped)
    return p.shift(s), _reduce([-x for x in s], lattice), lattice


def orbit_anchor(p: MultiPoly) -> tuple[MultiPoly, Point]:
    """The canonical anchor of p's orbit under integer shifts, and p's
    offset in it: (anchor, u) with p(z) = anchor(z + u), the anchor equal
    for every p(z + t) with t integral, and u + t the offset of p(z + t)
    modulo the translations that fix p.

    Exact, with no search (Grigoriev, TCS 180, 1997).  The rational shifts
    c with p(z + c) equal to one canonical polynomial form an affine space
    c0 + V, V = {u : sum_i u_i dp/dz_i = 0}: degree by degree from d - 1
    down, the coefficients of p(z + c) are affine in the directions still
    free, and c zeroes those of the monomials whose rows, in descending
    graded-lex order, form the first basis of all the rows: one
    ``_solve_linear`` over all of them.
    The integer shift of the anchor brings c into a fundamental box of the
    image of Z^k modulo V, a Hermite normal form; offsets are canonical
    modulo V ∩ Z^k, whose Hermite basis fixes their pivot coordinates.
    The systems, c and the free directions keep the coefficient rule: an
    integral value is an int, so the solve runs in int arithmetic, and an
    integral step of c is taken by the memoized ``MultiPoly.shift``; only a
    step with a coordinate that is not integral makes Fractions.  The box
    uses floor division, which stays exact on ints of any size.
    Memoized by value, as ``MultiPoly.shift`` is."""
    anchor, offset, _ = _orbit(p)
    return anchor, offset
