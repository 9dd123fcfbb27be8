"""Hypergeometric terms presented by their shift quotients.

A term f on Z^k is never stored as a function; it is specified by the k
reduced quotients R_i = A_i / B_i with A_i(z) f(z) = B_i(z) f(z + e_i),
an optional seed value, and a declared list of exception hyperplanes where
the recurrences are allowed to fail.  All algorithms consume only the
quotients and finitely many propagated values.

Rational functions are kept in factored form: a nonzero rational scalar
together with (base, exponent) pairs whose bases are normalized,
nonconstant, and pairwise coprime.  Input factors are trusted as the
finest available decomposition; ``poly.coprime_base`` refines them into
their natural coprime base, which splits a factor only where it shares a
gcd with another and does not depend on the order of the factors.

Arithmetic trusts that invariant.  A product refines only across its
operands: each operand's factors are one coprime run of ``coprime_base``,
so no gcd is taken between two factors of the same operand, and none is
normalized again.  Shifts and inverses keep the invariant as they are.  A
spec computes its quotients once and keeps them; one built from its
quotients (``TermSpec.from_ratios``) keeps those it was given.

Whether a product of factors is constant is decided by cancellation
(``_cancel``): exponents are summed per normalized base over the operands,
the bases whose exponents cancel are dropped, and only the remainder is
refined.  Merging equal bases leaves the product unchanged and refining the
remainder decides it, so the answer is exact both ways; when all factors
cancel, as they do on compatible input, no gcd is taken.  Equality of two
rational functions, and the compatibility check of each pair of quotients,
ask that question.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from ._frozen import Frozen, replace, set_field
from .errors import CocycleError, DimensionError, LimitError, PreconditionError
from .geometry import (
    MeasureZeroSet,
    PolyhedralRegion,
    certificate_cover,
    characteristic_certificates,
)
from .poly import Coeff, MultiPoly, Point, _base_order, _coeff, _integer, coprime_base, expand

# ---------------------------------------------------------------------------
# factored rational functions
# ---------------------------------------------------------------------------


class FactoredRational(Frozen):
    """scalar * prod(base ** exponent) with normalized, pairwise coprime,
    nonconstant bases and nonzero exponents.  The scalar follows the
    coefficient rule of ``poly``: an int when integral, else a Fraction.

    ``make`` establishes that invariant from any factors.  Products rely on
    it, refining only across their operands, so a direct construction
    ``FactoredRational(arity, scalar, factors)`` must keep it."""

    arity: int
    scalar: Coeff
    factors: tuple[tuple[MultiPoly, int], ...]

    def __init__(self, arity, scalar, factors):
        set_field(self, "arity", arity)
        set_field(self, "scalar", scalar)
        set_field(self, "factors", factors)

    @staticmethod
    def make(arity: int, scalar, factors: Iterable[tuple[MultiPoly, int]] = ()) -> "FactoredRational":
        scalar = _coeff(scalar)
        if scalar == 0:
            raise PreconditionError("rational function scalar must be nonzero")
        pool: list[tuple[MultiPoly, int]] = []
        for base, exp in factors:
            if base.arity != arity:
                raise DimensionError("factor arity mismatch")
            if exp == 0:
                continue
            if base.is_zero:
                raise PreconditionError("zero polynomial cannot be a factor")
            s, prim = base.normalized()
            if s != 1:
                scalar *= Fraction(s) ** exp
            if not prim.is_constant:
                pool.append((prim, exp))
        return FactoredRational(arity, _coeff(scalar), _refine([pair] for pair in pool))

    @staticmethod
    def one(arity: int) -> "FactoredRational":
        return FactoredRational(arity, 1, ())

    @staticmethod
    def from_poly(p: MultiPoly) -> "FactoredRational":
        if p.is_zero:
            raise PreconditionError("zero polynomial is not a rational function")
        return FactoredRational.make(p.arity, 1, [(p, 1)])

    def __mul__(self, other: "FactoredRational") -> "FactoredRational":
        if self.arity != other.arity:
            raise DimensionError("arity mismatch")
        return FactoredRational(
            self.arity,
            _coeff(self.scalar * other.scalar),
            _refine((self.factors, other.factors)),
        )

    def inv(self) -> "FactoredRational":
        return FactoredRational(
            self.arity, _coeff(Fraction(1, self.scalar)), tuple((b, -e) for b, e in self.factors)
        )

    def shift(self, v: Sequence[int]) -> "FactoredRational":
        # shifting preserves normalization and coprimality
        return FactoredRational(
            self.arity, self.scalar, tuple((b.shift(v), e) for b, e in self.factors)
        )

    def split(self) -> tuple["FactoredRational", "FactoredRational"]:
        """Numerator and denominator as factored polynomials (positive
        exponents); the scalar stays with the numerator."""
        num = FactoredRational(
            self.arity, self.scalar, tuple((b, e) for b, e in self.factors if e > 0)
        )
        den = FactoredRational(
            self.arity, 1, tuple((b, -e) for b, e in self.factors if e < 0)
        )
        return num, den

    def numerator(self) -> MultiPoly:
        positive = [(b, e) for b, e in self.factors if e > 0]
        return expand(MultiPoly.constant(self.arity, 1), positive)[0].scale(self.scalar)

    def denominator(self) -> MultiPoly:
        negative = [(b, e) for b, e in self.factors if e < 0]
        return expand(MultiPoly.constant(self.arity, 1), negative)[1]

    def eq_rational(self, other: "FactoredRational") -> bool:
        """Equality as rational functions at any factor granularity.  The
        bases are normalized, so a constant quotient of the factors is 1 and
        the scalars must agree; the factors of the quotient are then merged
        by equal bases, and only what does not cancel is refined
        (``_cancel``): it is constant only when nothing survives (unique
        factorization)."""
        if self.arity != other.arity:
            raise DimensionError("arity mismatch")
        return self.scalar == other.scalar and not _cancel(
            (self.factors, ((b, -e) for b, e in other.factors))
        )

    def evaluate(self, z: Sequence[int]) -> Optional[Fraction]:
        """Value at an integer point, each base evaluated once; None when a
        denominator factor vanishes there, also where a numerator factor
        does."""
        values = [(base.evaluate(z), exp) for base, exp in self.factors]
        if any(v == 0 and exp < 0 for v, exp in values):
            return None
        value = Fraction(self.scalar)
        for v, exp in values:
            if v == 0:
                return Fraction(0)
            value *= v**exp
        return value


def _refine(runs: Iterable[Iterable[tuple[MultiPoly, int]]]) -> tuple[tuple[MultiPoly, int], ...]:
    """The natural coprime base of normalized nonconstant factors given in
    coprime runs (see ``poly.coprime_base``), as (base, exponent) pairs
    whose exponent does not cancel."""
    refined = coprime_base([(b, (e,)) for b, e in run] for run in runs)
    return tuple((b, e) for b, (e,) in refined)


def _cancel(runs: Iterable[Iterable[tuple[MultiPoly, int]]]) -> tuple[tuple[MultiPoly, int], ...]:
    """The refined remainder of a product of normalized nonconstant factors:
    exponents summed per base over all runs, zero sums dropped, and only
    what is left refined, each factor a run of its own.  The product times a
    scalar is constant exactly when the result is empty, and otherwise the
    result is its nonconstant part."""
    total: dict[MultiPoly, int] = {}
    for run in runs:
        for base, exp in run:
            total[base] = total.get(base, 0) + exp
    return _refine([pair] for pair in total.items() if pair[1])


# ---------------------------------------------------------------------------
# term specifications
# ---------------------------------------------------------------------------


# the largest arity a spec may have: the specs, tests and benchmarks of the
# repository have 3 at most; the flood's limit refuses `structure` on
# prod z_i! of arity 8 in a third of a second, of arity 12 in four seconds,
# and on arity 16 it runs past 20 s
ARITY_LIMIT = 8


def _check_arity(arity: int, count: int) -> None:
    """A spec of arity k needs 1 <= k <= ``ARITY_LIMIT`` and k generators.
    The loader checks this before it parses any generator text, which
    builds the variables z1..zk."""
    if arity < 1:
        raise PreconditionError("arity must be at least 1")
    if count != arity:
        raise DimensionError(f"expected {arity} generators, got {count}")
    if arity > ARITY_LIMIT:
        raise LimitError(f"arity {arity} is more than ARITY_LIMIT = {ARITY_LIMIT}")


class Generator(Frozen):
    """One recurrence A(z) f(z) = B(z) f(z + e_i), both sides kept in
    factored form.  num/den need not be coprime: extending a term by zero
    multiplies both by the same certificate polynomial."""

    num: FactoredRational
    den: FactoredRational

    def __init__(self, num, den):
        set_field(self, "num", num)
        set_field(self, "den", den)

    def ratio(self) -> FactoredRational:
        """The reduced quotient A / B."""
        return self.num * self.den.inv()


class TermSpec(Frozen):
    """A hypergeometric term given by its unit-direction quotients."""

    arity: int
    generators: tuple[Generator, ...]
    exceptions: MeasureZeroSet
    seed: Optional[tuple[Point, Fraction]] = None
    zero_divisor_witness: Optional[MultiPoly] = None

    def __init__(self, arity, generators, exceptions=None, seed=None, zero_divisor_witness=None):
        set_field(self, "arity", arity)
        set_field(self, "generators", generators)
        set_field(self, "exceptions", MeasureZeroSet.empty() if exceptions is None else exceptions)
        set_field(self, "seed", seed)
        set_field(self, "zero_divisor_witness", zero_divisor_witness)

    @staticmethod
    def make(
        arity: int,
        generators: Sequence[tuple],
        exceptions: MeasureZeroSet = MeasureZeroSet.empty(),
        seed: Optional[tuple[Sequence[int], Fraction]] = None,
        zero_divisor_witness: Optional[MultiPoly] = None,
    ) -> "TermSpec":
        """Each generator is a (numerator, denominator) pair; either side
        may be a MultiPoly, a FactoredRational with positive exponents, or
        a list of (base, exponent) factors.  Factored input is kept
        factored.  An arity that is not an integral number raises
        TypeError; a seed point, exception plane or zero-divisor witness of
        another arity than the spec raises DimensionError."""
        arity = _integer(arity, "arity")
        _check_arity(arity, len(generators))
        gens = []
        for num, den in generators:
            gens.append(Generator(_as_factored_poly(num, arity), _as_factored_poly(den, arity)))
        if seed is not None:
            seed = _seed(arity, *seed)
        if any(h.arity != arity for h in exceptions.hyperplanes):
            raise DimensionError("exception hyperplane arity mismatch")
        if zero_divisor_witness is not None and zero_divisor_witness.arity != arity:
            raise DimensionError("zero-divisor witness arity mismatch")
        return TermSpec(
            arity,
            tuple(gens),
            exceptions,
            seed,
            zero_divisor_witness,
        )

    @staticmethod
    def from_ratios(
        arity: int,
        ratios: Sequence["FactoredRational"],
        exceptions: MeasureZeroSet = MeasureZeroSet.empty(),
        seed: Optional[tuple[Sequence[int], Fraction]] = None,
    ) -> "TermSpec":
        """Build a spec directly from reduced quotients, preserving their
        factored structure.  The spec keeps the quotients as its
        ``ratios()``, each with its factors in the order ``coprime_base``
        gives: since their bases are pairwise coprime, that is what
        A_i / B_i reduces to."""
        spec = TermSpec.make(
            arity,
            [r.split() for r in ratios],
            exceptions=exceptions,
            seed=seed,
        )
        kept = tuple(
            FactoredRational(r.arity, r.scalar, tuple(sorted(r.factors, key=_base_order)))
            for r in ratios
        )
        set_field(spec, "_ratios", kept)
        return spec

    @functools.cached_property
    def _ratios(self) -> tuple[FactoredRational, ...]:
        return tuple(g.ratio() for g in self.generators)

    def ratios(self) -> list[FactoredRational]:
        """The reduced quotients R_1..R_k, computed once per spec or kept from
        ``from_ratios``; the list is the caller's own."""
        return list(self._ratios)

    def with_seed(self, point: Sequence[int], value) -> "TermSpec":
        return replace(self, seed=_seed(self.arity, point, value))


def _seed(arity: int, point: Sequence[int], value) -> tuple[Point, Fraction]:
    """A seed in normal form: an int point of the spec's arity and a
    Fraction value; a coordinate that is not an integral number raises
    TypeError."""
    if len(point) != arity:
        raise DimensionError("seed point arity mismatch")
    return tuple(_integer(x, "seed coordinate") for x in point), Fraction(value)


def _as_factored_poly(value, arity: int) -> FactoredRational:
    if isinstance(value, MultiPoly):
        if value.is_zero:
            raise PreconditionError("generator polynomials must be nonzero")
        return FactoredRational.from_poly(value)
    if not isinstance(value, FactoredRational):
        value = FactoredRational.make(arity, 1, list(value))
    if any(e < 0 for _, e in value.factors):
        raise PreconditionError("generator sides must be polynomials")
    return value


def zero_divisor_spec(
    witness: MultiPoly, seed: Optional[tuple[Sequence[int], Fraction]] = None
) -> TermSpec:
    """A term annihilated by the witness polynomial p: taking A_i = p and
    B_i = p shifted by e_i satisfies the recurrences for any function
    supported on the zero set of p."""
    if witness.is_zero:
        raise PreconditionError("zero-divisor witness must be nonzero")
    k = witness.arity
    gens = []
    for i in range(k):
        e = tuple(1 if j == i else 0 for j in range(k))
        gens.append((witness, witness.shift(e)))
    return TermSpec.make(k, gens, seed=seed, zero_divisor_witness=witness)


# ---------------------------------------------------------------------------
# compatibility and composition
# ---------------------------------------------------------------------------


def _unit(k: int, i: int) -> Point:
    return tuple(1 if j == i else 0 for j in range(k))


@functools.lru_cache(maxsize=256)
def check_compatibility(spec: TermSpec) -> bool:
    """Whether R_i * (R_j shifted by e_i) = R_j * (R_i shifted by e_j) as
    exact rational functions for every pair i < j.  This is the condition
    for the quotients to come from a single term.

    Each pair cancels the quotient of the two sides, its four operands'
    factors merged by equal bases, and refines only what is left
    (``_cancel``).  The scalars cancel, since a shift keeps the scalar, so
    the sides are equal exactly when nothing is left."""
    ratios = spec.ratios()
    k = spec.arity
    for i in range(k):
        for j in range(i + 1, k):
            ei, ej = _unit(k, i), _unit(k, j)
            quotient = (
                ratios[i],
                ratios[j].shift(ei),
                ratios[j].inv(),
                ratios[i].shift(ej).inv(),
            )
            if _cancel(r.factors for r in quotient):
                return False
    return True


def compose_direction(spec: TermSpec, w: Sequence[int]) -> FactoredRational:
    """The reduced term ratio R_w for an arbitrary integer direction w.

    Built axis by axis (all e_1 steps, then e_2, ...) from

        R_{u + e_i} = R_u * (R_{e_i} shifted by u)
        R_{u - e_i} = R_u / (R_{e_i} shifted by u - e_i)

    Compatibility makes the result independent of the route.
    """
    if len(w) != spec.arity:
        raise DimensionError("direction arity mismatch")
    if not check_compatibility(spec):
        raise CocycleError("generators are not compatible")
    ratios = spec.ratios()
    k = spec.arity
    result = FactoredRational.one(k)
    position = [0] * k
    for i in range(k):
        step = _unit(k, i)
        for _ in range(abs(int(w[i]))):
            if w[i] > 0:
                result = result * ratios[i].shift(tuple(position))
                position[i] += 1
            else:
                position[i] -= 1
                result = result * ratios[i].shift(tuple(position)).inv()
    return result


def extend_by_zero(spec: TermSpec, support: PolyhedralRegion) -> TermSpec:
    """The spec of the term that agrees with f on the support region and is
    zero elsewhere.

    Multiplying both sides of each recurrence by the characteristic
    certificate of the region makes the recurrence valid on all of Z^k;
    the certificate zero hyperplanes join the declared exceptions, since
    the reduced quotients may genuinely fail there.
    """
    if support.arity != spec.arity:
        raise DimensionError("support arity mismatch")
    certs = characteristic_certificates(support)
    gens = []
    for g, p in zip(spec.generators, certs):
        if p.is_constant:
            gens.append(g)
        else:
            factor = FactoredRational.from_poly(p)
            gens.append(Generator(g.num * factor, g.den * factor))
    exceptions = spec.exceptions.union(certificate_cover(support))
    seed = spec.seed
    if seed is not None and not support.contains(seed[0]):
        seed = None
    return replace(spec, generators=tuple(gens), exceptions=exceptions, seed=seed)
