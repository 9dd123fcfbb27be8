"""Ore-Sato decomposition of a compatible term specification.

Every term ratio of a hypergeometric term that is not a zero divisor can be
written as

    R_w(z) = gamma^w * C(z+w)/C(z) * D(z)/D(z+w)
             * prod over directions v of gp(0, v.w) of a_v(v.z+j)/b_v(v.z+j)

with C, D relatively prime polynomials and a_v, b_v univariate.  ``gp`` is
the generalized product: product over [a, b) when b >= a and the reciprocal
product over [b, a) when b < a, which makes gp(a,b) * gp(b,c) = gp(a,c)
unconditionally.

``decompose`` reconstructs such a form from the unit-direction quotients:
simple factors (univariate polynomials of an integer linear form) are
sorted into per-direction shift families and balanced into telescoping
chains, while non-simple factors are grouped into shift orbits whose signed
multiplicity pattern gives the C/D pair.  Every factor is routed by one
dict lookup of a canonical anchor: a simple one by its direction and the
anchor of its univariate profile (``_anchor_family``), a non-simple one by
the exact anchor of its orbit (``poly.orbit_anchor``).  Each family and
orbit is solved from one generator's exponents; the residue pass checks the
rest: each generator divided by the form's ratio in its direction must be a
constant, its gamma.  That one pass is the verification.  When it fails,
incompatible generators raise CocycleError and input that does not
telescope raises StructureError.

By the Ore-Sato theorem C, D and the chain sides are products of shifts of
the families' and orbits' anchors, and ``decompose`` builds them as such:
the form it returns keeps those normalized pieces, with signed
multiplicities, beside the multiplied-out fields it displays.  The formula's
factors are listed piece by piece, each normalized once.  The residue pass
cancels them against the generator's jointly refined factors by equal
bases and refines only what does not cancel (``termratio._cancel``), and
``ratio_from_form`` refines the pieces, so neither has to find them again
with gcds of the products.  A form made by the constructor or by
``_frozen.replace`` keeps no pieces and lists each displayed
polynomial as one.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Sequence

from ._frozen import Frozen, set_field
from .errors import (
    CocycleError,
    DimensionError,
    IntegrityError,
    PreconditionError,
    StructureError,
    ZeroTermError,
)
from .poly import (
    Coeff,
    MultiPoly,
    Point,
    UniPoly,
    _coeff,
    _integer_point,
    coprime_base,
    detect_simple,
    expand,
    gcd,
    orbit_anchor,
    rational_roots,
)
from .termratio import (
    FactoredRational,
    TermSpec,
    _cancel,
    _refine,
    _unit,
    check_compatibility,
)

# ---------------------------------------------------------------------------
# generalized products
# ---------------------------------------------------------------------------


def gp_eval(a: int, b: int, term: Callable[[int], Fraction]) -> Fraction:
    """Product of term(j) over [a, b); reciprocal product over [b, a) when
    b < a.  gp(a, a) = 1.  A zero factor raises ZeroTermError naming j."""
    value = Fraction(1)
    for j in range(min(a, b), max(a, b)):
        t = Fraction(term(j))
        if t == 0:
            raise ZeroTermError(f"zero factor at j = {j}", j)
        value *= t
    return value if b >= a else 1 / value


# ---------------------------------------------------------------------------
# the decomposition form
# ---------------------------------------------------------------------------

# factors with signed multiplicities: positive in C or a chain's numerator,
# negative in D or a chain's denominator
Pieces = tuple[tuple[MultiPoly, int], ...]
UniPieces = tuple[tuple[UniPoly, int], ...]


class Chain(Frozen):
    """Per-direction univariate chain: factors a(v.z+j)/b(v.z+j)."""

    direction: Point
    num: UniPoly
    den: UniPoly

    def __init__(self, direction, num, den):
        set_field(self, "direction", direction)
        set_field(self, "num", num)
        set_field(self, "den", den)


class OreSatoForm(Frozen):
    """C, D, the per-direction chains, and the residual per-axis scalars."""

    arity: int
    c_poly: MultiPoly
    d_poly: MultiPoly
    gamma: tuple[Coeff, ...]
    chains: tuple[Chain, ...]

    def __init__(self, arity, c_poly, d_poly, gamma, chains):
        set_field(self, "arity", arity)
        set_field(self, "c_poly", c_poly)
        set_field(self, "d_poly", d_poly)
        set_field(self, "gamma", gamma)
        set_field(self, "chains", chains)

    @functools.cached_property
    def _pieces(self) -> tuple[Pieces, tuple[UniPieces, ...]]:
        """The factors the formula is written from: C and D as (piece,
        multiplicity) pairs, positive for C and negative for D, and each
        chain's sides likewise, in the order of ``chains``.  By default each
        displayed polynomial is one piece; ``decompose`` keeps the
        normalized pieces it multiplied C, D and the chain sides out of, and
        a form made by the constructor or by ``_frozen.replace`` has
        none."""
        return (
            ((self.c_poly, 1), (self.d_poly, -1)),
            tuple(((c.num, 1), (c.den, -1)) for c in self.chains),
        )


def ratio_from_form(form: OreSatoForm, w: Sequence[int]) -> FactoredRational:
    """Evaluate the decomposition's displayed formula symbolically: the
    reduced term ratio in direction w, from the form's own pieces."""
    scalar, factors = _form_factors(form.arity, form.gamma, form.chains, form._pieces, w)
    if scalar == 0:
        raise PreconditionError("rational function scalar must be nonzero")
    return FactoredRational(form.arity, _coeff(scalar), _refine([pair] for pair in factors))


def _form_factors(
    k: int,
    gamma: Sequence[Coeff],
    chains: Sequence[Chain],
    pieces: tuple[Pieces, tuple[UniPieces, ...]],
    w: Sequence[int],
) -> tuple[Fraction, list[tuple[MultiPoly, int]]]:
    """The factors of the formula of arity k with the given gamma, chains
    and pieces (as ``OreSatoForm._pieces``, the chains' sides in the order
    of ``chains``) in direction w, listed piece by piece, each normalized
    once and none refined, and the scalar they leave: gamma^w times the
    constant chain pieces and the normalization scalars.  A piece p of C or
    D with multiplicity m gives p(z + w)^m / p(z)^m.  No form is needed, so
    ``decompose`` checks its pieces before it builds one."""
    if len(w) != k:
        raise DimensionError("direction arity mismatch")
    w = _integer_point(w)
    scalar = Fraction(1)
    for g, wi in zip(gamma, w):
        if wi:
            scalar *= Fraction(g) ** wi
    factors: list[tuple[MultiPoly, int]] = []

    def put(p: MultiPoly, exp: int) -> None:
        nonlocal scalar
        s, prim = p.normalized()
        if s != 1:
            scalar *= Fraction(s) ** exp
        factors.append((prim, exp))

    cd, sides = pieces
    for piece, mult in cd:
        if not piece.is_constant:
            put(piece.shift(w), mult)
            put(piece, -mult)
    for chain, side in zip(chains, sides):
        n = sum(a * b for a, b in zip(chain.direction, w))
        if n == 0:
            continue
        # reciprocal convention: a negative range inverts every factor
        sign, js = (1, range(0, n)) if n > 0 else (-1, range(n, 0))
        for j in js:
            for piece, mult in side:
                if piece.is_constant:
                    scalar *= Fraction(piece.coeffs[0]) ** (sign * mult)
                else:
                    put(piece.as_multipoly(chain.direction, j), sign * mult)
    return scalar, factors


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def _split_simple_base(base: MultiPoly) -> list[tuple[MultiPoly, int]]:
    """Refine a simple base by factoring its univariate profile at rational
    roots; non-simple bases are returned unchanged."""
    info = detect_simple(base)
    if info is None:
        return [(base, 1)]
    v, profile = info
    if profile.degree() <= 1:
        return [(base, 1)]
    roots, cofactor = rational_roots(profile)
    if not roots:
        return [(base, 1)]
    pieces: dict[MultiPoly, int] = {}
    for r in roots:
        linear = UniPoly.make([-r, 1]).as_multipoly(v)
        linear = linear.normalized()[1]
        pieces[linear] = pieces.get(linear, 0) + 1
    if cofactor.degree() >= 1:
        rest = cofactor.as_multipoly(v).normalized()[1]
        pieces[rest] = pieces.get(rest, 0) + 1
    return list(pieces.items())


def _joint_refine(ratios: list[FactoredRational]) -> list[FactoredRational]:
    """Re-express all ratios over one shared coprime base: simple bases are
    split at the rational roots of their profiles, then one
    ``coprime_base`` call refines every ratio's bases together, with one
    exponent coordinate per ratio.  The pieces of one ratio are one coprime
    run: its bases are pairwise coprime, and the pieces of one base are
    distinct normalized linear factors and a cofactor without rational
    roots."""
    n = len(ratios)
    runs = []
    for i, fr in enumerate(ratios):
        run = []
        for base, exp in fr.factors:
            for piece, mult in _split_simple_base(base):
                run.append((piece, tuple(mult * exp * u for u in _unit(n, i))))
        runs.append(run)
    refined = coprime_base(runs)
    return [
        FactoredRational(fr.arity, fr.scalar, tuple((b, e[i]) for b, e in refined if e[i]))
        for i, fr in enumerate(ratios)
    ]


@functools.lru_cache(maxsize=4096)
def _anchor_family(profile: UniPoly) -> tuple[UniPoly, int]:
    """Canonical representative of the integer-shift family of a univariate
    polynomial: translate so the root centroid lies in [0, 1).  Returns
    (anchor, offset) with profile(t) = anchor(t + offset) up to a scalar.
    Memoized by value."""
    _, prim = profile.normalized()
    d = prim.degree()
    if d == 0:
        raise PreconditionError("constant profile has no shift family")
    centroid = Fraction(-prim.coeffs[d - 1], d * prim.coeffs[d])
    m = math.floor(centroid)
    anchor = prim.shift_arg(m)
    return anchor, -m


class _Exponents:
    """Observed exponents of one shift family or orbit: per generator,
    offset -> exponent, with zero totals dropped.  Offsets are integers
    along a simple family's direction and lattice points for an orbit."""

    def __init__(self, arity: int):
        self.observed: list[dict[int | Point, int]] = [dict() for _ in range(arity)]

    def add(self, gen_index: int, offset: int | Point, exp: int) -> None:
        d = self.observed[gen_index]
        d[offset] = d.get(offset, 0) + exp
        if d[offset] == 0:
            del d[offset]


def _solve_family(direction: Point, data: _Exponents) -> tuple[dict[int, int], dict[int, int]]:
    """Recover the chain multiplicities mu and the C/D multiplicities nu of
    one simple family from the observed generator exponents.

    With G the cumulative unknown (chain prefix sums minus C/D placement),
    each generator imposes o_i(r) = G(r) - G(r - v_i); G is recovered by
    prefix summation along the first axis with v_i != 0, and the residue
    pass checks the rest.  The chain part phi is the monotone envelope of G
    clamped between 0 and its limit M: with s the sign of M, s * phi is the
    running maximum of min(|M|, s * G), which keeps the chain
    multiplicities single-signed (no cancelling root pairs between a_v and
    b_v); the remainder is pure telescoping and is absorbed into C/D.
    Outside the observed range phi is 0 below and M above.
    """
    observed = data.observed
    pivot = next(i for i, vi in enumerate(direction) if vi != 0)
    v = direction[pivot]  # positive: direction is primitive-canonical
    m_total = sum(observed[pivot].values()) // v
    support = sorted(set().union(*[set(d) for d in observed]) or {0})
    lo, hi = min(support) - v, max(support)
    o_pivot = observed[pivot]
    g_table: dict[int, int] = {}
    for r in range(lo, hi + 1):
        g_table[r] = o_pivot.get(r, 0) + g_table.get(r - v, 0)

    # split G into a monotone chain part and a finite C/D correction
    sign = (m_total > 0) - (m_total < 0)
    phi: dict[int, int] = {}
    running = 0
    for r in range(lo, hi + 1):
        running = max(running, min(abs(m_total), sign * g_table[r]))
        phi[r] = sign * running

    def phi_of(r: int) -> int:
        if r < lo:
            return 0
        if r > hi:
            return m_total
        return phi[r]

    mu: dict[int, int] = {}
    nu: dict[int, int] = {}
    for r in range(lo, hi + 2):
        d = phi_of(r) - phi_of(r - 1)
        if d:
            mu[r] = d
    for r in range(lo, hi + 1):
        d = phi[r] - g_table[r]
        if d:
            nu[r] = d
    return mu, nu


def _solve_orbit(data: _Exponents, axis: int) -> dict[Point, int]:
    """Recover the signed C/D multiplicity pattern m of a non-simple shift
    orbit from the k difference equations

        observed_i(w) = m(w - e_i) - m(w),

    by summation along ``axis``; the residue pass checks the others.  The
    axis is the first the orbit's polynomials depend on: no translation that
    fixes them has its last nonzero coordinate there, so it is no pivot of
    the canonical offsets (``poly.orbit_anchor``), and stepping along it
    keeps an offset canonical."""
    observed = data.observed
    lines: dict[tuple[int, ...], list[int]] = {}
    for w in set().union(*[set(d) for d in observed]):
        lines.setdefault(w[:axis] + w[axis + 1 :], []).append(w[axis])
    m: dict[Point, int] = {}
    o = observed[axis]
    for rest, coords in lines.items():
        hi, lo = max(coords), min(coords)
        # m(w) is the sum of the observations along the axis strictly above w
        acc = 0
        for x in range(hi, lo - 1, -1):
            w = rest[:axis] + (x,) + rest[axis:]
            if acc != 0:
                m[w] = acc
            acc += o.get(w, 0)
    return m


def decompose(spec: TermSpec) -> OreSatoForm:
    """Compute an Ore-Sato form whose displayed formula reproduces every
    generator exactly.  The construction searches nothing: each factor is
    routed to its family or orbit by one lookup of its canonical anchor, a
    simple one by its direction and ``_anchor_family``, a non-simple one by
    ``orbit_anchor``, whose offsets are exact and canonical.  Each family
    and orbit gives normalized pieces, shifts of its anchor with signed
    multiplicities, for C/D and for its direction's chain; the form keeps
    them and displays their products.  The closing residue pass is the only
    verification: R_i over the gamma-free ratio in direction e_i must be a
    constant, which becomes gamma_i.  It reads the pieces and the chains
    before any form exists (``_form_factors``), so the form is built once,
    with its gamma, when the pass succeeds.  It cancels the formula's factors,
    listed piece by piece, against R_i's by equal bases and refines only the
    remainder, so a StructureError names a factor of that remainder.  A
    form that passes it proves the generators compatible, since the ratios
    of one term satisfy the cocycle identity; so compatibility is only
    consulted to name the error when a residue is not constant."""
    if spec.zero_divisor_witness is not None:
        raise PreconditionError("zero-divisor specs have no reduced decomposition")
    k = spec.arity
    ratios = _joint_refine(spec.ratios())

    families: dict[tuple[Point, UniPoly], _Exponents] = {}
    orbits: dict[MultiPoly, _Exponents] = {}  # by orbit anchor
    # each base goes to the exponents of its family or orbit, at its offset
    # there: an integer along a family's direction, a shift for an orbit
    base_route: dict[MultiPoly, tuple[_Exponents, int | Point]] = {}

    for i, fr in enumerate(ratios):
        for base, exp in fr.factors:
            route = base_route.get(base)
            if route is None:
                info = detect_simple(base)
                if info is not None:
                    v, profile = info
                    anchor, offset = _anchor_family(profile)
                    route = (families.setdefault((v, anchor), _Exponents(k)), offset)
                else:
                    anchor, offset = orbit_anchor(base)
                    route = (orbits.setdefault(anchor, _Exponents(k)), offset)
                base_route[base] = route
            data, offset = route
            data.add(i, offset, exp)

    # the pieces of C/D and of each chain's sides: shifts of normalized
    # anchors, so normalized, also along a primitive direction
    cd: list[tuple[MultiPoly, int]] = []
    sides: dict[Point, list[tuple[UniPoly, int]]] = {}

    for (v, anchor), data in sorted(
        families.items(), key=lambda t: (t[0][0], t[0][1].coeffs)
    ):
        mu, nu = _solve_family(v, data)
        sides.setdefault(v, []).extend((anchor.shift_arg(s), m) for s, m in sorted(mu.items()))
        cd.extend((anchor.shift_arg(s).as_multipoly(v), m) for s, m in sorted(nu.items()))

    for anchor, data in orbits.items():
        axis = next(i for i in range(k) if anchor.degree_in(i))
        cd.extend((anchor.shift(w), m) for w, m in sorted(_solve_orbit(data, axis).items()))

    sides = {v: side for v, side in sorted(sides.items()) if side}
    c_poly, d_poly = expand(MultiPoly.constant(k, 1), cd)
    chains = tuple(Chain(v, *expand(UniPoly.constant(1), side)) for v, side in sides.items())
    pieces = (tuple(cd), tuple(tuple(side) for side in sides.values()))

    gamma = []
    for i in range(k):
        scalar, factors = _form_factors(k, (1,) * k, chains, pieces, _unit(k, i))
        rest = _cancel((ratios[i].factors, ((b, -e) for b, e in factors)))
        if rest:
            if not check_compatibility(spec):
                raise CocycleError("generators are not compatible")
            raise StructureError(
                f"generator {i + 1} is not reproduced by the decomposition",
                factor=rest[0][0],
            )
        gamma.append(_coeff(ratios[i].scalar / scalar))
    if not gcd(c_poly, d_poly).is_constant:
        raise IntegrityError("decomposition produced non-coprime C and D")
    form = OreSatoForm(k, c_poly, d_poly, tuple(gamma), chains)
    set_field(form, "_pieces", pieces)
    return form
