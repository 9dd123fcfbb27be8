"""JSON encodings: term specs are read and written, results are written.

The pipeline has one input, a term spec (``spec_from_json``, with the
factored, hyperplane and rational readers it calls).  Forms, structures,
factorial and Pochhammer forms and grid reports are output only; nothing
reads them back, so they have writers and no readers.

Rationals are serialized as "p/q" strings to avoid precision ambiguity.
Polynomials travel as text in the z1..zk grammar (univariate chain
polynomials use the variable t); generator numerators and denominators are
emitted in factored form so that a written spec reads back with the factor
structure the decomposition relies on.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import TYPE_CHECKING, Any

from .errors import ParseError
from .geometry import HalfSpace, Hyperplane, MeasureZeroSet, PolyhedralRegion
from .parsing import parse_factored, parse_multipoly
from .poly import _integer, format_fraction
from .termratio import FactoredRational, TermSpec, _check_arity

if TYPE_CHECKING:
    from .oracle import GridReport
    from .oresato import OreSatoForm
    from .structure import FactorialForm, PiecewiseStructure, PochhammerForm


# ASCII only: Fraction() also reads '٣' as 3, '1_0' as 10 and '0.5' as 1/2
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def fraction_from_json(text: str) -> Fraction:
    """The rational a "p/q" or "p" literal states: ASCII digits, an
    optional '-' on p, surrounding whitespace ignored."""
    body = str(text).strip()
    if _RATIONAL.fullmatch(body):
        try:
            return Fraction(body)
        except ZeroDivisionError:
            pass
    raise ParseError(f"bad rational literal {text!r}")


def factored_to_json(fr: FactoredRational) -> str:
    """Polynomial text preserving the stored factorization."""
    parts = []
    if fr.scalar != 1 or not fr.factors:
        parts.append(format_fraction(fr.scalar))
    for base, exp in fr.factors:
        body = f"({base})"
        parts.append(body if exp == 1 else f"{body}^{exp}")
    if len(parts) == 1 and fr.scalar == 1 and fr.factors:
        base, exp = fr.factors[0]
        if exp == 1:
            return str(base)
    return " * ".join(parts)


def factored_from_json(text: str, arity: int) -> FactoredRational:
    return FactoredRational.make(arity, 1, parse_factored(text, arity))


# -- geometry ---------------------------------------------------------------


def hyperplane_to_json(h: Hyperplane) -> dict:
    return {"v": list(h.v), "n": h.n}


def halfspace_to_json(h: HalfSpace) -> dict:
    return {"v": list(h.v), "gt": h.n}


def region_to_json(r: PolyhedralRegion) -> dict:
    return {"k": r.arity, "halfspaces": [halfspace_to_json(h) for h in r.halfspaces]}


# -- term specs ---------------------------------------------------------------


def spec_to_json(spec: TermSpec) -> dict:
    out: dict[str, Any] = {
        "k": spec.arity,
        "generators": [
            {"num": factored_to_json(g.num), "den": factored_to_json(g.den)}
            for g in spec.generators
        ],
    }
    if spec.exceptions.hyperplanes:
        out["exceptions"] = [hyperplane_to_json(h) for h in spec.exceptions.hyperplanes]
    if spec.seed is not None:
        point, value = spec.seed
        out["seed"] = {"point": list(point), "value": format_fraction(value)}
    if spec.zero_divisor_witness is not None:
        out["zero_divisor_witness"] = str(spec.zero_divisor_witness)
    return out


def _field(obj: Any, path: str, key: str) -> Any:
    """obj[key] of the JSON object at path."""
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected an object")
    if key not in obj:
        raise ParseError(f"{path}.{key}: missing")
    return obj[key]


def _list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{path}: expected a list")
    return value


def _int(value: Any, path: str) -> int:
    """An integer field under the integer rule of ``poly._integer``."""
    try:
        return _integer(value, path)
    except TypeError as exc:
        raise ParseError(str(exc)) from None


def _ints(value: Any, path: str) -> list[int]:
    if not isinstance(value, list):
        raise ParseError(f"{path}: expected a list of integers")
    return [_int(x, f"{path}[{i}]") for i, x in enumerate(value)]


def _text(value: Any, path: str) -> str:
    """A field that holds polynomial text, named by its path for errors."""
    if not isinstance(value, str):
        raise ParseError(f"{path}: expected a string")
    return value


def spec_from_json(obj: dict) -> TermSpec:
    """The spec a JSON object states.  A field of the wrong JSON type or
    missing, named by its path, and a zero ``zero_divisor_witness``, which
    annihilates every term and so says nothing about this one, raise
    ParseError.  An arity below 1 or a number of generators other than k
    raises as ``TermSpec.make`` does, before any generator is parsed."""
    if not isinstance(obj, dict) or "k" not in obj or "generators" not in obj:
        raise ParseError("spec JSON needs 'k' and 'generators'")
    k = _int(obj["k"], "k")
    generators = _list(obj["generators"], "generators")
    _check_arity(k, len(generators))
    gens = []
    for i, g in enumerate(generators):
        path = f"generators[{i}]"
        gens.append(
            (
                factored_from_json(_text(_field(g, path, "num"), f"{path}.num"), k),
                factored_from_json(_text(_field(g, path, "den"), f"{path}.den"), k),
            )
        )
    planes = []
    for i, h in enumerate(_list(obj.get("exceptions", []), "exceptions")):
        path = f"exceptions[{i}]"
        v = _ints(_field(h, path, "v"), f"{path}.v")
        planes.append(Hyperplane.make(v, _int(_field(h, path, "n"), f"{path}.n")))
    seed = None
    if obj.get("seed") is not None:
        point = _ints(_field(obj["seed"], "seed", "point"), "seed.point")
        seed = (point, fraction_from_json(_field(obj["seed"], "seed", "value")))
    witness = None
    if obj.get("zero_divisor_witness") is not None:
        witness = parse_multipoly(_text(obj["zero_divisor_witness"], "zero_divisor_witness"), k)
        if witness.is_zero:
            raise ParseError("zero_divisor_witness: the zero polynomial annihilates every term")
    return TermSpec.make(
        k, gens, exceptions=MeasureZeroSet.make(planes), seed=seed, zero_divisor_witness=witness
    )


def unreduced_generators(spec: TermSpec) -> list[int]:
    """The numbers i, from 1, of the generators A_i / B_i whose two sides
    share a factor.  Quotients are stated on reduced pairs; unreduced input
    still works (reduction is applied on use) but is worth flagging.  Only
    a common factor of A_i and B_i cancels in R_i = A_i / B_i, so a
    generator is unreduced exactly when the spec's own quotient has a lower
    degree, sum |e| * deg over its factors, than the two sides together."""
    return [
        i
        for i, (g, ratio) in enumerate(zip(spec.generators, spec.ratios()), 1)
        if _degree(ratio) < _degree(g.num) + _degree(g.den)
    ]


def _degree(fr: FactoredRational) -> int:
    return sum(abs(e) * b.total_degree() for b, e in fr.factors)


# -- decomposition forms --------------------------------------------------------


def form_to_json(form: OreSatoForm) -> dict:
    return {
        "C": str(form.c_poly),
        "D": str(form.d_poly),
        "gamma": [format_fraction(g) for g in form.gamma],
        "chains": [
            {
                "v": list(c.direction),
                "a": str(c.num),
                "b": str(c.den),
            }
            for c in form.chains
        ],
    }


def structure_to_json(ps: PiecewiseStructure) -> dict:
    return {
        "form": form_to_json(ps.form),
        "H": [hyperplane_to_json(h) for h in ps.excluded.hyperplanes],
        "pieces": [
            {
                "region": region_to_json(p.region),
                "z0": list(p.base_point),
                "f0": None if p.base_value is None else format_fraction(p.base_value),
            }
            for p in ps.pieces
        ],
    }


def _form_to_json(form: FactorialForm | PochhammerForm) -> dict:
    """The keys a factorial and a Pochhammer form share."""
    return {
        "region": region_to_json(form.region),
        "gamma": [format_fraction(g) for g in form.gamma],
        "scalar": format_fraction(form.scalar),
        "C": str(form.c_poly),
        "D": str(form.d_poly),
    }


def factorial_to_json(ff: FactorialForm) -> dict:
    return {
        **_form_to_json(ff),
        "chains": [
            {
                "v": list(c.direction),
                "a": str(c.num),
                "b": str(c.den),
                "n": c.offset,
            }
            for c in ff.chains
        ],
    }


def pochhammer_to_json(pf: PochhammerForm) -> dict:
    def entries(entries_):
        return [
            {"m": format_fraction(e.base), "v": list(e.direction), "r": e.offset}
            for e in entries_
        ]

    return {
        **_form_to_json(pf),
        "numerator": entries(pf.numerator),
        "denominator": entries(pf.denominator),
    }


def report_to_json(report: GridReport) -> dict:
    return {
        "checked": report.checked,
        "equal": report.equal,
        "on_H": report.on_h,
        "d_zero": report.d_zero,
        "blocked": report.blocked,
        "value_unknown": report.value_unknown,
        "mismatches": [
            {
                "z": list(m.z),
                "closed": format_fraction(m.closed),
                "oracle": format_fraction(m.oracle),
            }
            for m in report.mismatches
        ],
    }
