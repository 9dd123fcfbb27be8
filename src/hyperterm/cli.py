"""Command-line front end.

    hyperterm check SPEC.json            cocycle verdict
    hyperterm decompose SPEC.json        Ore-Sato form as JSON
    hyperterm structure SPEC.json        piecewise closed form as JSON
    hyperterm factorial SPEC.json        per-region factorial forms
    hyperterm pochhammer SPEC.json       per-region Pochhammer forms
    hyperterm eval SPEC.json --at z      closed-form value at a point
    hyperterm compare SPEC.json          closed form vs. propagation oracle

Exit status: 0 on success, 1 on mathematical failure (incompatible
generators, non-telescoping structure, grid mismatches), 2 on usage
errors, among them a spec without the seed value a command needs, one
past ``termratio.ARITY_LIMIT`` or ``parsing.DEGREE_LIMIT``,
``TERM_LIMIT`` or ``CONSTANT_BITS_LIMIT``, and one whose oracle would
flood more points than ``oracle.FLOOD_POINT_LIMIT``.
All structured output is JSON with sorted keys, so identical input and
flags give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Optional

from .errors import HypertermError, LimitError, MissingSeedError, ParseError
from .geometry import LatticeBox
from .jsonio import (
    factorial_to_json,
    form_to_json,
    fraction_from_json,
    pochhammer_to_json,
    report_to_json,
    spec_from_json,
    structure_to_json,
    unreduced_generators,
)
from .oracle import grid_compare
from .oresato import decompose
from .poly import MultiPoly, format_fraction
from .structure import (
    FactorialForm,
    PiecewiseStructure,
    arrangement_planes,
    build_structure,
    closed_form_eval,
    split_factorial,
    to_pochhammer,
)
from .termratio import TermSpec, check_compatibility

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2


def _note(level: str, module: str, message: str) -> None:
    """A line on stderr, as ``LEVEL:hyperterm.module:message``."""
    print(f"{level}:hyperterm.{module}:{message}", file=sys.stderr)


# an integer argument is ASCII digits with an optional '-', as literals in
# the polynomial grammar are: int() also reads '٣' as 3 and '1_0' as 10
_INTEGER = re.compile(r"\s*-?[0-9]+\s*")


def _integers(text: str, sep: str) -> Optional[tuple[int, ...]]:
    """The integers text lists, separated by sep; None when one of them is
    not an integer."""
    parts = text.split(sep)
    if all(_INTEGER.fullmatch(x) for x in parts):
        return tuple(int(x) for x in parts)
    return None


def _load_spec(path: str, seed_override: Optional[str]) -> TermSpec:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    spec = spec_from_json(obj)
    for i in unreduced_generators(spec):
        _note("WARNING", "jsonio", f"generator {i} is not reduced; its quotient is reduced on use")
    if seed_override is not None:
        point_text, _, value_text = seed_override.partition("=")
        if not value_text:
            raise ParseError("--seed expects 'z1,...,zk=p/q'")
        point = _integers(point_text, ",")
        if point is None:
            raise ParseError(f"bad seed point {point_text!r}: --seed expects 'z1,...,zk=p/q'")
        spec = spec.with_seed(point, fraction_from_json(value_text))
    return spec


def _parse_window(text: Optional[str], arity: int) -> LatticeBox:
    if text is None:
        return LatticeBox((-8,) * arity, 16)
    ranges = []
    for part in text.split(","):
        bounds = _integers(part, ":")
        if bounds is None or len(bounds) != 2:
            raise ParseError(f"bad window range {part!r}: --window expects 'lo:hi' per axis")
        lo, hi = bounds
        if lo > hi:
            raise ParseError(f"empty window range {part!r}")
        ranges.append((lo, hi))
    if len(ranges) != arity:
        raise ParseError(f"expected {arity} window ranges, got {len(ranges)}")
    size = ranges[0][1] - ranges[0][0]
    if any(hi - lo != size for lo, hi in ranges):
        raise ParseError("window ranges must all have the same length")
    return LatticeBox(tuple(lo for lo, _ in ranges), size)


def _emit(obj: dict, output: Optional[str]) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build(spec: TermSpec, args) -> PiecewiseStructure:
    """``build_structure``; with --verbose, the size of the arrangement and
    each piece without a base value, in the order the structure lists
    them."""
    ps = build_structure(spec)
    if args.verbose and spec.zero_divisor_witness is None:
        planes = arrangement_planes(ps.form, spec.exceptions).hyperplanes
        _note("INFO", "structure", f"structure: {len(planes)} hyperplanes in the arrangement")
        for piece in ps.pieces:
            if piece.base_value is not None:
                continue
            z0, wall = piece.base_point, piece.wall
            if wall is None:
                _note("INFO", "structure", f"piece at {z0} is not reached within the flood's box")
            else:
                behind = f"behind the wall {MultiPoly.linear(wall.v)} >= {wall.n + 1}"
                _note("INFO", "structure", f"piece at {z0} is unreachable from the seed: {behind}")
    return ps


def _factorial_forms(spec: TermSpec, args) -> list[FactorialForm]:
    ps = _build(spec, args)
    if args.verbose:
        for piece in ps.pieces:
            if piece.base_value is None:
                at = piece.base_point
                _note("INFO", "structure", f"skipping factorial form for value-unknown piece at {at}")
    return split_factorial(ps)


def _cmd_check(spec: TermSpec, args) -> int:
    if check_compatibility(spec):
        print("compatible")
        return EXIT_OK
    print("incompatible")
    return EXIT_MATH


def _cmd_decompose(spec: TermSpec, args) -> int:
    form = decompose(spec)
    _emit(form_to_json(form), args.output)
    return EXIT_OK


def _cmd_structure(spec: TermSpec, args) -> int:
    ps = _build(spec, args)
    _emit(structure_to_json(ps), args.output)
    return EXIT_OK


def _cmd_factorial(spec: TermSpec, args) -> int:
    forms = _factorial_forms(spec, args)
    _emit({"forms": [factorial_to_json(ff) for ff in forms]}, args.output)
    return EXIT_OK


def _cmd_pochhammer(spec: TermSpec, args) -> int:
    forms = [to_pochhammer(ff) for ff in _factorial_forms(spec, args)]
    _emit({"forms": [pochhammer_to_json(pf) for pf in forms]}, args.output)
    return EXIT_OK


def _cmd_eval(spec: TermSpec, args) -> int:
    if args.at is None:
        raise ParseError("eval requires --at z1,...,zk")
    point = _integers(args.at, ",")
    if point is None:
        raise ParseError(f"bad point {args.at!r}: --at expects integers 'z1,...,zk'")
    if len(point) != spec.arity:
        raise ParseError(f"expected {spec.arity} coordinates in --at, got {len(point)}")
    ps = _build(spec, args)
    outcome = closed_form_eval(ps, point)
    if outcome.status == "ok":
        print(format_fraction(outcome.value))
    else:
        print(f"undefined: {outcome.status}")
    return EXIT_OK


def _cmd_compare(spec: TermSpec, args) -> int:
    ps = _build(spec, args)
    window = _parse_window(args.window, spec.arity)
    report = grid_compare(ps, spec, window)
    _emit(report_to_json(report), args.output)
    return EXIT_OK if report.clean else EXIT_MATH


_COMMANDS = {
    "check": _cmd_check,
    "decompose": _cmd_decompose,
    "structure": _cmd_structure,
    "factorial": _cmd_factorial,
    "pochhammer": _cmd_pochhammer,
    "eval": _cmd_eval,
    "compare": _cmd_compare,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperterm",
        description="Analyze a multivariate hypergeometric term given by its shift quotients.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("spec", help="path to a term spec JSON file")
    parser.add_argument("-o", "--output", help="write JSON output to this file")
    parser.add_argument("--window", help="comparison window, one lo:hi range per axis")
    parser.add_argument("--at", help="evaluation point z1,...,zk")
    parser.add_argument("--seed", help="override the spec seed: 'z1,...,zk=p/q'")
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="describe the structure on stderr: the size of its arrangement, "
        "the pieces without a base value and the factorial forms skipped for them",
    )
    # values like '-6:6,-6:6' or '-2,-3' are data, not option names
    parser._negative_number_matcher = re.compile(r"^-\d+([:,]-?\d+)*$")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    # invalid input (file, JSON, spec validation) is a usage error; failures
    # of the mathematics (incompatibility, non-telescoping structure) are not
    try:
        spec = _load_spec(args.spec, args.seed)
    except (HypertermError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](spec, args)
    except (ParseError, MissingSeedError, LimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HypertermError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
