"""Exact-arithmetic analysis of multivariate hypergeometric terms.

A hypergeometric term on Z^k is specified by its unit-direction shift
quotients (rational functions).  This package checks the compatibility
identity those quotients must satisfy, computes an Ore-Sato style
decomposition of all term ratios, builds a piecewise closed form over
polyhedral regions of the integer lattice, rewrites each piece in factorial
and Pochhammer normal form, and verifies everything against a
recurrence-propagation oracle.  All arithmetic is exact rational; floating
point appears nowhere.
"""

from .errors import (
    CocycleError,
    DimensionError,
    HypertermError,
    IntegrityError,
    ParseError,
    PreconditionError,
    SplittingError,
    StructureError,
    ZeroTermError,
)
from .geometry import (
    HalfSpace,
    Hyperplane,
    LatticeBox,
    MeasureZeroSet,
    PolyhedralRegion,
    arrangement,
    characteristic_certificates,
    erode,
    find_box,
    hull_points,
    is_measure_zero,
    region_sample,
    s_path,
)
from .oracle import (
    GridReport,
    PropagationResult,
    grid_compare,
    propagate,
)
from .oresato import Chain, OreSatoForm, decompose, gp_eval, ratio_from_form
from .parsing import parse_factored, parse_multipoly, parse_unipoly
from .poly import (
    MultiPoly,
    UniPoly,
    detect_simple,
    find_nonzero_in_box,
    gcd,
    integer_roots,
    rational_roots,
)
from .structure import (
    FactorialChain,
    FactorialForm,
    Piece,
    PiecewiseStructure,
    PochhammerEntry,
    PochhammerForm,
    build_structure,
    closed_form_eval,
    factorial_eval,
    pochhammer_eval,
    rising_factorial,
    split_factorial,
    to_pochhammer,
)
from .termratio import (
    FactoredRational,
    Generator,
    TermSpec,
    check_compatibility,
    compose_direction,
    extend_by_zero,
    zero_divisor_spec,
)

__all__ = [
    "Chain",
    "CocycleError",
    "DimensionError",
    "FactoredRational",
    "FactorialChain",
    "FactorialForm",
    "Generator",
    "GridReport",
    "HalfSpace",
    "Hyperplane",
    "HypertermError",
    "IntegrityError",
    "LatticeBox",
    "MeasureZeroSet",
    "MultiPoly",
    "OreSatoForm",
    "ParseError",
    "Piece",
    "PiecewiseStructure",
    "PochhammerEntry",
    "PochhammerForm",
    "PolyhedralRegion",
    "PreconditionError",
    "PropagationResult",
    "SplittingError",
    "StructureError",
    "TermSpec",
    "UniPoly",
    "ZeroTermError",
    "arrangement",
    "build_structure",
    "characteristic_certificates",
    "check_compatibility",
    "closed_form_eval",
    "compose_direction",
    "decompose",
    "detect_simple",
    "erode",
    "extend_by_zero",
    "factorial_eval",
    "find_box",
    "find_nonzero_in_box",
    "gcd",
    "gp_eval",
    "grid_compare",
    "hull_points",
    "integer_roots",
    "is_measure_zero",
    "parse_factored",
    "parse_multipoly",
    "parse_unipoly",
    "pochhammer_eval",
    "propagate",
    "ratio_from_form",
    "rational_roots",
    "region_sample",
    "rising_factorial",
    "s_path",
    "split_factorial",
    "to_pochhammer",
    "zero_divisor_spec",
]

__version__ = "0.1.0"
