"""Every public name has a caller: each name in ``hyperterm.__all__`` is used
by a module under src/ other than ``__init__``, or is listed below with the
reason it stays public without one.  A name that loses its last caller fails
here instead of lingering in the API."""

import ast
from pathlib import Path

import hyperterm

SRC = Path(__file__).resolve().parent.parent / "src" / "hyperterm"

# public names no module under src/ calls, each with why it stays
ALLOWED = {
    "compose_direction": "an independent oracle of the ratio along any direction",
    "extend_by_zero": "the spec of a term cut to a region, for callers of the library",
    "factorial_eval": "evaluates the factorial forms the CLI prints; tests check them",
    "gp_eval": "the paper's generalized product, the reference for the chain tables",
    "hull_points": "acceptance criterion 6 checks the hull lemma through it",
    "parse_unipoly": "reads back the chain polynomials a printed form holds",
    "pochhammer_eval": "evaluates the Pochhammer forms the CLI prints; tests check them",
    "propagate": "the per-point oracle with its path certificate",
    "ratio_from_form": "the round trip of a decomposition, run by the benchmark",
    "region_sample": "wrapped by perfbench/tracing.py",
    "s_path": "acceptance criterion 6 checks the hull lemma through it",
    "zero_divisor_spec": (
        "the paper's zero divisor, A_i = p and B_i = p(z + e_i); test_termratio checks it"
    ),
}


def src_references() -> set[str]:
    """Names read as a variable or an attribute anywhere in src/ outside
    ``__init__``; a top-level definition's references to itself, as in a
    recursive call, do not count."""
    names = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    names.add(name)
    return names


def test_every_public_name_has_a_caller_or_a_reason():
    used = src_references()
    uncalled = {n for n in hyperterm.__all__ if n not in used}
    # a new name without a caller needs one or a reason here
    assert sorted(uncalled - ALLOWED.keys()) == []
    # an allowed name that gained a caller or left __all__ leaves the list
    assert sorted(ALLOWED.keys() - uncalled) == []
