"""Every spec ends in a result or a typed error.  A seeded mutator replaces
or deletes subtrees of the JSON of specs/*.json and tests/data/*.json, and
each mutant runs through ``cli.main`` for ``check`` and ``structure`` under
a time budget: the exit status is 0, 1 or 2, and no exception escapes and
no traceback is printed.  The mutator uses the standard library's
``random`` alone, so this runs where hypothesis is not installed."""

import copy
import json
import random
import signal
import time

import pytest

from conftest import REPO
from hyperterm.cli import main

SOURCES = sorted((REPO / "specs").glob("*.json")) + sorted((REPO / "tests" / "data").glob("*.json"))
SPECS = {path.stem: json.loads(path.read_text(encoding="utf-8")) for path in SOURCES}
COMMANDS = ("check", "structure")
# a run past this many seconds fails; no source spec takes 0.01 s in process
BUDGET_S = 2.0
# about 1.5 s in all; 30,000 mutants of other seeds gave no run over 0.5 s
MUTANTS = 1000
# what a mutant puts in place of a subtree, beside subtrees of the sources
VALUES = [
    None, True, 0, 1, -1, 2, 0.5, 2**70, "", "0", "1/0", "z1", "z3 + 1", "z1^100000",
    "(z1 + z2)^101", "z1 +", "٣", [], [1], [0, 0], [2**70, 0], {}, {"num": "1"},
]


class Overrun(BaseException):
    """A run took more than its budget; a BaseException, so that no handler
    of the package catches it."""


def _overrun(signum, frame):
    raise Overrun


def run(obj, command, tmp_path, capsys):
    """The exit status of ``command`` on the spec obj, and its stderr; fails
    on a run longer than ``BUDGET_S``, an escaping exception or a traceback."""
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    old = signal.signal(signal.SIGALRM, _overrun)
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    try:
        status = main([command, str(path)])
    except Overrun:
        pytest.fail(f"{command} ran past {BUDGET_S} s on {json.dumps(obj)}")
    except Exception as exc:
        pytest.fail(f"{command} raised {exc!r} on {json.dumps(obj)}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    err = capsys.readouterr().err
    assert status in (0, 1, 2) and "Traceback" not in err, (command, obj, status, err)
    return status, err


def _slots(obj):
    """(container, key) for every subtree of obj below the top."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield obj, key
        yield from _slots(value)


# the source specs and all their subtrees
DONORS = list(SPECS.values()) + [
    container[key] for spec in SPECS.values() for container, key in _slots(spec)
]


def mutate(rng, obj):
    """obj with one to three subtrees deleted or replaced, by a value of
    ``VALUES`` or by a subtree of a source spec."""
    obj = copy.deepcopy(obj)
    for _ in range(rng.choice((1, 1, 1, 2, 3))):
        slots = list(_slots(obj))
        if not slots:
            return copy.deepcopy(rng.choice(DONORS))
        container, key = rng.choice(slots)
        draw = rng.random()
        if draw < 0.2:
            del container[key]
        elif draw < 0.5:
            container[key] = copy.deepcopy(rng.choice(VALUES))
        else:
            # a subtree of the same JSON type keeps most mutants loadable
            old = type(container[key])
            container[key] = copy.deepcopy(rng.choice([d for d in DONORS if type(d) is old] or DONORS))
    return obj


def with_field(name, path, value):
    """The source spec ``name`` with the field at path set to value."""
    obj = copy.deepcopy(SPECS[name])
    *head, last = path
    target = obj
    for key in head:
        target = target[key]
    target[last] = value
    return obj


FOUR_POWERS = "(z1 + z2 + 1)^98 + ... + (z1 + z2 + 4)^98"
# the inputs that ended in a traceback or ran without end before the loader
# and the oracle checked them; exit status of (check, structure)
NAMED = {
    "a list where a polynomial belongs": (
        with_field("binomial", ["generators", 0, "num"], [1]), (2, 2)
    ),
    "a zero witness": (with_field("binomial", ["zero_divisor_witness"], "0"), (2, 2)),
    # check said compatible, and structure printed one piece with f0 = 0,
    # though the step from the seed gives f(1, 0) = 1 where z1 is not 0
    "a witness the seed refutes": (
        with_field("binomial", ["zero_divisor_witness"], "z1"), (0, 1)
    ),
    "k = 2^70": (with_field("binomial", ["k"], 2**70), (2, 2)),
    "a seed at (2^70, 0)": (with_field("binomial", ["seed", "point"], [2**70, 0]), (0, 2)),
    "z1^100000": (with_field("binomial", ["generators", 0, "num"], "z1^100000"), (2, 2)),
    # 35 s in the parser's expansion; a power of degree 60 and 39,711 terms
    "(z1 + z2 + z3 + 1)^60 + 1": (
        {
            "k": 3,
            "generators": [{"num": "(z1 + z2 + z3 + 1)^60 + 1", "den": "1"}]
            + [{"num": "1", "den": "1"}] * 2,
        },
        (2, 2),
    ),
    # 1.5-2.1 s in the parser's expansions, 0.4 s a summand, each inside
    # the limits; one budget per text refuses it before any is multiplied out
    FOUR_POWERS: (
        with_field(
            "binomial",
            ["generators", 0, "num"],
            " + ".join(f"(z1 + z2 + {c})^98" for c in range(1, 5)),
        ),
        (2, 2),
    ),
    # check said compatible, and decompose failed to print the scalar
    "3^200000 * (z1 + 1)": (
        with_field("binomial", ["generators", 0, "num"], "3^200000 * (z1 + 1)"), (2, 2)
    ),
}


@pytest.mark.parametrize("name", NAMED)
def test_named_input_ends_in_its_exit_status(name, tmp_path, capsys):
    obj, statuses = NAMED[name]
    for command, expected in zip(COMMANDS, statuses):
        status, err = run(obj, command, tmp_path, capsys)
        assert status == expected, (command, err)
        assert status == 0 or err.startswith("error: "), (command, err)


def test_a_text_of_four_dense_powers_is_refused_at_once(tmp_path, capsys):
    obj, statuses = NAMED[FOUR_POWERS]
    for command, expected in zip(COMMANDS, statuses):
        start = time.perf_counter()
        status, err = run(obj, command, tmp_path, capsys)
        assert time.perf_counter() - start < 0.25
        assert status == expected and "in one text are more than TERM_LIMIT" in err, err


def test_mutated_specs_end_in_a_result_or_a_typed_error(tmp_path, capsys):
    rng = random.Random(20260)
    statuses = {0: 0, 1: 0, 2: 0}
    for _ in range(MUTANTS):
        obj = mutate(rng, SPECS[rng.choice(sorted(SPECS))])
        for command in COMMANDS:
            statuses[run(obj, command, tmp_path, capsys)[0]] += 1
    # the mutants reach the whole pipeline, not only the loader
    assert all(statuses.values()), statuses
