"""The package's value types behave as ``dataclass(frozen=True)`` would.

Each type is compared with a twin: a ``dataclass(frozen=True)`` (with
``order=True`` for the ordered ones) made from the same fields and defaults,
which keeps the behaviour the types had when they were declared that way.
Sample instances come from running the pipeline on the binomial and odd
example specs."""

import copy
import dataclasses
import inspect
import operator
from fractions import Fraction

import pytest

from conftest import load_spec
from hyperterm import geometry, oracle, oresato, poly, structure, termratio
from hyperterm._frozen import Frozen, FrozenInstanceError, replace
from hyperterm.errors import PreconditionError
from hyperterm.geometry import HalfSpace, Hyperplane, LatticeBox, MeasureZeroSet
from hyperterm.oracle import Mismatch, grid_compare, propagate
from hyperterm.structure import build_structure, closed_form_eval, split_factorial, to_pochhammer
from hyperterm.termratio import TermSpec

MODULES = (poly, geometry, termratio, oresato, oracle, structure)
TYPES = sorted(
    (
        cls
        for module in MODULES
        for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, Frozen) and cls.__module__ == module.__name__
    ),
    key=lambda cls: (cls.__module__, cls.__name__),
)
ORDERED = {Hyperplane, HalfSpace}
COMPARISONS = (operator.lt, operator.le, operator.gt, operator.ge)
# the default made afresh for each instance, as ``field(default_factory=...)``
# makes it; ``__init__`` takes None for it
FACTORIES = {(TermSpec, "exceptions"): MeasureZeroSet.empty}


def twin(cls):
    """``cls`` as a generated frozen dataclass with the same fields, in the
    order they are annotated, and defaults, the class attributes they set."""
    specs = []
    for name in cls.__match_args__:
        default = {}
        if (cls, name) in FACTORIES:
            default["default_factory"] = FACTORIES[cls, name]
        elif name in vars(cls):
            default["default"] = vars(cls)[name]
        specs.append((name, cls.__annotations__[name], dataclasses.field(**default)))
    return dataclasses.make_dataclass(cls.__qualname__, specs, frozen=True, order=cls in ORDERED)


def values(obj):
    return {name: getattr(obj, name) for name in obj.__match_args__}


def collect(obj, found):
    if isinstance(obj, Frozen):
        found.setdefault(type(obj), []).append(obj)
        for value in values(obj).values():
            collect(value, found)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            collect(item, found)


@pytest.fixture(scope="module")
def samples():
    found = {}
    for spec in (load_spec("binomial"), load_spec("odd")):
        ps = build_structure(spec)
        forms = split_factorial(ps)
        arity = spec.arity
        window = LatticeBox((-2,) * arity, 4)
        collect(
            [
                spec,
                ps,
                forms,
                [to_pochhammer(f) for f in forms],
                propagate(spec, ((0,) * arity, 1), (3,) * arity),
                propagate(spec, ((0,) * arity, 1), (-3,) * arity),
                grid_compare(ps, spec, window),
                [closed_form_eval(ps, z) for z in window.points()],
                [Mismatch((0, 1), Fraction(1, 2), Fraction(3)), Mismatch((2, 1), 1, Fraction(-3))],
                window,
            ],
            found,
        )
    # a few distinct instances per type keep the pairwise checks small
    return {cls: list({repr(x): x for x in xs}.values())[:6] for cls, xs in found.items()}


def test_every_type_is_sampled(samples):
    assert len(TYPES) == 23
    assert sorted(samples, key=TYPES.index) == TYPES


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_type_matches_its_frozen_dataclass_twin(cls, samples):
    ref = twin(cls)
    assert cls.__match_args__ == ref.__match_args__ == tuple(f.name for f in dataclasses.fields(ref))
    # the constructor takes the fields, in order, with the twin's defaults
    params = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in params] == [f.name for f in dataclasses.fields(ref)]
    for p, f in zip(params, dataclasses.fields(ref)):
        default = inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default
        assert p.default == (None if (cls, f.name) in FACTORIES else default), f.name
    xs = samples[cls]
    refs = [ref(**values(x)) for x in xs]
    for x, r in zip(xs, refs):
        assert repr(x) == repr(r)
        assert hash(x) == hash(r) == hash(tuple(values(x).values()))
        assert x == cls(**values(x)) and not x != cls(**values(x))
        assert x.__eq__(r) is NotImplemented and x != r
        if cls in ORDERED:
            # an equal copy: < and > are False, <= and >= True
            same, r_same = cls(**values(x)), ref(**values(x))
            assert [c(x, same) for c in COMPARISONS] == [c(r, r_same) for c in COMPARISONS]
        deep = copy.deepcopy(replace(x))
        assert type(deep) is cls and deep == x and repr(deep) == repr(copy.deepcopy(r))
        for name in [*values(x), "other"]:
            with pytest.raises(FrozenInstanceError) as got:
                setattr(x, name, 0)
            with pytest.raises(dataclasses.FrozenInstanceError) as expected:
                setattr(r, name, 0)
            assert str(got.value) == str(expected.value)
            with pytest.raises(FrozenInstanceError) as got:
                delattr(x, name)
            with pytest.raises(dataclasses.FrozenInstanceError) as expected:
                delattr(r, name)
            assert str(got.value) == str(expected.value)
    for (x, r), (y, s) in zip(zip(xs, refs), zip(xs[1:] + xs[:1], refs[1:] + refs[:1])):
        assert (x == y) == (r == s) and (x != y) == (r != s)
        for name, value in values(y).items():
            changed = replace(x, **{name: value})
            assert type(changed) is cls
            assert repr(changed) == repr(dataclasses.replace(r, **{name: value}))
        for compare in COMPARISONS:
            if cls in ORDERED:
                assert compare(x, y) == compare(r, s)
            else:
                with pytest.raises(TypeError):
                    compare(x, y)
            with pytest.raises(TypeError):
                compare(x, r)


def test_frozen_instance_error_is_an_attribute_error():
    # as the dataclasses one is, so ``except AttributeError`` still catches it
    assert issubclass(FrozenInstanceError, AttributeError)
    assert issubclass(dataclasses.FrozenInstanceError, AttributeError)
    with pytest.raises(TypeError):
        replace(Hyperplane((1, 0), 2), normal=(0, 1))


def test_defaults_match_the_twins():
    plane, ref = Hyperplane((1, 0), 2), twin(Hyperplane)((1, 0), 2)
    assert repr(plane) == repr(ref) and plane.empty is False
    spec = load_spec("binomial")
    bare = TermSpec(spec.arity, spec.generators)
    assert repr(bare) == repr(twin(TermSpec)(spec.arity, spec.generators))
    # the exceptions default is a fresh empty cover, as with default_factory
    assert bare.exceptions == MeasureZeroSet.empty()
    assert bare.exceptions is not TermSpec(spec.arity, spec.generators).exceptions
    with pytest.raises(PreconditionError):
        LatticeBox((0, 0), -1)


def test_no_method_is_generated_code():
    """The types import without compiling generated source: no method of
    theirs, inherited ones included, comes from an ``exec``."""
    for cls in TYPES:
        for klass in cls.__mro__:
            for name, attr in vars(klass).items():
                for part in (attr, getattr(attr, "__func__", None), getattr(attr, "fget", None)):
                    code = getattr(inspect.unwrap(part), "__code__", None) if callable(part) else None
                    assert code is None or code.co_filename != "<string>", f"{cls.__name__}.{name}"
