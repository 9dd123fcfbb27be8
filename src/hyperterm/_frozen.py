"""Frozen value types without generated code.

``dataclass(frozen=True)`` compiles six methods per class from generated
source (ten with ``order=True``), and importing ``dataclasses`` loads
``inspect``, ``ast`` and ``dis``; together that was most of the time the
package took to import.  ``Frozen`` gives the same ``__eq__``,
``__hash__``, ``__repr__``, ``__setattr__``, ``__delattr__`` and
``__match_args__`` once, over the fields a class annotates; ``Ordered``
adds ``__lt__``, from which ``functools.total_ordering`` derives the other
comparisons.  A package type subclasses one of them and writes its
``__init__`` out, taking the fields as keyword arguments of the same names
and storing each with ``set_field``.  ``replace`` and ``FrozenInstanceError``
stand in for their ``dataclasses`` namesakes.
"""

from __future__ import annotations

import functools
import operator

set_field = object.__setattr__


class FrozenInstanceError(AttributeError):
    """A field of a frozen instance was assigned or deleted."""


def replace(obj, /, **changes):
    """A copy of ``obj`` with the given fields changed, built by its class's
    ``__init__``, as ``dataclasses.replace`` builds it."""
    for name in obj._fields:
        changes.setdefault(name, getattr(obj, name))
    return obj.__class__(**changes)


class Frozen:
    """Equality and hashing by the tuple of the fields, in the order they are
    annotated, between instances of one class only; the repr
    ``QualName(field=value, ...)``; no field can be set or deleted."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__dict__.get("__annotations__", ()))
        if names:
            get = operator.attrgetter(*names)
            cls._fields = cls.__match_args__ = names
            cls._key = staticmethod(get if len(names) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


@functools.total_ordering
class Ordered(Frozen):
    """A ``Frozen`` type ordered by the tuple of its fields: ``__lt__``
    compares the tuples, and ``functools.total_ordering`` derives the other
    three comparisons from it and ``__eq__``."""

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) < self._key(other)
        return NotImplemented
