"""Exception types shared across the package."""


class HypertermError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(HypertermError):
    """Operands have mismatched arities."""


class PreconditionError(HypertermError):
    """An operation was called outside its stated domain."""


class MissingSeedError(PreconditionError):
    """An operation needs the spec's seed value and the spec has none."""


class LimitError(HypertermError):
    """An input asks for more work than a named limit of the package allows."""


class ParseError(HypertermError):
    """Invalid polynomial or spec text."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class CocycleError(HypertermError):
    """Generator quotients fail the compatibility identity."""


class StructureError(HypertermError):
    """A factor family does not admit a telescoping decomposition."""

    def __init__(self, message, factor=None):
        super().__init__(message)
        self.factor = factor


class SplittingError(HypertermError):
    """A univariate chain polynomial does not split into rational linear factors."""

    def __init__(self, message, factor=None):
        super().__init__(message)
        self.factor = factor


class WitnessError(HypertermError):
    """A value of the term is nonzero off the zero set of its zero-divisor
    witness, which the witness says cannot be."""


class ZeroTermError(HypertermError):
    """A generalized product touched a zero factor."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class IntegrityError(HypertermError):
    """An internal guarantee was violated; indicates a construction bug."""
