"""Exceptions shared across the package."""


class IntegralityError(ArithmeticError):
    """An exact division that theory guarantees to be exact was not.

    Raised e.g. when a Moebius sum is not divisible by its length, or when
    the transform of an integer series produces a non-integer coefficient.
    Either signals an implementation bug, never bad user input.
    """


class BudgetExceededError(RuntimeError):
    """A brute-force enumeration or a table would exceed its size budget."""


class DivergenceError(ArithmeticError):
    """An infinite product's tail does not decay; retry with more Euler
    factors removed (larger m)."""


class PreconditionError(ValueError):
    """A theorem hypothesis required by a scan does not hold for the input.

    Carries the name of the failed hypothesis in args[0].
    """
