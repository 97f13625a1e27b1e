"""Shared exception and warning types."""


class NumericalError(RuntimeError):
    """A computation lost more accuracy than its contract allows."""


class RegularityError(RuntimeError):
    """An operation that requires the one-to-one (regular) regime was asked
    to run outside it: solve_block at r = 1 with 1 - sigma_max at or
    below hankel.REGULAR_GAP, or data that regularity_test rejects."""


class ConditioningWarning(UserWarning):
    """A weight came close enough to zero that logarithms were clamped;
    results near the clamped nodes carry reduced accuracy."""
