"""Values that copy to themselves.

A class whose instances never change once built sets ``__deepcopy__ =
share``: ``copy.deepcopy`` then returns the instance itself, and so
does the model checker's world copier
(:func:`repro.modelcheck.copier.clone`), which maps such a class to its
shared plan.  A copy of a world holds the same value object as the
original, so only a frozen dataclass whose fields hold immutable values
may set it; ``tests/test_copier.py`` checks that every marked value in
a booted or explored world is a frozen dataclass.
"""


def share(self, memo=None):
    """``__deepcopy__`` of an immutable value: the value itself."""
    return self
