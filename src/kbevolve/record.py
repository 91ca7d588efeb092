"""The package's records.

Immutable values are ``typing.NamedTuple``s. One whose fields are checked
subclasses its named tuple with a checking ``__new__``, and takes
``checked_make`` as its ``_make``. State that a pass or a caller updates in
place is a ``Record``: a ``__slots__`` class with its own ``__init__``,
which gets value equality and a repr from this base.
"""


def checked_make(cls, iterable):
    # NamedTuple's _make, and _replace through it, would skip __new__.
    return cls(*iterable)


class Record:
    """Equal to a record of the same class with equal fields; unhashable,
    as it is mutable; repr names every field, in slot order."""

    __slots__ = ()
    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self.__slots__
        return [getattr(self, f) for f in fields] == [getattr(other, f) for f in fields]

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({shown})"
