"""Plain records.  A record lists its fields in ``__slots__`` and takes them,
in that order, in an ``__init__`` it writes itself (a frozen record sets
them with ``object.__setattr__``).  Nothing here generates code."""


class Record:
    """Equal only to a record of its own class with equal fields; unhashable."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self.__slots__)})"

    def __reduce__(self):  # pickling and copying rebuild the record from its fields
        return type(self), self._values()


class FrozenRecord(Record):
    """Assigning or deleting a field raises AttributeError; hashes by its fields."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())
