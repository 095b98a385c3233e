"""The base of the validated value types.

A frozen dataclass would do the same job, but decorating one costs about
1 ms at import, and most of a one-shot CLI call is start-up.
"""

from operator import attrgetter


class Record:
    """An immutable, hashable record with type-strict equality.

    A subclass names its fields in ``__slots__``, in constructor order; its
    ``__init__`` validates the arguments and stores them with ``_set``.
    Records compare and hash by their fields, but equal only an instance of
    the same class: ``TorusKnot(3, 5) != Lens(3, 5)``, and no record equals
    a tuple.  ``repr`` is ``Name(field=value, ...)``.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # a C getter: a GramMatrix is hashed at every _search_facts lookup
        cls._values = staticmethod(attrgetter(*cls.__slots__))

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _immutable(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __setattr__ = __delattr__ = _immutable

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through __init__, not setattr
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
