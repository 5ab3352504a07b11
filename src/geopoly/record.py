"""Slotted record classes: the value semantics of a dataclass, by hand.

A record's fields are its ``__slots__`` without a leading underscore, in
the order its constructor takes them; a slot named ``_x`` holds a value
the constructor derives from the fields, such as a cache key.  `Record`
compares field by field (instances of the same class only), prints
``Name(field=value, ...)`` and copies and pickles through its constructor;
it is unhashable, like a mutable dataclass.  `Frozen` adds immutability
and a hash of the fields.  Records whose tuple semantics are harmless are
NamedTuples instead.  Neither uses `dataclasses`: with the `inspect` it
imports and the methods it compiles per class, it cost about a third of a
cold load of the library's modules without a bytecode cache.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        if cls._fields:
            cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


class Frozen(Record):
    """A `Record` whose fields are set once, in ``__init__``, by ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values(self))
