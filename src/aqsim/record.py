"""Bases of the record classes that are not ``NamedTuple``s.

A record class sets its fields in its own ``__init__``, so building one
runs no code but its own. These bases only read the fields back, by
``_values``: the values of the fields named in ``__slots__``, which a class
that keeps a field elsewhere overrides. Records of one class compare by
those values, and a ``Frozen`` record also hashes by them and refuses any
assignment or deletion once its ``__init__`` has set each field through
``object.__setattr__``.
"""


class Record:
    __slots__ = ()
    __hash__ = None  # a record that can change has no stable hash

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()


class Frozen(Record):
    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise _frozen(f"cannot delete field {name!r}")


def _frozen(message: str) -> AttributeError:
    """A ``dataclasses.FrozenInstanceError``: only a refused write imports that module."""
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(message)
