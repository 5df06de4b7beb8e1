"""Immutable value records, written out by hand rather than generated.

A record class names its fields in ``__slots__``, in constructor order, and
writes its own ``__init__`` with the constructor's signature, which passes
the fields, in that order, to :meth:`Record.__init__`.  That stores them and
calls ``__post_init__``, where a class validates.  :class:`Record` gives the
rest of a frozen value: equality with another instance of the same class
whose fields are equal, and with nothing else; the hash of the tuple of the
fields; the ``Name(field=value, ...)`` repr; pickling and copying through the
constructor; and ``AttributeError`` on any assignment or deletion.
"""

from __future__ import annotations

_set = object.__setattr__  # stores a field past the frozen __setattr__


class Record:
    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields())
        )
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()
