"""Immutable value records without generated code.

A record class lists its fields, in order, in __slots__ and sets them in
an explicit __init__, usually through _assign. Record gives every such class
read-only fields (assignment raises AttributeError), equality and a hash
over the field values (only between instances of the same class; an
array field, anything with an `ndim` of 1 or more, by its shape, dtype
and bytes), a `Name(field=value, ...)` repr, and copy and pickle through
__init__.
Nothing is generated or exec'd when a record class is defined, so
defining one costs no more than any class.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    """Base of the package's frozen value records."""

    __slots__ = ()

    def _assign(self, *values) -> None:
        """Set the fields, in __slots__ order; only __init__ calls this."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def _key(self) -> tuple:
        # duck-typed, so this module needs no numpy
        return tuple((v.shape, v.dtype.str, v.tobytes())
                     if getattr(v, "ndim", 0) else v for v in self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a "
                             f"{type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a "
                             f"{type(self).__name__}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which re-validates
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
