"""Read-only value records: plain slotted classes, so that no qsearch
process pays for importing `dataclasses` and compiling its generated code.

A record class names its fields, in order, in `_fields` and sets each once
in `__init__` through `_set`, one call per field and no loop, since some
records are built on hot paths; after that, assigning to or deleting an
attribute raises AttributeError.  Records are equal when they are of the
same class with equal field tuples, and hash as that tuple, so a record
never equals a plain tuple.  They are not meant to be pickled or copied.
"""

_set = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
