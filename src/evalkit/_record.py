"""The base of evalkit's immutable value types.

A subclass lists its fields in `_fields`, in constructor order, and sets them
in its own `__init__` with `self.__dict__.update(...)`, after its checks.
The base gives it what a frozen dataclass has: equality and hashing over the
fields (an instance equals only an instance of the same class), a
`Name(field=value, ...)` repr, and assignment and deletion that raise
AttributeError. Instances copy and pickle through their `__dict__`.
"""

from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        attrs = self.__dict__
        return tuple([attrs[name] for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        attrs = self.__dict__
        fields = ", ".join(f"{name}={attrs[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
