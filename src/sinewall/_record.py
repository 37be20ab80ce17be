"""Immutable records of named fields: tuple subclasses made without generated code.

`collections.namedtuple` compiles a ``__new__`` with ``eval`` for every
class it makes, about 0.1 ms each; a CLI call is usually a fresh process
that creates all eight result records on import.  `Record` reads a
subclass's field names and defaults from its class keywords instead:

    class GridCell(Record, fields="key passed detail", defaults=("",)):
        __slots__ = ()

The fields are read-only properties, equality and hashing are the tuple's,
and construction (positional, keyword, defaults), `repr`, `copy` and
`pickle` behave as for a namedtuple subclass.  `_replace` builds its record
through the class's own constructor, so a class that validates in
``__new__`` validates a replaced field too.
"""

from __future__ import annotations

from operator import itemgetter

_new = tuple.__new__


class Record(tuple):
    """Base of a record class; its subclasses name their fields as class keywords."""

    __slots__ = ()

    def __init_subclass__(cls, fields: str, defaults=()):
        names = tuple(fields.split())
        tail = tuple(defaults)
        required = len(names) - len(tail)
        cls._fields = names
        cls._field_defaults = dict(zip(names[required:], tail))
        # positional argument count -> the defaults that complete it
        cls._pads = {required + i: tail[i:] for i in range(len(tail) + 1)}
        for index, name in enumerate(names):
            setattr(cls, name, property(itemgetter(index)))

    def __new__(cls, *args, **kwargs):
        pad = cls._pads.get(len(args))
        if pad is not None and not kwargs:
            return _new(cls, args + pad)
        return _new(cls, cls._bind(args, kwargs))

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values of a call with keyword arguments or a wrong argument count."""
        fields, name = cls._fields, cls.__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, got {len(args)}")
        values = list(args)
        for field in fields[len(args):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in cls._field_defaults:
                values.append(cls._field_defaults[field])
            else:
                raise TypeError(f"{name}() missing argument {field!r}")
        if kwargs:
            raise TypeError(f"{name}() got an unexpected or repeated argument "
                            f"{next(iter(kwargs))!r}")
        return values

    def __getnewargs__(self) -> tuple:
        # copy and pickle rebuild a tuple subclass through __new__ with these arguments
        return tuple(self)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{field}={value!r}" for field, value in zip(self._fields, self))
        return f"{type(self).__name__}({pairs})"

    def _replace(self, **changes):
        """A new record with the named fields changed, built by the class's own constructor."""
        values = [changes.pop(field, value) for field, value in zip(self._fields, self)]
        if changes:
            raise ValueError(f"unexpected field names: {sorted(changes)}")
        return type(self)(*values)
