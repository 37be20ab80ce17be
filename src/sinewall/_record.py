"""Immutable records of named fields, and the report records of the identity checks.

`collections.namedtuple` compiles a ``__new__`` with ``eval`` for every
class it makes, about 0.1 ms each; a CLI call is usually a fresh process
that creates all seven result records on import.  `Record` reads a
subclass's field names from a class keyword instead:

    class GridCell(Record, fields="key passed detail"):
        __slots__ = ()

The fields are read-only properties, equality and hashing are the tuple's,
and construction (positional or keyword, every field given), `repr`,
`copy` and `pickle` behave as for a namedtuple subclass.  `_replace`
builds its record through the class's own constructor, so a class that
validates in ``__new__`` validates a replaced field too.

`GridCell` and `GridReport` are the one report type of the four checks of
`verify-identities`: the two grids of `wallcross.verify_grids` and the two
expansion checks of `hodge`, one cell per genus.  They live here, which
both modules import, and `wallcross` exports them.  A report renders its
own row of the `verify-identities` output: `GridReport.summary` is its
text line and `GridReport.failure` its json ``first_failure``.
"""

from __future__ import annotations

from operator import itemgetter

_new = tuple.__new__


class Record(tuple):
    """Base of a record class; its subclasses name their fields as class keywords."""

    __slots__ = ()

    def __init_subclass__(cls, fields: str):
        cls._fields = tuple(fields.split())
        for index, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(index)))

    def __new__(cls, *args, **kwargs):
        if len(args) == len(cls._fields) and not kwargs:
            return _new(cls, args)
        return _new(cls, cls._bind(args, kwargs))

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values of a call with keyword arguments or a wrong argument count."""
        fields, name = cls._fields, cls.__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, got {len(args)}")
        values = list(args)
        for field in fields[len(args):]:
            if field not in kwargs:
                raise TypeError(f"{name}() missing argument {field!r}")
            values.append(kwargs.pop(field))
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


class GridCell(Record, fields="key passed detail"):
    """One verification cell: its parameter key, its outcome and, failing, its first mismatch."""

    __slots__ = ()


class GridReport(Record, fields="name cells"):
    """Deterministic, lexicographically ordered verification results."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(cell.passed for cell in self.cells)

    @property
    def first_failure(self) -> GridCell | None:
        return next((cell for cell in self.cells if not cell.passed), None)

    @property
    def failure(self) -> str | None:
        """The first failing cell as ``key: detail``, or None when every cell passed."""
        bad = self.first_failure
        return None if bad is None else f"{bad.key}: {bad.detail}"

    def summary(self) -> str:
        """The report's line of `verify-identities --format text`."""
        line = f"{self.name}: {'pass' if self.passed else 'FAIL'} ({len(self.cells)} cells)"
        return line if self.passed else f"{line} first failure {self.failure}"
