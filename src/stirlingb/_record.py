"""The protocol of the package's record classes.

A record lists its constructor fields, in order, in ``_fields``.  Two records
are equal only when they are of the same class and their fields are equal; a
record hashes by its fields and prints as ``Name(v1, v2, ...)``.  A mutable
record sets ``__hash__ = None``.
"""


class Record:
    _fields: tuple[str, ...]  # every subclass sets it

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return type(other) is type(self) and self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, ", ".join(map(repr, self._values())))
