"""Immutable tuple records for results built once per solve or per step.

A record class is ``class R(TupleRecord, namedtuple("R", fields))`` with
``__slots__ = ()``.  It keeps what a frozen dataclass gave: keyword
construction, the ``R(field=value, ...)`` repr, the hash of its field tuple
and equality only with a record of its own class.  A hot loop builds one in
a single call, ``tuple.__new__(R, (...))``, where a dataclass's generated
``__init__`` makes one ``object.__setattr__`` call per field.
"""


class TupleRecord:
    """Equality of a tuple record with records of its own class only."""

    __slots__ = ()

    # A tuple of another class answers False at once: returning
    # NotImplemented would let tuple's reflected comparison match it field
    # by field.  Anything else may still answer for itself.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__ne__(self, other)
        return True if isinstance(other, tuple) else NotImplemented

    __hash__ = tuple.__hash__
