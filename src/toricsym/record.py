"""Immutable value records, written out once instead of generated per class.

A record class lists its fields in ``__slots__`` (with ``"__dict__"`` too
where it keeps cached properties) and their defaults in ``_defaults``.
``Record`` makes it frozen and a value: it is built from the fields by
position or keyword, then ``__post_init__`` runs if the class has one; two
records are equal when they are of one class with equal fields, the hash is
that of the field tuple, the repr is ``Name(field=value, ...)``, and setting
or deleting an attribute raises ``AttributeError``.  A record built very
often writes its own ``__init__``, each field set by ``object.__setattr__``.
"""

from operator import attrgetter


class Record:
    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        fields = cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        get = cls._get = attrgetter(*fields)  # the field, or the tuple of the fields
        cls._values = get if len(fields) > 1 else staticmethod(lambda record: (get(record),))
        cls._setters = tuple(vars(cls)[name].__set__ for name in fields)
        cls._post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for set_field, value in zip(setters, args):
            set_field(self, value)
        if self._post_init:
            self.__post_init__()

    def _bind(self, args, kwargs):
        """The field values of a call that names fields or leaves defaults out."""
        fields, name = self._fields, type(self).__name__
        try:
            values = [*args, *[kwargs.pop(f) if f in kwargs else self._defaults[f] for f in fields[len(args) :]]]
        except KeyError as exc:
            raise TypeError(f"{name}() missing field {exc.args[0]!r}") from None
        if kwargs or len(values) > len(fields):
            raise TypeError(f"{name}() takes the fields {fields}, not {sorted(kwargs) or args[len(fields) :]}")
        return values

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            get = self._get
            return self is other or get(self) == get(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)
