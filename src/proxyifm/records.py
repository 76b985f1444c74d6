"""Record classes: value types built without generated source.

``record`` gives a class, from its annotated fields in declaration order,
the constructor, equality, hash, immutability and repr that
``dataclasses.dataclass`` would give it.  Its methods are closures over
the field names and functions shared by every record, made once when the
class is decorated, so building a record class compiles and executes no
source text.  Every command-line run builds all of the package's record
classes at import, and pays that cost again.

Fields live in the instance ``__dict__``, as on any class, so
``vars(record)`` lists them and ``functools.cached_property`` can cache
beside them.
"""

from __future__ import annotations

from operator import attrgetter

_MISSING = object()


class _Field:
    __slots__ = ("default", "default_factory", "repr")

    def __init__(self, default, default_factory, repr):
        self.default = default
        self.default_factory = default_factory
        self.repr = repr


def field(*, default=_MISSING, default_factory=None, repr=True):
    """A field's ``default``, or a ``default_factory`` called for a fresh
    default in each record, and whether ``repr`` shows the field."""
    return _Field(default, default_factory, repr)


def record(cls=None, /, *, eq=True):
    """Make ``cls`` a record over its annotated fields.

    ``__init__`` takes the fields in order, by position or keyword, fills
    in the defaults, then calls ``__post_init__`` if the class has one.
    With ``eq``, two records of the same class compare equal when their
    fields do, and hash by them; without it, records compare and hash by
    identity.  Assigning to a record raises ``AttributeError``;
    ``__post_init__`` may still write with ``object.__setattr__``.
    """
    if cls is None:
        return lambda cls: _build(cls, eq)
    return _build(cls, eq)


def replace(obj, /, **changes):
    """A copy of record ``obj`` with the named fields changed.

    The copy is constructed anew, so ``__post_init__`` runs on it; a name
    that is not a field raises ``TypeError``.
    """
    cls = type(obj)
    return cls(*[changes.pop(name) if name in changes else getattr(obj, name)
                 for name in cls.__match_args__], **changes)


def _build(cls, eq):
    names = tuple(cls.__annotations__)
    defaults, factories, shown = {}, {}, []
    for name in names:
        value = cls.__dict__.get(name, _MISSING)
        if isinstance(value, _Field):
            if value.default_factory is not None:
                factories[name] = value.default_factory
            if value.repr:
                shown.append(name)
            value = value.default
            if value is _MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, value)
        else:
            shown.append(name)
        if value is not _MISSING:
            defaults[name] = value
    cls.__match_args__ = names
    cls.__init__ = _initializer(cls, names, defaults, factories)
    cls.__repr__ = _representer(tuple(shown))
    if eq:
        get = attrgetter(*names)
        key = get if len(names) > 1 else lambda self: (get(self),)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        cls.__eq__ = __eq__
        cls.__hash__ = lambda self: hash(key(self))
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls


def _initializer(cls, names, defaults, factories):
    n = len(names)
    post_init = getattr(cls, "__post_init__", None)
    template = {name: defaults.get(name, _MISSING) for name in names}
    required = [name for name in names if name not in defaults and name not in factories]

    def bind(args, kwargs):
        values = template.copy()
        values.update(zip(names, args))
        values.update(kwargs)
        if len(values) > n or len(args) > n or (
                args and not kwargs.keys().isdisjoint(names[:len(args)])):
            raise _call_error(cls, names, args, kwargs)
        for name, factory in factories.items():
            if values[name] is _MISSING:
                values[name] = factory()
        for name in required:
            if values[name] is _MISSING:
                raise TypeError(f"{cls.__qualname__}() missing argument {name!r}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            self.__dict__.update(bind(args, kwargs))
        else:
            self.__dict__.update(zip(names, args))
        if post_init is not None:
            post_init(self)

    return __init__


def _call_error(cls, names, args, kwargs):
    if len(args) > len(names):
        return TypeError(f"{cls.__qualname__}() takes {len(names)} arguments "
                         f"but {len(args)} were given")
    name = next(k for k in kwargs if k not in names[len(args):])
    problem = "multiple values for" if name in names else "an unexpected keyword"
    return TypeError(f"{cls.__qualname__}() got {problem} argument {name!r}")


def _representer(shown):
    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in shown)
        return f"{type(self).__qualname__}({fields})"

    return __repr__


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")
