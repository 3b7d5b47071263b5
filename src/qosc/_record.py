"""Frozen value records built without the dataclasses module.

Every qosc module imports this one, and every CLI call imports the modules
its command runs, so import cost is paid on each call.  ``dataclasses`` pulls
in ``inspect``, ``ast``, ``dis`` and ``tokenize`` (about 9 ms on Python 3.11,
median of 25 fresh processes on a 2-vCPU host), and ``@dataclass(frozen=True)``
``exec``s generated source for every class it decorates (about 19 ms for 19
five-field classes, and a ``.pyc`` cache does not remove it).  ``record``
gives the same value semantics from closures; it imports nothing and runs no
``exec``.  With it, interpreter start plus ``import qosc.cli`` fell from 139
to 113 ms (medians of 25 fresh processes, same host).

``@record`` reads the field names from the class annotations, in order, and a
field's default from the class attribute of the same name.  It adds
``__init__`` (positional or keyword arguments, then ``__post_init__`` if the
class defines one), field-wise ``__eq__`` and ``__hash__``,
``Name(field=value, ...)`` ``__repr__``, and ``__setattr__``/``__delattr__``
that raise ``AttributeError``; ``__post_init__`` normalises fields with
``object.__setattr__``.  ``dataclasses.fields``, ``replace`` and ``asdict``
do not apply to records: ``field_names`` gives the fields.
"""

from __future__ import annotations


def field_names(cls_or_record) -> tuple:
    """The field names of a record class or instance, in declaration order."""
    return cls_or_record.__record_fields__


def _bind(cls, args: tuple, kwargs: dict) -> list:
    """Field values, in order, from a call with keywords or omitted defaults."""
    names, defaults = cls.__record_fields__, cls.__record_defaults__
    if len(args) > len(names):
        raise TypeError(
            f"{cls.__qualname__}() takes {len(names)} arguments but {len(args)} were given"
        )
    values, rest, used, missing = list(args), names[len(args):], 0, []
    for name in rest:
        if name in kwargs:
            values.append(kwargs[name])
            used += 1
        elif name in defaults:
            values.append(defaults[name])
        else:
            missing.append(name)
    if used < len(kwargs):
        name = next(name for name in kwargs if name not in rest)
        problem = "multiple values for" if name in names else "an unexpected keyword"
        raise TypeError(f"{cls.__qualname__}() got {problem} argument {name!r}")
    if missing:
        raise TypeError(f"{cls.__qualname__}() missing argument(s): {', '.join(map(repr, missing))}")
    return values


def record(cls):
    """Make ``cls`` a frozen record of its annotated fields (see the module docstring)."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    count = len(names)
    post_init = cls.__dict__.get("__post_init__")

    def values(self) -> tuple:
        return tuple(self.__dict__[name] for name in names)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = _bind(cls, args, kwargs)
        self.__dict__.update(zip(names, args))
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={self.__dict__[name]!r}" for name in names)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    cls.__record_fields__ = cls.__match_args__ = names
    cls.__record_defaults__ = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls
