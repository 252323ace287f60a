"""The decorator that makes lvdiag's frozen record types.

``@dataclasses.dataclass(frozen=True)`` compiles six methods for each class
with ``exec``, and for lvdiag's eleven record classes that was most of the
package's import time.  ``record`` lets the standard library build the
fields, so ``dataclasses.fields``, ``replace``, ``is_dataclass`` and
``__match_args__`` are its own, and installs ``__init__``, ``__repr__``,
``__eq__``, ``__hash__``, ``__setattr__`` and ``__delattr__`` as closures over
one set of code objects.  The instances construct, print, compare, hash,
pickle and refuse assignment as frozen dataclasses do, with the same
``TypeError`` messages for bad arguments; ``==`` compares tuples of the
fields, as the dataclasses of Python 3.10 to 3.12 do, so an array field
makes it raise unless both records hold the same array.  Fields take plain
defaults only: no ``dataclasses.field``, ``InitVar`` or ``ClassVar``.
"""

import dataclasses
import inspect

_setattr = object.__setattr__


def _names_text(names):
    """CPython's list of argument names in a call error: 'a', 'a' and 'b', or 'a', 'b', and 'c'."""
    quoted = [repr(name) for name in names]
    if len(quoted) == 1:
        return quoted[0]
    if len(quoted) == 2:
        return f"{quoted[0]} and {quoted[1]}"
    return ", ".join(quoted[:-1]) + f", and {quoted[-1]}"


def record(cls):
    """``@dataclasses.dataclass(frozen=True)`` with methods shared by every record class.

    The class needs a docstring: without one, ``dataclasses`` would write one
    from the signature before ``record`` installs ``__init__``, and get it wrong.
    """
    if cls.__doc__ is None:
        raise TypeError(f"record class {cls.__qualname__} needs a docstring")
    cls = dataclasses.dataclass(cls, init=False, repr=False, eq=False)
    flags = cls.__dataclass_params__
    flags.init = flags.repr = flags.eq = flags.frozen = True
    fields = dataclasses.fields(cls)
    names = tuple(f.name for f in fields)
    defaults = {f.name: f.default for f in fields if f.default is not dataclasses.MISSING}
    count = len(names)
    has_post_init = hasattr(cls, "__post_init__")
    init_name = f"{cls.__qualname__}.__init__"

    def bind(args, kwargs):
        """The field values of a call that is not ``count`` positional arguments,
        or CPython's ``TypeError`` for the ``__init__`` a dataclass would compile."""
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{init_name}() got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{init_name}() got multiple values for argument {name!r}")
            values[name] = value
        if len(args) > count:
            takes = f"from {count + 1 - len(defaults)} to {count + 1}" if defaults else f"{count + 1}"
            raise TypeError(f"{init_name}() takes {takes} positional arguments but {len(args) + 1} were given")
        missing = [name for name in names if name not in values and name not in defaults]
        if missing:
            plural = "s" if len(missing) > 1 else ""
            listed = _names_text(missing)
            raise TypeError(f"{init_name}() missing {len(missing)} required positional argument{plural}: {listed}")
        return [values[name] if name in values else defaults[name] for name in names]

    def values(self):
        return tuple([getattr(self, name) for name in names])

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            _setattr(self, name, value)
        if has_post_init:
            self.__post_init__()

    def __repr__(self):
        body = ", ".join([f"{name}={getattr(self, name)!r}" for name in names])
        return f"{self.__class__.__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    kind = inspect.Parameter.POSITIONAL_OR_KEYWORD
    parameters = [inspect.Parameter("self", kind)]
    for f in fields:
        default = defaults.get(f.name, inspect.Parameter.empty)
        parameters.append(inspect.Parameter(f.name, kind, default=default, annotation=f.type))
    # inspect.signature(cls) reads this one and drops self.
    __init__.__signature__ = inspect.Signature(parameters, return_annotation=None)
    return cls
