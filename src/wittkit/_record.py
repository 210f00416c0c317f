"""Record classes without `dataclasses`.

`@record` turns a class whose body annotates its fields into a value
record: an `__init__` taking the fields positionally or by keyword in
annotation order, `__eq__` and `__repr__` over the field tuple and, for a
frozen record, `__hash__` over it and a `__setattr__` that refuses
assignment.  Methods the class defines itself (`RationalFunction`'s
`__init__`) are kept, and `__post_init__` runs after the generated
`__init__`.  A list default is copied for each instance.  Nothing is
compiled at import time, which is what keeps `import wittkit` cheap:
`dataclasses` imports `inspect` and exec-compiles every method it makes.
"""

from operator import attrgetter


def record(cls=None, *, frozen: bool = True):
    """Class decorator; `@record` is frozen, `@record(frozen=False)` mutable."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    values = attrgetter(*names)
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments, "
                            f"got {len(args)}")
        bound = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                bound.append(kwargs.pop(name))
            elif name in defaults:
                value = defaults[name]
                bound.append(value[:] if type(value) is list else value)
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got unexpected arguments {sorted(kwargs)}")
        for name, value in zip(names, bound):
            object.__setattr__(self, name, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{cls.__qualname__}({fields})"

    def __hash__(self):
        return hash(values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {cls.__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {cls.__name__}")

    methods = {"__init__": __init__, "__eq__": __eq__, "__repr__": __repr__,
               "__hash__": __hash__ if frozen else None}
    if frozen:
        methods.update(__setattr__=__setattr__, __delattr__=__delattr__)
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls
