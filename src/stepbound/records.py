"""Record classes: the one builder behind every node, outcome, program,
spec and report class of the package.

``record`` makes a class with annotated fields a value class, as
``dataclasses.dataclass`` would, with one small ``exec`` per class.  It
writes the methods dataclasses writes, with the same behaviour:

- The fields are the bases' and then the class's own, except that
  ``kw_only`` ones come last, where a dataclass keeps an inherited one
  first.
- ``__init__`` takes the fields in order, ``kw_only`` ones after a
  ``*``, with their defaults and ``default_factory``, and then calls
  ``__post_init__`` if the class has one.  It stores each field straight
  into the instance ``__dict__``: the one ``dataclass(frozen=True)``
  writes makes an ``object.__setattr__`` call per field, and the law
  suite and the generators build hundreds of thousands of nodes.
- ``__eq__`` compares the tuples of the compared fields of two instances
  of one class, and ``__hash__`` hashes that tuple, so hash values and
  the iteration orders of sets are those of the equal dataclass.
  Mutable records (``frozen=False``) are unhashable.
- ``__match_args__`` and ``__repr__`` are the dataclass ones.  On a
  frozen record, assignment and deletion raise
  ``dataclasses.FrozenInstanceError``.

A record class defines none of these methods itself.

The package never imports ``dataclasses``: importing it loads
``inspect``, ``ast`` and ``tokenize``, and building 60 dataclasses took
most of ``import stepbound``.  ``dataclasses.fields``, ``replace``,
``asdict`` and ``is_dataclass`` still work on every record: they read
``__dataclass_fields__``, which is built on first read from a plain
dataclass with the record's fields.  The package itself uses this
module's ``field``, ``replace`` and ``asdict``.
"""

_MISSING = object()
_FACTORY = object()  # the parameter default of a ``default_factory`` field


class _Field:
    """A field with these options, as ``dataclasses.field`` takes them."""

    __slots__ = ("name", "type", "default", "default_factory", "compare",
                 "repr", "kw_only")

    def __init__(self, *, default=_MISSING, default_factory=_MISSING,
                 compare=True, repr=True, kw_only=False):
        self.default, self.default_factory = default, default_factory
        self.compare, self.repr, self.kw_only = compare, repr, kw_only


field = _Field


class _DataclassFields:
    """``__dataclass_fields__`` of a record: built on first read, from a
    plain dataclass with the record's fields, and then kept on the
    class in place of this descriptor."""

    def __get__(self, obj, owner):
        import dataclasses

        def option(value):
            return dataclasses.MISSING if value is _MISSING else value

        ns = {"__annotations__": {}, "__module__": owner.__module__,
              "__qualname__": owner.__qualname__}
        for name, f in owner.__record_fields__.items():
            ns["__annotations__"][name] = f.type
            ns[name] = dataclasses.field(
                default=option(f.default),
                default_factory=option(f.default_factory),
                compare=f.compare, repr=f.repr, kw_only=f.kw_only)
        plain = dataclasses.dataclass(type(owner.__name__, (), ns))
        owner.__dataclass_fields__ = plain.__dataclass_fields__
        return owner.__dataclass_fields__


def _frozen_setattr(self, name, value):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _repr(self):
    fields = self.__record_fields__
    return (f"{self.__class__.__qualname__}("
            + ", ".join(f"{name}={getattr(self, name)!r}"
                        for name, f in fields.items() if f.repr) + ")")


def record(cls=None, /, *, frozen=True):
    """``cls`` as a record class; ``@record(frozen=False)`` for one whose
    instances may be assigned to.  Fields are inherited from record
    bases, as dataclass fields are."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    fields = {}
    for base in cls.__mro__[-1:0:-1]:
        fields.update(getattr(base, "__record_fields__", {}))
    for name, ty in cls.__dict__.get("__annotations__", {}).items():
        f = cls.__dict__.get(name, _MISSING)
        if not isinstance(f, _Field):
            f = _Field(default=f)
        elif f.default is _MISSING:
            delattr(cls, name)
        else:
            setattr(cls, name, f.default)
        f.name, f.type = name, ty
        fields[name] = f
    # keyword-only fields last, the order ``__init__`` takes them in
    fields = {name: f for kw in (False, True)
              for name, f in fields.items() if f.kw_only is kw}

    params, kw_params, body, ns = [], [], [], {"_FACTORY": _FACTORY}
    for name, f in fields.items():
        param, value = name, name
        if f.default_factory is not _MISSING:
            ns[f"_factory_{name}"] = f.default_factory
            param += "=_FACTORY"
            value = f"_factory_{name}() if {name} is _FACTORY else {name}"
        elif f.default is not _MISSING:
            ns[f"_default_{name}"] = f.default
            param += f"=_default_{name}"
        (kw_params if f.kw_only else params).append(param)
        body.append(f"  __d[{name!r}] = {value}\n")
    if kw_params:
        params += ["*", *kw_params]
    if hasattr(cls, "__post_init__"):
        body.append("  self.__post_init__()\n")
    compared = [name for name, f in fields.items() if f.compare]
    mine = "".join(f"self.{name}," for name in compared)
    theirs = "".join(f"other.{name}," for name in compared)
    source = (f"def __init__(self, {', '.join(params)}):\n"
              "  __d = self.__dict__\n" + "".join(body)
              + "def __eq__(self, other):\n"
              "  if other.__class__ is self.__class__:\n"
              f"    return ({mine}) == ({theirs})\n"
              "  return NotImplemented\n")
    if frozen:
        source += f"def __hash__(self):\n  return hash(({mine}))\n"
    exec(source, ns)
    for name in ("__init__", "__eq__", "__hash__"):
        method = ns.get(name)  # no __hash__: mutable records are unhashable
        if method is not None:
            method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    if frozen:
        cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    cls.__repr__ = _repr
    cls.__match_args__ = tuple(name for name, f in fields.items()
                               if not f.kw_only)
    cls.__record_fields__ = fields
    cls.__dataclass_fields__ = _DataclassFields()
    return cls


def replace(obj, /, **changes):
    """A record like ``obj`` with the fields in ``changes`` replaced, built
    through its ``__init__``, so ``__post_init__`` checks it again."""
    for name in obj.__record_fields__:
        if name not in changes:
            changes[name] = getattr(obj, name)
    return obj.__class__(**changes)


def asdict(obj):
    """Record ``obj`` as a dict of its fields by name.  Unlike
    ``dataclasses.asdict``, records among the values stay as they are."""
    return {name: getattr(obj, name) for name in obj.__record_fields__}
