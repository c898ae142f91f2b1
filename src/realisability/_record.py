"""Record classes without dataclasses, whose import loads inspect, ast,
dis and tokenize: as there, each method is compiled once per class."""


def _refuse(self, name, *value):
    raise AttributeError("cannot assign to or delete field %r" % name)


def record(cls=None, *, frozen=False):
    """cls with the __init__ (defaults, then __post_init__), __eq__ and
    __repr__ that @dataclass writes over its own annotated fields, kept
    in order in cls._fields.  A record is unhashable; a frozen one hashes
    its field tuple and refuses every assignment and deletion."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    names = cls._fields = tuple(vars(cls).get("__annotations__", ()))
    mine = "".join("self.%s, " % n for n in names)
    put = "  _set(self, %r, %s)" if frozen else "  self.%s = %s"
    post = hasattr(cls, "__post_init__")
    src = ["def __init__(self%s):" % "".join(", " + n for n in names),
           *[put % (n, n) for n in names],
           "  self.__post_init__()" if post else "  pass",
           "def __eq__(self, other):",
           "  if other.__class__ is self.__class__:",
           "    return (%s) == (%s)" % (mine, mine.replace("self.", "other.")),
           "  return NotImplemented",
           "def __repr__(self):",
           "  return '%%s(%s)' %% (type(self).__qualname__, %s)"
           % (", ".join(n + "=%r" for n in names), mine),
           "def __hash__(self):",
           "  return hash((%s))" % mine]
    ns = {"_set": object.__setattr__}
    exec(compile("\n".join(src), "<record %s>" % cls.__name__, "exec"), ns)
    ns["__init__"].__defaults__ = tuple(vars(cls)[n] for n in names
                                        if n in vars(cls))
    for name in ("__init__", "__eq__", "__repr__", "__hash__"):
        setattr(cls, name, ns[name])
    if frozen:
        cls.__setattr__ = cls.__delattr__ = _refuse
    else:
        cls.__hash__ = None
    return cls
