"""Exception hierarchy for resbeam, the one range check :func:`require`, and
:class:`Record`, the frozen base of the checked input bundles.

Every domain failure raised by the library derives from :class:`ResbeamError`
so callers (and the CLI) can distinguish model-domain errors from bugs.  Hot
kernels test a range inline and call ``require`` only when the test fails.
"""


class ResbeamError(Exception):
    """Base class for all resbeam domain errors."""


class DegenerateLineError(ResbeamError):
    """The distance-parameterized (g1, g2) family is not a graph over g1."""


class NoSolutionError(ResbeamError):
    """No receiver-mirror curvature satisfies the requested branch condition."""


class WrongSignSlopeError(ResbeamError):
    """The solved stability line has a slope of the wrong sign for the branch."""


class UnstableConfigurationError(ResbeamError):
    """Gaussian-mode quantities requested outside 0 < g1*g2 < 1."""


class NoStableRegionError(ResbeamError):
    """The cavity is unstable at every transmission distance."""


class UndefinedAtZeroError(ResbeamError):
    """An efficiency ratio was requested at zero input power."""


class UnreachableTargetError(ResbeamError):
    """The requested output power cannot be produced by any input power."""


class InfeasibleTargetError(ResbeamError):
    """No aperture radius can meet the requested efficiency target."""


class EmptyResultError(ResbeamError):
    """A design search matched no part of its search interval."""


class UnknownFigureError(ResbeamError):
    """Figure id outside the reproducible set."""


class ConfigError(ResbeamError):
    """Base class for configuration-file problems."""


class ParseError(ConfigError):
    """Malformed or unknown configuration input."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class UnitError(ConfigError, ValueError):
    """A value has a wrong unit or is out of its valid range.

    ``key`` names a config key (``a``, not ``aperture_radius``), a command-line
    value (``pout``) or a library argument (``p_in``, also for ``--pin``);
    ``value`` is the offending token or number repr, ``line`` its config line.
    ``stage``, where set, is the step of a run that failed: "parse" for a token
    that is not a quantity, "build" for a config whose bundle fails its checks.
    """

    line: int | None = None

    def __init__(self, key: str, message: str, value: str, stage: str | None = None):
        self.key = key
        self.value = value
        self.stage = stage
        super().__init__(f"{key}: {message}")


def require(key: str, value: object, ok: bool, rule: str) -> None:
    """Unless ok, raise UnitError(key, "must be <rule>, got <repr(value)>")."""
    if not ok:
        raise UnitError(key, f"must be {rule}, got {value!r}", repr(value))


class Record:
    """A frozen record of named fields, checked when it is built.

    A subclass names its fields by annotation, in order, gives a default as the
    class attribute of the same name (fields with defaults come last), and
    checks them in ``__post_init__``.  A record is built by position or by
    keyword, as a dataclass is, runs that check, and then refuses assignment.
    It speaks the NamedTuple protocol of the results: ``_fields``,
    ``_field_defaults``, ``_asdict()`` and ``_replace(**changes)``, which builds
    a new record and so checks it again.  Equality, hash and repr go by the
    field values, as a frozen dataclass's do.
    """

    _fields: tuple[str, ...] = ()
    _field_defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        defaults = cls._field_defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
        # __init__(self, <fields>) is written out, as namedtuple writes __new__: a
        # generic binder would slow every construction by half a microsecond
        body = "".join(f"    _set(self, {n!r}, {n})\n" for n in names)
        scope = {"_set": object.__setattr__}
        exec(f"def __init__(self, {', '.join(names)}):\n{body}    self.__post_init__()\n", scope)
        init = scope["__init__"]
        init.__defaults__ = tuple(defaults.values()) or None
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _asdict(self) -> dict[str, object]:
        return dict(zip(self._fields, self._values()))

    def _replace(self, **changes):
        return type(self)(**(self._asdict() | changes))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"
