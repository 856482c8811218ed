"""Exception hierarchy for resbeam, and the one range check :func:`require`.

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


class UnboundedStableRangeError(ResbeamError):
    """The stable distance set has no finite supremum."""

    def __init__(self, probe_limit: float):
        self.probe_limit = probe_limit
        super().__init__(
            f"stable at every probed distance (checked past d = {probe_limit} m)"
        )


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
    """

    line: int | None = None

    def __init__(self, key: str, message: str, value: str):
        self.key = key
        self.value = value
        super().__init__(f"{key}: {message}")


def rule_error(key: str, value: object, rule: str) -> UnitError:
    """UnitError(key, "must be <rule>, got <repr(value)>"), for a body that returns its error."""
    return UnitError(key, f"must be {rule}, got {value!r}", repr(value))


def require(key: str, value: object, ok: bool, rule: str) -> None:
    """Unless ok, raise rule_error(key, value, rule)."""
    if not ok:
        raise rule_error(key, value, rule)
