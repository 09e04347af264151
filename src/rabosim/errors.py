"""Exception types shared across the simulator, and the value checks."""

import math
import numbers
import sys


class RabosimError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(RabosimError):
    """Operands have incompatible shapes."""


class NonFiniteValue(RabosimError):
    """A vector or matrix contains NaN or Inf."""


class NotPositiveDefinite(RabosimError):
    """A matrix expected to be SPD failed factorization."""


class InvalidSpec(RabosimError, ValueError):
    """A config entry, problem or run specification is malformed; ``key``
    names the offending entry when there is one."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


# Each module that owns settings tables their range rules as ``RANGES``:
# key -> the name of a test below, which is also what an error says the
# value must be, or the tuple of values the setting may take.
RULES = {
    "positive": lambda v: 0 < v < math.inf,
    "nonnegative": lambda v: v >= 0,
    "at least 1": lambda v: v >= 1,
    "at least 2": lambda v: v >= 2,
    "at least 5": lambda v: v >= 5,
    "in (0, 1]": lambda v: 0 < v <= 1,
}


def is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_finite(v) -> bool:
    # abs, not math.isfinite, which raises OverflowError on an int past floats
    return isinstance(v, numbers.Real) and not isinstance(v, bool) \
        and abs(v) <= sys.float_info.max


# A setting's type is its default's (bool before int, its base class):
# the type, the test of a value and what an error says the value must be.
TYPES = ((bool, lambda v: isinstance(v, bool), "true or false"),
         (int, is_int, "an integer"), (float, is_finite, "a finite number"),
         (str, lambda v: isinstance(v, str), "a string"))


def check_types(values: dict, defaults: dict, prefix: str = "") -> None:
    """Raise InvalidSpec naming the first key of ``defaults`` whose entry in
    ``values`` fails its default's test in ``TYPES``; a key absent from
    ``values``, or whose default (None, say) is of no type there, is
    skipped. ``prefix`` is as in ``check_ranges``."""
    for key, default in defaults.items():
        rule = next((t for t in TYPES if isinstance(default, t[0])), None)
        if rule and key in values and not rule[1](values[key]):
            raise InvalidSpec(f"{prefix}{key} must be {rule[2]}, got "
                              f"{values[key]!r}", key=key)


def check_ranges(values: dict, ranges: dict, prefix: str = "") -> None:
    """Raise InvalidSpec naming the first key of ``ranges`` whose entry in
    ``values`` breaks its rule; a key absent from ``values`` is skipped.
    ``prefix`` (such as ``"run."``) leads the message."""
    for key, rule in ranges.items():
        value, choices = values.get(key), isinstance(rule, tuple)
        if key in values and not (
                value in rule if choices else RULES[rule](value)):
            want = "one of " + ", ".join(rule) if choices else rule
            raise InvalidSpec(f"{prefix}{key} must be {want}, got {value!r}",
                              key=key)


# The most float64 entries a problem's arrays and a run's per-client rows
# may hold together, 2**26 (512 MiB), which each family counts from its
# sizes: past it a config is an error, not an allocation numpy fails.
MAX_ELEMENTS = 2 ** 26


def check_size(values: dict, elements: int, keys, prefix: str = "") -> None:
    """Raise InvalidSpec if ``elements``, the entry count a family holds
    at the sizes in ``values``, exceeds MAX_ELEMENTS, naming the largest
    of its size ``keys``. ``prefix`` is as in ``check_ranges``."""
    if elements > MAX_ELEMENTS:
        key = max(keys, key=values.__getitem__)
        raise InvalidSpec(
            f"{prefix}{key} {values[key]!r} makes the problem hold {elements} "
            f"entries, more than the {MAX_ELEMENTS} allowed", key=key)


class UnsupportedProblem(RabosimError):
    """Operation requires oracle structure the problem does not expose."""


class InvalidCapacity(RabosimError):
    """Client capacity outside (0, 1]."""


class EmptyMask(RabosimError):
    """Mask has no active coordinate where at least one is required."""


class DivergenceDetected(RabosimError):
    """A round failed numerically: an iterate left the divergence guard or
    became non-finite.

    ``partial_logs`` holds the round logs accumulated before the abort when
    raised from a full run.
    """

    def __init__(self, message, partial_logs=None):
        super().__init__(message)
        self.partial_logs = partial_logs if partial_logs is not None else []


class SingularRestrictedHessian(DivergenceDetected):
    """Inner Hessian restricted to the active block is not SPD.

    Signals a mask or an iterate that kills strong convexity on the active
    coordinates; a run reports it as a failed variant, like a divergence.
    """


class MissingBaseline(RabosimError):
    """Cost comparison requested against a variant absent from the sweep."""


class ParseError(RabosimError):
    """Config document is not well-formed; carries line/column when known."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column
