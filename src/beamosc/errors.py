"""Exception taxonomy shared by every module in the package.

All errors raised on purpose derive from BeamoscError so callers can catch
one base class at an API boundary (the CLI does exactly that).
"""

from __future__ import annotations


class BeamoscError(Exception):
    """Base class for every error this package raises deliberately."""


class ValidationError(BeamoscError, ValueError):
    """An input value violates a documented precondition."""


class PullInError(BeamoscError):
    """Electrostatic force exceeds the spring restoring force: the gap collapses."""


class ConvergenceError(BeamoscError):
    """An iterative solver failed to reach its tolerance within its budget."""


class InsufficientDataError(BeamoscError):
    """A trace or envelope is too short for the requested measurement."""


class SimulationError(BeamoscError):
    """The time integrator produced a non-finite state."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class GridCapError(BeamoscError):
    """A sweep grid would exceed the configured point budget."""


class ConfigError(BeamoscError):
    """A config file or override is malformed; the message names the key."""


class StageError(BeamoscError):
    """A design evaluation failed; records which pipeline stage rejected it."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage
        self.cause = cause


def checks():
    """A check runner for floats: raises at the first broken precondition.

    Each physics function and validated dataclass takes its checks as a
    `check` argument, RAISE by default. check(bad, message, *args,
    error=ValidationError) raises `error` when `bad`, with the str.format
    template `message` filled from `args`; check.stage names the pipeline
    stage running. The sweep kernel passes a collector with the same
    interface that records a failure mask per stage instead, so the same
    code also runs on numpy columns.

    A plain function, because one evaluation runs dozens of checks and a
    function call costs less than any callable object's.
    """
    def check(bad, message: str, *args, error=ValidationError) -> None:
        if bad:
            raise error(message.format(*args) if args else message)

    check.stage = None
    return check


RAISE = checks()


def build(cls, check, **fields):
    """cls(**fields) for a dataclass, validated by cls.__post_init__(check).

    All fields must be given. They are set directly, as copy.copy does, so
    a frozen dataclass costs no setattr per field, and under the sweep's
    collector they may be numpy columns.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    post_init = getattr(cls, "__post_init__", None)
    if post_init is not None:
        post_init(obj, check)
    return obj


def rebuild(obj, check, **changes):
    """dataclasses.replace(obj, **changes), validated through build()."""
    return build(type(obj), check, **{**obj.__dict__, **changes})
