"""Exceptions and resource caps shared across the library."""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import NamedTuple


class FusionkitError(Exception):
    """Base class for all library-specific failures."""


class CapExceeded(FusionkitError):
    """A computation would exceed a configured resource cap."""

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


class SingularPointError(FusionkitError):
    """An evaluation point lies on (or numerically too close to) a wall
    where the Weyl denominator vanishes."""


class OracleMismatchError(FusionkitError):
    """A numeric oracle failed its internal consistency guard; treat as a
    verification failure, not as noise."""


class InvariantViolation(FusionkitError):
    """An internal invariant of an exact computation failed (a signed
    accumulation went negative, folding did not terminate, ...).  Raised
    explicitly, so the check survives ``python -O``."""


class CheckedTuple:
    """First base of a NamedTuple record whose __new__ checks its fields:
    _replace builds the copy through __new__ as well, where the namedtuple
    _replace would skip the checks."""

    __slots__ = ()

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})


class Caps(CheckedTuple, NamedTuple("Caps", [("weyl_order", int), ("dim", int),
                                              ("hilbert", int)])):
    """Resource limits.  Configuration, not constants: the E-series blows up
    quickly and the library must fail loudly instead of hanging.  A cap
    below 1 is rejected with ValueError, by the constructor and by
    _replace alike."""

    __slots__ = ()

    def __new__(cls, weyl_order: int = 10**6, dim: int = 10**5, hilbert: int = 10**6):
        caps = super().__new__(cls, weyl_order, dim, hilbert)
        for name, value in zip(caps._fields, caps):
            if value < 1:
                raise ValueError(f"cap {name} must be at least 1, got {value}")
        return caps


DEFAULT_CAPS = Caps()

#: the caps in force: DEFAULT_CAPS outside any use_caps block
_CAPS_IN_FORCE: ContextVar[Caps] = ContextVar("fusionkit_caps", default=DEFAULT_CAPS)


def check_cap(name: str, required: int, subject) -> None:
    """Raise CapExceeded when ``subject`` needs more than the cap ``name``
    in force allows.  Every check of a Caps field goes through here."""
    cap = getattr(_CAPS_IN_FORCE.get(), name)
    if required > cap:
        raise CapExceeded(f"{subject} needs {name} = {required}, above the cap {cap}",
                          required=required)


@contextmanager
def use_caps(caps: Caps):
    """Put ``caps`` in force for the block; check_cap reads them."""
    token = _CAPS_IN_FORCE.set(caps)
    try:
        yield
    finally:
        _CAPS_IN_FORCE.reset(token)


ENV_CAPS_VAR = "FUSIONKIT_CAPS"


def caps_from_env() -> Caps:
    """Parse ``FUSIONKIT_CAPS`` (e.g. ``"dim=200000,hilbert=10000"``) on top
    of DEFAULT_CAPS.  Unknown keys are rejected."""
    raw = os.environ.get(ENV_CAPS_VAR, "")
    caps = DEFAULT_CAPS
    for field in filter(None, (part.strip() for part in raw.split(","))):
        key, _, value = field.partition("=")
        if key not in ("weyl_order", "dim", "hilbert") or not value:
            raise ValueError(f"bad cap override {field!r} in {ENV_CAPS_VAR}")
        caps = caps._replace(**{key: int(value)})
    return caps
