"""The per-field rules of the configuration types. Imports nothing from the
package, so that every module defining such a type can call it."""

import functools
import math
from dataclasses import fields
from typing import get_args, get_type_hints


@functools.cache
def _float_fields(cls) -> tuple[str, ...]:
    """The fields of dataclass ``cls`` annotated float or a tuple of floats."""
    hints = get_type_hints(cls)
    return tuple(
        f.name for f in fields(cls) if set(get_args(hints[f.name]) or [hints[f.name]]) == {float}
    )


def _finite(value) -> bool:
    return all(map(math.isfinite, value if isinstance(value, tuple) else (value,)))


def check_fields(config, positive=(), non_negative=(), negative=(), choices=None) -> None:
    """Raise ValueError("<field> must be <rule>, got <value>") at the first
    field of dataclass ``config`` that breaks a rule: each float (or item of a
    tuple of floats) is finite, each field named in ``positive``, ``non_negative``
    or ``negative`` has that sign, and each key of ``choices`` is one of its values."""
    rules = [(name, "finite", _finite) for name in _float_fields(type(config))]
    rules += [(name, "positive", lambda v: v > 0) for name in positive]
    rules += [(name, "non-negative", lambda v: v >= 0) for name in non_negative]
    rules += [(name, "negative", lambda v: v < 0) for name in negative]
    rules += [(name, f"one of {c}", c.__contains__) for name, c in (choices or {}).items()]
    for name, rule, holds in rules:
        value = getattr(config, name)
        if not holds(value):
            raise ValueError(f"{name} must be {rule}, got {value!r}")
