"""Typed reads from parsed config and task JSON.

Every failure is a ValueError that names the field path, for example
``missing config field: bounds``, ``unknown config field: budjet`` or
``metric.k: expected a finite number``, so the CLI reports it on one line
with exit code 1.
"""

from __future__ import annotations

import math

_REQUIRED = object()


def json_field(data, path: str, convert=None, default=_REQUIRED):
    """The value at the dotted `path` of `data`, passed through `convert`;
    `default` when a field on the path is absent and a default is given."""
    keys = path.split(".")
    value = data
    for depth, key in enumerate(keys):
        if not isinstance(value, dict):
            parent = ".".join(keys[:depth]) or "the top level"
            raise ValueError(f"{parent} must be a JSON object, got {value!r}")
        if key not in value:
            if default is _REQUIRED:
                raise ValueError(f"missing config field: {'.'.join(keys[: depth + 1])}")
            return default
        value = value[key]
    if convert is None:
        return value
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def known_fields(data, names, path: str = "") -> None:
    """Reject a key of the JSON object `data`, found at the dotted `path`,
    that is not one of `names`: a misspelt optional field would otherwise
    fall back to its default unnoticed."""
    if isinstance(data, dict):
        unknown = next((key for key in data if key not in names), None)
        if unknown is not None:
            raise ValueError(f"unknown config field: {path + '.' if path else ''}{unknown}")


def number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def text(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def optional_text(value) -> str | None:
    return None if value is None else text(value)


def list_of(convert, length: int | None = None):
    """A converter for a JSON list whose items pass `convert`."""

    def check(value) -> list:
        if not isinstance(value, list) or length not in (None, len(value)):
            size = "" if length is None else f" of {length}"
            raise ValueError(f"expected a list{size}, got {value!r}")
        out = []
        for i, item in enumerate(value):
            try:
                out.append(convert(item))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"item {i}: {exc}") from None
        return out

    return check
