"""Type checks for configuration documents, read off their defaults, and the
range check and builder the section dataclasses share."""

import math

from .errors import ConfigurationError


def schema_of(defaults: dict) -> dict:
    """Accepted types per key, read off the defaults: a float default takes
    any number, None an optional number, anything else its own type."""
    out = {}
    for key, value in defaults.items():
        if isinstance(value, dict):
            out[key] = schema_of(value)
        elif isinstance(value, float):
            out[key] = (int, float)
        elif value is None:
            out[key] = (int, float, type(None))
        else:
            out[key] = type(value)
    return out


def validate_config(doc: dict, schema: dict, path: str = "") -> None:
    """Reject keys ``schema`` does not name, values of other types and
    non-finite numbers; a bool is accepted only where the schema names bool."""
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path or 'config'}: expected an object")
    for key, value in doc.items():
        if key not in schema:
            raise ConfigurationError(f"unknown configuration key {path}{key!r}")
        expected = schema[key]
        if isinstance(expected, dict):
            validate_config(value, expected, f"{path}{key}.")
        else:
            kinds = expected if isinstance(expected, tuple) else (expected,)
            if bool not in kinds and isinstance(value, bool):
                raise ConfigurationError(f"{path}{key}: expected {kinds}, got bool")
            if not isinstance(value, kinds):
                raise ConfigurationError(
                    f"{path}{key}: expected {kinds}, got {type(value).__name__}")
            # Python's json reads NaN and Infinity, which JSON itself lacks.
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigurationError(f"{path}{key} must be finite, got {value}")


def at_least(section, **least) -> None:
    """Reject the first field of the dataclass ``section`` named in ``least``
    that is below its least value."""
    for key, low in least.items():
        value = getattr(section, key)
        if not value >= low:
            raise ConfigurationError(f"{key} must be >= {low}, got {value}")


def build_section(name: str, section, doc: dict):
    """``section(**doc)``, whose range errors name ``name`` before their key."""
    try:
        return section(**doc)
    except ConfigurationError as err:
        raise ConfigurationError(f"{name}.{err}") from err
