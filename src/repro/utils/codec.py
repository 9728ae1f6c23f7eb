"""One dict codec for the library's frozen config dataclasses.

A dataclass that mixes in :class:`ConfigCodec` round-trips through JSON
by its :func:`dataclasses.fields` and resolved type hints, never by a
hand-kept key list:

* ``to_dict()`` — nested configs become dicts, tuples become lists,
  dicts are copied and non-finite floats become ``None``;
* ``from_dict(data)`` — a non-mapping or an unknown key raises
  :class:`~repro.exceptions.ConfigError` naming the class and the key;
  missing keys take the field defaults;
* construction — a field typed ``X | None`` or ``tuple[X, ...]``, with
  ``X`` a codec class, accepts dicts and coerces them through
  ``X.from_dict``; any other value type raises ``ConfigError``, and an
  error inside the nested config is re-raised as
  ``ConfigError("invalid <field>: ...")``.  Coercion is the mixin's
  ``__post_init__``: a class with validation of its own calls
  ``super().__post_init__()`` first, so the checks see typed configs;
* live fields — a field declared with ``metadata=LIVE`` holds live
  objects (models): ``to_dict()`` refuses it while it is non-empty,
  and ``from_dict()`` rejects it as a key.

A non-finite float is dumped as ``None`` and is not restored, so a
class whose float fields may be ``nan`` — the lifecycle reports
:class:`~repro.runtime.lifecycle.GateReport` and
:class:`~repro.runtime.lifecycle.SwapEvent` — is dump-only: its
``to_dict()`` is its JSON form, and nothing rebuilds it from one.

Type hints are resolved once per class and cached: configs are built
on the service set-up path.
"""

from __future__ import annotations

import math
import typing
from collections.abc import Mapping
from dataclasses import fields
from functools import cache
from typing import Any, NamedTuple, TypeVar

from repro.exceptions import ConfigError

__all__ = ["ConfigCodec", "LIVE"]

#: Field metadata marking a field of live objects, which has no dict form.
LIVE = {"live": True}

_C = TypeVar("_C", bound="ConfigCodec")


class _Field(NamedTuple):
    name: str
    live: bool
    nested: type | None  # the codec class X of ``X | None``/``tuple[X, ...]``
    many: bool  # ``tuple[X, ...]``


class ConfigCodec:
    """Mixin giving a frozen dataclass the module's dict codec."""

    def __post_init__(self) -> None:
        _coerce(self)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dict; a config round-trips via :meth:`from_dict`."""
        out = {}
        for f in _fields(type(self)):
            value = getattr(self, f.name)
            if f.live:
                if value:
                    raise ConfigError(
                        f"{f.name} hold live model objects and cannot be "
                        "serialized; attach them when constructing the service"
                    )
                continue
            out[f.name] = _encode(value)
        return out

    @classmethod
    def from_dict(cls: type[_C], data: Mapping[str, Any]) -> _C:
        """Rebuild an instance from :meth:`to_dict` output."""
        if not isinstance(data, Mapping):
            raise ConfigError(
                f"{cls.__name__} must be built from a dict, "
                f"got {type(data).__name__}"
            )
        known = {f.name for f in _fields(cls) if not f.live}
        unknown = sorted(str(key) for key in data if key not in known)
        if unknown:
            raise ConfigError(
                f"unknown {cls.__name__} keys: {', '.join(unknown)}"
            )
        try:
            return cls(**data)
        except (TypeError, ValueError) as exc:  # a missing or invalid value
            raise ConfigError(str(exc)) from None


@cache
def _fields(cls: type) -> tuple[_Field, ...]:
    hints = typing.get_type_hints(cls)
    return tuple(
        _Field(f.name, bool(f.metadata.get("live")), *_nested(hints[f.name]))
        for f in fields(cls)
    )


def _nested(hint: Any) -> tuple[type | None, bool]:
    """``(X, many)`` for a ``X | None`` or ``tuple[X, ...]`` hint whose
    ``X`` is a codec class, else ``(None, False)``."""
    args = typing.get_args(hint)
    many = typing.get_origin(hint) is tuple and args[1:] == (Ellipsis,)
    if many:
        hint = args[0]
    elif type(None) in args and len(args) == 2:
        hint = args[0] if args[1] is type(None) else args[1]
    if (
        typing.get_origin(hint) is None  # ``tuple[str, float]`` is no class
        and isinstance(hint, type)
        and issubclass(hint, ConfigCodec)
    ):
        return hint, many
    return None, False


def _coerce(obj: ConfigCodec) -> None:
    for f in _fields(type(obj)):
        if f.nested is None:
            continue
        value = getattr(obj, f.name)
        if f.many:
            if not isinstance(value, (tuple, list)):
                raise ConfigError(
                    f"{f.name} must be a sequence of {f.nested.__name__} "
                    f"or dicts, got {type(value).__name__}"
                )
            value = tuple(
                _one(f.nested, f"{f.name}[{i}]", item)
                for i, item in enumerate(value)
            )
        elif value is not None:
            value = _one(f.nested, f.name, value)
        object.__setattr__(obj, f.name, value)


def _one(cls: type, label: str, value: Any) -> Any:
    if isinstance(value, cls):
        return value
    if not isinstance(value, Mapping):
        raise ConfigError(
            f"{label} must be a {cls.__name__} or dict, "
            f"got {type(value).__name__}"
        )
    try:
        return cls.from_dict(value)
    except ConfigError as exc:
        raise ConfigError(f"invalid {label}: {exc}") from None


def _encode(value: Any) -> Any:
    if isinstance(value, ConfigCodec):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [_encode(item) for item in value]
    if isinstance(value, dict):
        return dict(value)
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value
