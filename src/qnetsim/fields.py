"""Checked reads from one mapping of a config: the top level, the topology,
a link entry, a channel spec or a scenario cell.  ``done`` rejects every key
no read asked for, so a misspelt key fails instead of leaving its default in
force.  Every message starts with the mapping's location, if it has one.
"""

from __future__ import annotations

import math
import numbers
from typing import Any, Callable

_REQUIRED = object()


class Fields:
    """Checked reads from the mapping ``raw`` found at ``where``."""

    def __init__(self, raw: Any, where: str = ""):
        self.where = where
        if not isinstance(raw, dict):
            raise self.error("must be a mapping")
        self._raw = raw
        self._read: set[str] = set()
        self._nodes: dict[str, str] = {}

    def at(self, name: str) -> str:
        return f"{self.where}: {name}" if self.where else name

    def error(self, message: str) -> ValueError:
        return ValueError(self.at(message))

    def value(self, name: str, default: Any = _REQUIRED) -> Any:
        self._read.add(name)
        if name in self._raw:
            return self._raw[name]
        if default is _REQUIRED:
            raise self.error(f"{name} is required")
        return default

    def integer(self, name: str, default: Any = _REQUIRED, low: float = -math.inf) -> int:
        return self.check_integer(name, self.value(name, default), low)

    def probability(self, name: str, default: Any = _REQUIRED) -> float:
        value = self.value(name, default)
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 <= value <= 1:
            raise self.error(f"{name} must be a number in [0, 1], got {value!r}")
        return float(value)

    def flag(self, name: str, default: Any = _REQUIRED) -> bool:
        value = self.value(name, default)
        if not isinstance(value, bool):
            raise self.error(f"{name} must be true or false, got {value!r}")
        return value

    def text(self, name: str, default: Any = _REQUIRED) -> str:
        return self.check_text(name, self.value(name, default))

    def items(self, name: str, default: Any = _REQUIRED, each: Callable | None = None) -> list:
        """The list under ``name``; ``each(label, item)`` checks every item."""
        value = self.value(name, default)
        if not isinstance(value, list):
            raise self.error(f"{name} must be a list, got {value!r}")
        return value if each is None else [each(f"{name}[{i}]", v) for i, v in enumerate(value)]

    def entries(self, name: str, default: Any = _REQUIRED) -> list[Fields]:
        """One reader for each mapping in the list under ``name``."""
        return self.items(name, default, lambda label, entry: Fields(entry, self.at(label)))

    def mapping(self, name: str, default: Any = _REQUIRED) -> dict:
        """The mapping under ``name``, unread: a reader of its own checks its keys."""
        return Fields(self.value(name, default), self.at(name))._raw

    def node(self, nodes: tuple[str, ...], name: str, default: Any = _REQUIRED) -> str:
        """One of ``nodes``, distinct from every other node read here."""
        value = self.text(name, default)
        if value not in nodes:
            raise self.error(f"{name} {value!r} is not a topology node")
        if value in self._nodes:
            raise self.error(f"{self._nodes[value]} and {name} are both {value!r}")
        self._nodes[value] = name
        return value

    def done(self) -> None:
        unread = sorted(set(self._raw) - self._read, key=str)
        if unread:
            raise self.error(f"unknown parameter(s) {unread}; it reads {sorted(self._read)}")

    def check_integer(self, label: str, value: Any, low: float = -math.inf) -> int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise self.error(f"{label} must be an integer, got {value!r}")
        if value < low:
            raise self.error(f"{label} must be at least {low}, got {value}")
        return int(value)

    def check_text(self, label: str, value: Any) -> str:
        if not isinstance(value, str):
            raise self.error(f"{label} must be a string, got {value!r}")
        return value
