"""Document primitives for the MongoDB-substitute store.

Documents are JSON-compatible dicts.  Every stored document carries an
``_id``: either caller-provided or an auto-generated :class:`ObjectId`-style
hex string (timestamp + process-unique counter + randomness), mirroring
MongoDB's id scheme closely enough for MMlib's reference graphs.
"""

from __future__ import annotations

import json
import os
import secrets
import threading
import time

__all__ = [
    "ObjectId",
    "new_object_id",
    "check_document",
    "validate_document",
    "DocumentError",
]


class DocumentError(ValueError):
    """Raised for malformed documents or invalid field names."""


class ObjectId:
    """A 24-hex-character unique document identifier."""

    _counter = secrets.randbits(24)
    _lock = threading.Lock()

    def __init__(self, value: str | None = None):
        if value is None:
            value = self._generate()
        value = str(value)
        if len(value) != 24 or any(c not in "0123456789abcdef" for c in value):
            raise DocumentError(f"invalid ObjectId: {value!r}")
        self._value = value

    @classmethod
    def _generate(cls) -> str:
        with cls._lock:
            cls._counter = (cls._counter + 1) % (1 << 24)
            counter = cls._counter
        timestamp = int(time.time()) & 0xFFFFFFFF
        machine = secrets.randbits(24)
        pid = os.getpid() & 0xFFFF
        return (
            f"{timestamp:08x}{machine:06x}{pid:04x}{counter:06x}"
        )

    def __str__(self) -> str:
        return self._value

    def __repr__(self) -> str:
        return f"ObjectId({self._value!r})"

    def __eq__(self, other) -> bool:
        return str(self) == str(other)

    def __hash__(self) -> int:
        return hash(self._value)


def new_object_id() -> str:
    """Generate a fresh document id string."""
    return str(ObjectId())


def _check_json_value(value, path: str) -> None:
    if value is None or isinstance(value, (bool, int, float, str)):
        return
    if isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _check_json_value(item, f"{path}[{index}]")
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise DocumentError(f"non-string key at {path}: {key!r}")
            if key.startswith("$"):
                raise DocumentError(f"field name may not start with '$': {path}.{key}")
            _check_json_value(item, f"{path}.{key}")
        return
    raise DocumentError(
        f"value at {path} has non-JSON type {type(value).__name__}"
    )


def check_document(document: dict) -> None:
    """Raise :class:`DocumentError` unless ``document`` is a dict of JSON
    values under string keys, none starting with ``$``."""
    if not isinstance(document, dict):
        raise DocumentError(f"document must be a dict, got {type(document).__name__}")
    _check_json_value(document, "<root>")


def validate_document(document: dict) -> dict:
    """Validate and deep-copy a document prior to insertion.

    Ensures JSON compatibility (so persistence cannot fail later) and
    returns an isolated copy so callers cannot mutate stored state.
    """
    check_document(document)
    # round-trip through JSON to normalise tuples and numpy scalars away
    return json.loads(json.dumps(document))
