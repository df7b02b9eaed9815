"""Wire protocol for the serving gateway.

One framing, both directions.  A **frame** is a JSON header line,
optionally followed by raw payload bytes::

    frame   = header payload
    header  = one JSON object, compact, UTF-8, terminated by "\\n"
    payload = exactly header["payload_bytes"] bytes (none when absent or 0)

The header is what :func:`encode_line` produces and :func:`decode_line`
parses.  The payload is opaque to this module: ``save`` requests and
``recover`` responses put a :mod:`repro.nn.serialization` byte stream
there (the arrays' own buffers — nothing is base64-armoured or embedded
in the JSON), every other op carries none, so those can still be typed
into ``nc`` by hand.  Each request carries a client-assigned ``id`` so
responses can be matched out of order: the server pipelines, handling
every request on the connection concurrently.

Request header::

    {"id": 7, "op": "save", "tenant": "acme", "deadline_s": 2.5,
     "payload_bytes": 1092648, ...}

Response header::

    {"id": 7, "ok": true, ...}                      # success
    {"id": 7, "ok": false, "error": {"kind": "overloaded",
     "message": "...", "retryable": true, "retry_after_s": 0.05}}

Digest-first saves.  A ``save`` with a ``base`` also carries ``layers``,
the whole layer table in the header, and its payload holds only the
layers the table lists bare that the base does not already hold::

    {"op": "save", "base": "acme/3f…", "layers": [
        ["0.weight", "9c…", "acme/81…"],    # a reference: that model holds it
        ["0.bias", "4e…", "acme/81…"],
        ["2.weight", "d0…"],                # bare: shipped, or the base's own
        ["2.bias", "77…"]], "payload_bytes": 41312, ...}

Each digest is the layer's tensor hash (:func:`repro.core.tensor_hash`).
A reference's source must be a model of the caller's own tenant (another
tenant's is ``forbidden``) that records that digest under that name
(else ``invalid``), as must every shipped layer hash to its digest.  When
the server cannot vouch for a layer — its source or chunk is gone, or the
tenant's approach keeps no references — it stores nothing and answers
``{"ok": true, "needs": [names]}``; the client resends once with those
layers shipped.  ``{"op": "layers", "model_id": ...}`` answers
``{"layers": [[name, digest], ...]}``, a model's stored table.  A save
without ``base`` is a plain frame: no table, the whole state as payload.

Digest-first recovers.  A verified ``recover`` may carry ``have``, the
digests of the model's layers the client already holds; a verified answer
carries ``layers``, the model's whole table in state-dict order, and its
payload holds only the layers whose digest is not in ``have``::

    {"op": "recover", "model_id": "acme/81…", "verify": true,
     "have": ["9c…", "4e…"]}
    {"ok": true, "model_id": "acme/81…", "verified": true, "layers": [
        ["0.weight", "9c…"], ["0.bias", "4e…"],   # held: not in the payload
        ["2.weight", "d0…"], ["2.bias", "77…"]],  # shipped
     "payload_bytes": 41312, ...}

The header holds only ``model_id``, ``verify`` (a JSON bool, default
true) and ``have`` (a list of 64-hex digests no longer than the table);
anything else is ``invalid``.  ``have`` is read against the asked model's
own table only: a digest not in it changes nothing.  An unverified recover
ignores ``have`` and its answer has no ``layers``: the whole state, as
from a server that predates the exchange.

Limits: a header line and a payload are each at most
:data:`MAX_LINE_BYTES`.  ``payload_bytes`` must be a JSON integer in
``[0, MAX_LINE_BYTES]`` and is checked *before* a byte of the payload is
read.

What ends a connection: a header line over the limit, a ``payload_bytes``
that fails that check (:class:`FrameError` — the receiver cannot know
where the next frame starts; the server answers ``invalid`` first), and a
peer that goes away mid-payload.  A header that is not a JSON object is
answered ``invalid`` and the connection carries on, because a frame that
declares no payload ends at its newline.

Error *kinds* are the stable contract: clients dispatch on ``kind`` and
``retryable``, never on message text.  Retryable kinds mean "the request
was not applied; back off and resend" — the gateway never sheds work
silently and never leaves a socket hanging, so a client that got no
response knows the connection (not the request semantics) failed.
"""

from __future__ import annotations

import json
from typing import Any, NamedTuple, Sequence

from ..errors import (
    DeadlineExceededError,
    MMLibError,
    StoreCorruptionError,
    TransientStoreError,
)

__all__ = [
    "ERROR_KINDS",
    "MAX_LINE_BYTES",
    "Frame",
    "FrameError",
    "GatewayError",
    "decode_line",
    "encode_frame",
    "encode_line",
    "read_frame",
    "error_payload",
    "error_from_exception",
]

#: Upper bound on a header line and, separately, on a payload.  Large
#: enough for a multi-megabyte model state, small enough to stop a runaway
#: client from ballooning server memory.
MAX_LINE_BYTES = 64 * 1024 * 1024

#: kind -> retryable.  The client raises retryable kinds as
#: :class:`GatewayRetryableError` (a ``TransientStoreError``) so the
#: existing :class:`repro.retry.RetryPolicy` handles backoff unchanged.
ERROR_KINDS: dict[str, bool] = {
    "overloaded": True,  # tenant queue full — shed, back off
    "quota": True,  # token bucket empty — honor retry_after_s
    "deadline": True,  # budget expired before/while executing
    "unavailable": True,  # transient storage failure under the op
    "shutting_down": True,  # server draining; reconnect elsewhere
    "not_found": False,
    "invalid": False,  # malformed request / unknown op
    "forbidden": False,  # cross-tenant access attempt
    "corrupt": False,  # integrity check failed server-side
    "internal": False,
}


class GatewayError(MMLibError):
    """Server-side typed rejection; serialized into the error payload."""

    def __init__(
        self,
        kind: str,
        message: str,
        *,
        retry_after_s: float | None = None,
    ):
        if kind not in ERROR_KINDS:
            raise ValueError(f"unknown gateway error kind {kind!r}")
        super().__init__(message)
        self.kind = kind
        self.retryable = ERROR_KINDS[kind]
        self.retry_after_s = retry_after_s


def error_payload(exc: GatewayError) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "kind": exc.kind,
        "message": str(exc),
        "retryable": exc.retryable,
    }
    if exc.retry_after_s is not None:
        payload["retry_after_s"] = round(exc.retry_after_s, 4)
    return payload


def error_from_exception(exc: BaseException) -> GatewayError:
    """Map an arbitrary worker-side exception onto a typed gateway error."""
    if isinstance(exc, GatewayError):
        return exc
    # Local import: repro.core pulls in the whole storage stack and the
    # protocol module must stay importable from the lightweight client.
    from ..core.errors import ModelNotFoundError, VerificationError

    if isinstance(exc, DeadlineExceededError):
        return GatewayError("deadline", str(exc) or "deadline exceeded")
    if isinstance(exc, ModelNotFoundError):
        return GatewayError("not_found", str(exc))
    if isinstance(exc, (StoreCorruptionError, VerificationError)):
        return GatewayError("corrupt", str(exc))
    if isinstance(exc, TransientStoreError):
        return GatewayError("unavailable", str(exc))
    if isinstance(exc, (ValueError, TypeError, KeyError)):
        return GatewayError("invalid", f"{type(exc).__name__}: {exc}")
    return GatewayError("internal", f"{type(exc).__name__}: {exc}")


def encode_line(message: dict[str, Any]) -> bytes:
    """Serialize one protocol message to a newline-terminated JSON frame."""
    data = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(data) + 1 > MAX_LINE_BYTES:
        raise GatewayError(
            "invalid", f"message of {len(data)} bytes exceeds {MAX_LINE_BYTES}"
        )
    return data + b"\n"


def decode_line(line: bytes) -> dict[str, Any]:
    """Parse one received frame; raises ``GatewayError('invalid')`` on junk."""
    if len(line) > MAX_LINE_BYTES:
        raise GatewayError(
            "invalid", f"frame of {len(line)} bytes exceeds {MAX_LINE_BYTES}"
        )
    try:
        message = json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise GatewayError("invalid", f"malformed JSON frame: {exc}") from exc
    if not isinstance(message, dict):
        raise GatewayError("invalid", "frame must be a JSON object")
    return message


class FrameError(GatewayError):
    """A header whose ``payload_bytes`` cannot be honoured.

    Always kind ``invalid``.  The stream is out of step after it — what
    follows may be payload or the next header — so the receiver ends the
    connection; ``request_id`` lets a server answer the sender first.
    """

    def __init__(self, message: str, request_id: Any = None):
        super().__init__("invalid", message)
        self.request_id = request_id


class Frame(NamedTuple):
    """One received frame; ``wire_bytes`` counts header line and payload."""

    header: dict[str, Any]
    payload: bytes
    wire_bytes: int


def _payload_length(header: dict[str, Any]) -> int:
    declared = header.get("payload_bytes", 0)
    # bool is an int subclass: `true` would otherwise read as one byte
    if type(declared) is not int or not 0 <= declared <= MAX_LINE_BYTES:
        raise FrameError(
            f"'payload_bytes' must be an integer in [0, {MAX_LINE_BYTES}], "
            f"got {declared!r}",
            request_id=header.get("id"),
        )
    return declared


def encode_frame(
    header: dict[str, Any], payload: Sequence[bytes | memoryview] = ()
) -> list[bytes | memoryview]:
    """Frame ``header`` and ``payload`` as buffers for ``writer.writelines``.

    ``payload`` is a sequence of bytes-like chunks (flat byte views, e.g.
    :func:`repro.nn.serialization.iter_serialized`); they are passed
    through uncopied behind a header line that declares their total
    length.  ``header`` is not modified.
    """
    nbytes = sum(len(chunk) for chunk in payload)
    if nbytes > MAX_LINE_BYTES:
        raise GatewayError(
            "invalid", f"payload of {nbytes} bytes exceeds {MAX_LINE_BYTES}"
        )
    if nbytes:
        header = {**header, "payload_bytes": nbytes}
    return [encode_line(header), *payload]


async def read_frame(reader) -> Frame | None:
    """Read one frame from an ``asyncio.StreamReader``; ``None`` at EOF.

    Raises :class:`GatewayError` (``invalid``) for a header line that is
    not a JSON object — the stream is still in step, the caller may read
    on — and :class:`FrameError` for an unusable ``payload_bytes``, raised
    before any of the payload is read.  A header line over the reader's
    limit raises ``ValueError`` and EOF inside a payload raises
    ``asyncio.IncompleteReadError``, as the stream reader reports them.
    """
    line = await reader.readline()
    if not line:
        return None
    header = decode_line(line)
    nbytes = _payload_length(header)
    payload = await reader.readexactly(nbytes) if nbytes else b""
    return Frame(header, payload, len(line) + nbytes)
