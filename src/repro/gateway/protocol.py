"""The serving gateway's grammar on the one wire (:mod:`repro.wire`).

The frame, its limits and the error kinds are :mod:`repro.wire`'s,
re-exported here (:class:`GatewayError` is :class:`~repro.wire.WireError`).
A gateway request also names its ``tenant``; ``save`` requests and
``recover`` answers carry a :mod:`repro.nn.serialization` byte stream as
payload.

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
"""

from __future__ import annotations

from ..wire import (
    ERROR_KINDS,
    MAX_LINE_BYTES,
    Frame,
    FrameError,
    WireError as GatewayError,
    decode_line,
    encode_frame,
    encode_line,
    error_from_exception,
    error_payload,
    read_frame,
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
