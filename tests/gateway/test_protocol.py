"""Wire protocol: framing, typed error kinds, exception mapping.

The codec is :mod:`repro.wire`'s; :mod:`repro.gateway.protocol` re-exports
it, so these tests import it from there and patch the bound where it lives.
"""

from __future__ import annotations

import asyncio
import io
import json

import pytest

from repro import wire
from repro.core.errors import ModelNotFoundError
from repro.docstore import DuplicateKeyError, NotFoundError
from repro.errors import (
    DeadlineExceededError,
    StoreCorruptionError,
    TransientStoreError,
)
from repro.gateway.protocol import (
    ERROR_KINDS,
    MAX_LINE_BYTES,
    FrameError,
    GatewayError,
    decode_line,
    encode_frame,
    encode_line,
    error_from_exception,
    error_payload,
    read_frame,
)
from repro.wire import read_frame_blocking


def fed_reader(data: bytes, eof: bool = True) -> asyncio.StreamReader:
    """A stream reader holding ``data`` (call inside a running loop)."""
    reader = asyncio.StreamReader(limit=MAX_LINE_BYTES)
    reader.feed_data(data)
    if eof:
        reader.feed_eof()
    return reader


class TestFraming:
    def test_roundtrip(self):
        message = {"id": 7, "op": "save", "tenant": "acme", "deadline_s": 2.5}
        assert decode_line(encode_line(message)) == message

    def test_encoded_line_is_newline_terminated_compact_json(self):
        data = encode_line({"id": 1, "op": "ping"})
        assert data.endswith(b"\n")
        assert b" " not in data  # compact separators
        assert json.loads(data) == {"id": 1, "op": "ping"}

    def test_decode_rejects_malformed_json(self):
        with pytest.raises(GatewayError) as excinfo:
            decode_line(b"{not json}\n")
        assert excinfo.value.kind == "invalid"
        assert not excinfo.value.retryable

    def test_decode_rejects_non_object_frames(self):
        with pytest.raises(GatewayError) as excinfo:
            decode_line(b"[1, 2, 3]\n")
        assert excinfo.value.kind == "invalid"

    def test_oversized_frames_rejected_both_ways(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_LINE_BYTES", 64)
        big = {"id": 1, "blob": "x" * 128}
        with pytest.raises(GatewayError) as encoded:
            encode_line(big)
        assert encoded.value.kind == "invalid"
        with pytest.raises(GatewayError) as decoded:
            decode_line(b"x" * 128)
        assert decoded.value.kind == "invalid"


class TestPayloadFrames:
    def test_frame_without_payload_is_the_header_line_alone(self):
        message = {"id": 1, "op": "find", "tenant": "acme"}
        assert encode_frame(message) == [encode_line(message)]

    def test_header_declares_the_total_of_uncopied_chunks(self):
        message = {"id": 2, "op": "save"}
        chunks = (b"abc", memoryview(b"defgh"), memoryview(b""))
        header, *rest = encode_frame(message, chunks)
        assert decode_line(header) == {**message, "payload_bytes": 8}
        assert all(sent is chunk for sent, chunk in zip(rest, chunks))
        assert message == {"id": 2, "op": "save"}  # caller's dict untouched

    def test_oversized_payload_refused_before_it_is_sent(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_LINE_BYTES", 64)
        with pytest.raises(GatewayError) as excinfo:
            encode_frame({"id": 1}, (b"x" * 40, b"y" * 40))
        assert excinfo.value.kind == "invalid"

    def test_frames_read_back_in_order_then_eof(self):
        async def scenario():
            first = encode_frame({"id": 1, "op": "save"}, (b"\x00\n\xff", b"{}\n"))
            second = encode_frame({"id": 2, "op": "find"})
            third = [encode_line({"id": 3, "payload_bytes": 0})]
            reader = fed_reader(b"".join(first + second + third))
            frames = [await read_frame(reader) for _ in range(4)]
            return frames, len(b"".join(first))

        (one, two, three, end), first_bytes = asyncio.run(scenario())
        assert one.header == {"id": 1, "op": "save", "payload_bytes": 6}
        assert one.payload == b"\x00\n\xff{}\n"  # newlines in a payload are bytes
        assert one.wire_bytes == first_bytes
        assert two.header == {"id": 2, "op": "find"} and two.payload == b""
        assert three.payload == b""
        assert end is None

    @pytest.mark.parametrize(
        "declared", [-1, 1.0, 2.5, True, "12", None, [3], MAX_LINE_BYTES + 1]
    )
    def test_unusable_length_refused_without_reading_the_payload(self, declared):
        async def scenario():
            line = encode_line({"id": 9, "op": "save", "payload_bytes": declared})
            # no EOF: a reader that went on to wait for the payload would hang
            reader = fed_reader(line + b"PAYLOAD", eof=False)
            with pytest.raises(FrameError) as excinfo:
                await asyncio.wait_for(read_frame(reader), 5)
            return excinfo.value, await reader.readexactly(7)

        error, unread = asyncio.run(scenario())
        assert error.kind == "invalid" and not error.retryable
        assert error.request_id == 9  # the sender can be told which request
        assert unread == b"PAYLOAD"

    def test_largest_payload_length_is_accepted(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_LINE_BYTES", 32)

        async def scenario():
            reader = fed_reader(b'{"payload_bytes":32}\n' + b"x" * 32)
            return await read_frame(reader)

        assert asyncio.run(scenario()).payload == b"x" * 32

    def test_payload_cut_short_by_eof_is_an_error_not_a_short_frame(self):
        async def scenario():
            data = b"".join(encode_frame({"id": 1}, (b"x" * 100,)))
            with pytest.raises(asyncio.IncompleteReadError):
                await read_frame(fed_reader(data[:-60]))

        asyncio.run(scenario())

    def test_the_blocking_reader_reads_the_same_frames(self, monkeypatch):
        first = encode_frame({"id": 1, "op": "save"}, (b"\x00\n\xff",))
        data = b"".join(first + encode_frame({"id": 2, "op": "find"}))
        stream = io.BytesIO(data)
        one, two = read_frame_blocking(stream), read_frame_blocking(stream)
        assert one.header == {"id": 1, "op": "save", "payload_bytes": 3}
        assert (one.payload, one.wire_bytes) == (b"\x00\n\xff", len(b"".join(first)))
        assert two.header == {"id": 2, "op": "find"} and two.payload == b""
        assert read_frame_blocking(stream) is None
        with pytest.raises(EOFError):
            read_frame_blocking(io.BytesIO(b"".join(first)[:-1]))
        monkeypatch.setattr(wire, "MAX_LINE_BYTES", 16)
        with pytest.raises(FrameError):
            read_frame_blocking(io.BytesIO(b'{"id": 3, "pad": "xxxxxxxx"}\n'))

    def test_malformed_header_leaves_the_stream_in_step(self):
        async def scenario():
            reader = fed_reader(b"{not json}\n" + encode_line({"id": 2}))
            with pytest.raises(GatewayError) as excinfo:
                await read_frame(reader)
            assert not isinstance(excinfo.value, FrameError)
            return await read_frame(reader)

        assert asyncio.run(scenario()).header == {"id": 2}


class TestErrorKinds:
    def test_retryable_map_is_the_stable_contract(self):
        retryable = {k for k, v in ERROR_KINDS.items() if v}
        assert retryable == {
            "overloaded", "quota", "deadline", "unavailable", "shutting_down",
        }
        permanent = {k for k, v in ERROR_KINDS.items() if not v}
        assert permanent == {
            "not_found", "duplicate", "invalid", "forbidden", "corrupt", "internal",
        }

    def test_gateway_error_derives_retryable_from_kind(self):
        assert GatewayError("overloaded", "shed").retryable is True
        assert GatewayError("forbidden", "nope").retryable is False

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(ValueError):
            GatewayError("mystery", "boom")

    def test_payload_includes_rounded_retry_after(self):
        payload = error_payload(GatewayError("quota", "slow down", retry_after_s=0.123456))
        assert payload == {
            "kind": "quota",
            "message": "slow down",
            "retryable": True,
            "retry_after_s": 0.1235,
        }

    def test_payload_omits_retry_after_when_unset(self):
        assert "retry_after_s" not in error_payload(GatewayError("internal", "x"))


class TestExceptionMapping:
    @pytest.mark.parametrize(
        "exc, kind, retryable",
        [
            (DeadlineExceededError("late"), "deadline", True),
            (ModelNotFoundError("model-x"), "not_found", False),
            (StoreCorruptionError("bad digest"), "corrupt", False),
            (TransientStoreError("flaky"), "unavailable", True),
            (ValueError("bad input"), "invalid", False),
            (TypeError("bad type"), "invalid", False),
            (KeyError("missing"), "invalid", False),
            (RuntimeError("bug"), "internal", False),
            (NotFoundError("doc-x"), "not_found", False),
            (DuplicateKeyError("doc-x"), "duplicate", False),
        ],
    )
    def test_worker_exceptions_map_to_typed_kinds(self, exc, kind, retryable):
        mapped = error_from_exception(exc)
        assert mapped.kind == kind
        assert mapped.retryable is retryable

    def test_gateway_errors_pass_through_unchanged(self):
        original = GatewayError("quota", "slow down", retry_after_s=0.5)
        assert error_from_exception(original) is original
