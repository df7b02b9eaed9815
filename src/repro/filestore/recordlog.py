"""One log primitive: CRC-framed JSON records in an append-only file.

Every append-only file the system writes is a :class:`RecordLog`
(DESIGN.md §18 "One log").  A record is the segment store's ``MMRC``
header with an empty key, then one JSON payload.  One rule, in
:meth:`RecordLog.replay`: a torn tail (a last record cut short or failing
its CRC) is cut off and counted in ``torn_bytes``; a bad record with a
valid record after it raises :class:`~repro.errors.StoreCorruptionError`,
the file untouched.  A file that starts with ``{`` was written by an older
release: it raises :class:`~repro.errors.OlderFormatError`, the file
untouched (``mmlib import`` rewrites it in the framing).
"""

from __future__ import annotations

import io
import json
import os
import re
import struct
import sys
import zlib
from pathlib import Path
from typing import Iterable

from ..errors import OlderFormatError, StoreCorruptionError

__all__ = ["RecordLog", "RECORD_HEADER", "RECORD_MAGIC", "next_whole_record", "read_record",
           "record_header", "record_size", "write_all"]

RECORD_MAGIC = b"MMRC"
_MAGIC = re.compile(re.escape(RECORD_MAGIC))
#: Record header: magic, key length, flags (0), payload crc32, payload length.
RECORD_HEADER = struct.Struct("<4sHHIQ")


def record_header(key: bytes, crc: int, length: int) -> bytes:
    return RECORD_HEADER.pack(RECORD_MAGIC, len(key), 0, crc, length)


def record_size(payload: bytes) -> int:
    """Bytes one payload takes in a log, framing included."""
    return RECORD_HEADER.size + len(payload)


def read_record(read) -> tuple[bytes, bytes, int] | None:
    """``(key, payload, crc)`` of the record ``read`` (a file's ``read``)
    returns next; ``None`` unless it is whole, with the magic, zero flags
    and a matching CRC."""
    head = read(RECORD_HEADER.size)
    if len(head) < RECORD_HEADER.size:
        return None
    magic, key_length, flags, crc, length = RECORD_HEADER.unpack(head)
    # a length past sys.maxsize (a flipped high bit) is no record: ``read``
    # would raise OverflowError on it rather than come back short
    if magic != RECORD_MAGIC or flags or length > sys.maxsize:
        return None
    key, payload = read(key_length), read(length)
    if len(key) < key_length or len(payload) < length or zlib.crc32(payload) != crc:
        return None
    return key, payload, crc


def next_whole_record(data: bytes, start: int) -> int | None:
    """Where in ``data`` the first whole record after ``start`` begins, if
    any: the resync search past a bad record.  ``data`` bounds every read,
    so a damaged length field cannot reach beyond it."""
    stream = io.BytesIO(data)
    for match in _MAGIC.finditer(data, start + 1):
        stream.seek(match.start())
        if read_record(stream.read) is not None:
            return match.start()
    return None


def write_all(file, data) -> None:
    """Write ``data`` at ``file``'s offset: one ``os.write`` unless the
    disk is filling up."""
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(file.fileno(), view):]


def _frame(payloads: Iterable[bytes]) -> bytes:
    return b"".join(record_header(b"", zlib.crc32(p), len(p)) + p for p in payloads)


def _scan(data: bytes) -> tuple[list[bytes], int, bool]:
    """``(payloads, end, damaged)``: the whole records ``data`` starts with,
    where they end, and whether a valid record follows the bad one there."""
    stream, payloads, end = io.BytesIO(data), [], 0
    while end < len(data):
        record = read_record(stream.read)
        if record is None or record[0]:
            return payloads, end, next_whole_record(data, end) is not None
        payloads.append(record[1])
        end = stream.tell()
    return payloads, end, False


class RecordLog:
    """An append-only file of CRC-framed JSON records; each caller
    serialises its own calls.  Reads and appends keep a descriptor on the
    file until :meth:`close`."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.size = 0  # bytes of whole records this object read or wrote
        self.torn_bytes = 0  # what the last read cut off as a torn tail
        self._file = None

    def replay(self, sized: bool = False) -> list:
        """Every record of the file, decoded, oldest first; ``sized``:
        ``(record, bytes it takes)`` pairs."""
        self.close()
        self.size = 0
        try:
            self._file = self._open(self.path, os.O_RDWR | os.O_APPEND)
        except FileNotFoundError:
            return []
        fd = self._file.fileno()
        data = os.pread(fd, os.fstat(fd).st_size, 0)
        if data[:1] == b"{":
            self.close()
            raise OlderFormatError(self.path)
        payloads, end, damaged = _scan(data)
        try:
            if damaged:
                raise ValueError(f"a bad record at byte {end} with records after it")
            records = [json.loads(payload) for payload in payloads]
        except ValueError as error:
            self.close()  # the next read tries the same bytes again
            raise StoreCorruptionError(f"{self.path}: {error}") from None
        if end < len(data):
            os.ftruncate(fd, end)
        self.torn_bytes = len(data) - end
        self.size = end
        if sized:
            records = list(zip(records, map(record_size, payloads)))
        return records

    def append(self, payloads: Iterable[bytes]) -> int:
        """Append one record per payload with one ``os.write``; returns the
        bytes appended.  A write that fails part-way is cut back off."""
        data = _frame(payloads)
        if self._file is None:
            self._file = self._open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT)
        start = os.fstat(self._file.fileno()).st_size
        try:
            write_all(self._file, data)
        except OSError:
            os.ftruncate(self._file.fileno(), start)
            raise
        self.size += len(data)
        return len(data)

    def rewrite(self, payloads: Iterable[bytes], before_rename=None) -> None:
        """Replace the file with one record per payload: a tmp file renamed
        over it (``before_rename`` runs in between: a crash test's hook)."""
        tmp = self._tmp_path()
        fresh = self._open(tmp, os.O_RDWR | os.O_APPEND | os.O_CREAT | os.O_TRUNC)
        try:
            write_all(fresh, _frame(payloads))
            if before_rename is not None:
                before_rename()
            tmp.replace(self.path)
        except BaseException:
            fresh.close()  # a crash before the rename: the old file, whole
            raise
        self.close()
        self._file = fresh
        self.size = os.fstat(fresh.fileno()).st_size

    def _tmp_path(self) -> Path:
        """One name per log: a crash leaves at most one behind."""
        return self.path.with_suffix(".tmp")

    def sync(self) -> None:
        """fsync what was appended or rewritten."""
        os.fsync(self._file.fileno())

    @staticmethod
    def _open(path: Path, flags: int):
        try:
            fd = os.open(path, flags, 0o666)
        except FileNotFoundError:
            if not flags & os.O_CREAT:
                raise
            path.parent.mkdir(parents=True, exist_ok=True)  # the first write
            fd = os.open(path, flags, 0o666)
        return open(fd, "rb+", buffering=0)

    def close(self) -> None:
        """Release the descriptor; the next append reopens the file."""
        if self._file is not None:
            self._file.close()
        self._file = None

    def remove(self) -> None:
        """Delete the file, and a tmp file a crashed rewrite left."""
        self.close()
        self.size = 0
        self.path.unlink(missing_ok=True)
        self._tmp_path().unlink(missing_ok=True)
