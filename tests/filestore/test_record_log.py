"""``RecordLog``: one framing, one damage rule, for every log the system writes.

The property: after any sequence of appends and rewrites, cut the file at
any byte, or flip any one bit of it, and replay —

* a prefix replays exactly: every record before the damage, in order;
* a torn tail (the cut, or a flipped bit in the last record) is cut back
  to the last whole record, and counted;
* damage before the tail raises, and leaves the file as it was.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StoreCorruptionError
from repro.filestore.recordlog import RECORD_HEADER, RecordLog

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**40), 2**40) | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
BATCHES = st.lists(JSON, max_size=4)
OPERATIONS = st.lists(st.tuples(st.sampled_from(["append", "rewrite"]), BATCHES),
                      min_size=1, max_size=6)


def encode(value) -> bytes:
    return json.dumps(value, sort_keys=True).encode()


def write(path, operations) -> list:
    """Apply ``operations`` through one log; returns the records it holds."""
    log, records = RecordLog(path), []
    for operation, batch in operations:
        if operation == "append":
            log.append([encode(value) for value in batch])
            records.extend(batch)
        else:
            log.rewrite([encode(value) for value in batch])
            records = list(batch)
    log.close()
    return records


def boundaries(records) -> list[int]:
    """Offset where each record ends."""
    ends, offset = [], 0
    for value in records:
        offset += RECORD_HEADER.size + len(encode(value))
        ends.append(offset)
    return ends


@settings(max_examples=150, deadline=None)
@given(operations=OPERATIONS, damage=st.data())
def test_any_cut_or_flipped_bit_replays_a_prefix_cuts_a_tail_or_raises(
    tmp_path_factory, operations, damage
):
    path = tmp_path_factory.mktemp("log") / "records.log"
    records = write(path, operations)
    whole = path.read_bytes() if path.exists() else b""
    ends = boundaries(records)
    assert len(whole) == (ends[-1] if ends else 0)
    assert RecordLog(path).replay() == records  # undamaged

    if not whole or damage.draw(st.booleans(), label="cut"):
        cut = damage.draw(st.integers(0, len(whole)), label="at")
        path.write_bytes(whole[:cut])
        kept = sum(1 for end in ends if end <= cut)
    else:
        bit = damage.draw(st.integers(0, 8 * len(whole) - 1), label="bit")
        flipped = bytearray(whole)
        flipped[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(flipped))
        hit = next(index for index, end in enumerate(ends) if bit // 8 < end)
        if hit < len(records) - 1:  # damage with a whole record after it
            with pytest.raises(StoreCorruptionError):
                RecordLog(path).replay()
            assert path.read_bytes() == bytes(flipped)  # left as it was
            return
        kept = hit
    good = ends[kept - 1] if kept else 0
    damaged = path.read_bytes()
    log = RecordLog(path)
    assert log.replay() == records[:kept]
    assert log.torn_bytes == len(damaged) - good
    assert path.read_bytes() == whole[:good]  # the tail is cut back
    log.append([encode("after")])
    assert RecordLog(path).replay() == [*records[:kept], "after"]


def test_a_flipped_top_bit_of_the_last_length_is_a_torn_tail(tmp_path):
    # the length field's high bit makes it larger than any read can take
    path = tmp_path / "records.log"
    write(path, [("append", [None])])
    flipped = bytearray(path.read_bytes())
    flipped[RECORD_HEADER.size - 1] ^= 0x80
    path.write_bytes(bytes(flipped))
    log = RecordLog(path)
    assert log.replay() == []
    assert log.torn_bytes == len(flipped)
    assert path.read_bytes() == b""


class TestOlderFiles:
    """A file an older release wrote: one JSON document, or JSON lines."""

    def test_a_document_and_json_lines_replay_and_the_first_append_frames_them(
        self, tmp_path
    ):
        document = tmp_path / "index.json"
        document.write_text(json.dumps({"a": [1, 2]}, indent=0))
        assert RecordLog(document).replay() == [{"a": [1, 2]}]
        lines = tmp_path / "models.jsonl"
        lines.write_text('{"_id": "a"}\n\n{"_id": "b"}\n')
        log = RecordLog(lines)
        assert log.replay() == [{"_id": "a"}, {"_id": "b"}]
        log.append([b'{"_id": "c"}'])
        assert lines.read_bytes()[:4] == b"MMRC"
        assert RecordLog(lines).replay() == [{"_id": "a"}, {"_id": "b"}, {"_id": "c"}]

    @pytest.mark.parametrize("tail", [b'{"_id": "hal', b"\x00\x00", b"{\n"])
    def test_the_same_rule_a_torn_line_is_cut_a_bad_line_before_a_good_one_raises(
        self, tmp_path, tail
    ):
        path = tmp_path / "refcounts.json"
        path.write_bytes(b'{"a": 1}\n{"b": 2}\n' + tail)
        log = RecordLog(path)
        assert log.replay() == [{"a": 1}, {"b": 2}]
        assert log.torn_bytes == len(tail)
        assert path.read_bytes() == b'{"a": 1}\n{"b": 2}\n'
        damaged = b'{"a": 1}\n' + tail + b'\n{"b": 2}\n'
        path.write_bytes(damaged)
        with pytest.raises(StoreCorruptionError):
            RecordLog(path).replay()
        assert path.read_bytes() == damaged


def test_follow_sees_appends_and_a_replaced_file(tmp_path):
    """The refcount log's reader: a tail read while the file grows, the
    whole new file once another writer replaced it."""
    path = tmp_path / "refcounts.json"
    writer, reader = RecordLog(path), RecordLog(path)
    assert reader.follow() == (False, [])
    writer.append([b"1", b"2"])
    assert reader.follow() == (False, [1, 2])
    writer.append([b"3"])
    assert reader.follow() == (False, [3])
    writer.rewrite([b"6"])
    assert reader.follow() == (True, [6])
    writer.remove()
    assert reader.follow() == (True, [])


def test_sizes_and_the_rewrite_rule(tmp_path):
    """``replay(sized=True)`` gives each record's bytes in the file;
    ``outgrown`` holds once the file is past the floor and twice its size
    after the last rewrite or whole read."""
    path = tmp_path / "hints.jsonl"
    log = RecordLog(path)
    payloads = [encode({"key": index}) for index in range(4)]
    log.append(payloads)
    sized = RecordLog(path).replay(sized=True)
    assert [record for record, _size in sized] == [{"key": i} for i in range(4)]
    assert [size for _record, size in sized] == [RECORD_HEADER.size + len(p) for p in payloads]
    assert sum(size for _record, size in sized) == path.stat().st_size == log.size
    assert log.outgrown(0) and not log.outgrown(log.size)  # never rewritten: base 0
    log.rewrite(payloads[:1])
    assert not log.outgrown(0)
    log.append(payloads[1:2])
    assert not log.outgrown(0)  # twice the rewritten size, not more
    log.append(payloads[2:3])
    assert log.outgrown(0)
    reader = RecordLog(path)
    reader.replay()
    assert not reader.outgrown(0)  # a whole read is the new base


def test_a_rewrite_cut_short_leaves_one_tmp_file_the_next_one_reuses(tmp_path):
    path = tmp_path / "models.jsonl"
    log = RecordLog(path)
    log.append([b"1"])
    for _ in range(3):
        with pytest.raises(KeyboardInterrupt):
            log.rewrite([b"2"], before_rename=lambda: (_ for _ in ()).throw(KeyboardInterrupt))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["models.jsonl", "models.tmp"]
    assert RecordLog(path).replay() == [1]
    log.rewrite([b"3"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["models.jsonl"]
    assert RecordLog(path).replay() == [3]
    with pytest.raises(KeyboardInterrupt):
        log.rewrite([b"4"], before_rename=lambda: (_ for _ in ()).throw(KeyboardInterrupt))
    log.remove()  # the tmp goes with the file
    assert list(tmp_path.iterdir()) == []
