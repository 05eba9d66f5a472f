"""The write-ahead log: framing, commit boundaries, torn tails."""

import pytest

from repro.errors import RecoveryError, StorageError
from repro.storage import StorageEnvironment
from repro.storage.wal import WriteAheadLog, _FILE_HDR


def make_wal(tmp_path, page_size=64):
    wal = WriteAheadLog(str(tmp_path / "t.wal"))
    wal.initialize(page_size)
    return wal


def frame(byte, size=64):
    return bytes([byte]) * size


def test_fresh_log_is_a_bare_header(tmp_path):
    wal = make_wal(tmp_path)
    assert not wal.pending
    assert wal.size == _FILE_HDR.size


def test_committed_frames_scan_back(tmp_path):
    wal = make_wal(tmp_path)
    wal.append(1, frame(0xAA), lsn=1)
    wal.append(2, frame(0xBB), lsn=2)
    wal.commit(lsn=2)
    committed, seen, _ = wal._scan()
    assert seen == 3  # two page records + the commit record
    assert committed == {1: (1, frame(0xAA)), 2: (2, frame(0xBB))}


def test_uncommitted_records_are_discarded(tmp_path):
    wal = make_wal(tmp_path)
    wal.append(1, frame(0xAA), lsn=1)
    wal.commit(lsn=1)
    wal.append(2, frame(0xBB), lsn=2)  # never committed
    committed, _, _ = wal._scan()
    assert 1 in committed and 2 not in committed


def test_later_commit_wins_per_page(tmp_path):
    wal = make_wal(tmp_path)
    wal.append(1, frame(0x01), lsn=1)
    wal.commit(lsn=1)
    wal.append(1, frame(0x02), lsn=2)
    wal.commit(lsn=2)
    committed, _, _ = wal._scan()
    assert committed[1] == (2, frame(0x02))


def test_torn_tail_stops_the_scan(tmp_path):
    wal = make_wal(tmp_path)
    wal.append(1, frame(0xAA), lsn=1)
    wal.commit(lsn=1)
    # Simulate a torn append: half a record of garbage at the end.
    wal._file.seek(0, 2)
    wal._file.write(b"\x01garbage")
    wal._size += 8
    committed, _, valid_end = wal._scan()
    assert committed == {1: (1, frame(0xAA))}
    assert valid_end < wal.size


def test_corrupted_record_invalidates_its_commit(tmp_path):
    wal = make_wal(tmp_path)
    wal.append(1, frame(0xAA), lsn=1)
    wal.commit(lsn=1)
    # Flip a payload byte of the first record: its CRC now fails, so
    # the scan must stop *before* the commit record that covered it.
    wal._file.seek(_FILE_HDR.size + 30)
    wal._file.write(b"\xff")
    committed, _, _ = wal._scan()
    assert committed == {}


def test_recover_into_writes_frames_at_offsets(tmp_path):
    wal = make_wal(tmp_path, page_size=64)
    wal.append(2, frame(0xCC), lsn=5)
    wal.commit(lsn=5)
    main = tmp_path / "t"
    with open(main, "w+b") as fh:
        applied = wal.recover_into(fh, frame_size=64)
        assert applied == 1
        fh.seek(2 * 64)
        assert fh.read(64) == frame(0xCC)


def test_recovery_is_idempotent(tmp_path):
    wal = make_wal(tmp_path, page_size=64)
    wal.append(1, frame(0xDD), lsn=1)
    wal.commit(lsn=1)
    with open(tmp_path / "t", "w+b") as fh:
        wal.recover_into(fh, frame_size=64)
        wal.recover_into(fh, frame_size=64)  # replaying again is safe
        fh.seek(64)
        assert fh.read(64) == frame(0xDD)


def test_reset_truncates_to_header(tmp_path):
    wal = make_wal(tmp_path)
    wal.append(1, frame(0xAA), lsn=1)
    wal.commit(lsn=1)
    assert wal.pending
    wal.reset()
    assert not wal.pending
    assert wal.size == _FILE_HDR.size


def test_geometry_mismatch_with_pending_records_refuses(tmp_path):
    wal = make_wal(tmp_path, page_size=64)
    wal.append(1, frame(0xAA), lsn=1)
    wal.commit(lsn=1)
    wal.close()
    reopened = WriteAheadLog(str(tmp_path / "t.wal"))
    with pytest.raises(RecoveryError):
        reopened.initialize(128)


def test_failed_read_only_probe_leaves_directory_unchanged(tmp_path):
    # Opening a missing tree read-only must fail without creating its
    # log: a stray `<name>.btree.wal` would outlive the failed probe.
    with StorageEnvironment(str(tmp_path)) as env:
        env.open_tree("present").put(b"k", b"v")
        env.flush()
        before = sorted(p.name for p in tmp_path.iterdir())
        with pytest.raises(StorageError):
            env.open_tree("absent", create=False)
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert not env.exists("absent")
