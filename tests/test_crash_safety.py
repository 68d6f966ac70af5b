"""Crash injection for the disk cache: torn logs, failed compactions, locks.

The append-only log's whole value is surviving ungraceful death.  These
tests kill it at every awkward moment — mid-append, mid-compact, between
snapshot and swap — then reopen and require that recovery serves every
record up to the torn tail and that the tier *keeps serving* (no
closed-handle ``ValueError``, no leaked temp files).  The single-writer
lock tests pin the PR 7 fix for two processes silently interleaving
appends into one log.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.service import DiskTier, DiskTierLockedError
from repro.service.tiers import LOG_MAGIC, _record_bytes

from tests.test_tiers import make_entry

try:
    import fcntl  # noqa: F401 - availability probe only
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

needs_flock = pytest.mark.skipif(fcntl is None, reason="fcntl unavailable")


def filled_tier(path: Path, n: int = 6) -> DiskTier:
    tier = DiskTier(path)
    for i in range(n):
        tier.put(f"key-{i}", make_entry(created=i))
    return tier


class TestTornAppend:
    """Kill mid-append: the torn tail is dropped, everything before serves."""

    @pytest.mark.parametrize("torn_bytes", [1, 7, 40])
    def test_truncated_tail_recovers_all_complete_records(
        self, tmp_path, torn_bytes
    ):
        log = tmp_path / "cache.log"
        with filled_tier(log) as tier:
            boundary = tier.log_bytes()
            tier.put("torn", make_entry())
        # Re-create the crash: the final append only partially reached disk.
        with open(log, "r+b") as handle:
            handle.truncate(boundary + torn_bytes)
        with DiskTier(log) as reopened:
            assert sorted(reopened.keys()) == [f"key-{i}" for i in range(6)]
            for i in range(6):
                assert reopened.peek(f"key-{i}") == make_entry(created=i)
            # The torn record is gone, and the log is usable for new writes.
            assert reopened.peek("torn") is None
            reopened.put("after-crash", make_entry())
            assert reopened.peek("after-crash") == make_entry()

    def test_unterminated_but_parseable_tail_is_dropped(self, tmp_path):
        # A record can be complete JSON yet missing its newline — fsync got
        # the text out but not the terminator.  Still a torn tail.
        log = tmp_path / "cache.log"
        with filled_tier(log, n=2) as tier:
            pass
        with open(log, "ab") as handle:
            record = _record_bytes({"t": "put", "k": "half", "entry": {}})
            handle.write(record.rstrip(b"\n"))
        with DiskTier(log) as reopened:
            assert sorted(reopened.keys()) == ["key-0", "key-1"]
            assert reopened.peek("half") is None

    def test_recovery_truncates_garbage_tail_once(self, tmp_path):
        log = tmp_path / "cache.log"
        with filled_tier(log, n=3) as tier:
            good = tier.log_bytes()
        with open(log, "ab") as handle:
            handle.write(b'{"t": "put", "k": "junk", "en')
        with DiskTier(log):
            pass
        assert log.stat().st_size == good  # tail physically removed
        with DiskTier(log) as again:
            assert len(again.keys()) == 3


class TestCompactionFailure:
    """A failed compaction must leave the tier serving, handles open."""

    def test_snapshot_failure_leaves_tier_usable(self, tmp_path, monkeypatch):
        tier = filled_tier(tmp_path / "cache.log")
        monkeypatch.setattr(
            tier,
            "export_snapshot",
            lambda path: (_ for _ in ()).throw(OSError(28, "No space left")),
        )
        with pytest.raises(OSError):
            tier.compact()
        # The PR 7 bug: handles were closed before the failure surfaced, so
        # every later get/put raised ValueError("I/O operation on closed
        # file").  The tier must instead keep serving...
        assert tier.peek("key-0") == make_entry(created=0)
        tier.put("post-failure", make_entry())
        assert tier.peek("post-failure") == make_entry()
        # ...and must not leak the temp snapshot.
        assert not list(tmp_path.glob("*.compact"))
        tier.close()

    def test_replace_failure_still_reopens_handles(self, tmp_path, monkeypatch):
        tier = filled_tier(tmp_path / "cache.log", n=4)
        real_replace = os.replace

        def failing_replace(src, dst):
            raise OSError(5, "injected replace failure")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            tier.compact()
        monkeypatch.setattr(os, "replace", real_replace)
        # The old log is intact and the handles were re-opened on it.
        assert sorted(tier.keys()) == [f"key-{i}" for i in range(4)]
        assert tier.peek("key-2") == make_entry(created=2)
        tier.put("after", make_entry())
        assert tier.peek("after") == make_entry()
        assert not list(tmp_path.glob("*.compact"))
        tier.close()

    def test_successful_compact_still_works(self, tmp_path):
        tier = filled_tier(tmp_path / "cache.log")
        for i in range(6):
            tier.put(f"key-{i}", make_entry(created=100 + i))  # supersede
        reclaimed = tier.compact()
        assert reclaimed > 0
        assert tier.peek("key-3") == make_entry(created=103)
        tier.put("fresh", make_entry())
        assert tier.peek("fresh") == make_entry()
        assert not list(tmp_path.glob("*.compact"))
        tier.close()

    def test_orphaned_compact_file_cleaned_on_open(self, tmp_path):
        # A process that died between snapshot export and swap leaves a
        # .compact orphan; the next open must discard it (the live log is
        # the source of truth) and serve normally.
        log = tmp_path / "cache.log"
        with filled_tier(log, n=3):
            pass
        orphan = log.with_suffix(log.suffix + ".compact")
        orphan.write_bytes(_record_bytes(LOG_MAGIC) + b"stale snapshot\n")
        with DiskTier(log) as tier:
            assert not orphan.exists()
            assert len(tier.keys()) == 3

    def test_crash_mid_compact_swap_recovers_from_live_log(self, tmp_path):
        # Simulate dying *during* compact after the snapshot was written
        # but before os.replace: both files exist; reopening prefers the
        # log and drops the snapshot.
        log = tmp_path / "cache.log"
        with filled_tier(log, n=5) as tier:
            snapshot = log.with_suffix(log.suffix + ".compact")
            tier.export_snapshot(snapshot)
        assert snapshot.exists()
        with DiskTier(log) as reopened:
            assert sorted(reopened.keys()) == [f"key-{i}" for i in range(5)]
            assert not snapshot.exists()


class TestSingleWriterLock:
    @needs_flock
    def test_second_writer_fails_fast_with_pid(self, tmp_path):
        log = tmp_path / "cache.log"
        with DiskTier(log), pytest.raises(DiskTierLockedError) as excinfo:
            # flock is per open-file-description, so a second open in this
            # same process conflicts exactly as a second process would.
            DiskTier(log)
        assert str(os.getpid()) in str(excinfo.value)
        assert "single-writer" in str(excinfo.value)

    @needs_flock
    def test_lock_released_on_close(self, tmp_path):
        log = tmp_path / "cache.log"
        tier = filled_tier(log, n=2)
        tier.close()
        with DiskTier(log) as again:
            assert len(again.keys()) == 2

    @needs_flock
    def test_lock_released_when_open_fails(self, tmp_path):
        log = tmp_path / "cache.log"
        log.write_bytes(b"not a log at all\n")
        with pytest.raises(ValueError):
            DiskTier(log)
        # The failed open must not wedge the lock for the repair attempt.
        log.unlink()
        with DiskTier(log) as tier:
            tier.put("k", make_entry())

    @needs_flock
    def test_lock_survives_compaction(self, tmp_path):
        # Compaction closes and replaces the *log*; the lock lives on a
        # sibling file precisely so no second writer can slip in mid-swap.
        log = tmp_path / "cache.log"
        with filled_tier(log, n=3) as tier:
            tier.compact()
            with pytest.raises(DiskTierLockedError):
                DiskTier(log)

    @needs_flock
    @pytest.mark.slow
    def test_cross_process_writer_is_refused(self, tmp_path):
        log = tmp_path / "cache.log"
        with filled_tier(log, n=1):
            probe = subprocess.run(
                [
                    sys.executable,
                    "-c",
                    "import sys\n"
                    "from repro.service import DiskTier, DiskTierLockedError\n"
                    f"try:\n    DiskTier({str(log)!r})\n"
                    "except DiskTierLockedError as e:\n"
                    "    print('LOCKED', e); sys.exit(0)\n"
                    "sys.exit(1)",
                ],
                env={**os.environ, "PYTHONPATH": "src"},
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert probe.returncode == 0, probe.stderr
            assert "LOCKED" in probe.stdout
            assert str(os.getpid()) in probe.stdout


class TestStrictLogEncoding:
    def test_records_are_standard_json(self, tmp_path):
        import math

        entry = make_entry()
        entry.canonical_plans[0] = entry.canonical_plans[0].__class__(
            **{
                **{
                    field: getattr(entry.canonical_plans[0], field)
                    for field in ("mask", "rows", "order", "table")
                },
                "cost": (math.inf,),
                "algorithm": entry.canonical_plans[0].algorithm,
            }
        )
        log = tmp_path / "cache.log"
        with DiskTier(log) as tier:
            tier.put("inf-cost", entry)
        for line in log.read_bytes().splitlines():
            decoded = json.loads(line, parse_constant=lambda token: pytest.fail(
                f"non-standard JSON constant {token!r} in the log"
            ))
            assert isinstance(decoded, dict)
        with DiskTier(log) as tier:
            served = tier.peek("inf-cost")
            assert served is not None
            assert served.canonical_plans[0].cost == (math.inf,)
