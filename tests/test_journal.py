"""Unit tests for the flight recorder (:mod:`repro.obs.journal`)."""

import json

import pytest

from repro.netsim.simulator import Simulator
from repro.obs.journal import Journal


def _clocked(start: float = 0.0):
    """A journal with a mutable clock the test advances by hand."""
    state = {"now": start}
    journal = Journal(clock=lambda: state["now"], segment_size=4, max_segments=2)
    return journal, state


class TestRecording:
    def test_entries_are_stamped_and_sequenced(self):
        journal, state = _clocked()
        journal.record("alert", device="cam", trace=7, alert_kind="login-rejected")
        state["now"] = 2.5
        journal.record("verdict", device="cam", verdict="drop")
        a, b = list(journal)
        assert (a.seq, a.at, a.kind, a.device, a.trace_id) == (1, 0.0, "alert", "cam", 7)
        assert a.fields == {"alert_kind": "login-rejected"}
        assert (b.seq, b.at) == (2, 2.5)
        assert journal.recorded == 2 and len(journal) == 2

    def test_record_does_not_touch_the_clock_when_disabled(self):
        """Zero-cost contract: a disabled journal must not even read time."""
        calls = []

        def clock() -> float:
            calls.append(1)
            return 0.0

        journal = Journal(clock=clock, enabled=False)
        journal.record("alert", device="cam")
        assert calls == []

    def test_sequence_numbers_strictly_monotonic_across_eviction(self):
        journal, __ = _clocked()
        for i in range(30):
            journal.record("e")
        seqs = [e.seq for e in journal]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
        assert journal.recorded == 30

    def test_disabled_journal_is_a_noop(self):
        journal = Journal(clock=lambda: 0.0, enabled=False)
        assert journal.record("alert", device="cam") is None
        assert journal.recorded == 0 and len(journal) == 0
        assert list(journal) == []

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            Journal(clock=lambda: 0.0, segment_size=0)
        with pytest.raises(ValueError):
            Journal(clock=lambda: 0.0, max_segments=0)


class TestBoundedRetention:
    def test_oldest_whole_segment_evicted(self):
        journal, __ = _clocked()  # segment_size=4, max_segments=2
        for i in range(13):
            journal.record("e", i=i)
        # Ring holds at most 2 full segments + the open head segment.
        assert len(journal) <= 4 * 2 + 4
        assert journal.evicted == journal.recorded - len(journal)
        # Survivors are the most recent entries, in order.
        retained = [e.fields["i"] for e in journal]
        assert retained == list(range(13 - len(retained), 13))

    def test_long_run_memory_is_bounded(self):
        journal = Journal(clock=lambda: 0.0, segment_size=8, max_segments=3)
        for i in range(10_000):
            journal.record("e")
        assert len(journal) <= 8 * (3 + 1)
        assert journal.recorded == 10_000

    def test_eviction_spills_to_jsonl(self, tmp_path):
        spill = tmp_path / "spill.jsonl"
        journal = Journal(
            clock=lambda: 1.0, segment_size=2, max_segments=1, spill_path=str(spill)
        )
        for i in range(7):
            journal.record("e", i=i)
        assert journal.spilled == journal.evicted > 0
        lines = [json.loads(line) for line in spill.read_text().splitlines()]
        assert len(lines) == journal.spilled
        # Spilled entries are the *oldest*; their seqs precede all retained.
        assert max(e["seq"] for e in lines) < min(e.seq for e in journal)

    def test_spill_failure_still_bounds_retention(self):
        journal = Journal(
            clock=lambda: 0.0,
            segment_size=2,
            max_segments=1,
            spill_path="/nonexistent-dir/never/spill.jsonl",
        )
        for i in range(20):
            journal.record("e")
        assert journal.spilled == 0
        assert journal.evicted > 0
        assert len(journal) <= 2 * 2

    def test_spill_lines_are_always_complete_json(self, tmp_path):
        """Atomicity: every spilled line parses, even mid-run."""
        spill = tmp_path / "spill.jsonl"
        journal = Journal(
            clock=lambda: 0.0, segment_size=3, max_segments=2, spill_path=str(spill)
        )
        for i in range(50):
            journal.record("e", i=i)
            if spill.exists():
                for line in spill.read_text().splitlines():
                    json.loads(line)  # must never raise

    def test_unserializable_segment_skips_spill_keeps_bound(self, tmp_path):
        spill = tmp_path / "spill.jsonl"
        journal = Journal(
            clock=lambda: 0.0, segment_size=2, max_segments=1, spill_path=str(spill)
        )
        # default=str covers most objects; a recursive structure defeats it.
        loop: list = []
        loop.append(loop)
        for i in range(8):
            journal.record("e", payload=loop)
        assert journal.spilled == 0  # nothing half-written
        assert journal.evicted > 0  # in-memory contract intact
        assert not spill.exists() or spill.read_text() == ""


class TestSpillRoundTrip:
    def test_spill_then_reload_recovers_evicted_entries(self, tmp_path):
        spill = tmp_path / "spill.jsonl"
        journal = Journal(
            clock=lambda: 2.5, segment_size=2, max_segments=2, spill_path=str(spill)
        )
        for i in range(11):
            journal.record("e", device=f"d{i % 3}", trace=i, i=i)
        reloaded = Journal.load_spill(str(spill))
        assert len(reloaded) == journal.spilled == journal.evicted
        # Spilled + retained together reconstruct the full record stream:
        # contiguous seqs from 1, no gaps, no overlap.
        seqs = [e.seq for e in reloaded] + [e.seq for e in journal]
        assert seqs == list(range(1, journal.recorded + 1))
        first = reloaded[0]
        assert (first.at, first.kind, first.trace_id) == (2.5, "e", 0)
        assert first.fields == {"i": 0}

    def test_reload_export_jsonl(self, tmp_path):
        journal = Journal(clock=lambda: 1.0, segment_size=8, max_segments=2)
        journal.record("alert", device="cam", alert_kind="x")
        out = tmp_path / "dump.jsonl"
        journal.export_jsonl(str(out))
        (entry,) = Journal.load_spill(str(out))
        assert entry.kind == "alert" and entry.device == "cam"

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "spill.jsonl"
        path.write_text(
            '{"seq": 1, "at": 0.0, "kind": "e", "device": "", '
            '"trace_id": null, "fields": {}}\n\n\n'
        )
        assert len(Journal.load_spill(str(path))) == 1

    def test_corrupt_line_raises_with_line_number(self, tmp_path):
        path = tmp_path / "spill.jsonl"
        path.write_text(
            '{"seq": 1, "at": 0.0, "kind": "e", "device": "", '
            '"trace_id": null, "fields": {}}\n{"seq": 2, "at": 0.0, "kind"\n'
        )
        with pytest.raises(ValueError, match="line 2"):
            Journal.load_spill(str(path))

    def test_missing_field_raises(self, tmp_path):
        path = tmp_path / "spill.jsonl"
        path.write_text('{"seq": 1, "at": 0.0}\n')
        with pytest.raises(ValueError, match="line 1"):
            Journal.load_spill(str(path))


class TestQueries:
    def _populated(self):
        journal, state = _clocked()
        journal.record("alert", device="cam", alert_kind="login-rejected")
        state["now"] = 5.0
        journal.record("verdict", device="win", verdict="drop")
        journal.record("alert", device="win", src="cam", alert_kind="insider")
        state["now"] = 9.0
        journal.record("posture", device="win", posture="block-commands")
        return journal

    def test_filter_by_since_kind_device(self):
        journal = self._populated()
        assert [e.kind for e in journal.entries(since=5.0)] == [
            "verdict",
            "alert",
            "posture",
        ]
        assert [e.device for e in journal.entries(kind="alert")] == ["cam", "win"]
        assert [e.kind for e in journal.entries(device="win")] == [
            "verdict",
            "alert",
            "posture",
        ]

    def test_device_filter_matches_src_field(self):
        """An insider alert *sourced from* cam belongs to cam's trail."""
        journal = self._populated()
        kinds = [e.kind for e in journal.for_device("cam")]
        assert kinds == ["alert", "alert"]

    def test_tail_and_kinds(self):
        journal = self._populated()
        assert [e.seq for e in journal.tail(2)] == [3, 4]
        assert journal.tail(0) == []
        assert journal.kinds() == {"alert": 2, "verdict": 1, "posture": 1}

    def test_stats_and_export(self, tmp_path):
        journal = self._populated()
        stats = journal.stats()
        assert stats["recorded"] == 4 and stats["retained"] == 4
        out = tmp_path / "dump.jsonl"
        assert journal.export_jsonl(str(out)) == 4
        dumped = [json.loads(line) for line in out.read_text().splitlines()]
        assert [d["seq"] for d in dumped] == [1, 2, 3, 4]
        assert dumped[3]["fields"]["posture"] == "block-commands"


class TestSimulatorIntegration:
    def test_simulator_owns_a_simtime_journal(self):
        sim = Simulator()
        sim.schedule(3.0, lambda: sim.journal.record("tick"))
        sim.run()
        (entry,) = list(sim.journal)
        assert entry.at == 3.0

    def test_observe_false_disables_journal(self):
        sim = Simulator(observe=False)
        assert sim.journal.enabled is False
        assert sim.journal.record("tick") is None

    def test_journal_gauges_registered(self):
        sim = Simulator()
        sim.journal.record("tick")
        assert sim.metrics.value("journal_recorded") == 1
        assert sim.metrics.value("journal_retained") == 1
        assert sim.metrics.value("journal_evicted") == 0
        assert sim.metrics.value("journal_spill_rotations") == 0
        assert sim.metrics.value("journal_spill_dropped_files") == 0
        assert sim.metrics.value("journal_spill_dropped_bytes") == 0


class TestSpillRotation:
    """The bounded spill: rotation, the file/byte caps, and reload."""

    def _rotating(self, tmp_path, max_files=3, max_bytes=256):
        spill = tmp_path / "spill.jsonl"
        journal = Journal(
            clock=lambda: 1.0,
            segment_size=2,
            max_segments=1,
            spill_path=str(spill),
            spill_max_bytes=max_bytes,
            spill_max_files=max_files,
        )
        return journal, spill

    def test_rotation_shifts_files_and_counts(self, tmp_path):
        journal, spill = self._rotating(tmp_path)
        for i in range(40):
            journal.record("alert", device="cam", i=i)
        assert journal.spill_rotations > 0
        files = journal.spill_files()
        # Oldest-first order, active file last, never above the cap.
        assert files[-1] == str(spill)
        assert len(files) <= journal.spill_max_files
        for path in files:
            for line in open(path, encoding="utf-8"):
                json.loads(line)  # every retained line is complete JSON

    def test_file_cap_drops_oldest_and_counts_loss(self, tmp_path):
        journal, spill = self._rotating(tmp_path, max_files=2, max_bytes=128)
        for i in range(80):
            journal.record("alert", device="cam", i=i)
        assert journal.spill_dropped_files > 0
        assert journal.spill_dropped_bytes > 0
        assert len(journal.spill_files()) <= 2
        # The registry (when attached to a simulator) sees the same loss.
        stats = journal.stats()
        assert stats["spill_rotations"] == journal.spill_rotations
        assert stats["spill_dropped_files"] == journal.spill_dropped_files
        assert stats["spill_dropped_bytes"] == journal.spill_dropped_bytes
        assert stats["spill_max_files"] == 2

    def test_rotated_reload_is_in_seq_order(self, tmp_path):
        journal, spill = self._rotating(tmp_path, max_files=4, max_bytes=256)
        for i in range(40):
            journal.record("alert", device="cam", i=i)
        entries = Journal.load_spill_rotated(str(spill))
        assert entries, "rotation must not lose the surviving spill"
        seqs = [e.seq for e in entries]
        assert seqs == sorted(seqs)
        # Contiguous across the file boundary: rotation never tears a
        # segment, so the surviving seqs form one gap-free run.
        assert seqs == list(range(seqs[0], seqs[-1] + 1))
        assert entries[-1].fields["i"] == seqs[-1] - 1

    def test_single_file_cap_discards_active_file(self, tmp_path):
        journal, spill = self._rotating(tmp_path, max_files=1, max_bytes=128)
        for i in range(40):
            journal.record("alert", device="cam", i=i)
        assert journal.spill_rotations > 0
        assert journal.spill_dropped_files == journal.spill_rotations
        assert journal.spill_files() in ([], [str(spill)])

    def test_unbounded_spill_never_rotates(self, tmp_path):
        spill = tmp_path / "spill.jsonl"
        journal = Journal(
            clock=lambda: 1.0,
            segment_size=2,
            max_segments=1,
            spill_path=str(spill),
        )
        for i in range(80):
            journal.record("alert", device="cam", i=i)
        assert journal.spill_rotations == 0
        assert journal.spill_files() == [str(spill)]
        assert len(Journal.load_spill(str(spill))) == journal.spilled

    def test_bad_caps_rejected(self):
        with pytest.raises(ValueError):
            Journal(clock=lambda: 0.0, spill_max_files=0)


class TestSpillErrors:
    """Spill write failures are counted and journaled, not swallowed."""

    def test_write_failure_counts_and_journals(self):
        journal = Journal(
            clock=lambda: 3.0,
            segment_size=4,
            max_segments=1,
            spill_path="/nonexistent-dir/never/spill.jsonl",
        )
        for i in range(12):
            journal.record("e", i=i)
        assert journal.spill_errors > 0
        assert journal.stats()["spill_errors"] == journal.spill_errors
        errors = journal.entries(kind="spill-error")
        assert errors, "each failed spill must leave a spill-error entry"
        entry = errors[-1]
        assert entry.fields["reason"] == "write"
        assert entry.fields["lost_entries"] == 4
        assert "OSError" in entry.fields["error"] or "Error" in entry.fields["error"]

    def test_serialize_failure_counts_with_reason(self, tmp_path):
        spill = tmp_path / "spill.jsonl"
        journal = Journal(
            clock=lambda: 0.0, segment_size=4, max_segments=8, spill_path=str(spill)
        )
        loop: list = []
        loop.append(loop)  # defeats json.dumps(default=str)
        journal.record("bad", payload=loop)
        for i in range(40):
            journal.record("e", i=i)
        assert journal.spill_errors >= 1
        reasons = {e.fields["reason"] for e in journal.entries(kind="spill-error")}
        assert "serialize" in reasons
        # Later, healthy segments still spill.
        assert journal.spilled > 0

    def test_spill_error_record_does_not_recurse(self):
        # Tiny segments: the spill-error record itself rolls segments and
        # re-triggers eviction, whose failure must not re-enter the
        # journaling path (one counter bump per failed segment is enough).
        journal = Journal(
            clock=lambda: 0.0,
            segment_size=1,
            max_segments=1,
            spill_path="/nonexistent-dir/never/spill.jsonl",
        )
        for i in range(50):
            journal.record("e", i=i)
        assert journal.spill_errors > 0
        assert journal.recorded < 200  # no runaway self-feeding

    def test_healthy_spill_has_no_errors(self, tmp_path):
        spill = tmp_path / "spill.jsonl"
        journal = Journal(
            clock=lambda: 0.0, segment_size=2, max_segments=1, spill_path=str(spill)
        )
        for i in range(20):
            journal.record("e", i=i)
        assert journal.spill_errors == 0
        assert journal.entries(kind="spill-error") == []

    def test_simulator_exports_spill_error_gauge(self):
        sim = Simulator()
        snapshot = sim.metrics.snapshot()
        assert "journal_spill_errors" in snapshot["gauges"]
