"""The flight recorder: an append-only, bounded security audit journal.

Aggregate metrics answer "how much"; the journal answers the forensic
question: *what exactly happened, in what order, and what did the
controller do about it*.  It is also the only record of causality: the
causal traces of :mod:`repro.obs.trace` are read from the entries that
carry a trace id.  Every layer writes structured events through one API::

    sim.journal.record("alert", device="cam", trace=tid, alert_kind="login-rejected")

Design constraints (shared with the rest of :mod:`repro.obs`):

- **Simulated time only.**  Entries are stamped with ``sim.now`` via the
  clock callable handed in at construction; nothing reads the wall clock.
- **Append-only.**  Entries are immutable once recorded and sequence
  numbers are strictly monotonic, so the journal is trustworthy evidence:
  an entry can be evicted (bounded retention) or spilled, never rewritten.
- **Bounded retention.**  Entries accumulate into fixed-size *segments*
  arranged as a ring: when the ring exceeds ``max_segments`` the oldest
  whole segment is evicted -- optionally spilled to a JSONL file first --
  so long runs cannot grow memory with event volume.  The traces read
  from the journal share this retention.
- **Near-zero hot-path cost.**  ``record`` appends one raw tuple to the
  head segment buffer; :class:`JournalEntry` objects are materialized
  lazily, only when a reader (forensics, WAL replay, spill/export) asks.
  Derived counters (``recorded``) fall out of the sequence counter and
  eviction bookkeeping runs only on segment boundaries, so the per-call
  cost is amortized exactly as in a buffer-then-ship telemetry pipeline.
  Per-packet PASS verdicts are *not* journaled (only drops, alerts, and
  control-plane actions are security-relevant), and neither are view
  deltas: device telemetry is view state, not an alert.
- **Disableable.**  ``Journal(enabled=False)`` (what
  ``Simulator(observe=False)`` creates) makes ``record`` a no-op, so the
  overhead bench measures the journal's cost along with the rest of the
  instrumentation.
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Any, Callable, Iterator

__all__ = ["Journal", "JournalEntry"]


class JournalEntry:
    """One immutable audit record, stamped in simulated time."""

    __slots__ = ("seq", "at", "kind", "device", "trace_id", "fields")

    def __init__(
        self,
        seq: int,
        at: float,
        kind: str,
        device: str,
        trace_id: int | tuple[int, ...] | None,
        fields: dict[str, Any],
    ) -> None:
        self.seq = seq
        self.at = at
        self.kind = kind
        self.device = device
        self.trace_id = trace_id
        self.fields = fields

    def as_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "at": self.at,
            "kind": self.kind,
            "device": self.device,
            "trace_id": self.trace_id,
            "fields": dict(self.fields),
        }

    def __repr__(self) -> str:
        return (
            f"JournalEntry(#{self.seq} t={self.at:.3f} {self.kind}"
            f" device={self.device or '-'} {self.fields})"
        )


def _raw_as_dict(raw: tuple) -> dict[str, Any]:
    """Dict form of a raw segment tuple (spill/export without an entry)."""
    return {
        "seq": raw[0],
        "at": raw[1],
        "kind": raw[2],
        "device": raw[3],
        "trace_id": raw[4],
        "fields": dict(raw[5]),
    }


class Journal:
    """Bounded ring of append-only journal segments with optional spill."""

    def __init__(
        self,
        clock: Callable[[], float],
        enabled: bool = True,
        segment_size: int = 512,
        max_segments: int = 8,
        spill_path: str | None = None,
        spill_max_bytes: int | None = None,
        spill_max_files: int = 4,
    ) -> None:
        if segment_size <= 0:
            raise ValueError(f"segment_size must be positive (got {segment_size})")
        if max_segments <= 0:
            raise ValueError(f"max_segments must be positive (got {max_segments})")
        if spill_max_files <= 0:
            raise ValueError(f"spill_max_files must be positive (got {spill_max_files})")
        self.clock = clock
        self.enabled = enabled
        self.segment_size = segment_size
        self.max_segments = max_segments
        self.spill_path = spill_path
        #: Spill bound: once the active JSONL file reaches
        #: ``spill_max_bytes`` it is rotated (``path.1`` .. ``path.N``)
        #: and at most ``spill_max_files`` files (active included) are
        #: kept -- the oldest rotated file is deleted, its loss counted
        #: in ``spill_dropped_files``/``spill_dropped_bytes``.  ``None``
        #: preserves the historical unbounded single-file behavior.
        self.spill_max_bytes = spill_max_bytes
        self.spill_max_files = spill_max_files
        self.spill_rotations = 0
        self.spill_dropped_files = 0
        self.spill_dropped_bytes = 0
        #: Spill *write* failures: segments evicted but never persisted
        #: (serialization error or OSError on append).  Each failure is
        #: also journaled as a ``spill-error`` entry so the loss shows up
        #: in the incident timeline, not just a counter nobody reads.
        self.spill_errors = 0
        self._in_spill_error = False  # reentrancy guard for the record
        self._spill_size: int | None = None  # lazily sized from disk
        # Segments hold raw ``(seq, at, kind, device, trace_id, fields)``
        # tuples; ``_head`` aliases the open segment so the write path
        # never indexes the deque.  Readers materialize JournalEntry
        # objects on demand (reads are forensic-frequency, writes are not).
        self._head: list[tuple] = []
        self._segments: deque[list[tuple]] = deque([self._head])
        self._next_seq = 1
        self.evicted = 0
        self.spilled = 0

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def record(self, kind: str, device: str = "", trace: Any = None, **fields: Any) -> None:
        """Append one entry (a no-op when the journal is disabled).  ``trace``
        is its causal trace id, or a tuple of the chains it closes."""
        if not self.enabled:
            return None
        seq = self._next_seq
        self._next_seq = seq + 1
        head = self._head
        if len(head) >= self.segment_size:
            # Segment boundary: roll the buffer and settle eviction --
            # the only bookkeeping that is not a plain append.
            head = [(seq, self.clock(), kind, device, trace, fields)]
            self._segments.append(head)
            self._head = head
            if len(self._segments) > self.max_segments:
                self._evict_oldest()
        else:
            head.append((seq, self.clock(), kind, device, trace, fields))
        return None

    @property
    def recorded(self) -> int:
        """Entries ever recorded (derived from the sequence counter)."""
        return self._next_seq - 1

    def _evict_oldest(self) -> None:
        segment = self._segments.popleft()
        self.evicted += len(segment)
        if self.spill_path is not None:
            # Serialize the whole segment *before* touching the file and
            # append it with a single write: a serialization failure
            # leaves the spill untouched, and the one-call append keeps
            # every JSONL line complete -- a reload never sees a record
            # truncated by a failure mid-eviction.
            try:
                blob = "".join(
                    json.dumps(_raw_as_dict(raw), default=str) + "\n"
                    for raw in segment
                )
            except (TypeError, ValueError) as exc:
                # Unserializable field: keep the in-memory contract, but
                # account for the segment the spill just lost.
                self._note_spill_error("serialize", len(segment), exc)
                return
            try:
                with open(self.spill_path, "a", encoding="utf-8") as fh:
                    fh.write(blob)
                self.spilled += len(segment)
            except OSError as exc:
                # Spill stays best-effort (retention bounds still hold),
                # but the failure is counted and journaled, not swallowed.
                self._note_spill_error("write", len(segment), exc)
            else:
                if self.spill_max_bytes is not None:
                    if self._spill_size is None:
                        self._spill_size = self._size_on_disk(self.spill_path)
                    else:
                        self._spill_size += len(blob.encode("utf-8"))
                    if self._spill_size >= self.spill_max_bytes:
                        self._rotate_spill()

    def _note_spill_error(self, reason: str, lost: int, exc: Exception) -> None:
        """Count a failed segment spill and journal the loss itself.

        The guard prevents recursion: the ``spill-error`` record can roll
        a segment and trigger another eviction, whose own failure would
        otherwise re-enter this method.
        """
        self.spill_errors += 1
        if self._in_spill_error:
            return
        self._in_spill_error = True
        try:
            self.record(
                "spill-error",
                reason=reason,
                lost_entries=lost,
                error=f"{type(exc).__name__}: {exc}",
            )
        finally:
            self._in_spill_error = False

    @staticmethod
    def _size_on_disk(path: str) -> int:
        try:
            return os.path.getsize(path)
        except OSError:
            return 0

    def _rotate_spill(self) -> None:
        """Shift ``path -> path.1 -> ... -> path.N``; drop past the cap.

        With ``spill_max_files == 1`` there is nothing to rotate into:
        the active file itself is discarded (still counted as dropped).
        """
        base = self.spill_path
        assert base is not None
        keep = self.spill_max_files
        if keep == 1:
            self.spill_dropped_bytes += self._size_on_disk(base)
            try:
                os.remove(base)
            except OSError:
                pass
            else:
                self.spill_dropped_files += 1
            self.spill_rotations += 1
            self._spill_size = 0
            return
        oldest = f"{base}.{keep - 1}"
        if os.path.exists(oldest):
            self.spill_dropped_bytes += self._size_on_disk(oldest)
            try:
                os.remove(oldest)
            except OSError:
                pass
            else:
                self.spill_dropped_files += 1
        for i in range(keep - 2, 0, -1):
            src = f"{base}.{i}"
            if os.path.exists(src):
                try:
                    os.replace(src, f"{base}.{i + 1}")
                except OSError:
                    pass
        try:
            os.replace(base, f"{base}.1")
        except OSError:
            pass
        self.spill_rotations += 1
        self._spill_size = 0

    def spill_files(self) -> list[str]:
        """Existing spill files, oldest first (rotated tail -> active)."""
        if self.spill_path is None:
            return []
        base = self.spill_path
        out = []
        for i in range(self.spill_max_files - 1, 0, -1):
            path = f"{base}.{i}"
            if os.path.exists(path):
                out.append(path)
        if os.path.exists(base):
            out.append(base)
        return out

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def last_seq(self) -> int:
        """Sequence number of the most recent entry (0 = nothing yet).

        This is the checkpoint high-water mark: a restore replays
        retained entries with ``seq > checkpoint.seq``.
        """
        return self._next_seq - 1

    def entries_since(self, seq: int) -> list[JournalEntry]:
        """Retained entries with a sequence number strictly after ``seq``.

        The write-ahead-log read path: entries older than the retention
        ring are gone (evicted/spilled), so callers checkpoint often
        enough that the tail past their checkpoint is still retained.
        """
        return [
            JournalEntry(*raw)
            for segment in self._segments  # oldest first, each in seq order
            if segment and segment[-1][0] > seq
            for raw in segment
            if raw[0] > seq
        ]

    def __iter__(self) -> Iterator[JournalEntry]:
        for segment in self._segments:
            for raw in segment:
                yield JournalEntry(*raw)

    def __len__(self) -> int:
        """Retained (in-memory) entries."""
        return sum(len(segment) for segment in self._segments)

    def entries(
        self,
        since: float | None = None,
        kind: str | None = None,
        device: str | None = None,
    ) -> list[JournalEntry]:
        """Retained entries filtered by time / kind / device (all optional).

        ``device`` matches the entry's device field *or* a ``src`` field
        naming the device -- an attack step toward ``cam`` and an insider
        alert sourced from ``cam`` both belong to cam's audit trail.
        """
        out = []
        for entry in self:
            if since is not None and entry.at < since:
                continue
            if kind is not None and entry.kind != kind:
                continue
            if device is not None and not (
                entry.device == device or entry.fields.get("src") == device
            ):
                continue
            out.append(entry)
        return out

    def for_device(self, device: str) -> list[JournalEntry]:
        return self.entries(device=device)

    def tail(self, n: int = 50) -> list[JournalEntry]:
        """The most recent ``n`` retained entries, oldest first."""
        if n <= 0:
            return []
        picked: deque[JournalEntry] = deque(maxlen=n)
        for entry in self:
            picked.append(entry)
        return list(picked)

    def kinds(self) -> dict[str, int]:
        """Retained entry counts by kind (operator overview)."""
        counts: dict[str, int] = {}
        for entry in self:
            counts[entry.kind] = counts.get(entry.kind, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        return {
            "enabled": self.enabled,
            "recorded": self.recorded,
            "retained": len(self),
            "evicted": self.evicted,
            "spilled": self.spilled,
            "segment_size": self.segment_size,
            "max_segments": self.max_segments,
            "spill_max_bytes": self.spill_max_bytes,
            "spill_max_files": self.spill_max_files,
            "spill_rotations": self.spill_rotations,
            "spill_dropped_files": self.spill_dropped_files,
            "spill_dropped_bytes": self.spill_dropped_bytes,
            "spill_errors": self.spill_errors,
        }

    @staticmethod
    def load_spill(path: str) -> list[JournalEntry]:
        """Reload spilled (or exported) JSONL back into entry objects.

        The read half of the spill round-trip: evicted segments written
        by ``spill_path`` -- or an explicit :meth:`export_jsonl` dump --
        parse back to :class:`JournalEntry` objects in file order.  Blank
        lines are skipped; a malformed line raises ``ValueError`` naming
        its line number, because a corrupt flight recorder should fail
        loudly at forensics time, not silently truncate the evidence.
        """
        entries: list[JournalEntry] = []
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                    entries.append(
                        JournalEntry(
                            seq=int(data["seq"]),
                            at=float(data["at"]),
                            kind=str(data["kind"]),
                            device=str(data["device"]),
                            trace_id=data.get("trace_id"),
                            fields=dict(data["fields"]),
                        )
                    )
                except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                    raise ValueError(
                        f"corrupt journal spill {path!r} at line {lineno}: {exc}"
                    ) from exc
        return entries

    @classmethod
    def load_spill_rotated(cls, path: str) -> list[JournalEntry]:
        """Reload a rotated spill set (``path.N`` .. ``path.1``, ``path``).

        Returns entries in file order, oldest rotation first -- seq order
        for anything the journal itself wrote.  Missing files are fine
        (rotation may have dropped them); a corrupt line still raises.
        """
        rotated: list[str] = []
        i = 1
        while os.path.exists(f"{path}.{i}"):
            rotated.append(f"{path}.{i}")
            i += 1
        entries: list[JournalEntry] = []
        for part in reversed(rotated):
            entries.extend(cls.load_spill(part))
        if os.path.exists(path):
            entries.extend(cls.load_spill(path))
        return entries

    def export_jsonl(self, path: str) -> int:
        """Write every retained entry to ``path`` as JSON lines.

        Returns the number of entries written.  This is the explicit
        "dump the flight recorder" operation (CI attaches the result as a
        build artifact); the ``spill_path`` mechanism covers the implicit
        case of entries aging out of the ring mid-run.
        """
        n = 0
        with open(path, "w", encoding="utf-8") as fh:
            for segment in self._segments:
                for raw in segment:
                    fh.write(json.dumps(_raw_as_dict(raw), default=str) + "\n")
                    n += 1
        return n

    def __repr__(self) -> str:
        return (
            f"Journal(retained={len(self)}, recorded={self.recorded}, "
            f"evicted={self.evicted}, enabled={self.enabled})"
        )
