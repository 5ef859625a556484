"""Shared-memory publication of base matrices for pool workers.

Pickling the full base matrix into every submission would cost an
O(n·d) serialization per sweep that grows with every accepted
feature.  The ``pool`` backend instead *publishes* each base
matrix (and the target vector) exactly once per content token into a
:mod:`multiprocessing.shared_memory` segment; a trial submission then
ships only the candidate column and the token, and workers map the
segment read-only.

Segment lifetime is reference-counted by in-flight submissions: a
segment is only unlinked when no queued or executing task can still
attach it (:meth:`SegmentStore.release` / :meth:`SegmentStore.evict`),
and :meth:`SegmentStore.close` unlinks everything unconditionally —
including via a :mod:`weakref` finalizer, so an abandoned executor
never leaks ``/dev/shm`` entries past interpreter exit.

Workers attach by name with :func:`attach_array`.  Under the fork
start method (the only one this library's pool uses on POSIX) the
workers share the parent's ``resource_tracker`` process, so the
attach-side re-registration is idempotent and the parent's unlink
remains the single cleanup event — no tracker gymnastics needed.
"""

from __future__ import annotations

import os
import secrets
import weakref
from multiprocessing import shared_memory

import numpy as np

__all__ = ["SegmentStore", "attach_array", "segment_prefix"]


def segment_prefix() -> str:
    """Per-process prefix of every segment this module creates.

    Tests use it to assert that no ``/dev/shm`` entry of ours survives
    a ``close()``; the random component keeps parallel test processes
    from observing each other's segments.
    """
    return f"repro-eval-{os.getpid()}"


class SegmentStore:
    """Parent-side registry of published arrays, keyed by content token.

    One store belongs to one executor.  ``publish`` is idempotent per
    token; ``acquire``/``release`` bracket every in-flight task that
    references a token, and ``evict`` honours those counts.
    """

    def __init__(self, max_segments: int = 8) -> None:
        if max_segments < 1:
            raise ValueError("max_segments must be positive")
        self.max_segments = max_segments
        self._salt = secrets.token_hex(4)
        self._serial = 0
        # token -> (SharedMemory, shape, refcount); insertion-ordered so
        # eviction drops the oldest idle segment first.
        self._segments: dict[str, list] = {}
        self._finalizer = weakref.finalize(
            self, SegmentStore._unlink_all, list_ref := []
        )
        self._live_names = list_ref

    # -- publication --------------------------------------------------------
    def publish(self, token: str, array: np.ndarray) -> tuple[str, tuple]:
        """Make ``array`` attachable; returns ``(segment name, shape)``.

        Re-publishing a known token is free.  The array is copied into
        the segment as C-ordered float64 — workers see a read-only map
        of exactly these bytes.
        """
        entry = self._segments.get(token)
        if entry is not None:
            return entry[0].name, entry[1]
        data = np.ascontiguousarray(array, dtype=np.float64)
        self._serial += 1
        name = f"{segment_prefix()}-{self._salt}-{self._serial}"
        segment = shared_memory.SharedMemory(
            name=name, create=True, size=max(data.nbytes, 1)
        )
        view = np.ndarray(data.shape, dtype=np.float64, buffer=segment.buf)
        view[...] = data
        del view
        self._segments[token] = [segment, data.shape, 0]
        self._live_names.append(name)
        self._evict_idle(protect=token)
        return name, data.shape

    def _evict_idle(self, protect: str) -> None:
        """Unlink oldest idle segments above the bound.

        Never touches in-flight segments or the one just published
        (``protect`` — still refcount 0 until the caller acquires it).
        """
        while len(self._segments) > self.max_segments:
            victim = next(
                (
                    t
                    for t, entry in self._segments.items()
                    if entry[2] == 0 and t != protect
                ),
                None,
            )
            if victim is None:  # everything is referenced; grow past bound
                return
            self._unlink(victim)

    # -- refcounting --------------------------------------------------------
    def acquire(self, token: str) -> None:
        """Mark one in-flight task as referencing ``token``."""
        self._segments[token][2] += 1

    def release(self, token: str) -> None:
        """Drop one in-flight reference (task completed or abandoned)."""
        entry = self._segments.get(token)
        if entry is not None and entry[2] > 0:
            entry[2] -= 1

    # -- teardown -----------------------------------------------------------
    def _unlink(self, token: str) -> None:
        segment, _, _ = self._segments.pop(token)
        try:
            self._live_names.remove(segment.name)
        except ValueError:  # pragma: no cover - defensive
            pass
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def close(self) -> None:
        """Unlink every segment, in-flight references included."""
        for token in list(self._segments):
            self._unlink(token)

    def __len__(self) -> int:
        return len(self._segments)

    @staticmethod
    def _unlink_all(names: list[str]) -> None:
        """Finalizer body: best-effort unlink of whatever is still live."""
        for name in list(names):
            try:
                segment = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                continue
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass


def attach_array(name: str, shape: tuple) -> tuple[np.ndarray, object]:
    """Worker-side map of a published segment as a read-only array.

    Returns ``(array, segment)`` — the caller must keep the segment
    object alive as long as the array is used, and ``close()`` (never
    ``unlink()``) it when done: the parent owns the segment's lifetime.
    """
    segment = shared_memory.SharedMemory(name=name)
    array = np.ndarray(shape, dtype=np.float64, buffer=segment.buf)
    array.flags.writeable = False
    return array, segment
