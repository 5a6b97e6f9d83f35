"""The shared-memory warm-state arena.

One arena segment holds one warm snapshot's numpy columns — the
page→LPN matrix, erase counts, encoded BlockStore columns, and per-plan
L2P tables — plus a JSON meta block (engine clock, ChannelArrays
horizons, FTL region state).  Shard workers attach the segment and
restore devices from zero-copy views instead of unpickling a snapshot
per device; the segment is keyed by the *seed-independent*
:func:`repro.harness.snapshots.warm_columns_key`, so one segment serves
every device of a homogeneous fleet regardless of per-device seeds.

Lifecycle: the parent (the fleet runner) creates and — always — unlinks
the segment; workers only ever attach.  A worker crash or watchdog kill
therefore cannot leak a segment: the parent's ``finally`` (with an
``atexit`` backstop for harder exits) unlinks regardless of how the
shard workers died.  Attaching is defensive end to end — a bad magic,
truncated meta, or malformed layout makes :func:`attach_arena` return
``None`` and the worker falls back to the regular snapshot/pickle path.

Segment layout::

    [ 8B magic "RARENA01" ][ 8B little-endian meta length ][ meta JSON ]
    [ pad to 64B ][ arrays back to back, each 64B-aligned ]

The meta JSON carries the snapshot's structured-but-small state (the
same dict the ``.npz`` disk layer stores) plus a layout table mapping
array names to (dtype, shape, offset).
"""

from __future__ import annotations

import atexit
import itertools
import json
import os
import struct
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path
from typing import Optional

import numpy as np

from repro.harness import snapshots
from repro.profiling import PROFILER

_MAGIC = b"RARENA01"
_ALIGN = 64
#: Name prefix of every segment this package creates (the leak check
#: in tests and CI scans /dev/shm for it).
SEGMENT_PREFIX = "repro_"

_SERIAL = itertools.count()


def arena_mode() -> str:
    """Resolve ``REPRO_ARENA`` to ``off`` or ``shm`` (default off)."""
    value = os.environ.get("REPRO_ARENA", "off").strip().lower()
    return "shm" if value == "shm" else "off"


def new_segment_name(kind: str) -> str:
    """A collision-safe segment name: pid + an in-process serial."""
    return f"repro_{kind}_{os.getpid()}_{next(_SERIAL)}"


def create_segment(name: str, size: int) -> shared_memory.SharedMemory:
    """Create a named segment, evicting a stale same-name leftover.

    A same-name segment can only pre-exist if an earlier process with
    the same pid died without its parent-side unlink running (e.g.
    SIGKILL before atexit); reclaiming it is strictly cleanup.
    """
    try:
        return shared_memory.SharedMemory(name=name, create=True, size=size)
    except FileExistsError:
        stale = shared_memory.SharedMemory(name=name)
        stale.close()
        tracked_unlink(stale)
        return shared_memory.SharedMemory(name=name, create=True, size=size)


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker ownership.

    Only the creating parent may unlink; an attaching worker must not
    register the segment with its own ``resource_tracker``, or the
    tracker unlinks it when the worker exits (and warns about a "leak"
    it caused itself).  Python 3.13 has ``track=False`` for exactly
    this; older interpreters need the post-attach unregister dance.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:
        pass
    shm = shared_memory.SharedMemory(name=name)
    try:
        resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:  # pragma: no cover - tracker internals vary
        pass
    return shm


def tracked_unlink(shm: shared_memory.SharedMemory) -> None:
    """Unlink a segment, first re-registering it with the tracker.

    Pre-3.13 interpreters give an attaching worker no ``track=False``,
    so :func:`attach_segment` unregisters after attach — but under fork
    the tracker process is *shared*, so that unregister also removes the
    owner's entry and the owner's unlink-time unregister would make the
    tracker print a spurious ``KeyError``.  The tracker cache is a set:
    re-adding the entry immediately before unlink balances the books in
    every interpreter/start-method combination.
    """
    try:
        resource_tracker.register(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:  # pragma: no cover - tracker internals vary
        pass
    shm.unlink()


def leaked_segments(shm_dir: str = "/dev/shm") -> list:
    """Names of repro-owned segments still present on the host."""
    root = Path(shm_dir)
    if not root.is_dir():  # pragma: no cover - non-tmpfs platforms
        return []
    return sorted(
        entry.name
        for entry in root.iterdir()
        if entry.name.startswith(SEGMENT_PREFIX)
    )


@dataclass(frozen=True)
class ArenaManifest:
    """Everything a worker needs to attach: rides inside the shard cell."""

    name: str
    size: int
    columns_key: str
    #: Total bytes of the array payload — the per-restore credit behind
    #: the ``ipc.bytes_saved`` counter (what a pickled snapshot of the
    #: same columns would have shipped over the pipe instead).
    payload_nbytes: int


class SharedArena:
    """Parent-side owner of one warm-snapshot segment.

    Create with the (streams-less) snapshot to publish, hand
    :attr:`manifest` to the shard cells, and call :meth:`unlink` in a
    ``finally`` when the fleet run ends.  ``unlink`` is idempotent and
    registered with ``atexit`` as a backstop, so even an exception path
    that skips the ``finally`` cannot leak the segment.
    """

    def __init__(self, columns_key: str, snap: dict) -> None:
        if "streams" in snap:
            # Stream states are seed-dependent; the arena is shared
            # across seeds.  Publishing them would be wrong, not just
            # wasteful.
            snap = {k: v for k, v in snap.items() if k != "streams"}
        entries, meta = snapshots.encode_snapshot_entries(snap)
        layout = {}
        offset = 0  # relative to the payload base (after header+meta)
        arrays = {}
        for name in sorted(entries):
            array = np.ascontiguousarray(entries[name])
            offset = _align(offset)
            layout[name] = {
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "offset": offset,
            }
            arrays[name] = (array, offset)
            offset += array.nbytes
        payload_nbytes = offset
        meta_blob = json.dumps(
            {"meta": meta, "layout": layout, "columns_key": columns_key}
        ).encode("utf-8")
        base = _align(len(_MAGIC) + 8 + len(meta_blob))
        size = base + max(payload_nbytes, 1)
        self._shm: Optional[shared_memory.SharedMemory] = create_segment(
            new_segment_name("arena"), size
        )
        buf = self._shm.buf
        buf[: len(_MAGIC)] = _MAGIC
        struct.pack_into("<Q", buf, len(_MAGIC), len(meta_blob))
        buf[len(_MAGIC) + 8 : len(_MAGIC) + 8 + len(meta_blob)] = meta_blob
        for name, (array, rel_offset) in arrays.items():
            view = np.ndarray(
                array.shape,
                dtype=array.dtype,
                buffer=buf,
                offset=base + rel_offset,
            )
            view[...] = array
        self.manifest = ArenaManifest(
            name=self._shm.name,
            size=size,
            columns_key=columns_key,
            payload_nbytes=payload_nbytes,
        )
        self._unlinked = False
        atexit.register(self.unlink)

    def unlink(self) -> None:
        """Close and unlink the segment (idempotent)."""
        if self._unlinked or self._shm is None:
            return
        self._unlinked = True
        self._shm.close()
        try:
            tracked_unlink(self._shm)
        except FileNotFoundError:  # pragma: no cover - raced an evictor
            pass
        self._shm = None
        atexit.unregister(self.unlink)


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


#: Worker-side registry of attached segments: keeps the SharedMemory
#: handles (and therefore the numpy views into them) alive for the
#: worker's lifetime.  One attach per segment per process, however many
#: shard cells the pool routes here.
_ATTACHED: dict = {}


def attach_arena(manifest: ArenaManifest) -> Optional[dict]:
    """Attach a segment and decode its snapshot; ``None`` on any defect.

    The decoded snapshot's big matrices are read-only views into the
    shared segment (restore copies *out* of them), small columns are
    plain Python lists.  Defensive by design: any validation or decode
    failure degrades to ``None`` and the caller's regular snapshot
    (pickle/rebuild) path — a corrupt arena can cost time, never
    correctness.
    """
    cached = _ATTACHED.get(manifest.name)
    if cached is not None:
        return cached[1]
    shm: Optional[shared_memory.SharedMemory] = None
    try:
        shm = attach_segment(manifest.name)
        snap = _decode_segment(shm, manifest)
    except (OSError, ValueError, KeyError, json.JSONDecodeError, struct.error):
        _close_quietly(shm)
        return None
    if snap is None:
        _close_quietly(shm)
        return None
    _ATTACHED[manifest.name] = (shm, snap)  # fleetlint: disable=parallel-shared-mutation  worker-private handle registry; one deterministic entry per attached segment
    PROFILER.count("arena.attach")
    return snap


def _close_quietly(shm: Optional[shared_memory.SharedMemory]) -> None:
    """Close an attach handle, tolerating lingering buffer exports.

    A decode that failed halfway may still hold numpy views in the
    in-flight exception's frames; ``mmap`` refuses to unmap under them
    (BufferError).  Dropping the handle is safe either way — workers
    never own the segment, so nothing leaks.
    """
    if shm is None:
        return
    try:
        shm.close()
    except BufferError:  # pragma: no cover - depends on GC timing
        pass


def _decode_segment(
    shm: shared_memory.SharedMemory, manifest: ArenaManifest
) -> Optional[dict]:
    buf = shm.buf
    if len(buf) < len(_MAGIC) + 8 or bytes(buf[: len(_MAGIC)]) != _MAGIC:
        return None
    (meta_len,) = struct.unpack_from("<Q", buf, len(_MAGIC))
    header_end = len(_MAGIC) + 8 + meta_len
    if meta_len == 0 or header_end > len(buf):
        return None
    blob = json.loads(bytes(buf[len(_MAGIC) + 8 : header_end]).decode("utf-8"))
    if blob.get("columns_key") != manifest.columns_key:
        return None
    meta = blob["meta"]
    if meta.get("version") != 1:
        return None
    layout = blob["layout"]
    base = _align(header_end)

    def get(name: str) -> np.ndarray:
        entry = layout[name]
        shape = tuple(entry["shape"])
        dtype = np.dtype(entry["dtype"])
        offset = base + entry["offset"]
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if offset + count * dtype.itemsize > len(buf):
            raise ValueError(f"arena array {name} exceeds segment bounds")
        view = np.ndarray(shape, dtype=dtype, buffer=buf, offset=offset)
        view.flags.writeable = False
        return view

    return snapshots.decode_snapshot_entries(get, meta, copy=False)


def install_manifest(manifest: ArenaManifest) -> bool:
    """Attach ``manifest`` and register it with the snapshot layer.

    Returns True when devices in this process will restore from the
    arena; False means graceful degradation (regular snapshot cache or
    cold build+warm).
    """
    snap = attach_arena(manifest)
    if snap is None:
        return False
    snapshots.install_arena_snapshot(
        manifest.columns_key, snap, nbytes=manifest.payload_nbytes
    )
    return True
