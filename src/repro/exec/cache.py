"""Sharded content-addressed on-disk result store (``.repro-cache/``).

Layout: one directory per *source fingerprint generation* (first 16 hex
chars of :func:`~repro.exec.fingerprint.source_fingerprint`), and inside
it :data:`SHARDS` ``shard-XXX`` directories addressed by the task-key
prefix.  One file per result, named by the full task key — the sha256
of the spec's content hash concatenated with the shared-payload digest.
A key never changes meaning: same code + same spec + same shared inputs
⇒ same file, same shard.  Sharding keeps any one directory small and
lets concurrent pool workers publish without contending on a single
directory's metadata.  The layout is fixed: any change to it changes
the source fingerprint, so it starts a new generation that only the new
layout ever writes.

Entry format (self-verifying)::

    repro-cache-v1\\n
    <sha256 hex of payload>\\n
    <pickled payload>

Reads verify the magic line and the payload digest before unpickling;
*any* deviation — truncation, bit rot, a partially written file, an
unpicklable payload — classifies as a miss, best-effort deletes the bad
file, and the coordinator simply re-runs the task.  Corruption can cost
time, never correctness, and never crashes a sweep.  Writes go through a
same-directory temp file + :func:`os.replace`, so a crashed writer
leaves either the old entry or a (detectable) partial temp file, never a
half-new entry under the real name.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..errors import DCudaUsageError
from .fingerprint import source_fingerprint
from .spec import RunSpec

__all__ = ["ResultCache", "CacheStats", "ShardStats", "DEFAULT_CACHE_DIR",
           "SHARDS"]

#: Default cache location, relative to the invoking working directory
#: (the repo root in every documented workflow).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Shard fan-out per generation.
SHARDS = 16

_MAGIC = b"repro-cache-v1"


@dataclass(frozen=True)
class ShardStats:
    """Census of one shard directory within the current generation."""

    name: str
    entries: int
    bytes: int


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time census of a cache directory."""

    root: str
    fingerprint: str
    #: Entries/bytes under the *current* source fingerprint.
    entries: int
    bytes: int
    #: Entries/bytes under stale fingerprints (reclaimable by ``gc``).
    stale_entries: int
    stale_bytes: int
    #: Number of fingerprint generations present on disk.
    generations: int
    #: Shard fan-out of the current generation (0 = generation absent).
    shards: int = 0
    #: Per-shard census of the current generation.
    shard_breakdown: Tuple[ShardStats, ...] = field(default=())


class ResultCache:
    """Sharded content-addressed result store for the sweep engine.

    Args:
        root: Cache directory (created lazily on first write).
        fingerprint: Source-tree fingerprint to namespace entries under;
            defaults to the live fingerprint of the installed ``repro``
            package.  Tests inject explicit values to model code changes.
    """

    def __init__(self, root: os.PathLike = DEFAULT_CACHE_DIR,
                 fingerprint: Optional[str] = None):
        self.root = Path(root)
        self.fingerprint = fingerprint or source_fingerprint()
        if not self.fingerprint:
            raise DCudaUsageError("empty cache fingerprint")

    # ---------------------------------------------------------- keys -----
    def key_for(self, spec: RunSpec, shared_digest: str = "") -> str:
        """Task key: spec content hash salted with the shared digest."""
        h = hashlib.sha256()
        h.update(spec.content_hash().encode())
        h.update(shared_digest.encode())
        return h.hexdigest()

    def _generation_dir(self) -> Path:
        return self.root / self.fingerprint[:16]

    def _entry_path(self, key: str) -> Path:
        """Home of *key*: its shard is picked by the key's hex prefix
        (a hash of the key for non-hex test keys)."""
        try:
            idx = int(key[:2], 16) % SHARDS
        except ValueError:
            idx = zlib.crc32(key.encode()) % SHARDS
        return self._generation_dir() / f"shard-{idx:03d}" / f"{key}.pkl"

    # ----------------------------------------------------------- I/O -----
    @staticmethod
    def _verify(blob: bytes) -> Any:
        """Decode one self-verifying entry; raises on any deviation."""
        magic, digest, payload = blob.split(b"\n", 2)
        if magic != _MAGIC:
            raise ValueError("bad magic")
        if hashlib.sha256(payload).hexdigest().encode() != digest:
            raise ValueError("payload digest mismatch")
        return pickle.loads(payload)

    def get(self, key: str) -> Tuple[bool, Any]:
        """Look up *key*; returns ``(hit, result)``.

        A corrupted, truncated, or unreadable entry is treated as a miss
        and deleted best-effort — the caller re-runs the task and the
        subsequent :meth:`put` repairs it.
        """
        path = self._entry_path(key)
        try:
            entry = self._verify(path.read_bytes())
            return True, entry["result"]
        except FileNotFoundError:
            return False, None
        except Exception:
            try:
                path.unlink()
            except OSError:
                pass
            return False, None

    def put(self, key: str, result: Any, label: str = "") -> None:
        """Store *result* under *key*, atomically, in its home shard.

        A result the pickle module cannot serialize is silently not
        cached (the sweep already has the in-memory value; only replay
        speed is lost).
        """
        try:
            payload = pickle.dumps({"result": result, "label": label},
                                   protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return
        blob = (_MAGIC + b"\n"
                + hashlib.sha256(payload).hexdigest().encode() + b"\n"
                + payload)
        self._publish(self._entry_path(key), blob)

    def _publish(self, path: Path, blob: bytes) -> None:
        """Atomically write *blob* to *path* (same-dir temp + replace)."""
        shard = path.parent
        shard.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=shard, prefix=".tmp-", suffix=".pkl")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(blob)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    # ----------------------------------------------------- maintenance -----
    def _census(self):
        current = self._generation_dir().name
        live = stale = live_b = stale_b = 0
        gens = set()
        per_shard: Dict[str, List[int]] = {}
        if self.root.is_dir():
            for gen in self.root.iterdir():
                if not gen.is_dir():
                    continue
                gens.add(gen.name)
                for entry in gen.rglob("*.pkl"):
                    if entry.name.startswith(".tmp-"):
                        continue
                    size = entry.stat().st_size
                    if gen.name == current:
                        live += 1
                        live_b += size
                        counts = per_shard.setdefault(
                            entry.parent.name, [0, 0])
                        counts[0] += 1
                        counts[1] += size
                    else:
                        stale += 1
                        stale_b += size
        return live, live_b, stale, stale_b, gens, per_shard

    def stats(self) -> CacheStats:
        """Census the cache directory (current vs. stale generations,
        plus the current generation's per-shard breakdown)."""
        live, live_b, stale, stale_b, gens, per_shard = self._census()
        breakdown = tuple(
            ShardStats(name=name, entries=counts[0], bytes=counts[1])
            for name, counts in sorted(per_shard.items()))
        shards = SHARDS if self._generation_dir().is_dir() else 0
        return CacheStats(root=str(self.root), fingerprint=self.fingerprint,
                          entries=live, bytes=live_b, stale_entries=stale,
                          stale_bytes=stale_b, generations=len(gens),
                          shards=shards, shard_breakdown=breakdown)

    def _remove_tree(self, gen: Path) -> Tuple[int, int]:
        """Delete a generation dir recursively; count only entries."""
        removed = freed = 0
        for entry in sorted(gen.rglob("*"), reverse=True):
            if entry.is_dir():
                try:
                    entry.rmdir()
                except OSError:
                    pass
                continue
            size = entry.stat().st_size
            try:
                entry.unlink()
            except OSError:
                continue
            if entry.suffix == ".pkl" and not entry.name.startswith(".tmp-"):
                removed += 1
                freed += size
        try:
            gen.rmdir()
        except OSError:
            pass
        return removed, freed

    def gc(self) -> Tuple[int, int]:
        """Delete every entry from stale fingerprint generations.

        Returns:
            ``(files_removed, bytes_freed)``.
        """
        current = self._generation_dir().name
        removed = freed = 0
        if not self.root.is_dir():
            return 0, 0
        for gen in list(self.root.iterdir()):
            if not gen.is_dir() or gen.name == current:
                continue
            r, f = self._remove_tree(gen)
            removed += r
            freed += f
        return removed, freed

    def clear(self) -> Tuple[int, int]:
        """Delete *every* entry, current generation included."""
        removed = freed = 0
        if not self.root.is_dir():
            return 0, 0
        for gen in list(self.root.iterdir()):
            if not gen.is_dir():
                continue
            r, f = self._remove_tree(gen)
            removed += r
            freed += f
        return removed, freed
