"""Content-addressed, on-disk store of schedule outcomes.

Layout (rooted at ``results/.cache`` by default)::

    <root>/<kk>/<request-hash>/outcome.json   the stored ScheduleOutcome
    <root>/<kk>/<request-hash>/request.json   human-readable provenance

``<request-hash>`` is :meth:`ScheduleRequest.cache_key` — SHA-256 over
the canonical serialization of ``(instance, algorithm, options, seed,
budget)`` — and ``<kk>`` is its first two hex characters (256-way
sharding, so maintenance scans touch one small directory at a time
instead of one directory with every entry in it).  Because the
canonical form is byte-stable across processes
(``repro.model.canonical``), a request computed on one machine hits an
outcome stored by another.

Both files are compact JSON (sorted keys, no whitespace), which
CPython writes with its C encoder; an ``indent`` would switch it to
the pure-Python one.  Entries written indented by earlier versions
still parse, and their keys are unchanged, so they still hit.

Warm-hit contract: :meth:`ResultStore.get` parses exactly the bytes
:meth:`ResultStore.put` wrote, so a repeated request returns the stored
outcome **bit-identically** (``outcome.to_dict()`` equality, and equal
raw bytes on disk) without invoking any backend.  Writes are atomic
(temp file + ``os.replace``) so a crashed run never leaves a torn
outcome behind; a corrupt or truncated entry reads as a miss and is
re-computed rather than propagated.  A process killed *mid-write* can
orphan ``*.tmp`` files (the in-process cleanup never ran); those are
swept on store init and by :meth:`clear`, so they cannot accumulate.

Capacity: by default the store grows without bound and entries are
immutable values addressed by what produced them — delete the
directory (or call :meth:`clear`) to reclaim space.  Passing
``max_bytes`` opts into an LRU size budget: every hit refreshes the
entry's access time (``outcome.json`` mtime — the bytes never change,
so the warm-hit contract holds for unevicted entries), and a ``put``
that pushes the store over budget evicts least-recently-used entries
until it fits again.  An evicted request simply misses and is
re-computed and re-stored — eviction is a capacity decision, never a
correctness one.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from pathlib import Path
from typing import Iterator

from .backend import ScheduleOutcome, ScheduleRequest

__all__ = ["ResultStore", "DEFAULT_STORE_ROOT", "STALE_TMP_AGE"]

DEFAULT_STORE_ROOT = Path("results") / ".cache"

# A ``*.tmp`` file this much older than "now" cannot belong to a live
# in-flight write; init-time sweeps reclaim it (clear() sweeps them all).
STALE_TMP_AGE = 3600.0

_SHARD_LEN = 2


class ResultStore:
    """See module docstring.  ``hits`` / ``misses`` / ``writes`` /
    ``evictions`` count this process's traffic (observability for the
    batch report and the service's ``/metrics``)."""

    def __init__(
        self,
        root: str | Path = DEFAULT_STORE_ROOT,
        max_bytes: int | None = None,
    ) -> None:
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.evictions = 0
        # Running size estimate while a budget is active; None = not yet
        # scanned.  Eviction re-scans, so drift self-corrects.
        self._total_bytes: int | None = None
        if self.root.is_dir():
            self.sweep_stale_tmp()

    # -- addressing ---------------------------------------------------------

    def entry_dir(self, request: ScheduleRequest) -> Path:
        """Where this request's entry lives."""
        key = request.cache_key()
        return self.root / key[:_SHARD_LEN] / key

    def outcome_path(self, request: ScheduleRequest) -> Path:
        return self.entry_dir(request) / "outcome.json"

    def contains(self, request: ScheduleRequest) -> bool:
        return self.outcome_path(request).exists()

    # -- read / write -------------------------------------------------------

    def get(self, request: ScheduleRequest) -> ScheduleOutcome | None:
        """The stored outcome for ``request``, or None on a miss.

        A corrupt entry (torn write from a killed process, manual
        tampering) counts as a miss — callers recompute and overwrite.
        A hit refreshes the entry's LRU access time.
        """
        path = self.outcome_path(request)
        try:
            data = json.loads(path.read_text())
            outcome = ScheduleOutcome.from_dict(data)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        self._touch(path)
        return outcome

    def put(
        self, request: ScheduleRequest, outcome: ScheduleOutcome
    ) -> Path:
        """Store ``outcome`` under the request's content address."""
        entry = self.entry_dir(request)
        entry.mkdir(parents=True, exist_ok=True)
        self._write_atomic(entry / "outcome.json", outcome.to_dict())
        self._write_atomic(
            entry / "request.json",
            {
                "algorithm": request.algorithm,
                "instance": request.instance.name,
                "instance_hash": request.instance.content_hash(),
                "options": dict(request.options),
                "seed": request.seed,
                "budget": request.budget,
            },
        )
        self.writes += 1
        if self.max_bytes is not None:
            if self._total_bytes is None:
                self._total_bytes = self._scan_total_bytes()
            else:
                self._total_bytes += self._entry_bytes(entry)
            if self._total_bytes > self.max_bytes:
                self._evict_lru(protect=entry)
        return entry / "outcome.json"

    @staticmethod
    def _touch(path: Path) -> None:
        try:
            os.utime(path)
        except OSError:
            pass

    @staticmethod
    def _write_atomic(path: Path, payload: dict) -> None:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- eviction -----------------------------------------------------------

    def _iter_entries(self) -> Iterator[Path]:
        """Every entry directory."""
        if not self.root.is_dir():
            return
        for child in sorted(self.root.iterdir()):
            if child.is_dir() and len(child.name) == _SHARD_LEN:
                for sub in sorted(child.iterdir()):
                    if sub.is_dir():
                        yield sub

    @staticmethod
    def _entry_bytes(entry: Path) -> int:
        total = 0
        try:
            for item in entry.iterdir():
                try:
                    total += item.stat().st_size
                except OSError:
                    pass
        except OSError:
            pass
        return total

    def _scan_total_bytes(self) -> int:
        return sum(self._entry_bytes(entry) for entry in self._iter_entries())

    def total_bytes(self) -> int:
        """Current on-disk footprint of every entry (full scan)."""
        return self._scan_total_bytes()

    def _evict_lru(self, protect: Path | None = None) -> None:
        """Shrink to ``max_bytes`` by deleting least-recently-used
        entries (access time = ``outcome.json`` mtime, refreshed on
        every hit).  ``protect`` — typically the entry just written —
        is never evicted."""
        survey: list[tuple[float, int, Path]] = []
        total = 0
        for entry in self._iter_entries():
            size = self._entry_bytes(entry)
            try:
                mtime = (entry / "outcome.json").stat().st_mtime
            except OSError:
                mtime = 0.0  # torn/orphaned entry: first out
            total += size
            survey.append((mtime, size, entry))
        if total > (self.max_bytes or 0):
            for mtime, size, entry in sorted(survey, key=lambda e: e[:2]):
                if protect is not None and entry == protect:
                    continue
                shutil.rmtree(entry, ignore_errors=True)
                self._prune_shard(entry.parent)
                self.evictions += 1
                total -= size
                if total <= (self.max_bytes or 0):
                    break
        self._total_bytes = total

    @staticmethod
    def _prune_shard(shard: Path) -> None:
        try:
            shard.rmdir()  # only succeeds when empty
        except OSError:
            pass

    # -- maintenance --------------------------------------------------------

    def sweep_stale_tmp(self, max_age: float = STALE_TMP_AGE) -> int:
        """Unlink orphaned ``*.tmp`` files at least ``max_age`` seconds
        old (a killed ``_write_atomic`` leaves them; the in-process
        cleanup only runs for in-process exceptions).  Returns how many
        were reclaimed."""
        removed = 0
        now = time.time()
        if not self.root.is_dir():
            return 0
        for tmp in self.root.rglob("*.tmp"):
            try:
                if now - tmp.stat().st_mtime >= max_age:
                    tmp.unlink()
                    removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        return sum(
            1
            for entry in self._iter_entries()
            if (entry / "outcome.json").exists()
        )

    def clear(self) -> int:
        """Delete every entry (and any orphaned temp files); returns
        how many entries were removed."""
        removed = 0
        if self.root.is_dir():
            for entry in list(self._iter_entries()):
                shutil.rmtree(entry, ignore_errors=True)
                removed += 1
            self.sweep_stale_tmp(max_age=0.0)
            for child in list(self.root.iterdir()):
                if child.is_dir() and len(child.name) == _SHARD_LEN:
                    self._prune_shard(child)
        self._total_bytes = None
        return removed

    @property
    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "evictions": self.evictions,
        }
