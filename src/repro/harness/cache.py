"""On-disk result cache keyed by content hashes.

A cached sweep point is addressed by the SHA-256 of its function path,
its parameters, and a digest of every ``.py`` file in the ``repro``
package.  Any edit to the package therefore invalidates every cached
point, so a cached result can never outlive a change to the code that
produced it.  Because the key names nothing but the computation, two
experiments that declare the same point (figures 5 and 6 do) share one
entry: whichever runs first computes what both consume.

Layout on disk (default ``.ldlp-cache/``, override with ``--cache-dir``
or ``LDLP_CACHE_DIR``)::

    .ldlp-cache/
      <16-hex-digit key prefix>.json   # {"key", "point_key", "func",
                                       #  "params", "result"}

A file that cannot be read back as an entry for the requested key is
a miss; the next store overwrites it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .points import SweepPoint

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "LDLP_CACHE_DIR"

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".ldlp-cache"

#: Root of the ``repro`` package, whose sources every key digests.
_PACKAGE_ROOT = Path(__file__).resolve().parent.parent


def canonical_json(value: Any) -> str:
    """Deterministic JSON used for hashing and byte-identical diffing."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@functools.cache
def package_digest() -> str:
    """Hash every ``.py`` file of the ``repro`` package, once per process.

    Files are keyed by their path relative to the package root, so the
    digest is the same in any checkout of the same sources and changes
    whenever a file is edited, added, removed or renamed.
    """
    files = sorted(
        (path.relative_to(_PACKAGE_ROOT).as_posix(), path)
        for path in _PACKAGE_ROOT.rglob("*.py")
    )
    outer = hashlib.sha256()
    for name, path in files:
        outer.update(name.encode())
        outer.update(hashlib.sha256(path.read_bytes()).digest())
    return outer.hexdigest()


def content_key(point: SweepPoint) -> str:
    """The cache key of one sweep point."""
    payload = canonical_json(
        {"func": point.func, "params": point.params, "package": package_digest()}
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class CacheEntry:
    """One stored point result (the wrapper tells a miss from a stored
    ``None``)."""

    result: Any


class ResultCache:
    """Content-addressed store of sweep-point results.

    ``enabled=False`` turns every lookup into a miss and every store
    into a no-op (``--no-cache``).
    """

    def __init__(self, root: str | Path | None = None, enabled: bool = True) -> None:
        if root is None:
            root = os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)
        self.root = Path(root)
        self.enabled = enabled

    def _path(self, key: str) -> Path:
        return self.root / f"{key[:16]}.json"

    def lookup(self, key: str) -> CacheEntry | None:
        """Return the stored entry for ``key``, or None on a miss."""
        if not self.enabled:
            return None
        try:
            data = json.loads(self._path(key).read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError):  # absent, not UTF-8 JSON
            return None
        # A prefix collision, a stale file or a foreign shape is a miss.
        if not (isinstance(data, dict) and data.get("key") == key and "result" in data):
            return None
        return CacheEntry(result=data["result"])

    def store(self, key: str, point: SweepPoint, result: Any) -> None:
        """Persist one computed point result atomically."""
        if not self.enabled:
            return
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "key": key,
            "point_key": point.key,
            "func": point.func,
            "params": point.params,
            "result": result,
        }
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(payload, sort_keys=True, indent=1))
        tmp.replace(path)
