"""On-disk result cache keyed by (experiment, params, seed, backend, code).

Replicate sweeps re-run the same (experiment, parameters, seed, backend)
points over and over while iterating on analysis code; caching their
reports makes re-runs incremental.  Correctness hinges on the key: two
runs may share a cached result only if they would execute identical code
on identical inputs, so the key digests the full task coordinates *plus*
a fingerprint of the installed ``repro`` source tree.  Any source edit
changes :func:`code_version` and silently invalidates every prior entry
(stale files are just never read again; ``clear`` removes them).

Entries are one JSON file per key, fanned into two-level subdirectories,
written atomically (temp file + ``os.replace``) so concurrent writers —
several ``repro sweep`` invocations sharing a cache directory — can never
expose a torn file.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
import time

from repro.utils.errors import InvalidParameterError

#: Process-wide memo of the source-tree fingerprint (hashing ~100 files
#: once per process is cheap; once per task is not).
_CODE_VERSION: str | None = None

#: Manual cache epoch, mixed into :func:`code_version`.  Bump it when a
#: change alters sampled *trajectories* without necessarily changing the
#: installed source seen by every consumer (editable installs, partial
#: deployments).  Epoch 2: the weighted samplers moved from cumulative-sum
#: inversion to a Walker alias table — the law is unchanged but every
#: weighted bitstream (and thus every weighted trajectory) differs.
#: Epoch 3: uniform count chains draw their start as one multinomial and
#: run table models' birthday batches as cell compositions — same law,
#: new uniform-count bitstreams.
#: Epoch 4: the agent backend runs ``mode="action"`` as the exact
#: classification law on its engine instead of playing Monte-Carlo
#: games — same law, new agent action-mode bitstreams.
CODE_EPOCH = 4


def code_version() -> str:
    """Fingerprint of the installed ``repro`` source tree (memoized).

    A short digest over every ``*.py`` file's path and contents under the
    imported package root, plus the manual :data:`CODE_EPOCH`.  Editing
    any library source (or bumping the epoch) therefore changes the
    fingerprint and invalidates all cached results.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import repro

        root = pathlib.Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        digest.update(f"epoch:{CODE_EPOCH}".encode())
        digest.update(b"\0")
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


def cache_key(
    experiment_id: str,
    params: dict,
    seed,
    backend: str | None,
    version: str | None = None,
) -> str:
    """Digest of one task's full coordinates.

    ``params`` must be JSON-serializable and ``seed`` an int / str / None
    (generator objects have no stable serialization — run those uncached).
    ``version`` defaults to the live :func:`code_version`.
    """
    if not isinstance(seed, (int, str)) and seed is not None:
        raise InvalidParameterError(
            "cacheable runs need an int/str/None seed, got "
            f"{type(seed).__name__}"
        )
    payload = {
        "experiment": str(experiment_id).upper(),
        "params": params,
        "seed": seed,
        "backend": backend,
        "code_version": code_version() if version is None else version,
    }
    try:
        canonical = json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except (TypeError, ValueError) as error:
        message = f"cache params must be strictly JSON-serializable: {error}"
        raise InvalidParameterError(message) from error
    return hashlib.sha256(canonical.encode()).hexdigest()


def experiment_cache_key(
    experiment_id: str,
    profile: str,
    seed,
    backend: str | None,
    params: dict | None = None,
) -> str:
    """The canonical cache key of one experiment run.

    The single key-construction path shared by ``run_experiment(cache=)``
    and the plan executor — entries written by either are served to both.
    ``profile`` names the parameter profile (``"fast"``, ``"full"``, or
    any profile the experiment declares).

    The key digests the *resolved* canonical parameter payload — profile
    plus every coerced value — so equivalent override spellings
    (``n="1e4"`` vs ``n=10000``, or an override equal to the profile's
    own value) collapse to one cache entry, while any override that
    changes a resolved value splits the key.  ``backend`` is normalized
    to ``None`` for experiments whose runners do not accept a
    ``backend`` parameter: they ignore the knob, so it must not split
    the cache into duplicate entries.
    """
    import inspect

    from repro.experiments.base import get_spec

    spec = get_spec(experiment_id)
    if backend is not None:
        if "backend" not in inspect.signature(spec.runner).parameters:
            backend = None
    resolved = spec.resolve(profile, params)
    return cache_key(experiment_id, resolved.canonical(), seed, backend)


def pack_entry(
    report_payload: dict,
    seconds: float | None,
    series=None,
) -> dict:
    """The on-disk entry for a report payload (shared wire format).

    ``series`` lists the observation-series files the run streamed
    (``execute(series_dir=...)``); entries without streams stay
    byte-identical to the historical two-field form.
    """
    if seconds is not None:
        seconds = round(seconds, 4)
    entry = {"report": report_payload, "seconds": seconds}
    if series:
        entry["series"] = [str(path) for path in series]
    return entry


def unpack_entry(entry: dict) -> tuple[dict, float]:
    """``(report payload, seconds)`` of an on-disk entry."""
    return entry["report"], float(entry.get("seconds") or 0.0)


class ResultCache:
    """A directory of atomically written JSON result payloads.

    Parameters
    ----------
    root:
        Cache directory; created lazily on first write.
    """

    def __init__(self, root):
        self.root = pathlib.Path(root)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """The payload stored under ``key``, or ``None``.

        Unreadable or torn entries count as misses rather than errors, so
        a corrupted cache degrades to recomputation.
        """
        try:
            with open(self._path(key), encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: dict) -> None:
        """Store ``payload`` under ``key`` atomically."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        descriptor, temp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                # Strict JSON: non-finite floats must already be encoded
                # portably (see repro.experiments.base._jsonable).
                json.dump(payload, handle, allow_nan=False)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        """Number of stored entries."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in list(self.root.glob("*/*.json")):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def _entries(self) -> list[tuple[pathlib.Path, float, int]]:
        """``(path, mtime, size)`` of every readable entry."""
        entries = []
        for path in self.root.glob("*/*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((path, stat.st_mtime, stat.st_size))
        return entries

    def stats(self) -> dict:
        """``{"entries": N, "bytes": total}`` of the on-disk store."""
        entries = self._entries()
        return {"entries": len(entries), "bytes": sum(s for _, _, s in entries)}

    def prune(
        self,
        max_age: float | None = None,
        max_size: int | None = None,
        now: float | None = None,
    ) -> dict:
        """Evict entries by age and total size; returns eviction stats.

        ``max_age`` (seconds) first drops every entry older than the
        cutoff; ``max_size`` (bytes) then drops the *oldest* remaining
        entries until the store fits.  Either knob may be ``None``
        (skip that policy).  Concurrent readers are safe: eviction is
        plain unlinking of immutable files, and a racing ``get`` of a
        just-evicted key degrades to a miss.

        Returns ``{"removed": N, "kept": M, "bytes": remaining_size}``.
        """
        if max_age is None and max_size is None:
            raise InvalidParameterError("prune needs max_age and/or max_size")
        if max_age is not None and max_age < 0:
            raise InvalidParameterError("max_age must be >= 0")
        if max_size is not None and max_size < 0:
            raise InvalidParameterError("max_size must be >= 0")
        if now is None:
            now = time.time()
        entries = sorted(self._entries(), key=lambda entry: entry[1])
        removed = 0

        def evict(path: pathlib.Path) -> bool:
            nonlocal removed
            try:
                path.unlink()
            except OSError:
                return False
            removed += 1
            return True

        kept: list[tuple[pathlib.Path, float, int]] = []
        for path, mtime, size in entries:
            if max_age is not None and now - mtime > max_age:
                if not evict(path):
                    # Unlink failed: the file is still on disk, so it
                    # stays in the accounting (and the size pass below).
                    kept.append((path, mtime, size))
            else:
                kept.append((path, mtime, size))
        if max_size is not None:
            total = sum(size for _, _, size in kept)
            survivors = []
            for path, mtime, size in kept:
                if total > max_size and evict(path):
                    total -= size
                else:
                    # Still over budget but unlink failed: the file is
                    # still on disk, so it stays in the kept accounting.
                    survivors.append((path, mtime, size))
            kept = survivors
        return {
            "removed": removed,
            "kept": len(kept),
            "bytes": sum(size for _, _, size in kept),
        }
