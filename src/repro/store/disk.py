"""Persistent disk tier: one JSON file per artifact, written atomically.

Layout::

    <root>/v1/<kind>/<fp[:2]>/<fp>.json

Each file holds an *envelope* around the artifact payload::

    {"schema": "megsim-store", "version": 1, "kind": ..., "fingerprint":
     ..., "payload_sha256": ..., "payload": {...}}

Concurrency and integrity rules:

* **Atomic writes** — payloads are serialized to a process-private
  ``*.tmp`` sibling and published with :func:`os.replace`, so a reader
  (including a concurrent :mod:`repro.parallel` worker) never observes
  a half-written artifact.  Two processes racing to write the same
  fingerprint produce identical bytes, so either replace wins.
* **Hash-on-read** — :meth:`DiskTier.read` checks the envelope's
  fixed layout (schema, version, kind and fingerprint included) and
  hashes the payload bytes exactly as stored before parsing them once.
  A corrupt or foreign file — including any file whose layout differs
  from what :meth:`DiskTier.write` produces — is deleted and reported
  as a miss, which makes the caller recompute instead of propagating
  garbage.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro.errors import StoreError
from repro.store.fingerprint import payload_digest

#: Schema tag inside every artifact envelope.
STORE_SCHEMA = "megsim-store"

#: Bumped on incompatible envelope/layout changes; older trees are
#: simply never read (and ``gc`` removes them).
STORE_VERSION = 1


def _envelope_head(kind: str, fp: str) -> str:
    """The envelope text before the payload body.

    Keys are in sorted order, so head + body + :func:`_envelope_tail` is
    exactly the sorted-key, space-free dump of the whole envelope.
    """
    return (
        f'{{"fingerprint":{json.dumps(fp)},"kind":{json.dumps(kind)},'
        f'"payload":'
    )


def _envelope_tail(digest: str) -> str:
    """The envelope text after the payload body (fixed length)."""
    return (
        f',"payload_sha256":{json.dumps(digest)},'
        f'"schema":{json.dumps(STORE_SCHEMA)},'
        f'"version":{json.dumps(STORE_VERSION)}}}'
    )


#: Length of every envelope tail: the digest is 64 hex characters.
_TAIL_LENGTH = len(_envelope_tail("0" * 64))


class DiskTier:
    """Content-addressed JSON artifacts under one root directory."""

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.corrupt_dropped = 0

    @property
    def _tree(self) -> Path:
        return self.root / f"v{STORE_VERSION}"

    def path(self, kind: str, fp: str) -> Path:
        """The artifact file for ``(kind, fp)`` (may not exist)."""
        if not kind or "/" in kind or kind.startswith("."):
            raise StoreError(f"invalid artifact kind {kind!r}")
        if len(fp) < 8 or not all(c in "0123456789abcdef" for c in fp):
            raise StoreError(f"invalid fingerprint {fp!r}")
        return self._tree / kind / fp[:2] / f"{fp}.json"

    # The pid only names the temp file; the stored payload itself is
    # pid-independent.  # megsim: ambient(process)
    def write(self, kind: str, fp: str, payload: dict) -> int:
        """Persist ``payload``; returns the number of bytes written."""
        target = self.path(kind, fp)
        target.parent.mkdir(parents=True, exist_ok=True)
        body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        # The payload is serialized once: its canonical body is spliced
        # into the envelope at the place ``sort_keys`` puts it, giving the
        # bytes a sorted-key dump of the whole envelope would.
        envelope = (
            _envelope_head(kind, fp) + body + _envelope_tail(payload_digest(body))
        )
        tmp = target.parent / f"{fp}.{os.getpid()}.tmp"
        tmp.write_text(envelope)
        os.replace(tmp, target)
        return len(envelope.encode("utf-8"))

    def read(self, kind: str, fp: str) -> tuple[dict, int] | None:
        """Return ``(payload, bytes_read)``, or ``None`` on miss/corruption.

        Any validation failure — an envelope that is not byte for byte
        the layout :meth:`write` produces for this kind and fingerprint
        (wrong schema, version, kind or fingerprint included), a payload
        hash mismatch, or a payload that is not a JSON object — deletes
        the offending file and reports a miss.  The payload bytes are
        hashed as stored and parsed once; nothing is re-serialized.
        """
        target = self.path(kind, fp)
        try:
            data = target.read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            self._drop(target)
            return None
        head = _envelope_head(kind, fp).encode("ascii")
        body = data[len(head):len(data) - _TAIL_LENGTH]
        payload = None
        if (
            len(data) >= len(head) + _TAIL_LENGTH
            and data.startswith(head)
            and data.endswith(
                _envelope_tail(hashlib.sha256(body).hexdigest()).encode("ascii")
            )
        ):
            try:
                payload = json.loads(body)
            except ValueError:
                pass
        if not isinstance(payload, dict):
            self._drop(target)
            return None
        return payload, len(data)

    def _drop(self, target: Path) -> None:
        """Delete a corrupt artifact file (best effort)."""
        self.corrupt_dropped += 1
        try:
            target.unlink()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Maintenance (the `megsim cache` subcommand).
    # ------------------------------------------------------------------

    def _artifact_files(self) -> list[Path]:
        if not self._tree.is_dir():
            return []
        return sorted(self._tree.glob("*/??/*.json"))

    def stats(self) -> dict:
        """Entry/byte totals, overall and per artifact kind."""
        per_kind: dict[str, dict[str, int]] = {}
        total_files = 0
        total_bytes = 0
        for file in self._artifact_files():
            kind = file.parent.parent.name
            size = file.stat().st_size
            row = per_kind.setdefault(kind, {"entries": 0, "bytes": 0})
            row["entries"] += 1
            row["bytes"] += size
            total_files += 1
            total_bytes += size
        return {
            "root": str(self.root),
            "entries": total_files,
            "bytes": total_bytes,
            "kinds": {kind: per_kind[kind] for kind in sorted(per_kind)},
        }

    def clear(self) -> int:
        """Delete every artifact; returns how many files were removed."""
        removed = 0
        for file in self._artifact_files():
            file.unlink()
            removed += 1
        return removed

    def gc(self, max_bytes: int | None = None) -> dict:
        """Garbage-collect the tree; returns removal statistics.

        Always removes stranded ``*.tmp`` files (a crashed writer) and
        trees of other store versions.  When ``max_bytes`` is given and
        the artifacts exceed it, the least-recently *modified* files are
        deleted until the total fits — modification time approximates
        recency of use well enough for a cache whose entries are
        recomputable.
        """
        removed_tmp = 0
        removed_versions = 0
        if self.root.is_dir():
            for stray in sorted(self.root.rglob("*.tmp")):
                stray.unlink()
                removed_tmp += 1
            for entry in sorted(self.root.iterdir()):
                if entry.is_dir() and entry.name != f"v{STORE_VERSION}":
                    removed_versions += self._remove_tree(entry)
        removed_artifacts = 0
        if max_bytes is not None:
            if max_bytes < 0:
                raise StoreError(f"max_bytes must be >= 0, got {max_bytes}")
            files = [
                (file.stat().st_mtime, file.stat().st_size, file)
                for file in self._artifact_files()
            ]
            total = sum(size for _, size, _ in files)
            for _, size, file in sorted(files, key=lambda row: (row[0], row[2])):
                if total <= max_bytes:
                    break
                file.unlink()
                total -= size
                removed_artifacts += 1
        return {
            "removed_tmp": removed_tmp,
            "removed_old_versions": removed_versions,
            "removed_artifacts": removed_artifacts,
        }

    @staticmethod
    def _remove_tree(root: Path) -> int:
        """Recursively delete ``root``; returns the number of files removed."""
        removed = 0
        for file in sorted(root.rglob("*"), reverse=True):
            if file.is_dir():
                file.rmdir()
            else:
                file.unlink()
                removed += 1
        root.rmdir()
        return removed
