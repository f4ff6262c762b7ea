"""Persistent on-disk store for compiled decision-diagram structures.

The expensive part of the pipeline — ordering, coded-ROBDD build, ROMDD
conversion — depends only on the *structure key* (fault tree, component
list, truncation level, ordering strategy).  The in-memory LRU of
:class:`repro.engine.service.SweepService` already amortizes that cost
within one process; this module extends the amortization across process
boundaries: every compiled structure is serialized once to a versioned
on-disk format, and any later process (a cold service start, a pool
worker, a CLI invocation) *warm-starts* by loading the flat arrays instead
of rebuilding the diagrams.

What gets persisted is deliberately **not** the MDD node tables: since the
vectorized column assembly landed, evaluation and differentiation consume
only the linearized topological arrays
(:class:`repro.engine.batch.LinearizedDiagram`) plus the
:class:`repro.mdd.probability.LevelProfile` — a few dense integer arrays
and a page of metadata.  A restored :class:`repro.core.method.CompiledYield`
therefore evaluates and differentiates bit-for-bit like the freshly built
structure while staying a fraction of its pickled size.

Format (version 2), content-addressed under the store root by the SHA-256
digest of the structure key::

    <root>/<digest[:2]>/<digest>.json         # metadata + commit marker
    <root>/<digest[:2]>/<digest>.kids.npy     # fused edge array (j-major)
    <root>/<digest[:2]>/<digest>.seg.npy      # CSR segment offsets
    <root>/<digest[:2]>/<digest>.levels.npy   # per-slot level mapping
    <root>/<digest[:2]>/<digest>.bounds.npy   # layer boundary table

The arrays are the fused CSR schedule of :class:`repro.engine.batch` —
written **uncompressed**, one plain ``.npy`` file per array, so loaders
open them with ``numpy.load(..., mmap_mode="r")``: no decompression, no
copy, and on fork-capable platforms every worker process shares the same
page-cache pages.  A diagram whose root is a terminal writes empty
arrays.  Entries of any other version (such as v1, per-layer arrays in
one compressed ``.npz``) load as misses and are rebuilt.

Every file is written to a temporary and moved into place with
``os.replace``; the JSON file is written *last* and acts as the commit
marker, so readers never observe a half-written entry.  Unknown versions,
corrupt files and digest mismatches are treated as misses, never as
errors — the caller simply rebuilds.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as _np

from . import faults
from ..obs import trace as _obs_trace

#: Identifies the file format (checked on load).
FORMAT_NAME = "repro-structure"

#: The version entries are written with; any other version loads as a miss.
FORMAT_VERSION = 2

#: Sidecar suffixes an entry may own next to its ``.json`` marker (the
#: ``.npz`` of a v1 entry included, so removal and quarantine take it too).
_SIDECAR_SUFFIXES = (".npz", ".kids.npy", ".seg.npy", ".levels.npy", ".bounds.npy")

#: The v2 array names, in the order they are written.
_V2_ARRAYS = ("kids", "seg", "levels", "bounds")


class StoreError(ValueError):
    """Raised on invalid store operations (never on corrupt entries)."""


@dataclass
class StoreEntry:
    """One persisted structure, as listed by :meth:`StructureStore.entries`."""

    digest: str
    nbytes: int
    created: float
    truncation: int
    ordering_key: Tuple
    romdd_size: int
    node_count: int

    def summary(self) -> str:
        return "%s  M=%-3d  order=%-18s  %6d nodes  %8d bytes" % (
            self.digest[:16],
            self.truncation,
            "/".join(str(part) for part in self.ordering_key),
            self.node_count,
            self.nbytes,
        )


def digest_of(skey: Tuple) -> str:
    """Content address of a structure key (stable across processes)."""
    return hashlib.sha256(repr(skey).encode()).hexdigest()


def _file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class StructureStore:
    """Content-addressed, versioned store of compiled yield structures.

    Parameters
    ----------
    root:
        Directory holding the entries (created on the first save).
    registry:
        Optional :class:`repro.obs.metrics.MetricsRegistry`: corrupt
        entries detected (and quarantined) on the load path are counted
        into it (``fault.store_corrupt`` / ``fault.store_quarantined``).
    """

    #: Subdirectory corrupt entries are moved into by the quarantine path.
    QUARANTINE_DIR = "quarantine"

    #: Subdirectory the native kernel backend caches its compiled `.so`
    #: libraries in (:mod:`repro.engine.native`).  Not structure entries:
    #: listing and verification skip it like the quarantine.
    NATIVE_DIR = "native"

    def __init__(self, root: str, registry=None) -> None:
        if not root:
            raise StoreError("the structure store needs a directory")
        self.root = str(root)
        self.registry = registry

    def _count(self, metric: str, value: int = 1) -> None:
        if self.registry is not None:
            self.registry.inc(metric, value)

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #

    def _base(self, digest: str) -> str:
        return os.path.join(self.root, digest[:2], digest)

    def _json_path(self, digest: str) -> str:
        return self._base(digest) + ".json"

    def _sidecar(self, digest: str, suffix: str) -> str:
        return self._base(digest) + suffix

    def contains(self, skey: Tuple) -> bool:
        """Whether an entry for ``skey`` is committed (JSON marker present)."""
        return os.path.exists(self._json_path(digest_of(skey)))

    # ------------------------------------------------------------------ #
    # Save
    # ------------------------------------------------------------------ #

    def save(self, skey: Tuple, compiled) -> int:
        """Persist ``compiled`` under ``skey``; return the entry's bytes.

        Overwrites any existing entry atomically.  The structure must carry
        a level profile (every structure compiled by
        :class:`repro.core.method.YieldAnalyzer` does); its linearized
        arrays are built on demand.
        """
        if compiled.level_profile is None:
            raise StoreError("structure has no level profile; cannot persist")
        linearized = compiled.linearized()
        digest = digest_of(skey)
        with _obs_trace.span("store.save", digest=digest[:16]):
            return self._save_entry(digest, compiled, linearized)

    def _save_entry(self, digest: str, compiled, linearized) -> int:
        json_path = self._json_path(digest)
        os.makedirs(os.path.dirname(json_path), exist_ok=True)

        meta = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "digest": digest,
            "created": time.time(),
            "structure": {
                "truncation": compiled.truncation,
                "ordering_key": list(compiled.ordering.key()),
                "component_names": list(compiled.component_names),
                "count_variable": compiled.count_variable_name,
                "location_variables": list(compiled.location_variable_names),
                "variable_names": list(compiled.variable_names),
                "binary_variables": compiled.binary_variables,
                "level_profile": compiled.level_profile.as_json(),
            },
            "diagnostics": {
                "coded_robdd_size": compiled.coded_robdd_size,
                "robdd_peak": compiled.robdd_peak,
                "robdd_allocated": compiled.robdd_allocated,
                "gates_processed": compiled.gates_processed,
                "romdd_size": compiled.romdd_size,
                "build_timings": list(compiled.build_timings),
                "sift_swaps": compiled.sift_swaps,
                "reorder_seconds": compiled.reorder_seconds,
                "mdd_allocated": compiled.mdd_allocated,
            },
            "linearized": {
                "root_slot": linearized.root_slot,
                "num_slots": linearized.num_slots,
                "encoding": "npy",
            },
        }

        nbytes = 0
        schedule = linearized.fused()
        arrays = {
            "kids": _np.asarray(schedule.kids, dtype=_np.int64),
            "seg": _np.asarray(schedule.seg, dtype=_np.int64),
            "levels": _np.asarray(schedule.slot_levels, dtype=_np.int64),
            "bounds": _np.asarray(schedule.bounds, dtype=_np.int64).reshape(
                len(schedule.bounds), 6
            ),
        }
        checksums = {}
        for name in _V2_ARRAYS:
            suffix = ".%s.npy" % name
            path = self._sidecar(digest, suffix)
            array = arrays[name]

            def write_npy(handle, array=array):
                # plain uncompressed .npy so loaders can mmap it
                _np.save(handle, array, allow_pickle=False)

            self._commit(path, "wb", write_npy)
            nbytes += os.path.getsize(path)
            checksums[name] = _file_sha256(path)
        # recorded for `repro cache verify`: the hot load path stays
        # checksum-free (hashing would defeat the zero-copy mmap), the
        # verifier compares these against the bytes on disk
        meta["checksums"] = checksums
        # drop the sidecar a v1 entry of this digest left behind so the
        # committed entry stays self-consistent
        try:
            os.unlink(self._sidecar(digest, ".npz"))
        except OSError:
            pass

        self._commit(json_path, "w", lambda handle: json.dump(meta, handle))
        nbytes += os.path.getsize(json_path)
        return nbytes

    @staticmethod
    def _commit(path: str, mode: str, write) -> None:
        """Write ``path`` atomically via a uniquely named temporary.

        ``mkstemp`` keeps concurrent savers of the same digest from
        truncating each other's half-written temporary — each writer
        commits its own complete file and the last ``os.replace`` wins.
        """
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=os.path.basename(path), suffix=".tmp"
        )
        try:
            with os.fdopen(fd, mode) as handle:
                write(handle)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------ #
    # Load
    # ------------------------------------------------------------------ #

    def load(self, skey: Tuple, *, mmap: bool = False, quarantine: bool = True):
        """Return ``(restored CompiledYield, entry bytes)`` or ``None``.

        With ``mmap=True`` (what :class:`repro.engine.service.SweepService`
        and its pool workers pass) the v2 fused arrays are opened with
        ``mmap_mode="r"`` — no copies, and the OS page cache is shared
        across every process mapping the same entry.  Any corruption,
        version skew or digest mismatch loads as a miss (the structural
        validation includes an edge-range scan of the kids array) — and,
        with ``quarantine=True`` (the default), the damaged entry's files
        are moved aside into ``<root>/quarantine/`` so the rebuild that
        follows can re-commit a clean entry instead of tripping over the
        corpse again.  Detections and quarantines are counted into the
        store's registry (``fault.store_corrupt``,
        ``fault.store_quarantined``).
        """
        return self.load_digest(digest_of(skey), mmap=mmap, quarantine=quarantine)

    def load_digest(self, digest: str, *, mmap: bool = False, quarantine: bool = True):
        """Like :meth:`load`, addressed directly by digest."""
        json_path = self._json_path(digest)
        if faults.fire("store.corrupt", self.registry):
            # deterministic fault injection: damage the committed entry on
            # disk, then read it normally — the regular corruption
            # detection and quarantine path runs against real damage
            self._damage_entry(digest)
        meta = self._read_meta(json_path, digest)
        if meta is None:
            if os.path.exists(json_path):
                # a marker that exists but does not parse/match is a
                # corrupt entry, not a plain miss
                self._note_corrupt(digest, quarantine)
            return None
        with _obs_trace.span("store.load", digest=digest[:16], mmap=mmap) as span:
            try:
                linearized, payload_bytes, mmapped = self._read_linearized(
                    meta, digest, mmap
                )
                structure = self._restore(meta, linearized)
                structure.store_mmapped = mmapped
                json_bytes = os.path.getsize(json_path)
            except Exception:
                # anything — truncated arrays, version drift inside the
                # payload, a concurrent `cache clear` unlinking the files
                # mid-read — is a miss; the caller rebuilds.  A concurrent
                # removal leaves no marker and is not counted as corruption
                span.set(miss=True)
                if os.path.exists(json_path):
                    self._note_corrupt(digest, quarantine)
                return None
            span.set(nbytes=json_bytes + payload_bytes, mmapped=mmapped)
        return structure, json_bytes + payload_bytes

    def _read_meta(self, json_path: str, digest: str) -> Optional[Dict]:
        try:
            with open(json_path, "r") as handle:
                meta = json.load(handle)
        except (OSError, ValueError):
            return None
        if (
            not isinstance(meta, dict)
            or meta.get("format") != FORMAT_NAME
            or meta.get("version") != FORMAT_VERSION
            or meta.get("digest") != digest
        ):
            return None
        return meta

    def _read_linearized(self, meta: Dict, digest: str, mmap: bool):
        """Build the :class:`LinearizedDiagram` of a committed entry.

        Returns ``(diagram, payload bytes, used mmap)`` from the fused CSR
        arrays, one plain ``.npy`` file each.  Raises on any inconsistency
        (the caller turns that into a miss).
        """
        from ..engine.batch import LinearizedDiagram

        linearized_meta = meta["linearized"]
        mmap_mode = "r" if mmap else None
        arrays = {}
        payload_bytes = 0
        for name in _V2_ARRAYS:
            path = self._sidecar(digest, ".%s.npy" % name)
            arrays[name] = _np.load(path, mmap_mode=mmap_mode, allow_pickle=False)
            payload_bytes += os.path.getsize(path)
        bounds = [tuple(int(v) for v in row) for row in arrays["bounds"].reshape(-1, 6)]
        diagram = LinearizedDiagram.from_fused_arrays(
            int(linearized_meta["root_slot"]),
            int(linearized_meta["num_slots"]),
            arrays["kids"],
            arrays["seg"],
            arrays["levels"],
            bounds,
        )
        return diagram, payload_bytes, bool(mmap)

    def _restore(self, meta: Dict, linearized):
        # imported lazily: core.method pulls in the DD managers, which load
        # the engine kernel at import time (same cycle service.py avoids)
        from ..core.method import CompiledYield
        from ..mdd.probability import LevelProfile
        from ..ordering.strategies import OrderingSpec

        structure = meta["structure"]
        diagnostics = meta["diagnostics"]
        return CompiledYield(
            gfunction=None,
            grouped_order=None,
            mdd_manager=None,
            mdd_root=None,
            truncation=int(structure["truncation"]),
            coded_robdd_size=int(diagnostics["coded_robdd_size"]),
            robdd_peak=int(diagnostics["robdd_peak"]),
            robdd_allocated=int(diagnostics["robdd_allocated"]),
            gates_processed=int(diagnostics["gates_processed"]),
            romdd_size=int(diagnostics["romdd_size"]),
            ordering=OrderingSpec.from_key(tuple(structure["ordering_key"])),
            build_timings=tuple(float(t) for t in diagnostics["build_timings"]),
            sift_swaps=int(diagnostics["sift_swaps"]),
            reorder_seconds=float(diagnostics["reorder_seconds"]),
            component_names=tuple(structure["component_names"]),
            count_variable_name=structure["count_variable"],
            location_variable_names=tuple(structure["location_variables"]),
            variable_names=tuple(structure["variable_names"]),
            binary_variables=int(structure["binary_variables"]),
            level_profile=LevelProfile.from_json(structure["level_profile"]),
            mdd_allocated=int(diagnostics["mdd_allocated"]),
            linearized=linearized,
            from_store=True,
        )

    # ------------------------------------------------------------------ #
    # Corruption handling: detection, quarantine, verification
    # ------------------------------------------------------------------ #

    def _note_corrupt(self, digest: str, quarantine: bool) -> None:
        self._count("fault.store_corrupt")
        if quarantine and self.quarantine_entry(digest):
            self._count("fault.store_quarantined")

    def _entry_paths(self, digest: str) -> List[str]:
        paths = [self._json_path(digest)]
        paths.extend(self._sidecar(digest, suffix) for suffix in _SIDECAR_SUFFIXES)
        return [path for path in paths if os.path.exists(path)]

    def quarantine_entry(self, digest: str) -> int:
        """Move every file of ``digest`` into ``<root>/quarantine/``.

        Returns how many files were moved.  The moved files keep their
        names, so a human (or a forensic test) can inspect exactly what
        the loader rejected; a later save of the same digest commits a
        fresh entry in the original location.
        """
        target_dir = os.path.join(self.root, self.QUARANTINE_DIR)
        moved = 0
        for path in self._entry_paths(digest):
            try:
                os.makedirs(target_dir, exist_ok=True)
                os.replace(path, os.path.join(target_dir, os.path.basename(path)))
                moved += 1
            except OSError:
                # a concurrent loader may have quarantined (or a writer
                # replaced) the file first; whoever won, the entry is gone
                continue
        return moved

    def _damage_entry(self, digest: str) -> None:
        """Truncate one committed array of ``digest`` (fault injection only)."""
        candidates = [
            self._sidecar(digest, suffix) for suffix in _SIDECAR_SUFFIXES
        ]
        candidates = [path for path in candidates if os.path.exists(path)]
        target = max(candidates, key=os.path.getsize, default=self._json_path(digest))
        try:
            size = os.path.getsize(target)
            with open(target, "r+b") as handle:
                handle.truncate(max(1, size // 2))
        except OSError:  # pragma: no cover - nothing to damage
            pass

    def verify_entry(self, digest: str) -> Tuple[bool, List[str]]:
        """Deep-check one committed entry; return ``(ok, problems)``.

        Stronger than the load path: besides restoring the structure (which
        runs the structural validation — shapes, the edge-range scan), the
        recorded per-array SHA-256 checksums are compared against the bytes
        on disk, catching bit-flips that still parse.  Never quarantines;
        the caller decides (``repro cache verify --repair`` does).
        """
        problems: List[str] = []
        meta = self._read_meta(self._json_path(digest), digest)
        if meta is None:
            return False, ["metadata unreadable, format-skewed or digest-mismatched"]
        for name, expected in (meta.get("checksums") or {}).items():
            path = self._sidecar(digest, ".%s.npy" % name)
            try:
                actual = _file_sha256(path)
            except OSError as exc:
                problems.append("array %s unreadable: %s" % (name, exc))
                continue
            if actual != expected:
                problems.append("array %s checksum mismatch" % name)
        try:
            linearized, _, _ = self._read_linearized(meta, digest, False)
            self._restore(meta, linearized)
        except Exception as exc:
            problems.append("restore failed: %r" % exc)
        return not problems, problems

    def verify_all(self, *, repair: bool = False) -> List[Tuple[str, bool, List[str]]]:
        """Verify every committed entry; quarantine the bad with ``repair``.

        Returns one ``(digest, ok, problems)`` row per entry (corrupt
        markers that no longer list as entries are still checked).  With
        ``repair=True`` every failing entry is quarantined and counted,
        exactly like the load path would.
        """
        digests = []
        if os.path.isdir(self.root):
            for shard in sorted(os.listdir(self.root)):
                if shard in (self.QUARANTINE_DIR, self.NATIVE_DIR):
                    continue
                shard_dir = os.path.join(self.root, shard)
                if not os.path.isdir(shard_dir):
                    continue
                for name in sorted(os.listdir(shard_dir)):
                    if name.endswith(".json"):
                        digests.append(name[: -len(".json")])
        out = []
        for digest in digests:
            ok, problems = self.verify_entry(digest)
            if not ok:
                self._count("fault.store_corrupt")
                if repair and self.quarantine_entry(digest):
                    self._count("fault.store_quarantined")
            out.append((digest, ok, problems))
        return out

    # ------------------------------------------------------------------ #
    # Inspection and maintenance (the ``repro cache`` CLI)
    # ------------------------------------------------------------------ #

    def _entry_bytes(self, digest: str) -> int:
        nbytes = os.path.getsize(self._json_path(digest))
        for suffix in _SIDECAR_SUFFIXES:
            path = self._sidecar(digest, suffix)
            if os.path.exists(path):
                nbytes += os.path.getsize(path)
        return nbytes

    def entries(self) -> List[StoreEntry]:
        """List every committed entry (corrupt entries are skipped)."""
        out: List[StoreEntry] = []
        if not os.path.isdir(self.root):
            return out
        for shard in sorted(os.listdir(self.root)):
            if shard in (self.QUARANTINE_DIR, self.NATIVE_DIR):
                continue
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if not name.endswith(".json"):
                    continue
                digest = name[: -len(".json")]
                meta = self._read_meta(self._json_path(digest), digest)
                if meta is None:
                    continue
                try:
                    nbytes = self._entry_bytes(digest)
                except OSError:  # entry removed while listing
                    continue
                out.append(
                    StoreEntry(
                        digest=digest,
                        nbytes=nbytes,
                        created=float(meta.get("created", 0.0)),
                        truncation=int(meta["structure"]["truncation"]),
                        ordering_key=tuple(meta["structure"]["ordering_key"]),
                        romdd_size=int(meta["diagnostics"]["romdd_size"]),
                        node_count=int(meta["linearized"]["num_slots"]) - 2,
                    )
                )
        return out

    def meta_of(self, digest_prefix: str) -> Optional[Dict]:
        """Return the raw metadata of the entry matching the digest prefix.

        Raises :class:`StoreError` when the prefix is ambiguous.
        """
        matches = [
            entry for entry in self.entries() if entry.digest.startswith(digest_prefix)
        ]
        if not matches:
            return None
        if len(matches) > 1:
            raise StoreError(
                "digest prefix %r matches %d entries" % (digest_prefix, len(matches))
            )
        return self._read_meta(self._json_path(matches[0].digest), matches[0].digest)

    def remove(self, digest_prefix: str) -> int:
        """Remove entries matching the digest prefix; return how many."""
        removed = 0
        for entry in self.entries():
            if not entry.digest.startswith(digest_prefix):
                continue
            paths = [self._json_path(entry.digest)] + [
                self._sidecar(entry.digest, suffix) for suffix in _SIDECAR_SUFFIXES
            ]
            for path in paths:
                try:
                    os.unlink(path)
                except OSError:
                    pass
            removed += 1
        return removed

    def clear(self) -> int:
        """Remove every entry; return how many were removed."""
        return self.remove("")

    def total_bytes(self) -> int:
        """Total on-disk size of the committed entries."""
        return sum(entry.nbytes for entry in self.entries())
