"""Shared decision-diagram engine.

The subpackage factors everything that is common to the ROBDD and ROMDD
managers — and everything that turns them from one-shot builders into a
reusable analysis engine — out of :mod:`repro.bdd` and :mod:`repro.mdd`:

* :mod:`repro.engine.kernel` — the node-table kernel: dense handle
  allocation with a free list, reference-counted garbage collection,
  size-bounded computed tables with hit/miss statistics, and automatic
  table-resize / collection checkpoints;
* :mod:`repro.engine.batch` — the batched probability engine: linearize a
  ROMDD once into flat topological arrays and evaluate every defect model
  of a sweep in a single bottom-up pass.  Two bit-for-bit identical
  kernels: the fused numpy CSR kernel (blocked workspace accumulation
  plus model-uniform level collapse) and the native compiled backend
  (:mod:`repro.engine.native`) that every pass runs on when it loads;
* :mod:`repro.engine.native` — the C backend: the in-repo kernel source
  is compiled on demand with the system ``cc``, cached content-addressed
  under the store, loaded via ``ctypes`` and fed the FusedSchedule arrays
  zero-copy; the same library builds coded ROBDDs, converts them to
  ROMDDs and linearizes those; hosts without a working compiler run the
  fused kernel, the Python gate loop and the numpy conversion and
  linearization with identical results;
* :mod:`repro.engine.service` — the batch evaluation service: group a
  request once per (structure, truncation, ordering), build each decision
  diagram once, evaluate all of a group's defect models in one batched
  pass as a probability column, and resolve the structures of a batch
  that it does not hold on an optional per-batch thread pool
  (``workers``); it keeps compiled structures, never per-point results;
* :mod:`repro.engine.store` — the persistent structure store: compiled
  structures serialized to a versioned on-disk format (content-addressed
  per-array ``.npy`` files plus JSON metadata, memory-mappable) so cold
  processes warm-start from disk instead of rebuilding the diagrams.
  Corrupt entries are detected, quarantined and rebuilt (``verify_all`` /
  ``repro cache verify``).
"""

from .batch import BatchEvalError, FusedSchedule, LinearizedDiagram
from .kernel import (
    BoundedComputedTable,
    CacheStats,
    DDKernel,
    KernelStats,
    recursion_guard,
)
from .service import SweepPoint, SweepService
from .store import StoreEntry, StoreError, StructureStore

__all__ = [
    "BatchEvalError",
    "BoundedComputedTable",
    "CacheStats",
    "DDKernel",
    "FusedSchedule",
    "KernelStats",
    "LinearizedDiagram",
    "recursion_guard",
    "StoreEntry",
    "StoreError",
    "StructureStore",
    "SweepPoint",
    "SweepService",
]
