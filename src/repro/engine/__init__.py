"""Shared decision-diagram engine.

The subpackage factors everything that is common to the ROBDD and ROMDD
managers — and everything that turns them from one-shot builders into a
reusable analysis engine — out of :mod:`repro.bdd` and :mod:`repro.mdd`:

* :mod:`repro.engine.kernel` — the node-table kernel: dense handle
  allocation with a free list, reference-counted garbage collection,
  size-bounded computed tables with hit/miss statistics, and automatic
  table-resize / collection checkpoints;
* :mod:`repro.engine.reorder` — dynamic variable reordering by Rudell-style
  sifting on top of the managers' ``swap_adjacent_levels`` primitive,
  including the group-preserving variant needed by the coded-ROBDD
  pipeline;
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
  pass as a probability column, resolve the structures of a batch that it
  does not hold on an optional per-batch thread pool (``workers``), and
  keep a keyed result cache of probabilities;
* :mod:`repro.engine.store` — the persistent structure store: compiled
  structures serialized to a versioned on-disk format (content-addressed
  per-array ``.npy`` files plus JSON metadata, memory-mappable) so cold
  processes warm-start from disk instead of rebuilding the diagrams.
  Corrupt entries are detected, quarantined and rebuilt (``verify_all`` /
  ``repro cache verify``);
* :mod:`repro.engine.faults` — the deterministic fault-injection harness
  (``REPRO_FAULT_PLAN`` / ``SweepService(fault_plan=...)``) that the
  store's verify-and-quarantine path is tested against.
"""

from .batch import BatchEvalError, FusedSchedule, LinearizedDiagram
from .faults import FaultPlan
from .kernel import (
    BoundedComputedTable,
    CacheStats,
    DDKernel,
    KernelStats,
    recursion_guard,
)
from .reorder import ReorderStats, sift, sift_grouped, sift_to_convergence
from .service import SweepPoint, SweepService
from .store import StoreEntry, StoreError, StructureStore

__all__ = [
    "BatchEvalError",
    "BoundedComputedTable",
    "CacheStats",
    "DDKernel",
    "FaultPlan",
    "FusedSchedule",
    "KernelStats",
    "LinearizedDiagram",
    "ReorderStats",
    "recursion_guard",
    "sift",
    "sift_grouped",
    "sift_to_convergence",
    "StoreEntry",
    "StoreError",
    "StructureStore",
    "SweepPoint",
    "SweepService",
]
