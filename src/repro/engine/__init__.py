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
* :mod:`repro.engine.service` — the batch evaluation service: build a
  decision diagram once per (structure, truncation, ordering), evaluate all
  of its defect models in one batched pass, fan the groups whose structure
  it does not hold out over an optional ``multiprocessing`` pool (one
  whole group per job, the worker builds or loads the structure), and
  keep keyed result caches;
* :mod:`repro.engine.store` — the persistent structure store: compiled
  structures serialized to a versioned on-disk format (content-addressed
  per-array ``.npy`` files plus JSON metadata, memory-mappable) so cold
  processes and pool workers warm-start from disk instead of rebuilding
  the diagrams.  Corrupt entries are detected, quarantined and rebuilt
  (``verify_all`` / ``repro cache verify``);
* :mod:`repro.engine.supervise` — fault-tolerant pool dispatch: fixed
  per-job deadlines, a worker death watch with pool respawn, bounded
  retries with deterministic backoff, and quarantine of exhausted jobs to
  in-parent evaluation;
* :mod:`repro.engine.faults` — the deterministic fault-injection harness
  (``REPRO_FAULT_PLAN`` / ``SweepService(fault_plan=...)``) that the
  supervision layer is tested against.
"""

from .batch import (
    BatchEvalError,
    DeadlineExceeded,
    FusedSchedule,
    LinearizedDiagram,
    shard_deadline,
)
from .faults import FaultPlan, InjectedFault
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
from .supervise import Backoff, ShardJob, ShardSupervisor

__all__ = [
    "Backoff",
    "BatchEvalError",
    "BoundedComputedTable",
    "CacheStats",
    "DDKernel",
    "DeadlineExceeded",
    "FaultPlan",
    "FusedSchedule",
    "InjectedFault",
    "KernelStats",
    "LinearizedDiagram",
    "ReorderStats",
    "ShardJob",
    "ShardSupervisor",
    "recursion_guard",
    "shard_deadline",
    "sift",
    "sift_grouped",
    "sift_to_convergence",
    "StoreEntry",
    "StoreError",
    "StructureStore",
    "SweepPoint",
    "SweepService",
]
