"""The shared decision-diagram kernel.

Both decision-diagram managers (:class:`repro.bdd.BDDManager` and
:class:`repro.mdd.MDDManager`) store their nodes in parallel lists indexed
by dense integer handles, with slots ``0``/``1`` reserved for the FALSE and
TRUE terminals.  This module provides the machinery that makes such a node
table a long-lived *kernel* in the CUDD tradition rather than a grow-only
arena:

* **reference counting** — every parent-to-child edge of a live node plus
  every external :meth:`DDKernel.ref` holds one reference.  A node whose
  count drops to zero is *dead*: still valid (it may be resurrected through
  a unique-table hit) but reclaimable;
* **garbage collection** — :meth:`DDKernel.garbage_collect` sweeps dead
  nodes, cascading the release of their children, returns their slots to a
  free list for reuse by the next allocation, and flushes the computed
  tables (whose entries may mention reclaimed handles);
* **table resizing** — :meth:`DDKernel.checkpoint` runs the collector
  automatically once the table has grown past an adaptive threshold; when a
  collection reclaims too little the threshold doubles, which mirrors the
  grow-the-table-instead-of-thrashing policy of the C kernels;
* **bounded computed tables** — :class:`BoundedComputedTable` is the cache
  used for ITE/apply memoization: a dict with a size bound, eviction of the
  oldest entries, and monotone hit/miss/eviction statistics;
* **lazy node tables** — a manager bulk-loaded from arrays (a native
  build, a converted ROMDD) keeps those arrays and builds its node lists
  and unique table only when an operation first needs them
  (:meth:`DDKernel._load_lazily`), since a loaded diagram is usually only
  converted or linearized and then dropped.

The kernel deliberately does not know what a node *is*; subclasses provide
three hooks (:meth:`DDKernel._node_children`, :meth:`DDKernel._node_key`,
:meth:`DDKernel._release_slot`) and call :meth:`DDKernel._init_kernel` from
their constructor.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

#: Handle of the FALSE terminal (shared by every manager).
FALSE = 0
#: Handle of the TRUE terminal (shared by every manager).
TRUE = 1

#: Level reported for the two terminals (sorts below every real level).
TERMINAL_LEVEL = 1 << 30

#: Level marking a reclaimed (free) slot; such handles must never be used.
FREE_LEVEL = -1

#: Default bound of a computed table (entries, not bytes).
DEFAULT_CACHE_BOUND = 1 << 20

#: Initial node-count growth that triggers an automatic collection.
DEFAULT_GC_THRESHOLD = 1 << 16


@contextmanager
def recursion_guard(depth: int):
    """Temporarily raise the interpreter recursion limit to at least ``depth``.

    The decision-diagram operations recurse at most once or twice per
    variable level, so deep (chain-shaped) diagrams can exceed CPython's
    default limit of 1000 frames.  Wrapping the recursive entry points in
    this guard makes the depth explicit instead of crashing; the previous
    limit is restored on exit (never lowered below what it already was).
    """
    old_limit = sys.getrecursionlimit()
    target = depth + 100
    if target > old_limit:
        sys.setrecursionlimit(target)
    try:
        yield
    finally:
        if target > old_limit:
            sys.setrecursionlimit(old_limit)


class CacheStats:
    """Monotone hit/miss/eviction counters of one computed table."""

    __slots__ = ("hits", "misses", "insertions", "evictions", "clears")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.clears = 0

    @property
    def lookups(self) -> int:
        """Total number of lookups (hits plus misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit (0.0 when there were none)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> Dict[str, int]:
        """Return a plain-dict snapshot (for reports and tests)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "clears": self.clears,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "CacheStats(hits=%d, misses=%d, evictions=%d)" % (
            self.hits,
            self.misses,
            self.evictions,
        )


class BoundedComputedTable:
    """A computed (operation) table with a size bound and eviction stats.

    The table behaves like a memoization dict.  When an insertion would push
    it past ``bound`` entries, the oldest half of the entries is evicted
    (dicts preserve insertion order, so "oldest" is well defined and the
    eviction is O(bound) amortized over at least ``bound/2`` insertions).

    Parameters
    ----------
    bound:
        Maximum number of entries; ``None`` disables eviction (unbounded).
    stats:
        Optional shared :class:`CacheStats`; a private one is created when
        omitted.
    """

    __slots__ = ("_table", "_bound", "stats")

    def __init__(
        self, bound: Optional[int] = DEFAULT_CACHE_BOUND, stats: Optional[CacheStats] = None
    ) -> None:
        if bound is not None and bound < 2:
            raise ValueError("cache bound must be at least 2 (or None)")
        self._table: Dict[Hashable, Any] = {}
        self._bound = bound
        self.stats = stats if stats is not None else CacheStats()

    @property
    def bound(self) -> Optional[int]:
        return self._bound

    def get(self, key: Hashable) -> Optional[Any]:
        """Return the cached value for ``key`` (``None`` on a miss)."""
        value = self._table.get(key)
        if value is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``key -> value``, evicting the oldest half when full."""
        table = self._table
        if self._bound is not None and len(table) >= self._bound and key not in table:
            evict = len(table) // 2
            for old in list(islice(iter(table), evict)):
                del table[old]
            self.stats.evictions += evict
        table[key] = value
        self.stats.insertions += 1

    def clear(self) -> None:
        """Drop every entry (counted in ``stats.clears``)."""
        self._table.clear()
        self.stats.clears += 1

    def __len__(self) -> int:
        return len(self._table)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "BoundedComputedTable(%d/%s entries)" % (len(self._table), self._bound)


@dataclass(frozen=True)
class KernelStats:
    """Snapshot of the kernel-level counters of a manager."""

    #: Nodes ever created (monotone; slot reuse does not decrease it).
    nodes_created: int
    #: Currently live (allocated and not reclaimed) nodes, terminals included.
    live_nodes: int
    #: Slots available for reuse.
    free_slots: int
    #: Number of garbage collections run so far.
    gc_runs: int
    #: Total nodes reclaimed by all collections.
    nodes_reclaimed: int
    #: Current automatic-collection threshold (see :meth:`DDKernel.checkpoint`).
    gc_threshold: int
    #: Computed-table statistics, keyed by table name.
    caches: Dict[str, Dict[str, int]]


class DDKernel:
    """Mixin providing refcounted GC and computed-table plumbing.

    Subclasses must:

    * call :meth:`_init_kernel` after creating the two terminal slots in
      their parallel arrays (``self._level`` must exist and have length 2)
      and a ``self._unique`` hash-cons table;
    * allocate nodes by popping ``self._free`` before growing the arrays,
      start them with reference count 0, and count one reference per child
      edge (``self._created`` tracks nodes ever made);
    * implement :meth:`_node_children`, :meth:`_node_key` and
      :meth:`_release_slot`;
    * to bulk-load, name their lists and unique table in
      :attr:`_NODE_TABLES` and implement :meth:`_materialise`.

    Reference-count convention: ``_refs[h]`` counts the parent edges of
    every *allocated* node pointing at ``h`` plus the external references
    taken with :meth:`ref`.  Terminals are pinned and never counted or
    collected.  Nodes are created with count 0 ("dead until referenced"),
    which means :meth:`garbage_collect` must only run at *safe points*:
    when every diagram the caller still needs is protected by :meth:`ref`.
    """

    #: The node lists and unique table a bulk-loaded manager builds on
    #: first use (see :meth:`_load_lazily`).
    _NODE_TABLES: Tuple[str, ...] = ()

    # ------------------------------------------------------------------ #
    # Initialisation
    # ------------------------------------------------------------------ #

    def _init_kernel(
        self,
        *,
        cache_bound: Optional[int] = DEFAULT_CACHE_BOUND,
        gc_threshold: int = DEFAULT_GC_THRESHOLD,
    ) -> None:
        if gc_threshold < 1:
            raise ValueError("gc_threshold must be positive")
        self._refs: List[int] = [1, 1]  # terminals are pinned
        self._free: List[int] = []
        self._created = 2
        self._cache_bound = cache_bound
        self._computed_tables: Dict[str, BoundedComputedTable] = {}
        self._gc_threshold = gc_threshold
        self._gc_initial_threshold = gc_threshold
        self._gc_runs = 0
        self._nodes_reclaimed = 0
        self._live_at_last_gc = 2

    def _new_computed_table(self, name: str) -> BoundedComputedTable:
        """Create (and register for flush-on-GC) a named computed table."""
        table = BoundedComputedTable(self._cache_bound)
        self._computed_tables[name] = table
        return table

    def _load_lazily(self, loaded: Any) -> None:
        """Hold a bulk-loaded node table as ``loaded`` until first use.

        Drops every attribute named in :attr:`_NODE_TABLES`; the first read
        of any of them builds them all at once with :meth:`_materialise`, so
        the lists and the unique table always describe the same nodes.
        """
        for name in self._NODE_TABLES:
            self.__dict__.pop(name, None)
        self._loaded = loaded

    def _materialise(self, loaded: Any) -> Dict[str, Any]:
        """Return the :attr:`_NODE_TABLES` attributes built from ``loaded``."""
        raise NotImplementedError

    def __getattr__(self, name: str):
        # reached only for attributes the instance lacks.  Every name other
        # than a node table still pending must raise AttributeError: pickle
        # and copy probe for optional hooks (__getstate__, __setstate__)
        # this way, on instances whose __dict__ may still be empty
        loaded = self.__dict__.get("_loaded")
        if loaded is None or name not in self._NODE_TABLES:
            if loaded is None and name in self.__dict__:
                # a concurrent first read built the tables after this
                # lookup missed them (it drops the arrays only after)
                return self.__dict__[name]
            raise AttributeError(name)
        tables = self._materialise(loaded)
        # tables first, then drop the arrays: a concurrent first read builds
        # equal tables instead of finding neither
        self.__dict__.update(tables)
        self.__dict__.pop("_loaded", None)
        return tables[name]

    # ------------------------------------------------------------------ #
    # Subclass hooks
    # ------------------------------------------------------------------ #

    def _node_children(self, handle: int) -> Iterable[int]:
        """Return the child handles of allocated node ``handle``."""
        raise NotImplementedError

    def _node_key(self, handle: int) -> Hashable:
        """Return the unique-table key of allocated node ``handle``."""
        raise NotImplementedError

    def _release_slot(self, handle: int) -> None:
        """Clear subclass storage of ``handle`` (called once when reclaimed)."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Reference counting
    # ------------------------------------------------------------------ #

    def ref(self, node: int) -> int:
        """Protect ``node`` from garbage collection; returns ``node``.

        References nest: every :meth:`ref` must be matched by one
        :meth:`deref` before the node can be reclaimed.
        """
        if node > TRUE:
            self._refs[node] += 1
        return node

    def deref(self, node: int) -> None:
        """Drop one external reference to ``node``.

        The node is not reclaimed immediately; it becomes *dead* once its
        count reaches zero and is swept by the next collection.
        """
        if node > TRUE:
            refs = self._refs
            if refs[node] <= 0:
                raise ValueError("deref of node %d without matching ref" % node)
            refs[node] -= 1

    def ref_count(self, node: int) -> int:
        """Return the current reference count of ``node`` (terminals: 1)."""
        return self._refs[node]

    # ------------------------------------------------------------------ #
    # Garbage collection
    # ------------------------------------------------------------------ #

    @property
    def num_live_nodes(self) -> int:
        """Number of allocated (not reclaimed) nodes, terminals included."""
        return len(self._refs) - len(self._free)

    @property
    def num_free_slots(self) -> int:
        return len(self._free)

    @property
    def num_nodes_created(self) -> int:
        """Total number of nodes ever created (monotone)."""
        return self._created

    def garbage_collect(self) -> int:
        """Reclaim every dead node; return the number of reclaimed slots.

        A node is dead when no allocated parent and no external
        :meth:`ref` holds it.  Reclamation cascades: releasing a parent may
        kill its children.  All computed tables are flushed because their
        entries may name reclaimed handles.

        Only call at a safe point: any diagram still needed must be
        protected with :meth:`ref` (fresh, never-referenced operation
        results count as unprotected!).
        """
        refs = self._refs
        level = self._level
        dead = [
            h
            for h in range(TRUE + 1, len(refs))
            if refs[h] == 0 and level[h] != FREE_LEVEL
        ]
        freed = 0
        unique = self._unique
        while dead:
            h = dead.pop()
            if refs[h] != 0 or level[h] == FREE_LEVEL:
                continue
            unique.pop(self._node_key(h), None)
            for child in self._node_children(h):
                if child > TRUE:
                    refs[child] -= 1
                    if refs[child] == 0:
                        dead.append(child)
            self._release_slot(h)
            level[h] = FREE_LEVEL
            refs[h] = 0
            self._free.append(h)
            freed += 1
        if freed:
            for table in self._computed_tables.values():
                table.clear()
        self._gc_runs += 1
        self._nodes_reclaimed += freed
        self._live_at_last_gc = self.num_live_nodes
        return freed

    def checkpoint(self) -> int:
        """Run the collector if the table grew enough since the last run.

        This is the *table resizing* policy: if a collection reclaims less
        than a quarter of the growth the threshold doubles — the table is
        genuinely getting bigger, so collecting more often would only
        thrash.  Returns the number of reclaimed nodes (0 when skipped).
        """
        grown = self.num_live_nodes - self._live_at_last_gc
        if grown < self._gc_threshold:
            return 0
        freed = self.garbage_collect()
        if freed * 4 < grown:
            self._gc_threshold *= 2
        elif self._gc_threshold > self._gc_initial_threshold:
            self._gc_threshold //= 2
        return freed

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def iter_live_handles(self) -> Iterable[int]:
        """Yield every allocated non-terminal handle (dead ones included)."""
        level = self._level
        for h in range(TRUE + 1, len(level)):
            if level[h] != FREE_LEVEL:
                yield h

    def cache_totals(self) -> Dict[str, int]:
        """Computed-table traffic summed over every cache (ITE, apply, ...).

        The telemetry registry publishes these as
        ``kernel.cache.<manager>.<event>`` counters; summing keeps the
        metric set stable while managers create operation caches lazily.
        """
        totals = {"hits": 0, "misses": 0, "insertions": 0, "evictions": 0}
        for table in self._computed_tables.values():
            stats = table.stats
            totals["hits"] += stats.hits
            totals["misses"] += stats.misses
            totals["insertions"] += stats.insertions
            totals["evictions"] += stats.evictions
        return totals

    def kernel_stats(self) -> KernelStats:
        """Return a :class:`KernelStats` snapshot of the counters."""
        return KernelStats(
            nodes_created=self._created,
            live_nodes=self.num_live_nodes,
            free_slots=len(self._free),
            gc_runs=self._gc_runs,
            nodes_reclaimed=self._nodes_reclaimed,
            gc_threshold=self._gc_threshold,
            caches={
                name: table.stats.as_dict()
                for name, table in self._computed_tables.items()
            },
        )
