"""A reduced ordered binary decision diagram (ROBDD) engine.

The paper builds its coded ROBDDs with the CMU BDD library; this module is
the from-scratch substitute.  It implements the classical Bryant-style ROBDD
with a unique table guaranteeing canonicity and an ITE-based apply with a
computed table.

Design notes
------------
* Nodes are identified by dense integer handles.  Handles ``0`` and ``1`` are
  the FALSE and TRUE terminals.  Node attributes are stored in parallel lists
  (``_level``, ``_low``, ``_high``) — the dominant cost in pure Python is
  attribute and dict access, and flat lists keep that cheap.  A manager
  bulk-loaded by the native builder holds the same columns as arrays and
  builds the lists only when an operation first needs them.
* The manager plugs into the shared kernel of :mod:`repro.engine.kernel`:
  nodes carry reference counts, dead nodes are reclaimed by
  :meth:`repro.engine.kernel.DDKernel.garbage_collect` (slots are recycled
  through a free list), and the ITE computed table is size-bounded with
  hit/miss statistics.  Nothing is collected unless the collector is invoked
  (directly or through :meth:`~repro.engine.kernel.DDKernel.checkpoint`), so
  code that never calls :meth:`~repro.engine.kernel.DDKernel.ref` keeps the
  original build-only behaviour.
* The variable order is chosen when the manager is created, but it is no
  longer frozen: :meth:`BDDManager.swap_adjacent_levels` exchanges two
  adjacent levels in place (every handle keeps denoting the same function),
  and :meth:`BDDManager.reorder` runs Rudell-style sifting on top of it (see
  :mod:`repro.engine.reorder`).
* Recursion depth of the ITE operation is bounded by the number of
  variables; builders that process deep circuits wrap their loops in
  :func:`repro.engine.kernel.recursion_guard` so chain-shaped diagrams with
  thousands of levels cannot hit the interpreter limit.  The traversal
  queries (``restrict``, ``sat_count``, ``reachable``, ``support``) are
  fully iterative.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..engine.kernel import (
    DEFAULT_CACHE_BOUND,
    DEFAULT_GC_THRESHOLD,
    FALSE,
    FREE_LEVEL,
    TERMINAL_LEVEL,
    TRUE,
    DDKernel,
)


class BDDError(ValueError):
    """Raised on invalid BDD operations (unknown variables, foreign nodes...)."""


_TERMINAL_LEVEL = TERMINAL_LEVEL


class BDDManager(DDKernel):
    """Manager holding every ROBDD node for a (dynamically reorderable) order.

    Parameters
    ----------
    variable_order:
        The variable names from the *top* of the diagrams (level 0) to the
        bottom.  All functions managed by this instance share the order.
    cache_bound:
        Maximum number of entries of the ITE computed table (``None`` for
        unbounded).
    gc_threshold:
        Node-table growth that makes :meth:`~repro.engine.kernel.DDKernel.checkpoint`
        trigger an automatic garbage collection.
    """

    _NODE_TABLES = ("_level", "_low", "_high", "_refs", "_unique")

    def __init__(
        self,
        variable_order: Sequence[str],
        *,
        cache_bound: Optional[int] = DEFAULT_CACHE_BOUND,
        gc_threshold: int = DEFAULT_GC_THRESHOLD,
    ) -> None:
        names = [str(v) for v in variable_order]
        if len(set(names)) != len(names):
            raise BDDError("variable names must be unique")
        if not names:
            raise BDDError("at least one variable is required")
        self._var_names: List[str] = names
        self._level_of: Dict[str, int] = {name: i for i, name in enumerate(names)}

        # parallel node arrays; slots 0/1 are the terminals
        self._level: List[int] = [TERMINAL_LEVEL, TERMINAL_LEVEL]
        self._low: List[int] = [FALSE, TRUE]
        self._high: List[int] = [FALSE, TRUE]

        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._init_kernel(cache_bound=cache_bound, gc_threshold=gc_threshold)
        self._ite_cache = self._new_computed_table("ite")
        self._reorder_index: Optional[List[Set[int]]] = None

    # ------------------------------------------------------------------ #
    # Kernel hooks
    # ------------------------------------------------------------------ #

    def _node_children(self, handle: int) -> Iterable[int]:
        return (self._low[handle], self._high[handle])

    def _node_key(self, handle: int) -> Hashable:
        return (self._level[handle], self._low[handle], self._high[handle])

    def _release_slot(self, handle: int) -> None:
        self._low[handle] = FALSE
        self._high[handle] = FALSE

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def variable_order(self) -> Tuple[str, ...]:
        """The variable names from level 0 (top) downwards."""
        return tuple(self._var_names)

    @property
    def num_variables(self) -> int:
        return len(self._var_names)

    @property
    def num_nodes_allocated(self) -> int:
        """Total number of nodes ever created, terminals included (monotone)."""
        return self._created

    def level_of(self, name: str) -> int:
        """Return the level (0 = top) of variable ``name``."""
        try:
            return self._level_of[name]
        except KeyError:
            raise BDDError("unknown variable %r" % (name,)) from None

    def variable_at_level(self, level: int) -> str:
        """Return the variable name at ``level``."""
        if not 0 <= level < len(self._var_names):
            raise BDDError("level %d out of range" % level)
        return self._var_names[level]

    def level(self, node: int) -> int:
        """Return the level of ``node`` (terminals have a sentinel large level)."""
        return self._level[node]

    def low(self, node: int) -> int:
        """Return the 0-successor of ``node``."""
        return self._low[node]

    def high(self, node: int) -> int:
        """Return the 1-successor of ``node``."""
        return self._high[node]

    def is_terminal(self, node: int) -> bool:
        """Return whether ``node`` is one of the two terminals."""
        return node <= TRUE

    def node_arrays(self):
        """Return ``(level, low, high)`` int64 arrays indexed by handle.

        Terminals report :data:`~repro.engine.kernel.TERMINAL_LEVEL` and
        reclaimed slots :data:`~repro.engine.kernel.FREE_LEVEL`.  A loaded
        manager whose lists are not built yet returns the loaded arrays
        themselves, which callers must not modify.
        """
        loaded = self.__dict__.get("_loaded")
        if loaded is not None:
            return loaded[:3]
        return tuple(
            np.array(column, dtype=np.int64) for column in (self._level, self._low, self._high)
        )

    # ------------------------------------------------------------------ #
    # Node construction
    # ------------------------------------------------------------------ #

    def _mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        found = self._unique.get(key)
        if found is not None:
            return found
        if self._free:
            handle = self._free.pop()
            self._level[handle] = level
            self._low[handle] = low
            self._high[handle] = high
            self._refs[handle] = 0
        else:
            handle = len(self._level)
            self._level.append(level)
            self._low.append(low)
            self._high.append(high)
            self._refs.append(0)
        if low > TRUE:
            self._refs[low] += 1
        if high > TRUE:
            self._refs[high] += 1
        self._created += 1
        self._unique[key] = handle
        return handle

    def load_diagram(self, level, low, high, root: int, *, created: int, cache_stats) -> int:
        """Bulk-load one built diagram into this empty manager; return ``root``.

        ``level``/``low``/``high`` (int arrays) describe handles ``2 ..``
        with children before parents, as the native builder exports them.
        The ``created`` count and the ITE computed-table ``cache_stats``
        (hits/misses/insertions/evictions) are set as if the nodes had been
        built here, and so are the child-edge reference counts plus one
        reference held by ``root``, when the node lists and unique table
        are built on first use (see
        :meth:`~repro.engine.kernel.DDKernel._load_lazily`) — so every
        manager operation keeps working on the result.
        """
        if len(self._level) != 2:
            raise BDDError("load_diagram needs an empty manager")
        level = np.concatenate(([TERMINAL_LEVEL, TERMINAL_LEVEL], level))
        low = np.concatenate(([FALSE, TRUE], low))
        high = np.concatenate(([FALSE, TRUE], high))
        self._load_lazily((level, low, high, root))
        self._created = int(created)
        self._live_at_last_gc = len(level)
        stats = self._ite_cache.stats
        for name in ("hits", "misses", "insertions", "evictions"):
            setattr(stats, name, int(cache_stats[name]))
        return root

    def _materialise(self, loaded):
        level, low, high, root = loaded
        refs = np.bincount(np.concatenate((low, high)), minlength=len(level))
        refs[:2] = 1  # terminals are pinned
        if root > TRUE:
            refs[root] += 1
        level, low, high = level.tolist(), low.tolist(), high.tolist()
        unique = dict(zip(zip(level[2:], low[2:], high[2:]), range(2, len(level))))
        return {"_level": level, "_low": low, "_high": high, "_refs": refs.tolist(), "_unique": unique}

    def var(self, name: str) -> int:
        """Return the BDD of the single positive literal ``name``."""
        return self._mk(self.level_of(name), FALSE, TRUE)

    def nvar(self, name: str) -> int:
        """Return the BDD of the single negative literal ``NOT name``."""
        return self._mk(self.level_of(name), TRUE, FALSE)

    def constant(self, value: bool) -> int:
        """Return the terminal for ``value``."""
        return TRUE if value else FALSE

    # ------------------------------------------------------------------ #
    # Core operation: ITE
    # ------------------------------------------------------------------ #

    def ite(self, f: int, g: int, h: int) -> int:
        """Return the BDD of ``if f then g else h``."""
        # terminal short-cuts
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if g == TRUE and h == FALSE:
            return f

        key = (f, g, h)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached

        level = min(self._level[f], self._level[g], self._level[h])

        f0, f1 = self._cofactors(f, level)
        g0, g1 = self._cofactors(g, level)
        h0, h1 = self._cofactors(h, level)

        high = self.ite(f1, g1, h1)
        low = self.ite(f0, g0, h0)
        result = self._mk(level, low, high) if low != high else low

        self._ite_cache.put(key, result)
        return result

    def _cofactors(self, node: int, level: int) -> Tuple[int, int]:
        if self._level[node] == level:
            return self._low[node], self._high[node]
        return node, node

    # ------------------------------------------------------------------ #
    # Derived boolean operations
    # ------------------------------------------------------------------ #

    def not_(self, f: int) -> int:
        """Return the complement of ``f``."""
        return self.ite(f, FALSE, TRUE)

    def and_(self, f: int, g: int) -> int:
        """Return ``f AND g``."""
        return self.ite(f, g, FALSE)

    def or_(self, f: int, g: int) -> int:
        """Return ``f OR g``."""
        return self.ite(f, TRUE, g)

    def xor_(self, f: int, g: int) -> int:
        """Return ``f XOR g``."""
        return self.ite(f, self.not_(g), g)

    def xnor_(self, f: int, g: int) -> int:
        """Return ``f XNOR g``."""
        return self.ite(f, g, self.not_(g))

    def nand_(self, f: int, g: int) -> int:
        """Return ``NOT (f AND g)``."""
        return self.not_(self.and_(f, g))

    def nor_(self, f: int, g: int) -> int:
        """Return ``NOT (f OR g)``."""
        return self.not_(self.or_(f, g))

    def and_many(self, operands: Iterable[int]) -> int:
        """Return the conjunction of all operands (TRUE for an empty list)."""
        result = TRUE
        for op in operands:
            result = self.and_(result, op)
            if result == FALSE:
                return FALSE
        return result

    def or_many(self, operands: Iterable[int]) -> int:
        """Return the disjunction of all operands (FALSE for an empty list)."""
        result = FALSE
        for op in operands:
            result = self.or_(result, op)
            if result == TRUE:
                return TRUE
        return result

    # ------------------------------------------------------------------ #
    # Dynamic reordering
    # ------------------------------------------------------------------ #

    def begin_reorder(self) -> None:
        """Enter a reordering session.

        Collects garbage (every diagram still needed must be protected with
        :meth:`~repro.engine.kernel.DDKernel.ref`) and builds the per-level
        node index that makes adjacent swaps proportional to the size of the
        two levels involved instead of the whole table.
        """
        if self._reorder_index is not None:
            raise BDDError("a reordering session is already active")
        self.garbage_collect()
        index: List[Set[int]] = [set() for _ in self._var_names]
        level = self._level
        for h in self.iter_live_handles():
            index[level[h]].add(h)
        self._reorder_index = index

    def end_reorder(self) -> None:
        """Leave the reordering session and flush the computed tables."""
        self._reorder_index = None
        for table in self._computed_tables.values():
            table.clear()

    @property
    def in_reorder(self) -> bool:
        return self._reorder_index is not None

    def nodes_at_level(self, level: int) -> int:
        """Return the number of allocated nodes labelled with ``level``."""
        if self._reorder_index is not None:
            return len(self._reorder_index[level])
        levels = self._level
        return sum(
            1 for h in self.iter_live_handles() if levels[h] == level
        )

    def swap_adjacent_levels(self, level: int) -> None:
        """Exchange the variables at ``level`` and ``level + 1`` in place.

        Every existing handle keeps denoting the same boolean function; only
        the variable order (and therefore the diagram shapes) changes.  Inside
        a reordering session, nodes of the upper level that become unreferenced
        are reclaimed eagerly so that ``num_live_nodes`` is an exact size
        metric for sifting; outside a session nothing is freed, which keeps
        unprotected user handles valid.
        """
        i = level
        j = level + 1
        if not 0 <= i < len(self._var_names) - 1:
            raise BDDError("cannot swap level %d with %d" % (i, j))
        index = self._reorder_index
        if index is not None:
            ui, vi = index[i], index[j]
        else:
            levels = self._level
            ui, vi = set(), set()
            for h in self.iter_live_handles():
                lv = levels[h]
                if lv == i:
                    ui.add(h)
                elif lv == j:
                    vi.add(h)

        levels = self._level
        low = self._low
        high = self._high
        refs = self._refs
        unique = self._unique

        for h in ui:
            del unique[(i, low[h], high[h])]
        for h in vi:
            del unique[(j, low[h], high[h])]

        new_i: Set[int] = set()
        new_j: Set[int] = set()
        dependent: List[int] = []
        for h in ui:
            if levels[low[h]] == j or levels[high[h]] == j:
                dependent.append(h)
            else:
                # independent of the lower variable: the node just moves down
                levels[h] = j
                unique[(j, low[h], high[h])] = h
                new_j.add(h)

        for h in dependent:
            f0, f1 = low[h], high[h]
            if levels[f0] == j:
                f00, f01 = low[f0], high[f0]
            else:
                f00 = f01 = f0
            if levels[f1] == j:
                f10, f11 = low[f1], high[f1]
            else:
                f10 = f11 = f1
            if f0 > TRUE:
                refs[f0] -= 1
            if f1 > TRUE:
                refs[f1] -= 1
            new_low = self._mk(j, f00, f10)
            new_high = self._mk(j, f01, f11)
            if new_low > TRUE:
                refs[new_low] += 1
                if levels[new_low] == j:
                    new_j.add(new_low)
            if new_high > TRUE:
                refs[new_high] += 1
                if levels[new_high] == j:
                    new_j.add(new_high)
            low[h] = new_low
            high[h] = new_high
            levels[h] = i
            unique[(i, new_low, new_high)] = h
            new_i.add(h)

        # old lower-level nodes still test the variable now sitting at level i
        dead: List[int] = []
        for h in vi:
            if index is not None and refs[h] == 0:
                dead.append(h)
            else:
                levels[h] = i
                unique[(i, low[h], high[h])] = h
                new_i.add(h)

        # inside a session, reclaim the nodes orphaned by the swap (cascading
        # into deeper levels) so the live count stays an exact size metric
        while dead:
            h = dead.pop()
            if refs[h] != 0 or levels[h] == FREE_LEVEL:
                continue
            lv = levels[h]
            if lv != j:
                unique.pop((lv, low[h], high[h]), None)
                index[lv].discard(h)  # type: ignore[index]
            for child in (low[h], high[h]):
                if child > TRUE:
                    refs[child] -= 1
                    if refs[child] == 0:
                        dead.append(child)
            low[h] = FALSE
            high[h] = FALSE
            levels[h] = FREE_LEVEL
            self._free.append(h)

        if index is not None:
            index[i] = new_i
            index[j] = new_j

        u_name = self._var_names[i]
        v_name = self._var_names[j]
        self._var_names[i] = v_name
        self._var_names[j] = u_name
        self._level_of[v_name] = i
        self._level_of[u_name] = j

    def reorder(self, roots: Iterable[int] = (), **kwargs):
        """Minimise the diagram sizes by sifting; returns the reorder stats.

        ``roots`` are protected for the duration (on top of anything already
        :meth:`~repro.engine.kernel.DDKernel.ref`-ed).  Keyword arguments are
        forwarded to :func:`repro.engine.reorder.sift`.
        """
        from ..engine.reorder import sift

        roots = [r for r in roots if r > TRUE]
        for r in roots:
            self.ref(r)
        try:
            return sift(self, **kwargs)
        finally:
            for r in roots:
                self.deref(r)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def evaluate(self, node: int, assignment: Mapping[str, bool]) -> bool:
        """Evaluate the function rooted at ``node`` on a complete assignment."""
        current = node
        while current > TRUE:
            name = self._var_names[self._level[current]]
            if name not in assignment:
                raise BDDError("missing value for variable %r" % (name,))
            current = self._high[current] if assignment[name] else self._low[current]
        return current == TRUE

    def restrict(self, node: int, name: str, value: bool) -> int:
        """Return the cofactor of ``node`` with variable ``name`` fixed to ``value``.

        Iterative (explicit two-phase stack), so arbitrarily deep diagrams
        cannot hit the interpreter recursion limit.
        """
        target_level = self.level_of(name)
        levels = self._level
        low = self._low
        high = self._high
        # nodes strictly below the target variable cannot contain it: identity
        cache: Dict[int, int] = {}

        def resolved(n: int) -> int:
            if n <= TRUE or levels[n] > target_level:
                return n
            return cache[n]

        stack = [(node, False)]
        while stack:
            n, expanded = stack.pop()
            if n <= TRUE or levels[n] > target_level or n in cache:
                continue
            if levels[n] == target_level:
                cache[n] = high[n] if value else low[n]
                continue
            if expanded:
                cache[n] = self._mk(levels[n], resolved(low[n]), resolved(high[n]))
            else:
                stack.append((n, True))
                stack.append((low[n], False))
                stack.append((high[n], False))
        return resolved(node)

    def support(self, node: int) -> List[str]:
        """Return the variables the function rooted at ``node`` depends on."""
        levels: Set[int] = set()
        for n in self.reachable(node):
            if n > TRUE:
                levels.add(self._level[n])
        return [self._var_names[lvl] for lvl in sorted(levels)]

    def reachable(self, node: int) -> Set[int]:
        """Return the set of node handles reachable from ``node`` (terminals included)."""
        seen: Set[int] = set()
        stack = [node]
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            if n > TRUE:
                stack.append(self._low[n])
                stack.append(self._high[n])
        return seen

    def size(self, node: int) -> int:
        """Return the number of nodes reachable from ``node`` (terminals included)."""
        return len(self.reachable(node))

    def reachable_size(self, roots: Iterable[int]) -> int:
        """Return the number of distinct nodes reachable from any of ``roots``."""
        seen: Set[int] = set()
        stack = list(roots)
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            if n > TRUE:
                stack.append(self._low[n])
                stack.append(self._high[n])
        return len(seen)

    def sat_count(self, node: int) -> int:
        """Return the number of satisfying assignments over *all* manager variables.

        Iterative post-order walk, safe on arbitrarily deep diagrams.
        """
        nvars = self.num_variables
        if node == FALSE:
            return 0
        if node == TRUE:
            return 1 << nvars
        # number of solutions over variables strictly below level(n),
        # normalized by the root's level afterwards
        cache: Dict[int, int] = {FALSE: 0, TRUE: 1}
        stack = [(node, False)]
        while stack:
            n, expanded = stack.pop()
            if n in cache:
                continue
            lo, hi = self._low[n], self._high[n]
            if expanded:
                level = self._level[n]
                lo_count = cache[lo] << (self._gap(level, lo) - 1)
                hi_count = cache[hi] << (self._gap(level, hi) - 1)
                cache[n] = lo_count + hi_count
            else:
                stack.append((n, True))
                if lo not in cache:
                    stack.append((lo, False))
                if hi not in cache:
                    stack.append((hi, False))
        return cache[node] << self._level[node]

    def _gap(self, level: int, child: int) -> int:
        child_level = self._level[child] if child > TRUE else self.num_variables
        return child_level - level

    def iter_nodes(self, node: int):
        """Yield ``(handle, level, low, high)`` for every non-terminal reachable node."""
        for n in sorted(self.reachable(node)):
            if n > TRUE:
                yield n, self._level[n], self._low[n], self._high[n]

    def clear_operation_cache(self) -> None:
        """Drop the ITE computed table (frees memory between unrelated builds)."""
        self._ite_cache.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "BDDManager(vars=%d, nodes=%d)" % (self.num_variables, self.num_nodes_allocated)
